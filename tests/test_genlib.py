"""Generator construction, iteration, byte emission, and period census."""

import random
import re
import tracemalloc

import pytest
from oracles import crt_value

from padicforge.certify import CapExceeded
from padicforge.core import CompositeModulus, Modulus
from padicforge.expr import compile_map
from padicforge.funcalg import build_composite_generator, build_ergodic, parse_dsl, var
from padicforge.genlib import (
    GeneratorSpec,
    GeneratorState,
    NotBinaryModulus,
    NotCertified,
    emit_bytes,
    full_period_census,
    make_generator,
    spec_from_json,
    spec_to_json,
    walk,
)
from padicforge.mahler import RationalPoly


def xor_gen():
    return build_ergodic(parse_dsl("x xor (2*x+1)"), 1, 2)


class TestConstruction:
    def test_certified_build_records_certificates(self):
        spec = make_generator(parse_dsl("1+x"), Modulus(2, 3), 0)
        assert len(spec.certificates) == 1
        assert spec.certificates[0].verdict == "PROVEN"

    def test_uncertifiable_needs_explicit_flag(self):
        with pytest.raises(NotCertified):
            make_generator(parse_dsl("x xor 1"), Modulus(2, 4), 0)
        spec = make_generator(parse_dsl("x xor 1"), Modulus(2, 4), 0, unchecked=True)
        assert spec.unchecked and spec.certificates == ()

    def test_refuted_state_map_rejected(self):
        with pytest.raises(NotCertified):
            make_generator(parse_dsl("x"), Modulus(2, 4), 0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            make_generator(parse_dsl("1+x"), Modulus(2, 3), 8)
        with pytest.raises(ValueError):
            make_generator(parse_dsl("1+x"), Modulus(2, 3), -1)

    def test_output_modulus_must_divide(self):
        with pytest.raises(ValueError):
            make_generator(parse_dsl("1+x"), Modulus(2, 3), 0,
                           out_fn=var(), out_modulus=Modulus(2, 4))
        with pytest.raises(ValueError):
            make_generator(parse_dsl("1+x"), Modulus(2, 3), 0,
                           out_fn=var(), out_modulus=Modulus(3, 1))

    def test_non_bijective_output_rejected(self):
        with pytest.raises(NotCertified):
            make_generator(parse_dsl("1+x"), Modulus(2, 8), 0,
                           out_fn=parse_dsl("x and 6"), out_modulus=Modulus(2, 4))

    def test_out_fn_without_modulus_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(parse_dsl("1+x"), Modulus(2, 3), 0, out_fn=var())


class TestIteration:
    def test_successor_stream(self):
        spec = make_generator(parse_dsl("1+x"), Modulus(2, 3), 0)
        assert GeneratorState(spec).take(8) == [1, 2, 3, 4, 5, 6, 7, 0]

    def test_affine_full_period(self):
        spec = make_generator(parse_dsl("1+5*x"), Modulus(2, 4), 0)
        stream = GeneratorState(spec).take(16)
        assert sorted(stream) == list(range(16))
        assert stream[-1] == 0

    def test_xor_generator_period_256(self):
        spec = make_generator(xor_gen(), Modulus(2, 8), 3)
        stream = GeneratorState(spec).take(256)
        assert sorted(stream) == list(range(256))

    def test_output_map_applies_after_advance(self):
        spec = make_generator(parse_dsl("1+x"), Modulus(2, 8), 0,
                              out_fn=parse_dsl("x xor 15"), out_modulus=Modulus(2, 8))
        state = GeneratorState(spec)
        assert state.next() == 1 ^ 15
        assert state.next() == 2 ^ 15

    def test_determinism(self):
        spec = make_generator(xor_gen(), Modulus(2, 10), 77)
        a = GeneratorState(spec).take(64)
        b = GeneratorState(spec).take(64)
        assert a == b

    def test_polynomial_state_map(self):
        spec = make_generator(RationalPoly([1, 1, 0, 3]), Modulus(3, 3), 5)
        stream = GeneratorState(spec).take(27)
        assert sorted(stream) == list(range(27))


class TestEmitBytes:
    def test_k8_identity_is_raw_states(self):
        spec = make_generator(parse_dsl("1+x"), Modulus(2, 8), 0)
        assert emit_bytes(spec, 5) == bytes([1, 2, 3, 4, 5])

    def test_k16_two_bytes_little_endian(self):
        spec = make_generator(parse_dsl("1+257*x"), Modulus(2, 16), 0, unchecked=True)
        data = emit_bytes(spec, 2)
        # states 1, 258; 258 = 0x0102 -> little endian 02 01
        assert data == bytes([1, 0, 2, 1])

    def test_k12_truncates_to_one_byte(self):
        spec = make_generator(parse_dsl("1+x"), Modulus(2, 12), 250)
        assert emit_bytes(spec, 3) == bytes([251, 252, 253])

    def test_output_modulus_width_wins(self):
        spec = make_generator(parse_dsl("1+x"), Modulus(2, 16), 0,
                              out_fn=var(), out_modulus=Modulus(2, 8))
        assert emit_bytes(spec, 3) == bytes([1, 2, 3])

    @pytest.mark.parametrize("k", [8, 12, 16, 20, 24, 32, 40, 64, 72])
    def test_packed_words_equal_a_per_word_join(self, k):
        # 1-, 2-, 4- and 8-byte words pack through an array; masked widths
        # (12, 20) keep their low bytes, and 3-, 5- and 9-byte words join
        seed = random.Random(k).randrange(2**k)
        spec = make_generator(parse_dsl(README_MAP), Modulus(2, k), seed)
        width = k // 8
        count = 2 ** 16 + 3 if k in (16, 24) else 3000  # across two blocks
        words = GeneratorState(spec).take(count)
        want = b"".join((w % 2 ** (8 * width)).to_bytes(width, "little") for w in words)
        assert emit_bytes(spec, count) == want

    def test_rejections(self):
        with pytest.raises(NotBinaryModulus):
            emit_bytes(make_generator(parse_dsl("1+x"), Modulus(5, 4), 0), 1)
        with pytest.raises(NotBinaryModulus):
            emit_bytes(make_generator(parse_dsl("1+x"), Modulus(2, 4), 0), 1)
        with pytest.raises(NotBinaryModulus):
            emit_bytes(make_generator(
                parse_dsl("1+x"), CompositeModulus.from_int(1000), 0), 1)


class TestCensus:
    def test_ergodic_uniform(self):
        spec = make_generator(xor_gen(), Modulus(2, 9), 3)
        report = full_period_census(spec)
        assert report["period"] == 512
        assert report["uniform"]
        assert set(report["counts"].values()) == {1}

    def test_identity_period_one(self):
        spec = make_generator(parse_dsl("x"), Modulus(2, 5), 7, unchecked=True)
        report = full_period_census(spec)
        assert report["period"] == 1
        assert report["counts"] == {7: 32}
        assert not report["uniform"]

    def test_truncating_output(self):
        spec = make_generator(xor_gen(), Modulus(2, 8), 0,
                              out_fn=var(), out_modulus=Modulus(2, 4))
        report = full_period_census(spec)
        assert report["period"] == 256
        assert report["uniform"]
        assert set(report["counts"].values()) == {16}
        assert report["expected_count"] == 16

    def test_bijective_output_preserves_count_multiset(self):
        base = make_generator(xor_gen(), Modulus(2, 6), 0)
        wrapped = make_generator(xor_gen(), Modulus(2, 6), 0,
                                 out_fn=parse_dsl("x xor 9"), out_modulus=Modulus(2, 6))
        a = sorted(full_period_census(base)["counts"].values())
        b = sorted(full_period_census(wrapped)["counts"].values())
        assert a == b

    def test_cap(self):
        spec = make_generator(parse_dsl("1+x"), Modulus(2, 12), 0)
        with pytest.raises(CapExceeded):
            full_period_census(spec, cap=1000)
        spec = make_generator(parse_dsl("1+x"), Modulus(2, 20000), 0)
        with pytest.raises(CapExceeded, match=r"^2\^20000 states exceeds cap 1000$"):
            full_period_census(spec, cap=1000)


class TestCompositeModuli:
    def test_crt_lockstep_full_period(self):
        m = CompositeModulus.from_int(10000)
        u, v, w = RationalPoly([1]), RationalPoly([0, 1]), RationalPoly([-1])
        spec = make_generator(build_composite_generator(u, v, w, m), m, 0)
        assert len(spec.certificates) == 2
        report = full_period_census(spec)
        assert report["period"] == 10000
        assert report["uniform"]

    def test_composite_stream_matches_componentwise(self):
        m = CompositeModulus.from_int(72)  # 8 * 9
        fn = parse_dsl("1+x")
        spec = make_generator(fn, m, 5)
        stream = GeneratorState(spec).take(10)
        assert stream == [(5 + i) % 72 for i in range(1, 11)]

    def test_composite_certification_checks_every_factor(self):
        # 1+x+16*x*x is ergodic 2-adically but 16 = 0 mod 2 only; at p=3
        # the quadratic term survives and breaks transitivity mod 3
        m = CompositeModulus.from_int(24)
        with pytest.raises(NotCertified):
            make_generator(parse_dsl("1+x+3*x*x"), m, 0)


class TestSpecJson:
    def test_roundtrip(self):
        spec = make_generator(xor_gen(), Modulus(2, 8), 3)
        blob = spec_to_json(spec)
        again = spec_from_json(blob)
        assert GeneratorState(spec).take(32) == GeneratorState(again).take(32)

    def test_roundtrip_with_output_and_composite(self):
        m = CompositeModulus.from_int(10000)
        u, v, w = RationalPoly([1]), RationalPoly([0, 1]), RationalPoly([-1])
        spec = make_generator(build_composite_generator(u, v, w, m), m, 9,
                              out_fn=parse_dsl("x xor 5"), out_modulus=Modulus(2, 4))
        again = spec_from_json(spec_to_json(spec))
        assert GeneratorState(spec).take(40) == GeneratorState(again).take(40)

    def test_unchecked_flag_preserved(self):
        spec = make_generator(parse_dsl("x xor 1"), Modulus(2, 4), 0, unchecked=True)
        blob = spec_to_json(spec)
        assert blob["unchecked"] is True
        again = spec_from_json(blob)
        assert again.unchecked

    def test_unchecked_not_implied(self):
        blob = spec_to_json(make_generator(parse_dsl("x xor 1"), Modulus(2, 4), 0,
                                           unchecked=True))
        del blob["unchecked"]
        with pytest.raises(NotCertified):
            spec_from_json(blob)

    def test_polynomial_state_not_serializable(self):
        spec = make_generator(RationalPoly([1, 1]), Modulus(2, 4), 0)
        with pytest.raises(TypeError):
            spec_to_json(spec)


README_MAP = "1 + x + 2*delta(x xor (2*x + 1))"


def plain_states(spec, count):
    """count states after the seed, one step per word: each CRT factor is
    stepped on its own and the word is rebuilt by Garner's mixed-radix
    recombination (oracles.crt_value), not by the library's CRT basis."""
    m = spec.modulus
    factors = list(m.factors) if isinstance(m, CompositeModulus) else [m]
    moduli = [f.value for f in factors]
    steps = [compile_map(spec.state_fn, f) for f in factors]
    parts = [spec.seed % f.value for f in factors]
    out = []
    for _ in range(count):
        parts = [step(x) for step, x in zip(steps, parts)]
        out.append(crt_value(parts, moduli))
    return out


def plain_outputs(spec, states):
    if spec.out_fn is None:
        return states
    out = compile_map(spec.out_fn, spec.out_modulus)
    return [out(x % spec.out_modulus.value) for x in states]


def plain_census(spec):
    states = plain_states(spec, spec.modulus.value)
    counts = {}
    for word in plain_outputs(spec, states):
        counts[word] = counts.get(word, 0) + 1
    period = next((n + 1 for n, x in enumerate(states) if x == spec.seed), None)
    return period, counts


def stream_specs():
    m = CompositeModulus.from_int(10_000)
    u, v, w = RationalPoly([1]), RationalPoly([0, 1]), RationalPoly([-1])
    composite = build_composite_generator(u, v, w, m)
    return {
        "prime power": make_generator(parse_dsl(README_MAP), Modulus(2, 32), 1),
        "composite": make_generator(composite, m, 9),
        "composite onto 2^4": make_generator(composite, m, 9, out_fn=parse_dsl("x xor 5"),
                                             out_modulus=Modulus(2, 4)),
    }


class TestBlockWalk:
    def test_walk_is_the_states_after_x(self):
        assert walk(lambda x: (x + 3) % 8, 6, 4) == [1, 4, 7, 2]
        assert walk(lambda x: x + 1, 5, 0) == []

    @pytest.mark.parametrize("name, seed", [
        ("prime power", 61), ("composite", 62), ("composite onto 2^4", 63)])
    def test_take_split_anywhere_equals_one_plain_loop(self, name, seed):
        spec = stream_specs()[name]
        rng = random.Random(seed)
        sizes = [0, 1, 2 ** 16 - 1, 0, 2 ** 16 + 1] + [rng.randrange(300) for _ in range(12)]
        rng.shuffle(sizes)
        state, got = GeneratorState(spec), []
        for size in sizes:
            block = state.take(size)
            assert len(block) == size
            got += block
        got.append(state.next())
        assert got == plain_outputs(spec, plain_states(spec, sum(sizes) + 1))

    @pytest.mark.parametrize("spec", [
        make_generator(xor_gen(), Modulus(2, 9), 3),
        make_generator(parse_dsl("1 + 5*x"), Modulus(2, 17), 12345),
        make_generator(parse_dsl("x"), Modulus(2, 5), 7, unchecked=True),
        make_generator(parse_dsl("x*x + 1"), Modulus(2, 17), 0, unchecked=True),
        make_generator(parse_dsl("x xor 1"), Modulus(3, 4), 2, unchecked=True),
        make_generator(parse_dsl("1 + x"), CompositeModulus.from_int(72), 5),
        make_generator(build_composite_generator(
            RationalPoly([1]), RationalPoly([0, 2]), RationalPoly([-1]),
            CompositeModulus.from_int(10_000)), CompositeModulus.from_int(10_000), 9),
        make_generator(xor_gen(), Modulus(2, 8), 0, out_fn=var(), out_modulus=Modulus(2, 4)),
        make_generator(parse_dsl("x + 4"), Modulus(2, 6), 1, out_fn=parse_dsl("x xor 3"),
                       out_modulus=Modulus(2, 6), unchecked=True),
    ], ids=["ergodic", "two blocks", "identity", "never returns", "odd-p bitwise error",
            "composite", "composite inversive", "truncating output", "short cycle with output"])
    def test_census_equals_a_plain_census(self, spec):
        try:
            want = plain_census(spec)
        except Exception as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                full_period_census(spec)
            return
        report = full_period_census(spec)
        assert (report["period"], report["counts"]) == want
        assert list(report["counts"]) == list(want[1])  # first-seen order

    def test_emit_bytes_memory_is_bounded_by_the_output(self):
        spec = make_generator(parse_dsl("1 + 5*x"), Modulus(2, 32), 3)
        for words in (2 ** 18, 2 ** 20):
            tracemalloc.start()
            try:
                data = emit_bytes(spec, words)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(data) == 4 * words
            assert peak < 2 * len(data) + 10 * 2 ** 20, (words, peak)
