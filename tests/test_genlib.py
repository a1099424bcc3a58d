"""Generator construction, iteration, byte emission, and period census."""

import pytest

from padicforge.certify import CapExceeded
from padicforge.core import CompositeModulus, Modulus
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
        assert state.current == 2

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
