"""Affine complexity solver, growth profiles, and bit planes vs brute oracles."""

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from padicforge import analysis
from padicforge.analysis import (
    EmptySequence,
    NoneFoundUpTo,
    Relation,
    SequenceReport,
    affine_linear_complexity,
    bit_plane_periods,
    complexity_growth_profile,
    sequence_from_bytes,
    sequence_from_generator,
    _relation_at_order,
    _solve_howell,
)
from padicforge.certify import CapExceeded
from padicforge.core import Modulus, pack_slots
from padicforge.expr import compile_map
from padicforge.funcalg import inv, parse_dsl
from padicforge.genlib import (GeneratorState, NotBinaryModulus, NotCertified, emit_bytes,
                              make_generator)
from padicforge.mahler import MahlerSeries, RationalPoly

from corpus import random_compatible_ast
from oracles import (
    bit_plane_periods_divisors,
    first_violation_scan,
    prefix_bound_fixed_windows,
    prefix_lower_bound_scan,
    relation_holds_at,
    solve_mod_pk_fullscan,
    value_table,
)


README_MAP = "1 + x + 2*delta(x xor (2*x + 1))"
SQUARES_MASK_MAP = "7 + x + 2*delta((x*x) xor ((x + 32) and x))"
AND_MAP = "3 + x + 2*delta(x and (4*x + 3))"


def orbit_of_zero(step, m: Modulus):
    seq, x = [], 0
    for _ in range(m.value):
        seq.append(x)
        x = step(x) % m.value
    return seq


def exception_fn(x):
    return x - 3 if x % 2 == 0 else x + 5


def exception_series(degree=14):
    coeffs = [-3, 9] + [(-1) ** (j + 1) * 2 ** (j + 2) for j in range(2, degree + 1)]
    return MahlerSeries(tuple(Fraction(c) for c in coeffs), 2)


def valuation_heavy_entry(rng, p, k):
    """p^e * u with u a unit mod p and e uniform in 0..k (e = k gives 0 mod p^k)."""
    unit = rng.randrange(p ** k // p) * p + rng.randrange(1, p)
    return p ** rng.randint(0, k) * unit


def coset_of(part, gens, m):
    """Every vector part + (Z-span of gens), reduced mod m."""
    span = {(0,) * len(part)}
    frontier = [(0,) * len(part)]
    while frontier:
        base = frontier.pop()
        for g in gens:
            step = tuple((u + v) % m for u, v in zip(base, g))
            if step not in span:
                span.add(step)
                frontier.append(step)
    return {tuple((u + v) % m for u, v in zip(part, s)) for s in span}


def solver_corpus(seed, count):
    """Seeded systems for p in {2,3,5,7}, k <= 6, up to 12 x 8.

    Half the matrices draw entries as p^e * u; some get an all-zero
    trailing block, some repeat earlier rows times a scalar so the block
    left after elimination is zero, and half the right-hand sides are
    A z for a random z so that solvable systems are common.
    """
    rng = random.Random(seed)
    for _ in range(count):
        p, k = rng.choice((2, 3, 5, 7)), rng.randint(1, 6)
        m = p ** k
        nr, nc = rng.randint(1, 12), rng.randint(1, 8)
        if rng.random() < 0.5:
            a = [[valuation_heavy_entry(rng, p, k) for _ in range(nc)] for _ in range(nr)]
        else:
            a = [[rng.randrange(m) for _ in range(nc)] for _ in range(nr)]
        shape = rng.random()
        if shape < 0.2:
            r0, c0 = rng.randrange(nr), rng.randrange(nc)
            for i in range(r0, nr):
                for j in range(c0, nc):
                    a[i][j] = 0
        elif shape < 0.4 and nr > 1:
            for i in range(rng.randrange(1, nr), nr):
                src, q = rng.randrange(i), p ** rng.randint(0, k - 1)
                a[i] = [q * v for v in a[src]]
        if rng.random() < 0.5:
            z = [rng.randrange(m) for _ in range(nc)]
            b = [sum(x * y for x, y in zip(row, z)) for row in a]
        else:
            b = [valuation_heavy_entry(rng, p, k) for _ in range(nr)]
        yield a, b, p, k


def brute_least_order(seq, m, r_max, unit_only):
    """Exhaustive search over all coefficient vectors; tiny moduli only."""
    n = len(seq)
    for r in range(1, r_max + 1):
        for vec in itertools.product(range(m.value), repeat=r + 1):
            if unit_only and not any(c % m.p for c in vec[:r]):
                continue
            rel = Relation(r, vec[:r], vec[r])
            if all(relation_holds_at(rel, seq, m, i) for i in range(n)):
                return r
    return None


class TestSolver:
    def test_coset_matches_exhaustive_enumeration(self):
        rng = random.Random(11)
        for p, k in ((2, 2), (2, 3), (3, 2)):
            m = p ** k
            for _ in range(40):
                nr, nc = rng.randint(1, 4), rng.randint(1, 4)
                a = [[rng.randrange(m) for _ in range(nc)] for _ in range(nr)]
                b = [rng.randrange(m) for _ in range(nr)]
                brute = {
                    z for z in itertools.product(range(m), repeat=nc)
                    if all(sum(a[i][j] * z[j] for j in range(nc)) % m == b[i]
                           for i in range(nr))
                }
                got = _solve_howell(a, b, m)
                if not brute:
                    assert got is None
                    continue
                part, gens = got
                span = {(0,) * nc}
                frontier = [(0,) * nc]
                while frontier:
                    base = frontier.pop()
                    for g in gens:
                        step = tuple((u + v) % m for u, v in zip(base, g))
                        if step not in span:
                            span.add(step)
                            frontier.append(step)
                coset = {tuple((u + v) % m for u, v in zip(part, s)) for s in span}
                assert coset == brute

    def test_coset_matches_exhaustive_enumeration_non_unit_pivots(self):
        # p^e * u entries make basis rows that lead with p^e, e >= 1, and
        # the p^(k-e) multiples they add common; uniform entries almost
        # always give units
        rng = random.Random(23)
        non_unit_first_pivot = 0
        for p, k, dim in ((2, 2, 4), (2, 3, 4), (3, 2, 4), (5, 1, 4), (5, 2, 3)):
            m = p ** k
            for _ in range(40):
                nr, nc = rng.randint(1, dim), rng.randint(1, dim)
                a = [[valuation_heavy_entry(rng, p, k) for _ in range(nc)] for _ in range(nr)]
                b = [valuation_heavy_entry(rng, p, k) for _ in range(nr)]
                reduced = [v % m for row in a for v in row]
                if any(reduced) and not any(v % p for v in reduced):
                    non_unit_first_pivot += 1
                brute = {
                    z for z in itertools.product(range(m), repeat=nc)
                    if all((sum(a[i][j] * z[j] for j in range(nc)) - b[i]) % m == 0
                           for i in range(nr))
                }
                got = _solve_howell(a, b, m)
                if not brute:
                    assert got is None
                    continue
                part, gens = got
                assert coset_of(part, gens, m) == brute
        assert non_unit_first_pivot >= 20

    def test_solvability_matches_full_scan_oracle(self):
        # the same systems are solvable; the particular solution solves the
        # system and every kernel generator solves the homogeneous one
        solvable = unsolvable = 0
        for a, b, p, k in solver_corpus(seed=4, count=3000):
            m = p ** k
            want = solve_mod_pk_fullscan(a, b, p, k)
            got = _solve_howell(a, b, m)
            assert (got is None) == (want is None), (a, b, p, k)
            if got is None:
                unsolvable += 1
                continue
            solvable += 1
            part, gens = got
            for z, target in [(part, b)] + [(g, [0] * len(b)) for g in gens]:
                assert all((sum(u * v for u, v in zip(row, z)) - t) % m == 0
                           for row, t in zip(a, target)), (a, b, p, k, z)
        assert solvable >= 1000 and unsolvable >= 500

    def test_non_square_and_zero_pivot_shapes(self):
        # underdetermined: one row, three unknowns mod 8
        part, gens = _solve_howell([[2, 4, 1]], [5], 8)
        assert (2 * part[0] + 4 * part[1] + part[2]) % 8 == 5
        assert len(gens) >= 2
        # inconsistent zero row
        assert _solve_howell([[0, 0], [1, 1]], [3, 0], 8) is None
        # divisibility failure: 2z = 1 mod 4
        assert _solve_howell([[2]], [1], 4) is None
        assert _solve_howell([[2]], [2], 4) is not None


class TestBruteAgreement:
    def test_orders_match_exhaustive_search(self):
        cases = []
        for m in (Modulus(2, 2), Modulus(2, 3), Modulus(3, 2)):
            step = lambda x: 1 + x
            cases.append((orbit_of_zero(step, m), m))
            cases.append(([1, 3, 2, 0][: m.value], m))
            cases.append(([x % m.value for x in (1, 5, 2, 7, 3, 0)], m))
            cases.append(([2] * 5, m))
        for seq, m in cases:
            for unit_only in (False, True):
                want = brute_least_order(seq, m, 3, unit_only)
                rep = affine_linear_complexity(seq, m, r_max=3)
                got = rep.unit_complexity if unit_only else rep.linear_complexity
                if want is None:
                    assert isinstance(got, NoneFoundUpTo) and got.r_max == 3
                else:
                    assert got == want

    def test_quadratic_orbit_mod_27(self):
        m = Modulus(3, 3)
        seq = orbit_of_zero(lambda x: 1 + x + 9 * x * x, m)
        want = brute_least_order(seq, m, 2, unit_only=True)
        rep = affine_linear_complexity(seq, m, r_max=8)
        assert rep.unit_complexity == want == 2


class TestAffineComplexity:
    def test_linear_generator_order_one_exact(self):
        # full-period affine map: the order-1 relation is pinned uniquely
        rng = random.Random(7)
        for _ in range(20):
            k = rng.randint(3, 10)
            m = Modulus(2, k)
            a = rng.randrange(1, m.value, 2)
            b = rng.randrange(1, m.value, 4)
            seq = orbit_of_zero(lambda x: a + b * x, m)
            rep = affine_linear_complexity(seq, m)
            assert rep.linear_complexity == 1
            assert rep.relation.coeffs == (b,) and rep.relation.constant == a
            assert rep.census_ok and rep.period == m.value

    def test_linear_generator_order_two_coefficients(self):
        # at order 2 the solution coset contains x_{n+2} = (1+b)x_{n+1} - b x_n
        rng = random.Random(19)
        for _ in range(20):
            k = rng.randint(3, 10)
            m = Modulus(2, k)
            a = rng.randrange(1, m.value, 2)
            b = rng.randrange(1, m.value, 4)
            seq = orbit_of_zero(lambda x: a + b * x, m)
            canonical = Relation(2, (-b % m.value, (1 + b) % m.value), 0)
            assert canonical.verify(seq, m)
            found = _relation_at_order(seq, m, 2, unit_only=True)
            assert found is not None and found.verify(seq, m)

    def test_exception_function_relation(self):
        # two applications add 2 whatever the parity; minimal below k=5 is
        # affine because 8*(x mod 2) collapses to 8x there
        shift_two = Relation(2, (1, 0), 2)
        for k in range(2, 11):
            m = Modulus(2, k)
            seq = orbit_of_zero(exception_fn, m)
            assert shift_two.verify(seq, m)
            rep = affine_linear_complexity(seq, m)
            assert rep.linear_complexity == (2 if k >= 5 else 1)
            assert rep.unit_complexity == rep.linear_complexity
            assert rep.relation.verify(seq, m)

    def test_constant_sequence(self):
        m = Modulus(2, 4)
        rep = affine_linear_complexity([5] * 12, m)
        assert rep.linear_complexity == 1 and rep.unit_complexity == 1
        assert rep.relation.verify([5] * 12, m)
        assert not rep.census_ok
        assert rep.bit_periods == (1, 1, 1, 1)

    def test_none_found_up_to(self):
        m = Modulus(2, 6)
        seq = orbit_of_zero(lambda x: 1 + x + 4 * x * x, m)
        rep = affine_linear_complexity(seq, m, r_max=1)
        assert rep.linear_complexity == NoneFoundUpTo(1)
        assert rep.relation is None and rep.unit_relation is None

    def test_unit_scan_skipped_after_any_miss(self, monkeypatch):
        # a UNIT relation is an ANY relation, so an ANY miss up to r_max is
        # a UNIT miss too: the orders from the prefix bound on are scanned
        # once, not twice
        cases = []
        for k, r_max in ((4, 1), (6, 1)):
            m = Modulus(2, k)
            cases.append((orbit_of_zero(lambda x: 1 + x + 4 * x * x, m), m, r_max))
        shift = parse_dsl("1 + x + 2*delta(x xor (2*x + 1))")
        for k, r_max in ((5, 2), (8, 4)):
            m = Modulus(2, k)
            cases.append((analysis.orbit(compile_map(shift, m), m), m, r_max))
        # the first six differences are all 1, so the prefix leaves order 1
        # open, but the full period has no relation up to order 2
        planted = [0, 1, 2, 3, 4, 5, 6, 3, 5, 1]
        cases.append((planted, Modulus(2, 3), 2))
        assert analysis._prefix_lower_bound(planted, Modulus(2, 3), 2) == 1
        real = analysis._relation_at_order
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "_relation_at_order", counting)
        for seq, m, r_max in cases:
            calls.clear()
            bound = analysis._prefix_lower_bound(seq, m, r_max)
            rep = affine_linear_complexity(seq, m, r_max=r_max)
            assert rep.linear_complexity == NoneFoundUpTo(r_max)
            assert calls == list(range(bound, r_max + 1))
            assert rep.unit_complexity == NoneFoundUpTo(r_max)
            assert rep.unit_relation is None
            if m.value ** (r_max + 1) <= 1 << 15:
                assert brute_least_order(seq, m, r_max, unit_only=True) is None

    def test_reduction_consistency(self):
        # complexity may only grow with precision
        prev_any = prev_unit = 0
        for k in range(3, 9):
            m = Modulus(2, k)
            seq = orbit_of_zero(lambda x: 1 + x + 4 * x * x, m)
            rep = affine_linear_complexity(seq, m)
            assert rep.linear_complexity >= prev_any
            assert rep.unit_complexity >= prev_unit
            prev_any, prev_unit = rep.linear_complexity, rep.unit_complexity

    def test_order_padding_monotonicity(self):
        m = Modulus(2, 7)
        seq = orbit_of_zero(exception_fn, m)
        for r in (2, 3, 5):
            rel = _relation_at_order(seq, m, r, unit_only=True)
            assert rel is not None and rel.verify(seq, m)

    def test_input_validation(self):
        with pytest.raises(EmptySequence):
            affine_linear_complexity([], Modulus(2, 3))
        with pytest.raises(ValueError, match="element 9 is not a residue mod 8"):
            affine_linear_complexity([1, 9, -1, 12], Modulus(2, 3))

    def test_r_max_capped(self):
        m = Modulus(2, 6)
        seq = orbit_of_zero(lambda x: 1 + 5 * x, m)
        assert analysis.R_MAX_CAP == 64
        assert affine_linear_complexity(seq, m, r_max=64).linear_complexity == 1
        with pytest.raises(CapExceeded, match="r_max 65 exceeds the cap 64"):
            affine_linear_complexity(seq, m, r_max=65)
        with pytest.raises(CapExceeded, match="r_max 65 exceeds the cap 64"):
            complexity_growth_profile(RationalPoly([1, 5]), 2, range(1, 4), r_max=65)


def planted_recurrence(rng, m, r):
    """One full period of x_{n+r} = c + sum c_j x_{n+j} with c_0 a unit.

    A unit c_0 makes the step on r-tuples a bijection, so the state
    sequence is purely periodic and the relation holds cyclically.
    """
    coeffs = [rng.randrange(1, m.p) + m.p * rng.randrange(m.value // m.p)]
    coeffs += [rng.randrange(m.value) for _ in range(r - 1)]
    const = rng.randrange(m.value)
    start = tuple(rng.randrange(m.value) for _ in range(r))
    state, seq = start, []
    while True:
        seq.append(state[0])
        nxt = (const + sum(c * x for c, x in zip(coeffs, state))) % m.value
        state = state[1:] + (nxt,)
        if state == start:
            return seq


def bound_corpus(seed, per_kind):
    """(kind, seq, m, r_max) at p = 2, 3, 5 for the prefix-bound test."""
    rng = random.Random(seed)
    small = {2: (1, 2, 3, 4, 5), 3: (1, 2, 3), 5: (1, 2)}
    for i in range(per_kind):
        p = (2, 3, 5)[i % 3]
        m = Modulus(p, rng.choice(small[p]))
        fn = random_compatible_ast(rng, p, rng.randint(1, 3))
        step = compile_map(fn, m)
        yield "orbit", analysis.orbit(step, m, rng.randrange(m.value)), m, rng.randint(1, 5)
        r = rng.randint(1, 3 if m.value <= 9 else 2)
        yield "planted", planted_recurrence(rng, m, r), m, rng.randint(r, r + 2)
        yield ("random", [rng.randrange(m.value) for _ in range(rng.randint(1, 40))],
               m, rng.randint(1, 5))
        yield "constant", [rng.randrange(m.value)] * rng.randint(1, 30), m, rng.randint(1, 5)
        r_max = rng.randint(2, 6)
        yield ("short", [rng.randrange(m.value) for _ in range(rng.randint(1, 2 * r_max + 1))],
               m, r_max)


class TestPrefixBound:
    def test_bound_never_exceeds_least_order(self):
        seen = {}
        raised = ruled_out = 0
        for kind, seq, m, r_max in bound_corpus(seed=31, per_kind=64):
            seen[(kind, m.p)] = seen.get((kind, m.p), 0) + 1
            bound = analysis._prefix_lower_bound(seq, m, r_max)
            assert prefix_lower_bound_scan(seq, m, r_max) <= bound <= r_max + 1
            if m.value ** (r_max + 1) <= 4096:
                want = brute_least_order(seq, m, r_max, unit_only=False)
            else:
                rel = analysis._least_order(seq, m, r_max, unit_only=False)
                want = rel.order if rel else None
            if want is not None:
                assert bound <= want, (kind, seq, m, r_max, bound, want)
            if kind == "planted":
                assert want is not None
            raised += bound > 1
            ruled_out += bound > r_max
        assert sum(seen.values()) >= 300
        assert set(seen) == {(kind, p) for kind in
                             ("orbit", "planted", "random", "constant", "short")
                             for p in (2, 3, 5)}
        assert raised >= 50 and ruled_out >= 20

    def test_reports_identical_without_bound(self, monkeypatch):
        cases = [(seq, m, r_max) for _, seq, m, r_max in bound_corpus(seed=37, per_kind=12)]
        shift = parse_dsl("1 + x + 2*delta(x xor (2*x + 1))")
        for k, r_max in ((5, 2), (7, 8), (8, 16)):
            m = Modulus(2, k)
            cases.append((analysis.orbit(compile_map(shift, m), m), m, r_max))
        for k in (4, 6, 8):
            m = Modulus(2, k)
            cases.append((orbit_of_zero(lambda x: 1 + x + 4 * x * x, m), m, 4))
            cases.append((orbit_of_zero(exception_fn, m), m, 3))
        with_bound = [affine_linear_complexity(s, m, r).to_json() for s, m, r in cases]
        profile = complexity_growth_profile(RationalPoly([1, 1, 4]), 2, range(3, 9), r_max=2)
        monkeypatch.setattr(analysis, "_prefix_lower_bound", lambda seq, m, r_max: 1)
        assert [affine_linear_complexity(s, m, r).to_json() for s, m, r in cases] == with_bound
        assert complexity_growth_profile(RationalPoly([1, 1, 4]), 2, range(3, 9),
                                         r_max=2) == profile


def planes_buffer(rng, k, length):
    """length words mod 2^k, each bit plane repeating a random pattern
    whose length divides length, so the least periods vary by plane."""
    divisors = [d for d in range(1, length + 1) if length % d == 0]
    seq = [0] * length
    for j in range(k):
        pattern = [rng.randrange(2) for _ in range(rng.choice(divisors))]
        for n in range(length):
            seq[n] |= pattern[n % len(pattern)] << j
    return seq


def kernel_corpus(seed, count):
    """(kind, seq, m, r_max): orbits of corpus maps from random starts,
    random, constant and non-full-period buffers, buffers shorter than
    2*r_max + 2, and p = 2 buffers with structured bit planes at k = 1,
    9 and 70.  The kinds and primes take turns."""
    rng = random.Random(seed)
    ks = {2: (1, 2, 3, 5, 7, 9), 3: (1, 2, 3, 4), 5: (1, 2, 3)}
    kinds = ("orbit", "random", "constant", "partial", "short", "planes")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        p = 2 if kind == "planes" else (2, 3, 5)[i // len(kinds) % 3]
        m = Modulus(p, rng.choice((1, 9, 70) if kind == "planes" else ks[p]))
        r_max = rng.choice((1, 2, 3, 4, 6, 8, 16))
        if kind in ("orbit", "partial"):
            step = compile_map(random_compatible_ast(rng, p, rng.randint(1, 3)), m)
            seq = analysis.orbit(step, m, rng.randrange(m.value))
            if kind == "partial":
                seq = seq[:rng.randint(1, len(seq))]
        elif kind == "random":
            seq = [rng.randrange(m.value) for _ in range(rng.randint(1, 80))]
        elif kind == "constant":
            seq = [rng.randrange(m.value)] * rng.randint(1, 40)
        elif kind == "short":
            seq = [rng.randrange(m.value) for _ in range(rng.randint(1, 2 * r_max + 1))]
        else:
            seq = planes_buffer(rng, m.k, rng.randint(1, 96))
        yield kind, seq, m, r_max


def relations_to_check(rng, seq, m):
    """Random relations, zero coefficients included, and relations solved
    on the first few windows, which hold there and mostly fail later."""
    period = len(seq)
    out = []
    for r in (1, 2, 3):
        coeffs = tuple(rng.choice((0, rng.randrange(m.value))) for _ in range(r))
        out.append(Relation(r, coeffs, rng.randrange(m.value)))
        w = rng.randint(1, period)
        rows = [[seq[(n + j) % period] for j in range(r)] + [1] for n in range(w)]
        rhs = [seq[(n + r) % period] for n in range(w)]
        solved = solve_mod_pk_fullscan(rows, rhs, m.p, m.k)
        if solved is not None:
            z = solved[0]
            out.append(Relation(r, tuple(z[:r]), z[r]))
    return out


class TestKernelsAgainstOracles:
    def test_kernels_match_per_index_oracles(self, monkeypatch):
        rng = random.Random(43)
        cases = list(kernel_corpus(seed=41, count=360))
        seen, plane_ks, violations = set(), set(), set()
        raised = 0
        for kind, seq, m, r_max in cases:
            seen.add((kind, m.p))
            bound = analysis._prefix_lower_bound(seq, m, r_max)
            assert bound == prefix_bound_fixed_windows(seq, m, r_max), (kind, seq, m, r_max)
            # the shorter per-order windows of the earlier bound are a subset
            old = prefix_lower_bound_scan(seq, m, r_max)
            assert bound >= old, (kind, seq, m, r_max)
            raised += bound > old
            if m.p == 2:
                plane_ks.add(m.k)
                assert bit_plane_periods(seq, m) == bit_plane_periods_divisors(seq, m.k)
            for rel in relations_to_check(rng, seq, m):
                want = first_violation_scan(rel, seq, m)
                assert rel.first_violation(seq, m) == want, (rel, seq, m)
                assert rel.verify(seq, m) == (want is None)
                violations.add(want if want is None else min(want, 3))
        assert len(cases) >= 300
        assert seen == {(kind, p) for kind in ("orbit", "random", "constant", "partial", "short")
                        for p in (2, 3, 5)} | {("planes", 2)}
        assert {1, 9, 70} <= plane_ks
        assert violations == {None, 0, 1, 2, 3}
        assert raised >= 1
        reports = [affine_linear_complexity(s, m, r).to_json() for _, s, m, r in cases]
        monkeypatch.setattr(analysis, "_prefix_lower_bound", prefix_lower_bound_scan)
        monkeypatch.setattr(Relation, "first_violation", first_violation_scan)
        monkeypatch.setattr(analysis, "bit_plane_periods",
                            lambda seq, m: bit_plane_periods_divisors(seq, m.k))
        assert [affine_linear_complexity(s, m, r).to_json() for _, s, m, r in cases] == reports

    def test_prefix_bound_makes_no_solves(self, monkeypatch):
        # no order up to 16 survives the prefix on this shift orbit; the
        # bound says so from one Howell pass, without the solver
        m = Modulus(2, 8)
        seq = analysis.orbit(compile_map(parse_dsl(README_MAP), m), m)
        calls = []
        monkeypatch.setattr(analysis, "_solve_howell", lambda *args: calls.append(args))
        for r_max in (1, 2, 3, 5, 8, 13, 16):
            assert analysis._prefix_lower_bound(seq, m, r_max) == r_max + 1
            rep = affine_linear_complexity(seq, m, r_max)
            assert rep.linear_complexity == NoneFoundUpTo(r_max)
        assert calls == []

    @pytest.mark.parametrize("source, k", [(README_MAP, 8), (README_MAP, 9),
                                           (SQUARES_MASK_MAP, 8), (AND_MAP, 8)])
    def test_shift_orbits_closed_from_every_start(self, source, k):
        m = Modulus(2, k)
        step = compile_map(parse_dsl(source), m)
        bounds = {analysis._prefix_lower_bound(analysis.orbit(step, m, x0), m, 16)
                  for x0 in range(m.value)}
        assert bounds == {17}


def howell_corpus(seed, count, sizes=None):
    """(columns, b, p, k): up to 9 x 6 systems at p = 2, 3 and 5, k <= 5, or
    at the (p, k) of sizes in turn, whose columns are random (mostly holding
    units), zero divisors (multiples of p), all zero, or scaled copies of
    earlier columns, with b in the column span about half the time."""
    rng = random.Random(seed)
    for i in range(count):
        p, k = sizes[i % len(sizes)] if sizes else ((2, 3, 5)[i % 3], rng.randint(1, 5))
        q = p ** k
        nr, nc = rng.randint(1, 9), rng.randint(1, 6)
        cols = []
        for _ in range(nc):
            kind = rng.choice(("unit", "divisor", "zero", "repeat"))
            if kind == "unit":
                cols.append([rng.randrange(q) for _ in range(nr)])
            elif kind == "divisor":
                cols.append([p ** rng.randint(1, k) * rng.randrange(q) % q for _ in range(nr)])
            elif kind == "zero" or not cols:
                cols.append([0] * nr)
            else:
                scale = p ** rng.randint(0, k - 1) * rng.randrange(1, q)
                cols.append([scale * v % q for v in rng.choice(cols)])
        if rng.random() < 0.5:
            z = [rng.randrange(q) for _ in range(nc)]
            b = [sum(zj * col[i] for zj, col in zip(z, cols)) % q for i in range(nr)]
        else:
            b = [valuation_heavy_entry(rng, p, k) % q for _ in range(nr)]
        yield cols, b, p, k


def recurrence(rel, m, head, period):
    """head, then each element from the order elements before it by rel,
    mod p^k: rel holds at every index whose window does not wrap."""
    seq = list(head)
    while len(seq) < period:
        window = seq[len(seq) - rel.order:]
        seq.append((rel.constant + sum(c * x for c, x in zip(rel.coeffs, window))) % m.value)
    return seq


class TestPackedRelationCheck:
    """Relation.first_violation packs the sequence into 64*s-bit slots and
    checks blocks [0, 64), [64, 320), [320, 1344), ... of at most 2^16
    indices; these cases sit on its edges and are checked against the
    per-index oracle."""

    # 2^12, 3^7: one-word array slots; 2^32, 3^20 and up: to_bytes slots
    # of 2 words and more, 2^64 and 3^41 (> 2^64) included
    MODULI = [Modulus(2, 12), Modulus(2, 32), Modulus(2, 64), Modulus(2, 65), Modulus(2, 72),
              Modulus(3, 7), Modulus(3, 20), Modulus(3, 41), Modulus(5, 30)]

    @pytest.mark.parametrize("m", MODULI, ids=str)
    def test_violation_on_each_side_of_every_block_boundary(self, m):
        rng = random.Random(1000 * m.p + m.k)
        q, period = m.value, 700
        for order in (1, 2, 3):
            # negative and unreduced coefficients, reduced by the check
            rel = Relation(order, tuple(rng.randrange(-q, 2 * q) for _ in range(order)),
                           rng.randrange(-q, 2 * q))
            clean = recurrence(rel, m, [rng.randrange(q) for _ in range(order)], period)
            # the first window that wraps fails; for order 1 it is the last index
            assert first_violation_scan(rel, clean, m) == period - order
            assert rel.first_violation(clean, m) == period - order
            for v in (0, 1, 63, 64, 65, 319, 320, 321, period - order - 1):
                seq = list(clean)
                seq[v + order] = (seq[v + order] + 1) % q
                assert first_violation_scan(rel, seq, m) == v
                assert rel.first_violation(seq, m) == v, (m, rel, v)

    def test_blocks_stop_growing_at_2_16_indices(self):
        # [87360, 152896) and [152896, 218432) are the first blocks held at
        # 2^16 indices; growing fourfold, the first would end at 349504
        m = Modulus(2, 12)
        rel = Relation(1, (5,), 1)
        clean = recurrence(rel, m, [0], m.value) * 60
        assert rel.first_violation(clean, m) is None
        for v in (87359, 87360, 152895, 152896, 218431, 218432):
            seq = list(clean)
            seq[v + 1] ^= 1
            assert rel.first_violation(seq, m) == first_violation_scan(rel, seq, m) == v

    @pytest.mark.parametrize("m", MODULI, ids=str)
    def test_relation_that_holds_on_the_whole_period(self, m):
        # x_{n+1} = c - x_n repeats with period 2 and x_{n+3} = x_n with
        # period 3, so both hold at every cyclic index of 1998 elements
        rng = random.Random(m.k)
        q = m.value
        a, c = rng.randrange(q), rng.randrange(q)
        alternating = [a, (c - a) % q] * 999
        assert Relation(1, (-1 - 2 * q,), c + q).first_violation(alternating, m) is None
        triple = [rng.randrange(q) for _ in range(3)] * 666
        assert Relation(3, (1 + q, -q, 0), -5 * q).first_violation(triple, m) is None

    def test_slots_wider_than_a_word_at_p2(self):
        # x_{n+1} = c - x_n with large elements: a slot reaches 2^65 - 2^34,
        # so a 64-bit slot would carry into the next one
        m = Modulus(2, 32)
        q = m.value
        rel = Relation(1, (-1,), q - 5)
        seq = recurrence(rel, m, [q - 2], 800)
        assert rel.first_violation(seq, m) is None
        seq[401] = (seq[401] + (1 << 31)) % q
        assert rel.first_violation(seq, m) == first_violation_scan(rel, seq, m) == 400

    @pytest.mark.parametrize("m", [Modulus(2, 12), Modulus(2, 72), Modulus(3, 7), Modulus(3, 41)],
                             ids=str)
    def test_unreduced_elements_give_the_reduced_answer(self, m):
        rng = random.Random(m.k)
        q = m.value
        rel = Relation(2, (rng.randrange(q), rng.randrange(q)), rng.randrange(q))
        clean = recurrence(rel, m, [1, 2], 500)
        for v in (10, 70, 400, None):
            seq = list(clean)
            if v is not None:
                seq[v + 2] = (seq[v + 2] + 1) % q
            want = first_violation_scan(rel, seq, m)
            assert want == (498 if v is None else v)
            # other representatives: negative ones in the first block, and
            # later blocks with none, where large ones would overflow a slot
            for i, t in ((0, 1), (5, -1), (10, -(2 ** 66)), (100, 2 ** 48), (200, 3),
                         (450, 2 ** 70), (499, 7)):
                seq[i] += t * q
            assert first_violation_scan(rel, seq, m) == want
            assert rel.first_violation(seq, m) == want

    def test_order_beyond_the_period(self):
        rng = random.Random(7)
        answers = set()
        for m in (Modulus(2, 12), Modulus(2, 72), Modulus(3, 41)):
            q = m.value
            for period in (1, 2, 3, 5):
                seq = [rng.randrange(q) for _ in range(period)]
                for order in (period + 1, period + 2, 2 * period + 3, 70):
                    # x_{n+order} = x_{n+j} with j = order mod period holds;
                    # a constant breaks it at 0, and extra*(x_{n+i} - x_i),
                    # i = j + 1, keeps it at 0 and breaks it further on
                    j, extra = order % period, rng.randrange(1, q)
                    i = (j + 1) % order
                    for const, coef in ((0, 0), (1, 0), (-extra * seq[i % period], extra)):
                        coeffs = [0] * order
                        coeffs[j] = 1
                        coeffs[i] += coef
                        rel = Relation(order, tuple(coeffs), const)
                        want = first_violation_scan(rel, seq, m)
                        assert rel.first_violation(seq, m) == want, (m, seq, rel)
                        answers.add(want if want is None else min(want, 1))
        assert answers == {None, 0, 1}

    def test_empty_sequence_has_no_violation(self):
        assert Relation(1, (3,), 1).first_violation([], Modulus(3, 2)) is None

    @pytest.mark.parametrize("k", [63, 64, 65, 72])
    def test_bit_planes_at_word_edges(self, k):
        rng = random.Random(k)
        m = Modulus(2, k)
        for length in (1, 6, 64, 96):
            seq = planes_buffer(rng, k, length)
            assert bit_plane_periods(seq, m) == bit_plane_periods_divisors(seq, k)
        # planes 0..63 of 12345 + n*2^64 are constant, plane 64 + i has period 2^(i+1)
        seq = [(12345 + n * 2 ** 64) % m.value for n in range(1 << max(k - 64, 0))]
        assert bit_plane_periods(seq, m) == bit_plane_periods_divisors(seq, k)


def packed_absorb(basis, v, q):
    """analysis._absorb of the entries v, each in [0, q), packed one to a slot."""
    slot, reduce = analysis._slot_ring(q, len(v))
    return analysis._absorb(basis, pack_slots(v, slot), q, slot, reduce)


# slots of more than one 64-bit word: 2^70 and 3^45 are both past 2^64
MULTIWORD_SIZES = ((2, 70), (3, 45))


def recording_absorb(monkeypatch, seen):
    """Patch analysis._absorb to count, in seen, the calls that displace a
    basis row and the calls that install a row leading with p^e, e >= 1, and
    so absorb its p^(k-e) multiple."""
    absorb = analysis._absorb

    def spy(basis, v, *ring):
        before = dict(basis)
        grew = absorb(basis, v, *ring)
        seen["displaced"] += any(basis[t] != row for t, row in before.items())
        seen["non-unit lead"] += any(basis[t][0] > 1 for t in basis if basis[t] != before.get(t))
        return grew
    monkeypatch.setattr(analysis, "_absorb", spy)


class TestHowellBasis:
    def test_a_reduce_that_does_not_reduce_fails_instead_of_hanging(self):
        # the row operation leaves slot 0 at q, not 0: the pivot would stay
        # at slot 0 forever
        q = 2 ** 5
        slot, _ = analysis._slot_ring(q, 2)
        basis = {0: (1, 1)}
        with pytest.raises(AssertionError, match="reduce left slot 0 nonzero mod 32"):
            analysis._absorb(basis, 1, q, slot, lambda x: x)

    def test_membership_matches_solvability(self):
        # every column and then b join one basis; each is a member exactly
        # when the full-scan solver finds the system on the earlier columns
        # solvable
        outcomes = set()
        count = 0
        for cols, b, p, k in howell_corpus(seed=47, count=600):
            basis = {}
            for j, v in enumerate(cols + [b]):
                if j == 0:
                    want = not any(v)
                else:
                    rows = [list(row) for row in zip(*cols[:j])]
                    want = solve_mod_pk_fullscan(rows, v, p, k) is not None
                assert packed_absorb(basis, v, p ** k) is not want, (cols, b, p, k, j)
                outcomes.add((p, j == len(cols), want))
            count += 1
        assert count >= 500
        assert outcomes == {(p, last, want) for p in (2, 3, 5)
                            for last in (False, True) for want in (False, True)}

    def test_membership_in_multiword_slots(self, monkeypatch):
        seen = Counter()
        recording_absorb(monkeypatch, seen)
        outcomes = set()
        for cols, b, p, k in howell_corpus(seed=53, count=240, sizes=MULTIWORD_SIZES):
            assert analysis._slot_ring(p ** k, len(b))[0] > 64
            basis = {}
            for j, v in enumerate(cols + [b]):
                rows = [list(row) for row in zip(*cols[:j])]
                want = not any(v) if j == 0 else solve_mod_pk_fullscan(rows, v, p, k) is not None
                assert packed_absorb(basis, v, p ** k) is not want, (cols, b, p, k, j)
                outcomes.add((p, j == len(cols), want))
        assert outcomes == {(p, last, want) for p in (2, 3)
                            for last in (False, True) for want in (False, True)}
        assert seen["displaced"] >= 100 and seen["non-unit lead"] >= 200, seen

    def test_solver_matches_full_scan_in_multiword_slots(self, monkeypatch):
        # the same systems are solvable, the particular solution solves the
        # system and each kernel generator the homogeneous one
        seen = Counter()
        recording_absorb(monkeypatch, seen)
        solvable = Counter()
        for cols, b, p, k in howell_corpus(seed=59, count=240, sizes=MULTIWORD_SIZES):
            q = p ** k
            a = [list(row) for row in zip(*cols)]
            want = solve_mod_pk_fullscan(a, b, p, k)
            got = _solve_howell(a, b, q)
            assert (got is None) == (want is None), (a, b, p, k)
            solvable[p, got is not None] += 1
            if got is None:
                continue
            part, gens = got
            assert all(0 <= v < q for z in [part] + gens for v in z)
            for z, target in [(part, b)] + [(g, [0] * len(b)) for g in gens]:
                assert all((sum(u * v for u, v in zip(row, z)) - t) % q == 0
                           for row, t in zip(a, target)), (a, b, p, k, z)
        assert min(solvable[p, ok] for p in (2, 3) for ok in (False, True)) >= 20, solvable
        assert seen["displaced"] >= 100 and seen["non-unit lead"] >= 200, seen


class TestGrowthProfile:
    def test_degree_one_constant(self):
        profile = complexity_growth_profile(RationalPoly([1, 1]), 2, range(1, 9))
        assert [c for _, c in profile] == [1] * 8

    def test_degree_two_profiles_frozen(self):
        got = complexity_growth_profile(RationalPoly([1, 1, 4]), 2, range(3, 13))
        assert got == [(3, 1), (4, 2), (5, 2), (6, 2), (7, 3), (8, 3), (9, 3),
                       (10, 3), (11, 4), (12, 4)]
        got = complexity_growth_profile(RationalPoly([1, 1, 9]), 3, range(2, 9))
        assert got == [(2, 1), (3, 2), (4, 2), (5, 2), (6, 3), (7, 3), (8, 3)]
        got = complexity_growth_profile(RationalPoly([1, 1, 5]), 5, range(2, 7))
        assert got == [(2, 2), (3, 3), (4, 4), (5, 4), (6, 5)]

    def test_degree_two_growth_is_unbounded_in_range(self):
        profile = complexity_growth_profile(RationalPoly([1, 1, 4]), 2, range(3, 13))
        orders = [c for _, c in profile]
        assert all(b >= a for a, b in zip(orders, orders[1:]))
        assert orders[-1] > orders[0]

    def test_exception_function_profile_constant_two(self):
        profile = complexity_growth_profile(exception_series(), 2, range(5, 10))
        assert [c for _, c in profile] == [2] * 5

    def test_uncertified_state_map_rejected(self):
        with pytest.raises(NotCertified):
            complexity_growth_profile(RationalPoly([0, 1]), 2, range(3, 5))


class TestBitPlanes:
    def test_ergodic_bits_hit_exact_powers(self):
        for k in (3, 6, 9):
            m = Modulus(2, k)
            seq = orbit_of_zero(lambda x: 1 + 5 * x, m)
            assert bit_plane_periods(seq, m) == [2 ** (j + 1) for j in range(k)]

    def test_bit_zero_alternates(self):
        m = Modulus(2, 7)
        seq = orbit_of_zero(exception_fn, m)
        assert bit_plane_periods(seq, m)[0] == 2

    def test_non_power_period(self):
        assert bit_plane_periods([0, 1, 1], Modulus(2, 1)) == [3]
        assert bit_plane_periods([0, 1, 0, 1], Modulus(2, 1)) == [2]

    def test_odd_prime_rejected(self):
        with pytest.raises(NotBinaryModulus):
            bit_plane_periods([0, 1, 2], Modulus(3, 1))


class TestIngestion:
    def test_generator_full_period(self):
        spec = make_generator(RationalPoly([1, 5]), Modulus(2, 6), 0)
        seq = sequence_from_generator(spec)
        assert len(seq) == 64 and sorted(seq) == list(range(64))

    def test_bytes_round_trip(self):
        spec = make_generator(RationalPoly([1, 5]), Modulus(2, 16), 7)
        words = sequence_from_generator(spec, count=40)
        data = emit_bytes(spec, 40)
        assert sequence_from_bytes(data, Modulus(2, 16)) == words

    @pytest.mark.parametrize("k", [8, 16, 24, 32, 40, 64, 72])
    def test_bytes_round_trip_at_every_width(self, k):
        # 1-, 2-, 4- and 8-byte words go through an array, 3-, 5- and 9-byte
        # words word by word; a block of 2^16 words is crossed at k = 8
        spec = make_generator(parse_dsl(README_MAP), Modulus(2, k), 2**k - 5)
        n = 2**16 + 7 if k == 8 else 1000
        words = GeneratorState(spec).take(n)
        assert sequence_from_bytes(emit_bytes(spec, n), Modulus(2, k)) == words

    def test_bytes_validation(self):
        with pytest.raises(NotBinaryModulus):
            sequence_from_bytes(b"abcd", Modulus(2, 12))
        with pytest.raises(ValueError):
            sequence_from_bytes(b"abc", Modulus(2, 16))

    def test_solver_cap(self):
        spec = make_generator(RationalPoly([1, 5]), Modulus(2, 8), 0)
        with pytest.raises(CapExceeded):
            sequence_from_generator(spec, count=(1 << 20) + 1)


class TestReportJson:
    def test_shape_and_relation(self):
        m = Modulus(2, 5)
        seq = orbit_of_zero(lambda x: 3 + 5 * x, m)
        blob = affine_linear_complexity(seq, m).to_json()
        assert blob["modulus"] == {"p": 2, "k": 5}
        assert blob["period"] == 32 and blob["census_ok"]
        assert blob["linear_complexity"] == 1
        assert blob["relation"] == {"order": 1, "constant": 3, "coeffs": [5]}
        assert blob["bit_periods"] == [2, 4, 8, 16, 32]

    def test_none_found_encoding(self):
        m = Modulus(2, 6)
        seq = orbit_of_zero(lambda x: 1 + x + 4 * x * x, m)
        blob = affine_linear_complexity(seq, m, r_max=1).to_json()
        assert blob["linear_complexity"] == {"none_found_up_to": 1}
        assert "relation" not in blob


# The maps of perfbench's analyze-orbits workload: (map, p, k, r_max)
ANALYZE_ORBIT_MAPS = [
    ("1 + 5*x", 2, 12, 16),
    ("1 + 3*x + 2*x*x + 4*x*x*x", 2, 11, 16),
    ("1 - 127*x - 152*x*x*x + 152*x*x*x*x*x", 2, 10, 16),
    ("1 + x + 4*(1+2*x)^x", 2, 9, 16),
    ("5 + 9*x + 8*x*x", 2, 12, 16),
    ("1 + 4*x + 3*x*x*x", 3, 6, 16),
    ("2 + 4*x", 3, 7, 16),
    ("1 + x + 3*x*x*x", 3, 5, 16),
    ("1 + x + 5*x*x", 5, 5, 16),
    ("2 + 6*x + 5*x*x*x", 5, 4, 16),
    ("1 + x + 201^x", 5, 4, 16),
    (README_MAP, 2, 8, 16),
    (README_MAP, 2, 9, 16),
    (SQUARES_MASK_MAP, 2, 8, 16),
    (AND_MAP, 2, 8, 16),
]

# sha256 of the reports below, as computed before the elimination moved
# onto packed slot vectors; any change to a basis, relation or report shows
ANALYZE_DIGEST = "915d95254d79076604e1f60b4d1dd5761c8bb1fe218dcda1ec85f83626974845"


class TestPinnedReports:
    def test_reports_match_the_pinned_digest(self):
        digest, count = hashlib.sha256(), 0
        cases = list(kernel_corpus(seed=41, count=360))
        for r_max in (1, 4, 16):
            for _, seq, m, _ in cases:
                blob = affine_linear_complexity(seq, m, r_max).to_json()
                digest.update(json.dumps(blob, sort_keys=True).encode() + b"\n")
                count += 1
        starts = random.Random(17)
        for source, p, k, r_max in ANALYZE_ORBIT_MAPS:
            m = Modulus(p, k)
            step = compile_map(parse_dsl(source), m)
            for x0 in (0, starts.randrange(m.value)):
                blob = affine_linear_complexity(analysis.orbit(step, m, x0), m, r_max).to_json()
                digest.update(json.dumps(blob, sort_keys=True).encode() + b"\n")
                count += 1
        assert count == 1110
        assert digest.hexdigest() == ANALYZE_DIGEST


def plain_orbit(step, m: Modulus, seed: int):
    """seed, step(seed), ... one step at a time up to the return to seed,
    at most m.value states; (states, steps) or (exception, steps)."""
    seq, x, steps = [], seed, 0
    try:
        for _ in range(m.value):
            seq.append(x)
            steps += 1
            x = step(x)
            if x == seed:
                break
    except Exception as exc:
        return (type(exc), str(exc)), steps
    return seq, steps


def counted(step):
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return step(x)
    return wrapped, calls


class TestOrbitWalk:
    def test_matches_a_plain_walk_on_random_maps(self):
        rng = random.Random(83)
        kinds = Counter()
        for p, ks in ((2, (1, 4, 6, 9, 12)), (3, (1, 3, 5, 7)), (5, (1, 2, 4, 5))):
            for _ in range(60):
                fn = random_compatible_ast(rng, p, rng.randint(1, 4))
                if rng.random() < 0.2:  # raises NotAUnit where fn is divisible by p
                    fn = inv(fn)
                m = Modulus(p, rng.choice(ks))
                step, calls = counted(compile_map(fn, m))
                x0 = rng.randrange(m.value)
                want, want_steps = plain_orbit(step, m, x0)
                calls[0] = 0
                try:
                    got = analysis.orbit(step, m, x0)
                except Exception as exc:
                    got = (type(exc), str(exc))
                assert got == want, (fn, m, x0)
                steps = calls[0]
                assert steps <= m.value
                if isinstance(want, tuple):
                    kinds["raises"] += 1
                elif step(want[-1]) == x0:
                    kinds["returns"] += 1
                    assert steps >= want_steps
                else:
                    kinds["never returns"] += 1
                    assert len(got) == m.value and steps == m.value
        assert set(kinds) == {"returns", "never returns", "raises"}, kinds
        assert min(kinds.values()) >= 10, kinds

    def test_short_cycle_in_a_large_ring_stays_cheap(self):
        m = Modulus(2, 16)
        step, calls = counted(compile_map(parse_dsl("x xor 1"), m))
        assert analysis.orbit(step, m, 40001) == [40001, 40000]
        assert calls[0] <= 64

    def test_orbit_that_never_returns_is_cut_to_the_modulus(self):
        m = Modulus(2, 16)
        step, calls = counted(compile_map(parse_dsl("x*x + 1"), m))
        seq = analysis.orbit(step, m, 0)
        assert calls[0] == m.value  # as many steps as a plain walk takes
        assert seq == plain_orbit(step, m, 0)[0] and len(seq) == m.value
