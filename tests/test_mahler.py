import math
import random
from fractions import Fraction

import pytest
from oracles import (
    falling_value,
    is_bijection,
    is_transitive,
    mahler_value,
    poly_value,
    preserves_congruences,
    random_integer_valued_poly,
    value_table,
)

from padicforge.core import Modulus
from padicforge.expr import compile_map
from padicforge.mahler import (
    DegreeCapExceeded,
    MahlerSeries,
    NotIntegerValued,
    RationalPoly,
    WrongPrime,
    coeffs_from_values,
    floor_log,
    is_compatible,
    is_ergodic_2adic,
    is_ergodic_sufficient_oddp,
    is_measure_preserving_2adic,
    rho_lambda,
    series_from_poly,
)

F = Fraction


def series_eval(series: MahlerSeries, x: int, p: int, k: int) -> int:
    return compile_map(series, Modulus(p, k))(x % p**k)


def test_floor_log():
    assert [floor_log(i, 2) for i in range(1, 9)] == [0, 1, 1, 2, 2, 2, 2, 3]
    assert floor_log(124, 5) == 2
    assert floor_log(125, 5) == 3


def test_stirling_conversion_small():
    cube = RationalPoly([0, 0, 0, 1])
    assert cube.to_falling().coeffs == (F(0), F(1), F(3), F(1))
    ff3 = RationalPoly([0, 0, 0, 1], "falling")
    assert ff3.to_monomial().coeffs == (F(0), F(2), F(-3), F(1))


def test_stirling_conversion_involution():
    rng = random.Random(20817)
    for _ in range(40):
        deg = rng.randint(0, 12)
        coeffs = [F(rng.randint(-50, 50), rng.choice([1, 2, 3, 18])) for _ in range(deg + 1)]
        poly = RationalPoly(coeffs)
        assert poly.to_falling().to_monomial().coeffs == poly.coeffs
        poly_f = RationalPoly(coeffs, "falling")
        assert poly_f.to_monomial().to_falling().coeffs == poly_f.coeffs


def test_poly_eval_exact_both_bases():
    rng = random.Random(3411)
    for _ in range(25):
        coeffs = [F(rng.randint(-30, 30), rng.choice([1, 2, 9])) for _ in range(6)]
        poly = RationalPoly(coeffs, "falling")
        mono = poly.to_monomial()
        for x in (-3, 0, 1, 7, 19):
            assert poly_value(mono.coeffs, x) == falling_value(coeffs, x)


def test_poly_eval_mod_matches_exact():
    rng = random.Random(991)
    mod = Modulus(2, 9)
    for _ in range(30):
        coeffs = random_integer_valued_poly(rng, 6)
        poly = RationalPoly(coeffs, "falling")
        for x in (0, 1, 5, 100, 511):
            want = falling_value(coeffs, x)
            assert want.denominator == 1
            assert poly.eval_mod(x, mod) == want.numerator % mod.value


def test_poly_eval_mod_rejects_non_integral_point():
    half_x = RationalPoly([0, F(1, 2)])
    assert half_x.eval_mod(6, Modulus(2, 3)) == 3
    with pytest.raises(NotIntegerValued):
        half_x.eval_mod(1, Modulus(2, 3))


def test_coeffs_from_values():
    assert coeffs_from_values([0, 1, 4], 2).coeffs == (F(0), F(1), F(2))
    assert coeffs_from_values([7], 3).coeffs == (F(7),)
    # C(x,3) sampled at 0..5
    assert coeffs_from_values([0, 0, 0, 1, 4, 10], 2).coeffs == (
        F(0), F(0), F(0), F(1), F(0), F(0),
    )


def test_series_from_poly():
    assert series_from_poly(RationalPoly([0, 0, 1]), 2).coeffs == (F(0), F(1), F(2))
    ff6 = RationalPoly([0, 0, 0, 0, 0, 0, F(5, 18)], "falling")
    series = series_from_poly(ff6, 5)
    assert series.coeffs == (F(0),) * 6 + (F(200),)


def test_eval_examples():
    sq = coeffs_from_values([0, 1, 4], 2)
    assert series_eval(sq, 3, 2, 4) == 9
    for p in (2, 3, 5, 7):
        succ = MahlerSeries((1, 1), p)
        assert series_eval(succ, p - 1, p, 1) == 0
    # (5/18)(x)_6 at 7: exact value 1400
    ff6 = series_from_poly(
        RationalPoly([0, 0, 0, 0, 0, 0, F(5, 18)], "falling"), 5
    )
    assert series_eval(ff6, 7, 5, 3) == 25
    gen = MahlerSeries((1, 1, 0, 0, 0, 0, 200), 5)
    assert series_eval(gen, 7, 5, 3) == 33


def test_eval_matches_exact_oracle():
    rng = random.Random(60452)
    for p, k in ((2, 8), (5, 3)):
        for _ in range(15):
            coeffs = [rng.randint(-100, 100) for _ in range(rng.randint(1, 9))]
            series = MahlerSeries(tuple(coeffs), p)
            for x in (0, 1, 2, p**k - 1, rng.randrange(p**k)):
                want = mahler_value(coeffs, x % p**k)
                assert series_eval(series, x, p, k) == want % p**k


def test_eval_wrong_prime_and_non_integral():
    series = MahlerSeries((1, 1), 2)
    with pytest.raises(WrongPrime, match="^series is 2-adic, modulus is 3-adic$"):
        compile_map(series, Modulus(3, 2))(0)
    bad = MahlerSeries((F(1, 2),), 2)
    with pytest.raises(NotIntegerValued, match="^coefficient a_0 = 1/2 is not a 2-adic integer$"):
        compile_map(bad, Modulus(2, 3))(0)
    # denominator 18 is fine at p=5, fatal at p=3
    mixed = MahlerSeries((0, 0, F(5, 18)), 5)
    assert series_eval(mixed, 3, 5, 2) is not None
    with pytest.raises(NotIntegerValued):
        compile_map(MahlerSeries((0, 0, F(5, 18)), 3), Modulus(3, 2))(0)


def test_values_series_values_roundtrip():
    rng = random.Random(777)
    for p, k in ((2, 10), (5, 4)):
        size = p**k
        for _ in range(10):
            coeffs = random_integer_valued_poly(rng, 6)
            deg = len(coeffs) - 1
            values = [falling_value(coeffs, x) for x in range(deg + 1)]
            series = coeffs_from_values(values, p)
            for x in (0, 1, size - 1, rng.randrange(size), rng.randrange(size)):
                want = falling_value(coeffs, x)
                assert want.denominator == 1
                assert series_eval(series, x, p, k) == want.numerator % size


def test_compatibility_examples():
    assert is_compatible(coeffs_from_values([0, 1, 4], 2))  # x^2
    assert not is_compatible(MahlerSeries((0, 0, 1), 2))  # C(x,2)
    assert is_compatible(MahlerSeries((0, 0, 1), 5))  # deg < p, vacuous
    assert not is_compatible(MahlerSeries((0, 0, 0, 0, 0, 1), 5))


def test_compatibility_matches_brute():
    rng = random.Random(40917)
    for _ in range(40):
        coeffs = [rng.choice([0, 1, 2, 3, 4, 6, 8, 12, 16]) * rng.choice([-1, 1])
                  for _ in range(rng.randint(2, 9))]
        for p, k in ((2, 7), (3, 4), (5, 3)):
            series = MahlerSeries(tuple(coeffs), p)
            table = value_table(
                lambda x: int(mahler_value(coeffs, x)), p**k
            )
            assert is_compatible(series) == preserves_congruences(table, p, k), coeffs


def test_measure_preserving_2adic_examples():
    assert is_measure_preserving_2adic(MahlerSeries((0, 1), 2))
    assert is_measure_preserving_2adic(MahlerSeries((5, 3), 2))
    # x + 2 C(x,2) = x^2 collapses mod 4
    assert not is_measure_preserving_2adic(MahlerSeries((0, 1, 2), 2))
    assert not is_bijection(value_table(lambda x: x * x, 4))
    # x + 4 C(x,2)
    assert is_measure_preserving_2adic(MahlerSeries((0, 1, 4), 2))
    for k in (1, 2, 3, 4):
        table = value_table(lambda x: x + 4 * math.comb(x, 2), 2**k)
        assert is_bijection(table)
    with pytest.raises(WrongPrime):
        is_measure_preserving_2adic(MahlerSeries((0, 1), 3))


def brute_induces_bijections(coeffs, p, k):
    """Well-defined on Z/p^j and bijective there, for every j <= k."""
    table = value_table(lambda x: int(mahler_value(coeffs, x)), p**k)
    if not preserves_congruences(table, p, k):
        return False
    return all(
        is_bijection([v % p**j for v in table[: p**j]]) for j in range(1, k + 1)
    )


def brute_induces_single_cycles(coeffs, p, k):
    table = value_table(lambda x: int(mahler_value(coeffs, x)), p**k)
    if not preserves_congruences(table, p, k):
        return False
    return all(
        is_transitive([v % p**j for v in table[: p**j]]) for j in range(1, k + 1)
    )


def shaped_2adic_coeffs(rng, ergodic_leaning):
    deg = rng.randint(2, 8)
    if ergodic_leaning:
        coeffs = [rng.choice([1, 3, 5]), rng.choice([1, 5, 9, 3])]
        bound = lambda i: 2 ** (floor_log(i + 1, 2) + 1)
    else:
        coeffs = [rng.randint(-4, 4), rng.choice([1, 3, 5])]
        bound = lambda i: 2 ** (floor_log(i, 2) + 1)
    for i in range(2, deg + 1):
        coeffs.append(bound(i) * rng.choice([-1, 0, 1, 1]) * rng.choice([1, 1, 1, 3]))
    # occasionally break one tail coefficient
    if rng.random() < 0.4:
        coeffs[rng.randint(2, deg)] += rng.choice([1, 2, 3])
    return coeffs


def test_measure_preserving_matches_brute():
    rng = random.Random(118)
    seen_true = seen_false = 0
    for trial in range(60):
        if trial % 2:
            coeffs = shaped_2adic_coeffs(rng, ergodic_leaning=False)
        else:
            coeffs = [rng.choice([0, 1, 2, 3, 4, 5, 8, 16]) * rng.choice([-1, 1])
                      for _ in range(rng.randint(2, 8))]
        series = MahlerSeries(tuple(coeffs), 2)
        brute = brute_induces_bijections(coeffs, 2, 8)
        assert is_measure_preserving_2adic(series) == brute, coeffs
        seen_true += brute
        seen_false += not brute
    assert seen_true and seen_false


def test_ergodic_2adic_examples():
    assert is_ergodic_2adic(MahlerSeries((1, 1), 2))
    assert not is_ergodic_2adic(MahlerSeries((0, 1), 2))  # a0 even
    assert not is_ergodic_2adic(MahlerSeries((1, 3), 2))  # a1 = 3 mod 4
    assert not is_transitive(value_table(lambda x: 1 + 3 * x, 4))
    # a0 odd is enough; a0 = 1 mod 4 is not required
    assert is_ergodic_2adic(MahlerSeries((3, 1), 2))
    assert is_transitive(value_table(lambda x: 3 + x, 16))
    assert is_ergodic_2adic(MahlerSeries((1, 5), 2))
    assert is_transitive(value_table(lambda x: 1 + 5 * x, 16))
    # i=3 needs ord >= floor(log2 4) + 1 = 3, not floor(log2 3) + 1 = 2
    assert not is_ergodic_2adic(MahlerSeries((1, 1, 0, 4), 2))
    assert not is_transitive(value_table(lambda x: 1 + x + 4 * math.comb(x, 3), 16))


def test_ergodic_2adic_matches_brute():
    rng = random.Random(2218)
    seen_true = seen_false = 0
    for trial in range(60):
        if trial % 2:
            coeffs = shaped_2adic_coeffs(rng, ergodic_leaning=True)
        else:
            coeffs = [rng.choice([0, 1, 2, 3, 4, 5, 8, 16]) * rng.choice([-1, 1])
                      for _ in range(rng.randint(2, 8))]
        series = MahlerSeries(tuple(coeffs), 2)
        brute = brute_induces_single_cycles(coeffs, 2, 8)
        assert is_ergodic_2adic(series) == brute, coeffs
        seen_true += brute
        seen_false += not brute
    assert seen_true and seen_false


def test_exception_function_series():
    # f(x) = 1 + x + 4(-1)^(1+x); parity-split form x even -> x-3, odd -> x+5
    def f(x):
        return x - 3 if x % 2 == 0 else x + 5

    values = [1 + x + 4 * (-1) ** (1 + x) for x in range(19)]
    assert values == [f(x) for x in range(19)]
    series = coeffs_from_values(values, 2)
    closed = [-3, 9] + [(-1) ** (j + 1) * 2 ** (j + 2) for j in range(2, 19)]
    assert list(series.coeffs) == closed
    assert is_ergodic_2adic(series)
    # truncation agrees with f mod 2^k for k <= degree - 2
    for k in (4, 6, 10):
        size = 2**k
        for x in (0, 1, 2, 37, size - 1):
            assert series_eval(series, x, 2, k) == f(x) % size
    assert is_transitive(value_table(f, 2**6))


def test_ergodic_oddp_examples():
    assert is_ergodic_sufficient_oddp(MahlerSeries((1, 1), 5))
    assert is_ergodic_sufficient_oddp(MahlerSeries((1, 1, 25), 5))
    assert is_transitive(value_table(lambda x: 1 + x + 25 * math.comb(x, 2), 125))
    assert not is_ergodic_sufficient_oddp(MahlerSeries((0, 1), 5))
    assert not is_ergodic_sufficient_oddp(MahlerSeries((1, 2), 5))
    # i=2 needs ord >= floor(log5 3) + 1 = 1
    assert is_ergodic_sufficient_oddp(MahlerSeries((1, 1, 5), 5))
    assert is_transitive(value_table(lambda x: 1 + x + 5 * math.comb(x, 2), 125))
    assert not is_ergodic_sufficient_oddp(MahlerSeries((1, 1, 1), 5))
    with pytest.raises(WrongPrime):
        is_ergodic_sufficient_oddp(MahlerSeries((1, 1), 2))
    with pytest.raises(WrongPrime):
        is_ergodic_2adic(MahlerSeries((1, 1), 5))


def test_oddp_positives_are_transitive():
    rng = random.Random(5150)
    for p in (3, 5, 7):
        for _ in range(12):
            deg = rng.randint(1, 6)
            coeffs = [rng.choice([1, 2, p - 1])]
            coeffs.append(1 + p * rng.randint(0, 3))
            for i in range(2, deg + 1):
                bound = p ** (floor_log(i + 1, p) + 1)
                coeffs.append(bound * rng.randint(-2, 2))
            series = MahlerSeries(tuple(coeffs), p)
            assert is_ergodic_sufficient_oddp(series)
            table = value_table(lambda x: int(mahler_value(coeffs, x)), p**3)
            assert is_transitive(table), (p, coeffs)


def test_rho_lambda():
    ff6 = RationalPoly([0, 0, 0, 0, 0, 0, F(5, 18)], "falling")
    assert rho_lambda(ff6, 2) == (1, 2)
    assert rho_lambda(ff6, 5) == (0, 1)
    assert rho_lambda(ff6, 3) == (2, 2)
    assert rho_lambda(RationalPoly([1, 7, -3]), 2) == (0, 1)
    assert rho_lambda(RationalPoly([0, F(1, 5)]), 5) == (1, 2)
    # basis change leaves rho (and hence lambda) alone
    assert rho_lambda(ff6.to_monomial(), 2) == (1, 2)
    assert rho_lambda(ff6.to_monomial(), 5) == (0, 1)


def test_degree_cap():
    long_tail = MahlerSeries((1, 1) + (0,) * 63 + (2**40,), 2)
    assert long_tail.degree == 65
    with pytest.raises(DegreeCapExceeded):
        is_compatible(long_tail)
    with pytest.raises(DegreeCapExceeded):
        is_ergodic_2adic(long_tail)
    # evaluation has no cap
    assert series_eval(long_tail, 3, 2, 4) == 4


def test_poly_arithmetic():
    x = RationalPoly([0, 1])
    sq = x * x
    assert sq.coeffs == (F(0), F(0), F(1))
    assert (sq + x).coeffs == (F(0), F(1), F(1))
    assert x.scale(F(5, 18)).coeffs == (F(0), F(5, 18))
