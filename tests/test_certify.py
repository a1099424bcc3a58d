"""Checkers and certificates against frozen examples and brute oracles."""

import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from padicforge import certify, expr
from padicforge.certify import (
    CLASS_A,
    CLASS_B,
    CapExceeded,
    Certificate,
    FunctionClass,
    GENERIC_COMPATIBLE,
    MultiPoly,
    NotBijective,
    PROVEN,
    QP_POLY_INTVAL,
    REFUTED,
    UNKNOWN,
    Z_POLY,
    _slices_bijective,
    _slices_single_cycle,
    bijective_mod,
    compatibility_certificate,
    equiprobable_mod,
    ergodicity_certificate,
    infer_class,
    is_class_b,
    jacobian_equiprobable_certificate,
    measure_preservation_certificate,
    polynomial_bijectivity_certificate,
    transitive_mod,
    triangle_ergodicity_certificate,
)
from padicforge.core import Modulus, NotAUnit
from padicforge.expr import compile_map, lane_table
from padicforge.funcalg import (
    BoolTriangle,
    add,
    build_ergodic,
    build_measure_preserving,
    const,
    delta,
    expr_from_json,
    expr_to_json,
    mul,
    parse_dsl,
    poly_node,
    var,
)
from padicforge.mahler import (
    DegreeCapExceeded,
    MahlerSeries,
    NotIntegerValued,
    RationalPoly,
    is_compatible,
    series_from_poly,
)

from corpus import random_compatible_ast
from oracles import (
    compatibility_probe_full_table,
    eval_tree,
    is_bijection,
    is_transitive,
    mahler_value,
    poly_eval_mod,
    random_integer_valued_poly,
    value_table,
    zero_cycle_length,
)


def quintic():
    return RationalPoly([1, -127, 0, -152, 0, 152])


def ff6_gen():
    return RationalPoly([1, 1, 0, 0, 0, 0, Fraction(5, 18)], "falling")


def xp_plus_one(p):
    coeffs = [0] * (p + 1)
    coeffs[0] = 1
    coeffs[p] = 1
    return RationalPoly(coeffs)


class TestBijectiveMod:
    def test_translations(self):
        for c in (0, 1, 5):
            for m in (Modulus(2, 4), Modulus(3, 3), Modulus(5, 2)):
                ok, witness = bijective_mod(RationalPoly([c, 1]), m)
                assert ok and witness is None

    def test_square_mod_4_witness(self):
        ok, witness = bijective_mod(RationalPoly([0, 0, 1]), Modulus(2, 2))
        assert not ok
        assert witness == (0, 2)

    def test_one_plus_x_to_p_fails_mod_p_squared(self):
        for p in (2, 3, 5):
            f = xp_plus_one(p)
            m = Modulus(p, 2)
            ok, witness = bijective_mod(f, m)
            assert not ok
            a, b = witness
            assert a != b
            assert f.eval_mod(a, m) == f.eval_mod(b, m)
            # one level down it is a permutation
            assert bijective_mod(f, Modulus(p, 1))[0]

    def test_series_and_ast_inputs(self):
        succ = MahlerSeries([1, 1], 2)
        assert bijective_mod(succ, Modulus(2, 6))[0]
        assert bijective_mod(parse_dsl("x xor 1"), Modulus(2, 4))[0]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            bijective_mod(RationalPoly([0, 1]), Modulus(2, 4), cap=8)
        # named as p^k: 2^20000 has too many digits to write in decimal
        with pytest.raises(CapExceeded, match=r"^2\^20000 states exceeds cap 8$"):
            bijective_mod(RationalPoly([0, 1]), Modulus(2, 20000), cap=8)


class TestTransitiveMod:
    def test_successor(self):
        for p, k in ((2, 8), (5, 3)):
            ok, length = transitive_mod(RationalPoly([1, 1]), Modulus(p, k))
            assert ok and length == p**k

    def test_affine_rule_sampled(self):
        rng = random.Random(414)
        for k in (3, 6, 10):
            m = Modulus(2, k)
            for _ in range(30):
                a = rng.randrange(m.value)
                b = rng.randrange(m.value)
                try:
                    got, _ = transitive_mod(RationalPoly([a, b]), m)
                except NotBijective:
                    got = False
                assert got == (a % 2 == 1 and b % 4 == 1)

    def test_quintic_2adic_transitive(self):
        f = quintic()
        for k in range(1, 7):
            ok, length = transitive_mod(f, Modulus(2, k))
            assert ok and length == 2**k

    def test_quintic_5adic_splits_at_k2(self):
        # mod 5 a single 5-cycle; mod 25 the orbit of 0 closes after 20
        # steps and {4,5,13,16,17} form their own 5-cycle.  The derivative
        # product over the mod-5 cycle is 2, not 1, so the split is forced
        # for every quintic with these mod-5 residues.
        f = quintic()
        assert transitive_mod(f, Modulus(5, 1)) == (True, 5)
        assert transitive_mod(f, Modulus(5, 2)) == (False, 20)
        for k in (3, 4):
            assert not transitive_mod(f, Modulus(5, k))[0]

    def test_identity_short_cycle(self):
        assert transitive_mod(RationalPoly([0, 1]), Modulus(2, 3)) == (False, 1)

    def test_involution_cycle_length(self):
        assert transitive_mod(parse_dsl("x xor 1"), Modulus(2, 5)) == (False, 2)

    def test_not_bijective_raises(self):
        with pytest.raises(NotBijective):
            transitive_mod(RationalPoly([1, 0, 1]), Modulus(2, 4))

    def test_matches_oracle_on_tables(self):
        m = Modulus(2, 8)
        gen = build_ergodic(parse_dsl("x xor (2*x+1)"), 1, 2)
        poly = RationalPoly([1, 1])
        for f in (gen, parse_dsl("x xor 1")):
            table = value_table(lambda x: eval_tree(f, x, m), m.value)
            assert transitive_mod(f, m)[0] == is_transitive(table)
        table = value_table(lambda x: poly_eval_mod(poly, x, m), m.value)
        assert transitive_mod(poly, m)[0] == is_transitive(table)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            transitive_mod(RationalPoly([1, 1]), Modulus(2, 10), cap=512)
        with pytest.raises(CapExceeded, match=r"^2\^20000 states exceeds cap 512$"):
            transitive_mod(RationalPoly([1, 1]), Modulus(2, 20000), cap=512)


def checked(check, f, m):
    """check(f, m), or the NotBijective it raises as (type name, message)."""
    try:
        return check(f, m)
    except NotBijective as exc:
        return "NotBijective", str(exc)


class TestCheckersOnLanes:
    """At p = 2 and 2^10..2^16 states the checkers read a lane table; they
    must return or raise exactly what the pointwise loop gives, which a
    plain callable takes."""

    SOURCES = ["1 + x + 2*delta(x xor (2*x + 1))", "x xor 1", "x or 1", "2*x", "x and 7",
               "3 + 5*x + 2*(x xor (4*x + 1))", "1 + 3*x + 2*(x or 6)", "neg(x)", "5 - x",
               "x xor (x and 6)", "(x or 1) xor 6", "1 + x + 2*(x and 1)",
               "1 + 2*x + 4*(x xor 1)"]  # its first collision comes after 2^(k-1)

    def test_same_results_as_pointwise(self):
        rng, trees = random.Random(8100), []
        while len(trees) < 16:
            tree = random_compatible_ast(rng, 2, rng.randint(1, 4))
            if lane_table(tree, Modulus(2, 10)) is not None:
                trees.append(tree)
        maps = [parse_dsl(s) for s in self.SOURCES] + trees[:8]
        maps += [build_ergodic(t, 1, 2) for t in trees[8:12]]
        maps += [build_measure_preserving(t, 3, 1, 2) for t in trees[12:]]
        seen = set()
        for k in (10, 13, 14):
            m = Modulus(2, k)
            for f in maps:
                assert lane_table(f, m) is not None
                fn = compile_map(f, m)
                for check in (transitive_mod, bijective_mod):
                    got = checked(check, f, m)
                    assert got == checked(check, lambda x: fn(x), m), (f, m, check)
                    seen.add((check.__name__, got[0]))
        # transitive and short cycles, re-entries, bijections and collisions
        assert seen == {(name, result) for name in ("transitive_mod", "bijective_mod")
                        for result in (True, False)} | {("transitive_mod", "NotBijective")}


def two_x_plus_y_cubed():
    return MultiPoly(2, {(1, 0): 2, (0, 3): 1})


class TestEquiprobableMod:
    def test_two_x_plus_y_cubed_small(self):
        for n in range(1, 5):
            ok, census = equiprobable_mod([two_x_plus_y_cubed()], 2, Modulus(2, n))
            assert ok
            assert census["min_fiber"] == census["max_fiber"] == 2**n

    def test_projection_is_bijection(self):
        ok, census = equiprobable_mod([MultiPoly(1, {(1,): 1})], 1, Modulus(3, 2))
        assert ok and census["expected_fiber"] == 1

    def test_product_mod_2_unbalanced(self):
        ok, census = equiprobable_mod([MultiPoly(2, {(1, 1): 1})], 2, Modulus(2, 1))
        assert not ok
        assert census["min_fiber"] == 1 and census["max_fiber"] == 3
        assert census["distinct_outputs"] == 2

    def test_sum_mod_9(self):
        ok, census = equiprobable_mod([MultiPoly(2, {(1, 0): 1, (0, 1): 1})], 2, Modulus(3, 2))
        assert ok and census["expected_fiber"] == 9

    def test_shape_errors_and_cap(self):
        with pytest.raises(ValueError):
            equiprobable_mod([MultiPoly(1, {(1,): 1}), MultiPoly(1, {(2,): 1})], 1, Modulus(2, 1))
        with pytest.raises(CapExceeded):
            equiprobable_mod([two_x_plus_y_cubed()], 2, Modulus(2, 6), cap=1000)
        with pytest.raises(CapExceeded, match=r"^\(2\^20000\)\^2 input tuples exceeds cap 1000$"):
            equiprobable_mod([two_x_plus_y_cubed()], 2, Modulus(2, 20000), cap=1000)


class TestJacobianCertificate:
    def test_cubic_mix_proven(self):
        F = [MultiPoly(2, {(1, 0): 1, (0, 1): 3, (0, 2): 6, (0, 3): 4})]
        cert = jacobian_equiprobable_certificate(F, 2)
        assert cert.verdict == PROVEN and cert.theorem == "C3_8"
        assert cert.property == "EQUIPROBABLE"
        # lift prediction spot-checked two levels up
        for k in (2, 3):
            assert equiprobable_mod(F, 2, Modulus(2, k))[0]

    def test_two_x_plus_y_cubed_unknown(self):
        cert = jacobian_equiprobable_certificate([two_x_plus_y_cubed()], 2)
        assert cert.verdict == UNKNOWN
        assert cert.witness["reason"] == "all partials vanish"
        assert cert.witness["point"][1] % 2 == 0
        # the sufficient condition fails even though the map is equiprobable
        assert equiprobable_mod([two_x_plus_y_cubed()], 2, Modulus(2, 3))[0]

    def test_first_vanishing_point_in_enumeration_order(self):
        # y + 2x^3 + 2x^3y^2 at p = 3: both partials vanish at (1, 2) and
        # (2, 1) only.  Points are visited with point[0] varying fastest,
        # so (2, 1) is found first.
        g = MultiPoly(2, {(0, 1): 1, (3, 0): 2, (3, 2): 2})
        cert = jacobian_equiprobable_certificate([g], 3)
        assert cert.verdict == UNKNOWN
        assert cert.witness == {"reason": "all partials vanish", "point": [2, 1]}

    def test_x_plus_p_x_squared(self):
        for p in (2, 3, 5):
            F = [MultiPoly(1, {(1,): 1, (2,): p})]
            assert jacobian_equiprobable_certificate(F, p).verdict == PROVEN

    def test_unbalanced_mod_p_unknown(self):
        cert = jacobian_equiprobable_certificate([MultiPoly(2, {(1, 1): 1})], 2)
        assert cert.verdict == REFUTED
        assert cert.witness["reason"] == "not equiprobable mod p"
        assert cert.witness["census"] == equiprobable_mod([MultiPoly(2, {(1, 1): 1})], 2,
                                                          Modulus(2, 1))[1]

    def test_partial_derivative(self):
        g = MultiPoly(2, {(1, 0): 1, (0, 1): 3, (0, 2): 6, (0, 3): 4}).partial(1)
        assert g.terms == {(0, 0): 3, (0, 1): 12, (0, 2): 12}

    def test_rank_one_system_is_not_proven(self):
        # (x, y^p): equiprobable mod p and x's partial never vanishes, but
        # y^p mod p^2 depends on y mod p alone, so the map collapses mod p^2
        for p in (2, 3, 5):
            F = [MultiPoly(2, {(1, 0): 1}), MultiPoly(2, {(0, p): 1})]
            cert = jacobian_equiprobable_certificate(F, p)
            assert (cert.verdict, cert.theorem, cert.checked_modulus) == (UNKNOWN, "C3_8",
                                                                          Modulus(p, 1))
            assert cert.witness == {"reason": "jacobian rank", "point": [0, 0], "rank": 1}
            cert = polynomial_bijectivity_certificate(F, p)
            assert (cert.verdict, cert.theorem, cert.checked_modulus) == (REFUTED, "C3_10",
                                                                          Modulus(p, 2))
            assert cert.witness == {"reason": "jacobian rank", "point": [0, 0], "rank": 1}
            assert not equiprobable_mod(F, 2, Modulus(p, 2))[0]


FAMILY_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


class TestTwoComponentSystems:
    """Every system (f, g) in x, y whose components are sums of a nonempty
    set of the monomials 1, x, y, x^2, xy, y^2: 63^2 = 3,969 systems."""

    @pytest.mark.parametrize("p, proven", [(2, 144), (3, 80)])
    def test_every_system_against_the_census(self, p, proven):
        parts = [MultiPoly(2, dict.fromkeys(subset, 1)) for r in range(1, 7)
                 for subset in combinations(FAMILY_MONOMIALS, r)]
        wrong, seen = [], 0
        for F in product(parts, repeat=2):
            bijective = equiprobable_mod(F, 2, Modulus(p, 2))[0]
            if (polynomial_bijectivity_certificate(F, p).verdict == PROVEN) != bijective:
                wrong.append(("C3_10", F))
            verdict = jacobian_equiprobable_certificate(F, p).verdict
            if verdict == PROVEN:
                seen += 1
                if not (bijective and equiprobable_mod(F, 2, Modulus(p, 3))[0]):
                    wrong.append(("C3_8", F))
            if verdict == REFUTED and bijective:
                wrong.append(("C3_8 refuted", F))
        assert wrong == []
        assert seen == proven


class TestPolynomialBijectivityCertificate:
    def test_one_plus_x_to_p_refuted(self):
        for p in (2, 3, 5):
            f = xp_plus_one(p)
            cert = polynomial_bijectivity_certificate(f, p)
            assert cert.verdict == REFUTED
            assert cert.theorem == "C3_10"
            assert cert.checked_modulus == Modulus(p, 2)
            a, b = cert.witness["collision"]
            m = Modulus(p, 2)
            assert f.eval_mod(a, m) == f.eval_mod(b, m)

    def test_identity_and_shear_proven(self):
        assert polynomial_bijectivity_certificate(RationalPoly([0, 1]), 3).verdict == PROVEN
        for p in (2, 3, 5):
            f = RationalPoly([0, 1, p])
            assert polynomial_bijectivity_certificate(f, p).verdict == PROVEN

    def test_square_system(self):
        shear = [MultiPoly(2, {(1, 0): 1, (0, 3): 1}), MultiPoly(2, {(0, 1): 1})]
        assert polynomial_bijectivity_certificate(shear, 2).verdict == PROVEN
        collapse = [MultiPoly(2, {(1, 1): 1}), MultiPoly(2, {(0, 1): 1})]
        assert polynomial_bijectivity_certificate(collapse, 2).verdict == REFUTED

    def test_unit_denominator_ok_p_denominator_rejected(self):
        half_x = RationalPoly([0, Fraction(1, 2)])
        assert polynomial_bijectivity_certificate(half_x, 5).verdict == PROVEN
        with pytest.raises(ValueError):
            polynomial_bijectivity_certificate(half_x, 2)


class TestInferClass:
    def test_integer_poly(self):
        cls = infer_class(RationalPoly([0, 7, 0, 1]), 2)
        assert cls.tag == Z_POLY and cls.degree == 3
        assert cls.rho == 0 and cls.lam == 1

    def test_ff6_depends_on_prime(self):
        at2 = infer_class(ff6_gen(), 2)
        assert at2.tag == QP_POLY_INTVAL and at2.degree == 6
        assert (at2.rho, at2.lam) == (1, 2)
        at5 = infer_class(ff6_gen(), 5)
        assert at5.tag == CLASS_B and (at5.rho, at5.lam) == (0, 1)

    def test_non_integer_valued_rejected(self):
        with pytest.raises(NotIntegerValued):
            infer_class(RationalPoly([0, Fraction(1, 2)]), 2)

    def test_ast_routes(self):
        assert infer_class(parse_dsl("1+x+201^x"), 5).tag == CLASS_B
        assert infer_class(parse_dsl("x xor 1"), 2).tag == GENERIC_COMPATIBLE
        folded = infer_class(parse_dsl("1+x+(5/18)*ff(x,6)"), 2)
        assert folded.tag == QP_POLY_INTVAL and folded.degree == 6

    def test_ast_polynomial_folding(self):
        assert infer_class(parse_dsl("delta(x*x)"), 3).tag == Z_POLY
        assert infer_class(parse_dsl("(x+1)*(x-1) - x*x"), 2).degree == 0

    @pytest.mark.parametrize("n", [60, 64, 70])
    def test_deep_polynomial_sum_certifies_like_its_flat_form(self, n):
        # the left-deep sum nests n + 2 levels; trees past 64 levels used to
        # miss the polynomial fold and fall to CLASS_B
        deep = parse_dsl("1 + " + "x + " * n + "3*x*x")
        flat = parse_dsl(f"1 + {n}*x + 3*x*x")
        assert infer_class(deep, 3) == infer_class(flat, 3) == FunctionClass(
            Z_POLY, degree=2, rho=0, lam=1)
        for certify in (compatibility_certificate, measure_preservation_certificate,
                        ergodicity_certificate):
            got, want = certify(deep, 3), certify(flat, 3)
            assert (got.verdict, got.theorem, got.checked_modulus, got.witness) == (
                want.verdict, want.theorem, want.checked_modulus, want.witness)

    def test_high_degree_answers_before_any_change_of_basis(self):
        falling = [Fraction(1, math.factorial(i)) for i in range(601)]  # C(x, i) summed
        with pytest.raises(DegreeCapExceeded, match="^degree 600 above criteria cap 64$"):
            infer_class(RationalPoly(falling, "falling"), 2)
        assert infer_class(RationalPoly([1] * 601, "falling"), 2) == FunctionClass(
            Z_POLY, degree=600, rho=0, lam=1)
        assert infer_class(RationalPoly([Fraction(1, 3)] * 601, "falling"), 2).tag == CLASS_B

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_tags_agree_in_either_basis(self, p):
        # the bases differ by a unimodular integer matrix, so a polynomial's
        # integer and p-integral coefficients are the same in both
        rng = random.Random(8200 + p)
        for _ in range(60):
            dens = rng.choice([(1,), (1, 7), (1, p), (1, p, 7 * p)])
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(rng.randint(1, 8))]
            falling = RationalPoly(coeffs, "falling")
            try:
                want = infer_class(falling.to_monomial(), p)
            except NotIntegerValued:
                with pytest.raises(NotIntegerValued):
                    infer_class(falling, p)
                continue
            got = infer_class(falling, p)
            assert (got.tag, got.rho, got.lam) == (want.tag, want.rho, want.lam), coeffs

    def test_series_and_callable(self):
        s = series_from_poly(RationalPoly([0, 0, 1]), 3)
        assert infer_class(s, 3).tag == QP_POLY_INTVAL
        with pytest.raises(ValueError):
            infer_class(s, 5)
        assert infer_class(lambda x: x + 1, 2).tag == GENERIC_COMPATIBLE


def not_compatible_poly():
    # x + 3*C(x,2): integer-valued, fails the 2-adic coefficient bound at i=2
    return RationalPoly([0, 1, Fraction(3, 2)], "falling")


class TestErgodicityCertificate:
    def test_ff6_qp_route(self):
        cert = ergodicity_certificate(ff6_gen(), 2)
        assert cert.verdict == PROVEN
        assert cert.theorem == "P4_7"
        assert cert.checked_modulus == Modulus(2, 5)

    def test_exp201_class_b_route(self):
        cert = ergodicity_certificate(parse_dsl("1+x+201^x"), 5)
        assert cert.verdict == PROVEN
        assert cert.theorem == "T4_9"
        assert cert.checked_modulus == Modulus(5, 2)

    def test_identity_refuted(self):
        for p in (2, 5):
            cert = ergodicity_certificate(RationalPoly([0, 1]), p)
            assert cert.verdict == REFUTED
            assert cert.witness["cycle_through_zero"] == 1

    def test_successor_proven_all_primes(self):
        for p, k0 in ((2, 3), (3, 3), (5, 2)):
            cert = ergodicity_certificate(RationalPoly([1, 1]), p)
            assert cert.verdict == PROVEN and cert.theorem == "T4_9"
            assert cert.checked_modulus == Modulus(p, k0)

    def test_class_a_p2_routes_through_coefficients(self):
        series = series_from_poly(ff6_gen(), 2)
        cert = ergodicity_certificate(series, 2, cls=FunctionClass(CLASS_A))
        assert cert.verdict == PROVEN and cert.theorem == "T2_3"

    def test_class_a_odd_p(self):
        cert = ergodicity_certificate(ff6_gen(), 5, cls=FunctionClass(CLASS_A))
        assert cert.verdict == PROVEN and cert.theorem == "T4_1"
        assert cert.checked_modulus == Modulus(5, 2)

    def test_not_compatible_refuted_before_walking(self):
        cert = ergodicity_certificate(not_compatible_poly(), 2)
        assert cert.verdict == REFUTED and cert.theorem == "T2_1"
        assert cert.witness["reason"] == "not compatible"

    def test_generic_refuted_with_short_cycle(self):
        cert = ergodicity_certificate(parse_dsl("x xor 1"), 2)
        assert cert.verdict == REFUTED and cert.theorem == "BRUTE_ONLY"
        assert cert.witness["cycle_through_zero"] == 2

    def test_generic_transitive_stays_unknown(self):
        f = parse_dsl("1 + (x xor 0)")
        cert = ergodicity_certificate(f, 2)
        assert cert.verdict == UNKNOWN and cert.theorem == "BRUTE_ONLY"
        assert cert.witness["transitive_up_to"] == cert.checked_modulus.k

    def test_shift_family_construction_proven(self):
        gen = build_ergodic(parse_dsl("x xor (2*x+1)"), 1, 2)
        cert = ergodicity_certificate(gen, 2)
        assert cert.verdict == PROVEN and cert.theorem == "L2_5"
        for k in range(4, 10):
            ok, _ = transitive_mod(gen, Modulus(2, k))
            assert ok

    def test_shift_family_survives_serialization(self):
        gen = build_ergodic(parse_dsl("x xor (2*x+1)"), 1, 2)
        reloaded = expr_from_json(expr_to_json(gen))
        cert = ergodicity_certificate(reloaded, 2)
        assert cert.verdict == PROVEN and cert.theorem == "L2_5"

    def test_shift_family_needs_unit_constant(self):
        # 2 + x + 2*Dv: constant not a unit, so no single-cycle guarantee
        gen = add(add(const(2), var()), mul(const(2), delta(parse_dsl("x xor 5"))))
        cert = ergodicity_certificate(gen, 2)
        assert cert.theorem != "L2_5" and cert.verdict != PROVEN

    def test_proven_certificates_confirmed_above_threshold(self):
        for f, p in ((ff6_gen(), 2), (ff6_gen(), 5), (quintic(), 2), (RationalPoly([1, 1]), 3)):
            cert = ergodicity_certificate(f, p)
            assert cert.verdict == PROVEN
            k0 = cert.checked_modulus.k
            for k in range(k0 + 1, k0 + 5):
                ok, _ = transitive_mod(f, Modulus(p, k))
                assert ok

    def test_hensel_monotonicity_on_corpus(self):
        rng = random.Random(1405)
        for p, kmax in ((2, 12), (3, 7), (5, 5)):
            done = 0
            while done < 6:
                poly = RationalPoly(random_integer_valued_poly(rng), "falling")
                if not is_compatible(series_from_poly(poly, p)):
                    continue
                done += 1
                flags = []
                for k in range(1, kmax + 1):
                    try:
                        flags.append(transitive_mod(poly, Modulus(p, k))[0])
                    except NotBijective:
                        flags.append(False)
                for lower, upper in zip(flags, flags[1:]):
                    assert lower or not upper

    def test_degree_threshold_predicts_all_higher_levels(self):
        rng = random.Random(2718)
        for p, kmax in ((2, 12), (3, 8), (5, 6)):
            done = 0
            while done < 8:
                poly = RationalPoly(random_integer_valued_poly(rng), "falling")
                if not is_compatible(series_from_poly(poly, p)):
                    continue
                done += 1
                from padicforge.mahler import floor_log
                k0 = floor_log(max(poly.degree, 1), p) + 3
                def transitive_at(k):
                    try:
                        return transitive_mod(poly, Modulus(p, k))[0]
                    except NotBijective:
                        return False
                at_threshold = transitive_at(k0)
                for k in range(k0 + 1, kmax + 1):
                    assert transitive_at(k) == at_threshold


class TestMeasurePreservationCertificate:
    def test_x_plus_p_x_cubed(self):
        for p in (2, 3, 5):
            cert = measure_preservation_certificate(RationalPoly([0, 1, 0, p]), p)
            assert cert.verdict == PROVEN and cert.theorem == "C3_10"
            assert cert.checked_modulus == Modulus(p, 2)

    def test_one_plus_x_to_p_refuted(self):
        for p in (2, 3, 5):
            cert = measure_preservation_certificate(xp_plus_one(p), p)
            assert cert.verdict == REFUTED
            assert "collision" in cert.witness

    def test_identity_proven(self):
        assert measure_preservation_certificate(RationalPoly([0, 1]), 7).verdict == PROVEN

    def test_class_b_ast(self):
        cert = measure_preservation_certificate(parse_dsl("1+x+201^x"), 5)
        assert cert.verdict == PROVEN and cert.theorem == "T4_9"
        assert cert.checked_modulus == Modulus(5, 2)

    def test_qp_route(self):
        cert = measure_preservation_certificate(ff6_gen(), 2)
        assert cert.verdict == PROVEN and cert.theorem == "P4_8"
        assert cert.checked_modulus == Modulus(2, 5)

    def test_class_a_routes(self):
        series = series_from_poly(ff6_gen(), 2)
        cert2 = measure_preservation_certificate(series, 2, cls=FunctionClass(CLASS_A))
        assert cert2.verdict == PROVEN and cert2.theorem == "T2_2"
        cert5 = measure_preservation_certificate(ff6_gen(), 5, cls=FunctionClass(CLASS_A))
        assert cert5.verdict == PROVEN and cert5.theorem == "T4_1"
        assert cert5.checked_modulus == Modulus(5, 3)

    def test_generic_routes(self):
        unknown = measure_preservation_certificate(parse_dsl("x xor 1"), 2)
        assert unknown.verdict == UNKNOWN and unknown.theorem == "BRUTE_ONLY"
        refuted = measure_preservation_certificate(parse_dsl("x and 6"), 2)
        assert refuted.verdict == REFUTED
        assert "collision" in refuted.witness

    def test_shift_family_construction_proven(self):
        gen = build_measure_preserving(parse_dsl("x xor (2*x+1)"), 3, 7, 2)
        cert = measure_preservation_certificate(gen, 2)
        assert cert.verdict == PROVEN and cert.theorem == "L2_5"
        for k in range(3, 9):
            ok, _ = bijective_mod(gen, Modulus(2, k))
            assert ok
        # the single-cycle construction is a special case of the same family
        erg = build_ergodic(parse_dsl("x xor (2*x+1)"), 1, 2)
        cert = measure_preservation_certificate(expr_from_json(expr_to_json(erg)), 2)
        assert cert.verdict == PROVEN and cert.theorem == "L2_5"

    def test_not_compatible_refuted(self):
        cert = measure_preservation_certificate(not_compatible_poly(), 2)
        assert cert.verdict == REFUTED and cert.theorem == "T2_1"


def cell(cert):
    """The part of a certificate the (property, class) tables decide."""
    return (cert.verdict, cert.theorem,
            (cert.checked_modulus.p, cert.checked_modulus.k), cert.witness)


class TestCertificateTableCells:
    """Literal (verdict, theorem, modulus, witness) for each table cell and
    fallback that the route tests above leave unpinned."""

    def test_threshold_walk_not_bijective(self):
        cert = ergodicity_certificate(parse_dsl("1 + x*x"), 2)
        assert cell(cert) == (REFUTED, "T4_9", (2, 3), {"reason": "not bijective"})

    def test_class_a_at_three_uses_lam_plus_two(self):
        a = FunctionClass(CLASS_A)
        for coeffs, erg in (([1, 1, 9], (PROVEN, "T4_1", (3, 3), None)),
                            ([1, 1, 3], (REFUTED, "T4_1", (3, 3), {"cycle_through_zero": 3}))):
            f = RationalPoly(coeffs)  # lam = 1
            assert cell(ergodicity_certificate(f, 3, cls=a)) == erg
            assert cell(measure_preservation_certificate(f, 3, cls=a)) == (
                PROVEN, "T4_1", (3, 3), None)
        lam2 = FunctionClass(CLASS_A, lam=2)
        f = RationalPoly([1, 1, 9])
        assert cell(ergodicity_certificate(f, 3, cls=lam2)) == (PROVEN, "T4_1", (3, 4), None)
        assert cell(measure_preservation_certificate(f, 3, cls=lam2)) == (
            PROVEN, "T4_1", (3, 4), None)

    def test_class_a_sextic_at_odd_primes(self):
        a = FunctionClass(CLASS_A)
        want = {
            5: ((PROVEN, "T4_1", (5, 2), None), (PROVEN, "T4_1", (5, 3), None)),
            7: ((REFUTED, "T4_1", (7, 2), {"reason": "not bijective"}),
                (REFUTED, "T4_1", (7, 3), {"collision": [2, 9]})),
            3: ((REFUTED, "T2_1", (3, 1), {"reason": "not compatible"}),
                (REFUTED, "T2_1", (3, 1), {"reason": "not compatible"})),
        }
        for p, (erg, mp) in want.items():
            assert cell(ergodicity_certificate(ff6_gen(), p, cls=a)) == erg
            assert cell(measure_preservation_certificate(ff6_gen(), p, cls=a)) == mp

    def test_class_a_without_lam_needs_a_polynomial(self):
        series = series_from_poly(ff6_gen(), 5)
        for certificate in (ergodicity_certificate, measure_preservation_certificate):
            with pytest.raises(ValueError, match="needs lam"):
                certificate(series, 5, cls=FunctionClass(CLASS_A))

    def test_measure_shape_only(self):
        f = parse_dsl("1 + 3*x + 2*(x xor 3)")
        assert cell(measure_preservation_certificate(f, 2)) == (PROVEN, "L2_5", (2, 2), None)
        assert cell(ergodicity_certificate(f, 2)) == (
            UNKNOWN, "BRUTE_ONLY", (2, 14), {"transitive_up_to": 14})

    def test_brute_probe_not_bijective(self):
        f = parse_dsl("1 + (x and 6)")
        assert cell(ergodicity_certificate(f, 2)) == (
            REFUTED, "BRUTE_ONLY", (2, 14), {"reason": "not bijective"})
        assert cell(measure_preservation_certificate(f, 2)) == (
            REFUTED, "BRUTE_ONLY", (2, 14), {"collision": [0, 1]})

    def test_shift_family_at_three(self):
        # the 1/9 leaf keeps it out of class B, inv keeps it from folding
        f = parse_dsl("1 + x + 3*delta((1/9)*ff(x,9) + inv(1 + 3*x))")
        assert infer_class(f, 3).tag == GENERIC_COMPATIBLE
        assert cell(ergodicity_certificate(f, 3)) == (PROVEN, "L2_5", (3, 3), None)
        assert cell(measure_preservation_certificate(f, 3)) == (PROVEN, "L2_5", (3, 2), None)


class TestCompatibilityCertificate:
    def test_polynomials(self):
        assert compatibility_certificate(RationalPoly([4, 9, 3]), 2).verdict == PROVEN
        assert compatibility_certificate(ff6_gen(), 2).verdict == PROVEN
        cert = compatibility_certificate(not_compatible_poly(), 2)
        assert cert.verdict == REFUTED and cert.theorem == "T2_1"

    def test_ast_closure(self):
        cert = compatibility_certificate(parse_dsl("(x xor 7) + x*x"), 2)
        assert cert.verdict == PROVEN and cert.theorem == "T2_1"

    def test_ast_with_bad_leaf_probed(self):
        from padicforge.funcalg import add, poly_node, var
        bad = add(poly_node(not_compatible_poly()), var())
        cert = compatibility_certificate(bad, 2)
        assert cert.verdict == REFUTED and cert.theorem == "BRUTE_ONLY"
        assert "level" in cert.witness
        # cancellation: bad leaves but the sum is the zero function
        from padicforge.funcalg import sub
        cancel = sub(poly_node(not_compatible_poly()), poly_node(not_compatible_poly()))
        cert = compatibility_certificate(cancel, 2)
        assert cert.verdict == UNKNOWN and cert.theorem == "BRUTE_ONLY"

    def test_constant_with_p_in_its_denominator_is_probed(self):
        # (1/2)*(x*x - x) is integer-valued, but its tree holds 1/2, which
        # has no value mod 2^k: closure proves nothing, and the probe raises
        half = parse_dsl("(1/2)*(x*x - x)")
        with pytest.raises(NotAUnit, match="^2 is divisible by 2$"):
            compatibility_certificate(half, 2)
        cert = compatibility_certificate(half, 3)
        assert cert.verdict == PROVEN and cert.theorem == "T2_1"


# Probe depths per prime: tables of at most 625 entries keep 360 maps fast.
_PROBE_DEPTHS = {2: (4, 9), 3: (2, 5), 5: (2, 4)}


def _random_table(rng, p, k):
    """One map on Z/p^k as a value table, from a family chosen at random.

    The families mix compatible maps (affine, integer polynomials, xor
    T-functions) with maps that fail compatibility (random functions,
    permutations and single cycles), and bijective maps with
    non-bijective ones.  "bumped" adds p^j at one input of a transitive
    affine map, which breaks compatibility first at level j + 1 (or not
    within the probe when j = k - 1) and makes the map non-bijective.
    """
    n = p**k
    family = rng.choice(("affine", "poly", "xor", "random_fn", "random_perm",
                         "random_cycle", "bumped"))
    if family == "affine":
        a, b = rng.randrange(n), rng.randrange(n)
        return [(a + b * x) % n for x in range(n)]
    if family == "poly" or (family == "xor" and p != 2):
        cs = [rng.randrange(n) for _ in range(rng.randint(3, 5))]
        return [sum(c * x**i for i, c in enumerate(cs)) % n for x in range(n)]
    if family == "xor":
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        return [(a + b * (x ^ c)) % n for x in range(n)]
    if family == "random_fn":
        return [rng.randrange(n) for _ in range(n)]
    if family == "random_perm":
        table = list(range(n))
        rng.shuffle(table)
        return table
    if family == "random_cycle":
        order = list(range(n))
        rng.shuffle(order)
        table = [0] * n
        for i, x in enumerate(order):
            table[x] = order[(i + 1) % n]
        return table
    table = [(1 + x) % n for x in range(n)]
    table[rng.randrange(n)] += p ** rng.randint(1, k - 1)
    return [v % n for v in table]


class _Counted:
    """A table as a map that counts its evaluations."""

    def __init__(self, table):
        self.table = table
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.table[x]


def _first_reentry(table):
    """(state, step) where the orbit of 0 first revisits a state other than 0."""
    seen, x, step = set(), table[0], 1
    while x not in seen:
        seen.add(x)
        x, step = table[x], step + 1
    return x, step


class TestBruteProbeEarlyExits:
    """The probes stop at their first witness with the full scans' outcomes."""

    def test_differential_against_full_scans(self):
        rng = random.Random(1010)
        outcomes = {}
        for p, (k_lo, k_hi) in _PROBE_DEPTHS.items():
            for _ in range(120):
                k = rng.randint(k_lo, k_hi)
                m, table = Modulus(p, k), _random_table(rng, p, k)
                n = m.value

                want = compatibility_probe_full_table(table.__getitem__, p, k)
                counted = _Counted(table)
                cert = compatibility_certificate(counted, p, cap=n)
                assert cert.checked_modulus == m
                if want is None:
                    assert (cert.verdict, cert.witness) == (UNKNOWN, {"compatible_up_to": k})
                    assert counted.calls == n
                else:
                    assert (cert.verdict, cert.witness) == (REFUTED, want)
                    if want["level"] == 1:
                        x = next(x for x in range(p, n) if (table[x] - table[x % p]) % p)
                        assert counted.calls <= x + 1
                    else:
                        assert counted.calls == n
                outcomes[p, "compatible", want and want["level"] > 1] = True

                counted = _Counted(table)
                length = zero_cycle_length(table)
                if length is None:
                    state, step = _first_reentry(table)
                    with pytest.raises(NotBijective,
                                       match=f"re-entered state {state} at step {step};"):
                        transitive_mod(counted, m)
                    assert counted.calls <= step + 1  # step = distinct states seen
                    assert not is_bijection(table)
                else:
                    assert transitive_mod(counted, m) == (is_transitive(table), length)
                    assert counted.calls == length
                outcomes[p, "transitive", {None: None, n: "full"}.get(length, "short")] = True

                ok, pair = bijective_mod(table.__getitem__, m)
                assert ok == is_bijection(table)
                if not ok:
                    y, x = pair
                    assert y < x and table[y] == table[x]
                    assert len(set(table[:x])) == x  # x is the first repeated value
                outcomes[p, "bijective", ok] = True
        for p in _PROBE_DEPTHS:
            assert all(outcomes.get((p, "transitive", v)) for v in (None, "short", "full"))
            assert all(outcomes.get((p, "bijective", v)) for v in (True, False))
            assert all(outcomes.get((p, "compatible", v)) for v in (None, False, True))

    def test_partial_map_refuted_before_its_undefined_input(self):
        # x(x-1)/2 fails level 1 at x = 2 against x = 0, and is undefined
        # at 5.  The full-table oracle raises there; the probe stops at the
        # witness, having evaluated both of its points.
        evaluated = []

        def half_falling(x):
            evaluated.append(x)
            if x == 5:
                raise ZeroDivisionError("undefined at 5")
            return x * (x - 1) // 2

        with pytest.raises(ZeroDivisionError, match="undefined at 5"):
            compatibility_probe_full_table(half_falling, 2, 14)
        evaluated.clear()
        cert = compatibility_certificate(half_falling, 2)
        assert (cert.verdict, cert.theorem) == (REFUTED, "BRUTE_ONLY")
        assert cert.witness == {"level": 1, "input_residue": 0}
        assert evaluated == [0, 1, 2]

    def test_raise_before_reentry_still_raises(self):
        # 0 -> 1 -> 2 -> 3, and 3 -> 1 would re-enter, but the map raises at 3
        def partial(x):
            if x == 3:
                raise ZeroDivisionError("undefined at 3")
            return {0: 1, 1: 2, 2: 3}.get(x, 1)

        with pytest.raises(ZeroDivisionError, match="undefined at 3"):
            transitive_mod(partial, Modulus(2, 3))


def _lanes_of(values):
    """values packed as the 32-bit lanes the bit-slice tests read, value y in lane y."""
    return int.from_bytes(b"".join(v.to_bytes(4, "little") for v in values), "little")


class TestBitSliceProbes:
    """At p = 2 a BRUTE_ONLY probe of a T-function is decided by bit-slice
    tests on one table before any scan; a failed test leaves the verdict
    and its witness to the scan, which reads the same table."""

    def test_differential_against_oracles(self):
        rng = random.Random(2100)
        seen = set()
        for i in range(36):
            tree = random_compatible_ast(rng, 2, rng.randint(1, 3))
            c, d = rng.choice((1, 3, 5, 7)), rng.randrange(4)
            f = (tree, build_measure_preserving(tree, c, d, 2), build_ergodic(tree, c, 2))[i % 3]
            fn = compile_map(f, Modulus(2, 14))
            full = [fn(x) for x in range(1 << 14)]
            for k in range(10, 15):
                tables = [[v % (1 << k) for v in full[:1 << k]]]
                if not i:  # maps that first fail at the top level, k - 1
                    half = 1 << (k - 1)
                    tables.append([x & (half - 1) for x in range(2 * half)])
                    # the successor map with two successors swapped: two cycles
                    tables.append([(x + 1) % (2 * half) for x in range(2 * half)])
                    tables[-1][0], tables[-1][half] = half + 1, 1
                for table in tables:
                    seen.add(self._agrees(table, k))
        assert seen == {"not bijective", "bijective", "transitive"}

    @staticmethod
    def _agrees(table, k):
        """Assert that both tests agree with the oracles on a T-function's
        table mod 2^k, the parity test on the whole and on the lower half;
        return the map's kind."""
        bijective = is_bijection(table)
        assert _slices_bijective(_lanes_of(table), k) == bijective, (table[:8], k)
        if not bijective:
            return "not bijective"
        transitive = is_transitive(table)
        for lanes in (_lanes_of(table), _lanes_of(table[:1 << (k - 1)])):
            assert _slices_single_cycle(lanes, k) == transitive, (table[:8], k)
        return "transitive" if transitive else "bijective"

    @pytest.mark.parametrize("k", [9, 7])
    def test_half_table_below_the_lanes(self, k):
        # a "measure" shape is bijective, so ergodicity reads its values at
        # 0..2^(k-1)-1; below 2^10 states no lane table exists.  The first
        # map is 1 + x plus 2^(k-1) at x = 0 mod 2^(k-1): a single cycle mod
        # 2^(k-1) but not mod 2^k, though bit k - 1 is set at an odd number
        # of its first 2^(k-2) values, so a quarter table would pass it.
        rng, cap, seen = random.Random(2200 + k), 1 << k, set()
        low = (1 << (k - 2)) - 1
        top_miss = f"1 + x + 2*((((x - 1) and {low}) + 1) and (x - 1) and {low + 1})"
        maps = [parse_dsl(top_miss)] + [
            build_measure_preserving(random_compatible_ast(rng, 2, rng.randint(1, 3)),
                                     rng.choice((1, 3, 5, 7)), rng.randrange(4), 2)
            for _ in range(24)]
        for f in maps:
            m = Modulus(2, k)
            assert lane_table(f, m) is None
            table = value_table(compile_map(f, m), m.value)
            cert = ergodicity_certificate(f, 2, FunctionClass(GENERIC_COMPATIBLE), cap=cap)
            assert (cert.theorem, cert.checked_modulus) == ("BRUTE_ONLY", m)
            if is_transitive(table):
                assert (cert.verdict, cert.witness) == (UNKNOWN, {"transitive_up_to": k})
            else:
                assert (cert.verdict, cert.witness) == (
                    REFUTED, {"cycle_through_zero": zero_cycle_length(table)})
            seen.add(cert.verdict)
        assert seen == {UNKNOWN, REFUTED}
        assert ergodicity_certificate(maps[0], 2, cap=cap).witness == {
            "cycle_through_zero": 1 << (k - 1)}

    @pytest.mark.parametrize("source,prop", [
        ("3 + 5*x + 2*(x xor (4*x + 1))", "ergodicity"),  # parity fails at the last level
        ("1 + 3*x + 2*(x or 6)", "ergodicity"),
        ("x xor 1", "ergodicity"),
        ("x xor 1", "measure_preservation"),
        ("x or 1", "measure_preservation"),
        ("x or 1", "ergodicity"),
    ])
    def test_one_lane_table_per_probe(self, monkeypatch, source, prop):
        built = []

        def spy(f, m):  # the one lane entry point: every table the checkers read
            lanes = lane_table(f, m)
            if lanes is not None:
                built.append(m)
            return lanes

        monkeypatch.setattr(certify, "lane_table", spy)
        certificate = {"ergodicity": ergodicity_certificate,
                       "measure_preservation": measure_preservation_certificate}[prop]
        cert = certificate(parse_dsl(source), 2)
        assert cert.theorem == "BRUTE_ONLY" and built == [Modulus(2, 14)]

    def test_parities_of_a_collision_do_not_pass_it(self):
        # 1 + x + (x and 1) sends 1 and 2 to 3, yet bit i of its values is
        # set at an odd number of y < 2^i at every level: only the level
        # test stops the probe from passing it
        f = parse_dsl("1 + x + (x and 1)")
        assert _slices_single_cycle(lane_table(f, Modulus(2, 14)), 14)
        assert cell(ergodicity_certificate(f, 2)) == (
            REFUTED, "BRUTE_ONLY", (2, 14), {"reason": "not bijective"})

    def test_measure_shape_reads_half_a_table(self, monkeypatch):
        # a product of two non-constants has no lane table, and its
        # d + c*x + q*v shape makes it bijective: the parities of its first
        # 2^(k-1) values decide it, and no walk runs
        evaluated = []

        def spy(f, m):
            fn = compile_map(f, m)
            return lambda x: evaluated.append(x) or fn(x)

        monkeypatch.setattr(certify, "compile_map", spy)
        f = parse_dsl("1 + x + 4*((x xor 3)*(x and 5))")
        assert cell(ergodicity_certificate(f, 2)) == (
            UNKNOWN, "BRUTE_ONLY", (2, 14), {"transitive_up_to": 14})
        assert 0 < len(evaluated) <= 1 << 13

    def test_public_checker_reads_half_a_table(self, monkeypatch):
        # transitive_mod decides the same map from the same half table
        evaluated = []

        def spy(f, m):
            fn = compile_map(f, m)
            return lambda x: evaluated.append(x) or fn(x)

        monkeypatch.setattr(certify, "compile_map", spy)
        f = parse_dsl("1 + x + 4*((x xor 3)*(x and 5))")
        assert transitive_mod(f, Modulus(2, 14)) == (True, 1 << 14)
        assert 0 < len(evaluated) <= 1 << 13

    def test_evaluation_error_raises_as_the_walk_raises(self):
        # bijective by its shape, undefined at every odd x: the half table
        # meets x = 1 first, the walk x = 3, and the walk's error is raised
        f = parse_dsl("1 + 3*x + 2*inv(x + 1)")
        m = Modulus(2, 14)
        fn = compile_map(f, m)
        with pytest.raises(NotAUnit) as want:
            transitive_mod(lambda x: fn(x), m)
        with pytest.raises(NotAUnit) as got:
            ergodicity_certificate(f, 2, FunctionClass(GENERIC_COMPATIBLE))
        assert str(got.value) == str(want.value)

    def test_misreported_shift_shape_is_refuted_by_its_check(self, monkeypatch):
        monkeypatch.setattr(certify, "_shift_family", lambda e, p: "ergodic")
        monkeypatch.setattr(certify, "_cached_facts", certify._Facts)  # the shape is cached
        f = parse_dsl("x or 1")
        assert cell(measure_preservation_certificate(f, 2)) == (
            REFUTED, "BRUTE_ONLY", (2, 2), {"collision": [0, 1]})
        assert cell(ergodicity_certificate(f, 2)) == (
            REFUTED, "BRUTE_ONLY", (2, 3), {"reason": "not bijective"})


def _outcome(call, *args):
    """A call's result as (tag, degree, rho, lam), (verdict, theorem, k,
    witness), or (exception type, message) where it raises."""
    try:
        got = call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, FunctionClass):
        return got.tag, got.degree, got.rho, got.lam
    return got.verdict, got.theorem, got.checked_modulus.k, got.witness


# name -> (map, prime, explicit class tag or None)
RAISE_CASES = {
    "half-binomial@2": (lambda: parse_dsl("(1/2)*(x*x - x)"), 2, None),
    "quarter-leaf-xor@2": (lambda: parse_dsl("(1/4)*ff(x,2) xor x"), 2, None),
    "quarter-leaf@3": (lambda: parse_dsl("1 + x + (1/4)*ff(x,2)"), 3, None),
    "degree-100@2": (lambda: RationalPoly([1] * 101), 2, None),
    "3-adic-series@2": (lambda: series_from_poly(RationalPoly([1, 1, 1]), 3), 2, None),
    "third-leaf-classA@3": (lambda: parse_dsl("1 + x + (1/3)*ff(x,3)"), 3, CLASS_A),
    "third-poly-classA@3": (lambda: RationalPoly([1, 1, Fraction(1, 3)]), 3, CLASS_A),
    "ninth-leaf-classA@3": (lambda: parse_dsl("1 + x + (1/3)*ff(x,9)"), 3, CLASS_A),
    "leaf-before-half@2": (lambda: parse_dsl("((1/4)*ff(x,2) + 1/2) xor x"), 2, None),
    "half-before-leaf@2": (lambda: parse_dsl("(1/2 + (1/4)*ff(x,2)) xor x"), 2, None),
    "degree-65-leaf@2": (lambda: add(poly_node(RationalPoly([1] * 66)), var()), 2, None),
    "shift-core-raises@2": (
        lambda: parse_dsl("1 + x + 2*delta((1/4)*ff(x,2) xor x)"), 2, None),
    "shift-miss-then-core@2": (
        lambda: parse_dsl("1 + x + (x xor 3) + 2*delta((1/4)*ff(x,2) xor x)"), 2, None),
    "shift-core-then-miss@2": (
        lambda: parse_dsl("1 + x + 2*delta((1/4)*ff(x,2) xor x) + (x xor 3)"), 2, None),
    "callable@2": (lambda: (lambda x: 3 * x + 1), 2, None),
    # Z_POLY, so the shape is read only by the ergodicity check's slice test
    "shift-core-raises-in-z-poly@2": (lambda: parse_dsl("1 + x + 4*((1/4)*ff(x,2) + x)"), 2, None),
}

# (infer_class, compatibility, measure preservation, ergodicity) per case
RAISE_OUTCOMES = {
    'half-binomial@2': (
        ('QP_POLY_INTVAL', 2, 1, 2),
        ('NotAUnit', '2 is divisible by 2'),
        ('REFUTED', 'T2_1', 1, {'reason': 'not compatible'}),
        ('REFUTED', 'T2_1', 1, {'reason': 'not compatible'}),
    ),
    'quarter-leaf-xor@2': (
        ('GENERIC_COMPATIBLE', None, None, None),
        ('NotIntegerValued', 'coefficient a_2 = 1/2 is not a 2-adic integer'),
        ('NotIntegerValued', 'value at 2 has denominator divisible by 2'),
        ('REFUTED', 'BRUTE_ONLY', 14, {'cycle_through_zero': 1}),
    ),
    'quarter-leaf@3': (
        ('CLASS_B', 2, 0, 1),
        ('PROVEN', 'T2_1', 1, None),
        ('REFUTED', 'T4_9', 2, {'collision': [0, 3]}),
        ('REFUTED', 'T4_9', 3, {'reason': 'not bijective'}),
    ),
    'degree-100@2': (
        ('Z_POLY', 100, 0, 1),
        ('DegreeCapExceeded', 'degree 100 above criteria cap 64'),
        ('REFUTED', 'C3_10', 2, {'collision': [0, 1]}),
        ('REFUTED', 'T4_9', 3, {'reason': 'not bijective'}),
    ),
    '3-adic-series@2': (
        ('ValueError', 'series is 3-adic, asked about p=2'),
        ('ValueError', 'series is 3-adic, asked about p=2'),
        ('ValueError', 'series is 3-adic, asked about p=2'),
        ('ValueError', 'series is 3-adic, asked about p=2'),
    ),
    'third-leaf-classA@3': (
        ('QP_POLY_INTVAL', 3, 1, 2),
        ('REFUTED', 'BRUTE_ONLY', 8, {'input_residue': 0, 'level': 1}),
        ('REFUTED', 'T2_1', 1, {'reason': 'not compatible'}),
        ('REFUTED', 'T2_1', 1, {'reason': 'not compatible'}),
    ),
    'third-poly-classA@3': (
        ('NotIntegerValued', 'coefficient a_1 = 4/3 is not a 3-adic integer'),
        ('NotIntegerValued', 'coefficient a_1 = 4/3 is not a 3-adic integer'),
        ('NotIntegerValued', 'coefficient a_1 = 4/3 is not a 3-adic integer'),
        ('NotIntegerValued', 'coefficient a_1 = 4/3 is not a 3-adic integer'),
    ),
    'ninth-leaf-classA@3': (
        ('QP_POLY_INTVAL', 9, 1, 2),
        ('PROVEN', 'T2_1', 1, None),
        ('ValueError', 'CLASS_A certification needs lam; pass it in the FunctionClass'),
        ('ValueError', 'CLASS_A certification needs lam; pass it in the FunctionClass'),
    ),
    'leaf-before-half@2': (
        ('GENERIC_COMPATIBLE', None, None, None),
        ('NotIntegerValued', 'coefficient a_2 = 1/2 is not a 2-adic integer'),
        ('NotAUnit', '2 is divisible by 2'),
        ('NotAUnit', '2 is divisible by 2'),
    ),
    'half-before-leaf@2': (
        ('GENERIC_COMPATIBLE', None, None, None),
        ('NotAUnit', '2 is divisible by 2'),
        ('NotAUnit', '2 is divisible by 2'),
        ('NotAUnit', '2 is divisible by 2'),
    ),
    'degree-65-leaf@2': (
        ('CLASS_B', None, 0, 1),
        ('DegreeCapExceeded', 'degree 65 above criteria cap 64'),
        ('REFUTED', 'T4_9', 2, {'collision': [0, 2]}),
        ('REFUTED', 'T4_9', 3, {'reason': 'not bijective'}),
    ),
    'shift-core-raises@2': (
        ('GENERIC_COMPATIBLE', None, None, None),
        ('NotIntegerValued', 'coefficient a_2 = 1/2 is not a 2-adic integer'),
        ('NotIntegerValued', 'coefficient a_2 = 1/2 is not a 2-adic integer'),
        ('NotIntegerValued', 'coefficient a_2 = 1/2 is not a 2-adic integer'),
    ),
    'shift-miss-then-core@2': (
        ('GENERIC_COMPATIBLE', None, None, None),
        ('NotIntegerValued', 'coefficient a_2 = 1/2 is not a 2-adic integer'),
        ('NotIntegerValued', 'value at 2 has denominator divisible by 2'),
        ('NotIntegerValued', 'value at 7 has denominator divisible by 2'),
    ),
    'shift-core-then-miss@2': (
        ('GENERIC_COMPATIBLE', None, None, None),
        ('NotIntegerValued', 'coefficient a_2 = 1/2 is not a 2-adic integer'),
        ('NotIntegerValued', 'coefficient a_2 = 1/2 is not a 2-adic integer'),
        ('NotIntegerValued', 'coefficient a_2 = 1/2 is not a 2-adic integer'),
    ),
    'callable@2': (
        ('GENERIC_COMPATIBLE', None, None, None),
        ('UNKNOWN', 'BRUTE_ONLY', 14, {'compatible_up_to': 14}),
        ('UNKNOWN', 'BRUTE_ONLY', 14, {'bijective_up_to': 14}),
        ('REFUTED', 'BRUTE_ONLY', 14, {'cycle_through_zero': 8192}),
    ),
    'shift-core-raises-in-z-poly@2': (
        ('Z_POLY', 2, 0, 1),
        ('NotIntegerValued', 'coefficient a_2 = 1/2 is not a 2-adic integer'),
        ('NotIntegerValued', 'value at 2 has denominator divisible by 2'),
        ('NotIntegerValued', 'value at 6 has denominator divisible by 2'),
    ),
}


class TestWhereEachCallRaises:
    """Which public call raises, and with what, is decided by the facts read
    off the map; these outcomes are pinned, raises and all."""

    @pytest.mark.parametrize("name", list(RAISE_CASES))
    def test_outcomes_are_pinned(self, name):
        build, p, tag = RAISE_CASES[name]
        cls = None if tag is None else FunctionClass(tag)
        for _ in range(2):  # a second round reads whatever the first left cached
            f = build()
            got = (_outcome(infer_class, f, p), _outcome(compatibility_certificate, f, p),
                   _outcome(measure_preservation_certificate, f, p, cls),
                   _outcome(ergodicity_certificate, f, p, cls))
            assert got == RAISE_OUTCOMES[name]

    def test_shape_error_is_left_to_the_walk_on_the_lanes(self):
        # 2^10 is the least modulus whose check reads the shape: its error
        # is caught there, and the walk raises its own first
        f = parse_dsl("1 + x + 4*((1/4)*ff(x,2) + x)")
        with pytest.raises(NotIntegerValued, match="^value at 6 has denominator divisible by 2$"):
            transitive_mod(f, Modulus(2, 10))


# (map, prime, whether it folds to a polynomial) per certify route: Z_POLY,
# QP_POLY_INTVAL, class B with POW, a bitwise shift family (L2_5), and two
# BRUTE_ONLY probes (compatibility of a polynomial tree, ergodicity of a
# bitwise tree)
SPY_CASES = [
    (lambda: parse_dsl("1 + 4*x + 3*x*x*x"), 3, True),
    (lambda: parse_dsl("1 + x + (5/18)*ff(x,6)"), 2, True),
    (lambda: parse_dsl("1 + x + 4*(1+2*x)^x"), 2, False),
    (lambda: build_ergodic(parse_dsl("x xor (2*x + 1)"), 1, 2), 2, False),
    (lambda: parse_dsl("1 + x + (5/18)*ff(x,6)"), 3, True),
    (lambda: parse_dsl("1 + x + 2*((x*x) xor ((x + 32) and x))"), 2, False),
]


class TestOneFactRecordPerMapAndPrime:
    """Certifying a map as the CLI does, twice, reads each structural fact
    from one record per (map, prime)."""

    @pytest.fixture
    def spies(self, monkeypatch):
        certify._cached_facts.cache_clear()
        counts = {name: Counter() for name in ("fold", "series", "compatible", "shape")}

        def spy(name, real, key):
            def call(*args):
                counts[name][key(*args)] += 1
                return real(*args)
            monkeypatch.setattr(certify, real.__name__, call)

        spy("fold", certify.fold, lambda e, visit, *rest: (id(e), visit.__name__))
        spy("series", certify.series_from_poly, lambda poly, p: (poly, p))
        spy("compatible", certify.is_compatible, lambda series: series)
        spy("shape", certify._shift_family, lambda e, p: (id(e), p))
        walk = expr.nodes

        def nodes(*args):
            assert sys._getframe(1).f_globals["__name__"] != certify.__name__
            return walk(*args)

        monkeypatch.setattr(expr, "nodes", nodes)
        return counts

    def test_each_fact_is_found_once(self, spies):
        assert not hasattr(certify, "nodes")
        trees = [(build(), p, polynomial) for build, p, polynomial in SPY_CASES]
        for _ in range(2):
            for f, p, _ in trees:
                cls = infer_class(f, p)
                compatibility_certificate(f, p)
                measure_preservation_certificate(f, p, cls)
                ergodicity_certificate(f, p, cls)
        folds = spies["fold"]
        for f, p, polynomial in trees:  # POW and bitwise trees get no polynomial fold
            assert (folds[id(f), "_note"], folds[id(f), "_poly_visit"]) == (1, polynomial)
        assert {visit for _, visit in folds} == {"_note", "_poly_visit"}
        assert max(folds.values()) == 1  # perturbation cores too
        assert spies["series"] and max(spies["series"].values()) == 1
        assert spies["shape"] and max(spies["shape"].values()) == 1  # once per (tree, p)

    @pytest.mark.parametrize("source", ["1 + 3*x + 2*x*x", "1 + x + 4*(1 + 2*x)^x"])
    def test_threshold_routes_match_no_shape(self, spies, source):
        # Z_POLY and CLASS_B routes check at 2^2 and 2^3, below the lane
        # range, where no check reads the shift shape
        f = parse_dsl(source)
        cls = infer_class(f, 2)
        assert cls.tag in (Z_POLY, CLASS_B)
        compatibility_certificate(f, 2)
        measure_preservation_certificate(f, 2, cls)
        ergodicity_certificate(f, 2, cls)
        assert not spies["shape"]

    def test_equal_poly_leaves_are_tested_once(self, spies):
        f = parse_dsl("(" + " + ".join(["ff(x,64)"] * 200) + ") xor 1")
        for _ in range(2):
            assert infer_class(f, 2).tag == GENERIC_COMPATIBLE
            cert = compatibility_certificate(f, 2)
            assert (cert.verdict, cert.theorem) == (PROVEN, "T2_1")
        assert list(spies["series"].values()) == [1]
        assert list(spies["compatible"].values()) == [1]
        assert list(spies["fold"].values()) == [1]


class TestClassBMembership:
    def test_examples(self):
        assert is_class_b(parse_dsl("x*x*x + 7*x"), 5)
        assert is_class_b(parse_dsl("(1+2*x)^x"), 2)
        assert not is_class_b(parse_dsl("x xor 1"), 2)

    @pytest.mark.parametrize("member, near_miss", [
        ("1 + x + 201^x", "1 + x + 2^x"),  # a unit base that is not a 1-unit
        ("inv(1 + 5*x)", "inv(1 + x)"),  # 0 at x = 4
        ("(1/3)*x*x + x", "(1/5)*x*x + x"),  # a constant with p in its denominator
        ("1 + x + (1/3)*ff(x,3)", "1 + x + (1/5)*ff(x,3) + inv(1 + 5*x)"),  # and a POLY leaf
        ("1 + x + 5*(x*x)", "1 + x + 5*neg(x)"),  # a bitwise node
    ])
    def test_each_side_condition_has_a_near_miss(self, member, near_miss):
        assert is_class_b(parse_dsl(member), 5)
        assert not is_class_b(parse_dsl(near_miss), 5)


class TestTriangleCertificate:
    def test_transitive_form_proven(self):
        t = BoolTriangle([
            {frozenset()},
            {frozenset([0])},
            {frozenset([0, 1])},
        ])
        cert = triangle_ergodicity_certificate(t)
        assert cert.verdict == PROVEN and cert.theorem == "T3_14_NOTE"
        assert cert.checked_modulus == Modulus(2, 3)

    def test_even_weight_layer_refuted(self):
        t = BoolTriangle([
            {frozenset()},
            {frozenset([0])},
            {frozenset([0]), frozenset([1])},
        ])
        cert = triangle_ergodicity_certificate(t)
        assert cert.verdict == REFUTED
        assert cert.witness == {"layer": 2, "reason": "even weight"}

    def test_bad_base_layer_refuted(self):
        t = BoolTriangle([
            set(),
            {frozenset([0])},
        ])
        cert = triangle_ergodicity_certificate(t)
        assert cert.verdict == REFUTED
        assert cert.witness["layer"] == 0


class TestCertificateJson:
    def test_shape(self):
        cert = ergodicity_certificate(RationalPoly([1, 1]), 2)
        blob = cert.to_json()
        assert blob["property"] == "ERGODIC"
        assert blob["verdict"] == PROVEN
        assert blob["modulus"] == {"p": 2, "k": 3}
        assert "witness" not in blob
        assert blob["elapsed_ms"] >= 0

    def test_witness_included_when_present(self):
        blob = ergodicity_certificate(RationalPoly([0, 1]), 2).to_json()
        assert blob["witness"] == {"cycle_through_zero": 1}
