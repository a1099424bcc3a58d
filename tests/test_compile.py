"""compile_map and evaluator against the node-by-node interpreter.

oracles.eval_tree is the tree interpreter the library evaluated
expressions with before it compiled them.  Every compiled value, and every
evaluation error (type and message), must match it point for point.
"""

import contextlib
import functools
import math
import random
import sys
from fractions import Fraction

import oracles
import pytest
from corpus import random_compatible_ast
from oracles import eval_tree, poly_eval_mod, random_integer_valued_poly, series_eval_mod

from padicforge import expr
from padicforge import funcalg as fa
from padicforge.certify import MultiPoly
from padicforge.core import BaseNotOneUnit, Modulus, NotAUnit, ResidueInt, unit_pow, unpack_slots
from padicforge.expr import BitwiseOddPrime, compile_map, evaluator
from padicforge.funcalg import parse_dsl
from padicforge.mahler import MahlerSeries, NotIntegerValued, RationalPoly

X = fa.var()
EVAL_ERRORS = (BitwiseOddPrime, BaseNotOneUnit, NotAUnit, NotIntegerValued)
MAX_K = {2: 6, 3: 4, 5: 3}


def outcome(fn, x):
    """fn(x), or (exception type, message) when the evaluation raises."""
    try:
        return fn(x)
    except EVAL_ERRORS as exc:
        return type(exc), str(exc)


def assert_matches_tree(e, m, points):
    compiled = compile_map(e, m)  # compiling never raises; errors wait for a point
    for x in points:
        want = outcome(lambda y: eval_tree(e, y, m), x)
        assert outcome(compiled, x) == want, (e, m, x)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_corpus_matches_tree_interpreter(p):
    rng = random.Random(1000 + p)
    trees = [random_compatible_ast(rng, p, rng.randint(1, 3)) for _ in range(40)]
    for k in range(1, MAX_K[p] + 1):
        m = Modulus(p, k)
        for e in trees:
            # every residue, plus exact points past the modulus that DELTA
            # and POLY leaves can see
            assert_matches_tree(e, m, range(m.value + 3))
    m = Modulus(p, MAX_K[p])
    for e in trees[:10]:
        step = evaluator(e, m)
        for x in range(m.value):
            assert step(x) == eval_tree(e, x, m)


def test_delta_of_non_lipschitz_poly_uses_exact_point():
    # C(x, 2) is not 1-Lipschitz, so its difference at the wrap point
    # x = p^k - 1 needs C(p^k, 2), not C(0, 2); delta C(x, 2) = x exactly
    choose2 = fa.delta(fa.poly_node(RationalPoly([0, 0, Fraction(1, 2)], "falling")))
    for p in (2, 3, 5):
        for k in range(1, MAX_K[p] + 1):
            m = Modulus(p, k)
            assert [compile_map(choose2, m)(x) for x in range(m.value)] == list(range(m.value))
            assert_matches_tree(choose2, m, range(m.value))


ERROR_CASES = [
    # bitwise nodes at odd p, alone and behind an earlier failing operand
    (fa.xor(X, X), 3),
    (fa.neg(fa.add(X, fa.const(1))), 5),
    (fa.add(fa.inv(X), fa.and_(X, X)), 3),
    # 1-unit bases: the exponent is evaluated before the base is checked
    (fa.pow_(X, X), 2),
    (fa.pow_(X, X), 5),
    (fa.pow_(fa.const(3), X), 5),
    (fa.pow_(X, fa.inv(X)), 3),
    # units: variable, constant, and a zero factor that must still evaluate
    (fa.inv(X), 3),
    (fa.inv(fa.const(6)), 3),
    (fa.const(Fraction(5, 18)), 2),
    (fa.const(Fraction(5, 18)), 3),
    (fa.mul(fa.const(0), fa.inv(X)), 5),
    (parse_dsl("1/2*x"), 2),
    (parse_dsl("1 + x + 9*delta(inv(x))"), 3),
    (parse_dsl("1 - 127*x - 152*x^3 + 152*x^5"), 5),
    # values that are not p-adic integers, at some points or at all
    (fa.poly_node(RationalPoly([0, Fraction(1, 2)])), 2),
    (fa.poly_node(RationalPoly([0, 0, Fraction(1, 4)], "falling")), 2),
    (fa.delta(fa.poly_node(RationalPoly([0, 0, 0, Fraction(1, 9)], "falling"))), 3),
]


@pytest.mark.parametrize("e,p", ERROR_CASES)
def test_error_parity(e, p):
    m = Modulus(p, 3)
    assert_matches_tree(e, m, range(m.value + 1))
    errors = [outcome(compile_map(e, m), x) for x in range(m.value)]
    assert any(isinstance(r, tuple) for r in errors), "case raises nowhere"


def test_cli_messages_unchanged():
    m = Modulus(3, 3)
    with pytest.raises(NotAUnit, match="^0 is divisible by 3$"):
        compile_map(parse_dsl("1 + x + 9*delta(inv(x))"), m)(m.value - 1)
    m = Modulus(5, 6)
    with pytest.raises(BaseNotOneUnit, match=r"^0 is not a 1-unit mod 5\^6$"):
        compile_map(parse_dsl("1 - 127*x - 152*x^3 + 152*x^5"), m)(0)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 5, 32])
def test_literal_pow_exponents_match_unit_pow(p, k):
    """A literal exponent runs as its least absolute residue mod p^k, so
    p^k - 1 runs as -1; every 1-unit base still gets unit_pow's value."""
    m = Modulus(p, k)
    mv = m.value
    rng = random.Random(100 * p + k)
    lifts = range(mv // p) if mv <= 5**5 else [0, mv // p - 1] + [
        rng.randrange(mv // p) for _ in range(40)]
    bases = [1 + p * r for r in lifts]  # the 1-units: at p = 2, the odd residues
    exponents = sorted({0, 1, mv - 1, mv - 2, mv // 2, mv // 2 + 1})
    for e in exponents:
        fn = compile_map(fa.pow_(X, fa.const(e)), m)
        assert [fn(a) for a in bases] == [unit_pow(ResidueInt(a, m), e).residue for a in bases]
    if mv > 2:
        source = "\n".join(expr._Module(fa.pow_(X, fa.const(mv - 1)), m).defs)
        assert f"pow(xr, -1, {mv})" in source, source


@pytest.mark.parametrize("p, base, message", [
    (2, 4, r"^4 is even, not a unit mod 2\^5$"),
    (3, 2, r"^2 is not a 1-unit mod 3\^5$"),
    (5, 10, r"^10 is not a 1-unit mod 5\^5$")])
def test_literal_pow_exponent_keeps_the_base_test(p, base, message):
    m = Modulus(p, 5)
    e = fa.pow_(X, fa.const(m.value - 1))
    with pytest.raises(BaseNotOneUnit, match=message):
        compile_map(e, m)(base)
    assert_matches_tree(e, m, range(m.value))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_linear_poly_leaves_match_tree_interpreter(p):
    """A degree-1 POLY leaf is one statement; in either basis, with a
    denominator prime to p or with p in it, it matches eval_tree at every
    residue, inside a tree and under delta."""
    m = Modulus(p, MAX_K[p])
    for basis in BASES:
        for poly in (RationalPoly([Fraction(-7, 11), Fraction(5, 13)], basis),
                     RationalPoly([Fraction(1, 3), Fraction(5, p)], basis),
                     RationalPoly([Fraction(3, p * p), Fraction(1, p)], basis)):
            leaf = fa.poly_node(poly)
            source = expr._Module(leaf, m).defs[0]
            assert "for " not in source and " * x + " in source, source
            for e in (leaf, fa.add(X, fa.mul(fa.const(p), leaf)), fa.delta(leaf)):
                assert_matches_tree(e, m, range(m.value + 3))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rational_poly_matches_rebuilt_scaled_form(p):
    rng = random.Random(2000 + p)
    m = Modulus(p, MAX_K[p])
    polys = [RationalPoly(random_integer_valued_poly(rng), "falling") for _ in range(15)]
    polys += [poly.to_monomial() for poly in polys[:5]]
    polys.append(RationalPoly([1, Fraction(1, p), Fraction(2, 7)]))  # not integer-valued
    for poly in polys:
        fn = compile_map(poly, m)
        for x in list(range(m.value)) + [m.value + 5, 3 * m.value - 1]:
            want = outcome(lambda y: poly_eval_mod(poly, y, m), x)
            assert outcome(fn, x) == outcome(lambda y: poly.eval_mod(y, m), x) == want


@pytest.mark.parametrize("p,max_k", [(2, 12), (3, 7), (5, 5), (7, 4)])
def test_series_matches_exact_binomial_sum(p, max_k):
    """A series compiles as its falling-factorial polynomial; its values
    must be the exact sum of a_i * C(x, i), at residues and past them."""
    rng = random.Random(4000 + p)
    units = [d for d in range(1, 40) if d % p]
    for degree in range(65):
        coeffs = [Fraction(rng.randint(-10**6, 10**6), rng.choice(units))
                  for _ in range(degree + 1)]
        m = Modulus(p, 1 + degree % max_k)
        fn = compile_map(MahlerSeries(coeffs, p), m)
        points = {0, 1, degree, m.value - 1, m.value, 3 * m.value + 1}
        points.update(rng.randrange(m.value) for _ in range(6))
        for x in sorted(points):
            assert fn(x) == series_eval_mod(coeffs, x, p, m.k), (coeffs, m, x)


def test_long_sum_chain_compiles_without_recursion():
    e = X
    for _ in range(3000):
        e = fa.add(e, X)
    m = Modulus(2, 16)
    fn = compile_map(e, m)
    assert [fn(x) for x in (0, 1, 777, m.value - 1)] == [
        3001 * x % m.value for x in (0, 1, 777, m.value - 1)]


def test_plain_callables_and_unknown_types():
    m = Modulus(3, 2)
    assert compile_map(lambda x: x - 1, m)(0) == 8
    with pytest.raises(TypeError):
        compile_map(42, m)


BASES = ("monomial", "falling")
DENOMINATORS = ("unit", "integer-valued", "not integer-valued")


def random_rational_poly(rng, p, degree, basis, denominators):
    """A degree-`degree` RationalPoly in `basis` with signed coefficients.
    Denominators are units mod p; or p-adically integer-valued, the falling
    coefficient of (x)_i over the p-part of i! (p among them from degree p
    on); or units with p^e in one coefficient's, so that only some points
    are p-adic integers."""
    units = [d for d in range(1, 40) if d % p]
    coeffs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.choice(units))
              for _ in range(degree + 1)]
    if denominators == "integer-valued":  # (x)_i is divisible by i!, so by its p-part
        coeffs = [c / p ** sum(i // p**j for j in range(1, i.bit_length() + 1))
                  for i, c in enumerate(coeffs)]
        return RationalPoly(coeffs, "falling") if basis == "falling" else \
            RationalPoly(coeffs, "falling").to_monomial()
    if denominators == "not integer-valued":
        i = rng.randrange(degree + 1)
        coeffs[i] /= p ** rng.randint(1, 3)
    return RationalPoly(coeffs, basis)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_random_rational_polys_match_oracle(p):
    """Polynomials compile into generated code.  Their values, and each
    NotIntegerValued with its message, match the scaled-form oracle and
    eval_mod at residues, at p^k and past it, for k from 1 to MAX_K[p]:
    both bases, degrees 0 to 64 and 2,000, signed coefficients, and
    denominators prime to p, with p and integer-valued, or with p and not."""
    rng = random.Random(5000 + p)
    cases = [(d, basis, den) for d in (0, 1) for basis in BASES for den in DENOMINATORS]
    cases += [(d, rng.choice(BASES), rng.choice(DENOMINATORS)) for d in range(2, 65)]
    cases += [(2000, basis, den) for basis in BASES for den in DENOMINATORS
              if (basis, den) != ("monomial", "integer-valued")]  # to_monomial is quadratic
    seen = set()
    for degree, basis, den in cases:
        poly = random_rational_poly(rng, p, degree, basis, den)
        assert poly.degree == degree and poly.basis == basis
        m = Modulus(p, rng.randint(1, MAX_K[p]))
        edges = {m.value - 1, m.value, m.value + 1, 3 * m.value + 1, rng.randrange(10**30)}
        points = range(m.value) if degree <= 8 else rng.sample(range(m.value), min(4, m.value))
        fn = compile_map(poly, m)
        for x in sorted(edges.union(points)):
            got = outcome(fn, x)
            want = outcome(lambda y: poly_eval_mod(poly, y, m), x)
            assert got == want == outcome(lambda y: poly.eval_mod(y, m), x), (poly, m, x)
            seen.add((den, isinstance(got, tuple)))
    assert seen == {(den, False) for den in DENOMINATORS} | {("not integer-valued", True)}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poly_leaves_inside_trees_match_tree_interpreter(p):
    rng = random.Random(6000 + p)
    m = Modulus(p, MAX_K[p])
    for _ in range(12):
        degree = rng.randint(0, 5)
        leaf = fa.poly_node(random_rational_poly(
            rng, p, degree, rng.choice(BASES), rng.choice(DENOMINATORS)))
        other = random_compatible_ast(rng, p, 2)
        chain = fa.sub(fa.add(fa.add(X, leaf), other), fa.add(leaf, fa.const(3)))
        for e in (fa.delta(leaf), fa.compose(leaf, other), fa.compose(other, leaf), chain):
            assert_matches_tree(e, m, range(m.value + 3))


def test_poly_leaf_code_does_not_grow_with_degree():
    """A POLY leaf is one loop over a coefficient tuple: degree 20,000
    generates the same lines as degree 5, and compiles in under 0.2 s at
    the reference host's speed."""
    from test_cli import reference_seconds

    rng = random.Random(7)
    m = Modulus(2, 32)
    lines = []
    for degree in (5, 20000):
        coeffs = [Fraction(rng.randint(-99, 99), rng.choice([1, 3, 4])) for _ in range(degree)]
        poly = RationalPoly([Fraction(1, 6)] + coeffs)
        assert poly.degree == degree
        lines.append(len("\n".join(expr._Module(fa.poly_node(poly), m).defs).splitlines()))
    assert lines[0] == lines[1]
    _, seconds = reference_seconds(lambda: compile_map(poly.scale(3), m))
    assert seconds < 0.2


def test_multipoly_compile_matches_plain_sum():
    rng = random.Random(3000)
    for _ in range(20):
        arity = rng.randint(1, 3)
        terms = {tuple(rng.randint(0, 3) for _ in range(arity)): rng.randint(-9, 9)
                 for _ in range(rng.randint(1, 5))}
        poly = MultiPoly(arity, terms)
        modulus = rng.choice([4, 9, 25, 32])
        fn = poly.compile_mod(modulus)
        for _ in range(30):
            point = [rng.randrange(modulus) for _ in range(arity)]
            want = sum(c * math.prod(x ** e for x, e in zip(point, exps))
                       for exps, c in terms.items()) % modulus
            assert fn(point) == want


@contextlib.contextmanager
def deep_recursion():
    """oracles.eval_tree recurses once per level, so deep trees need room.
    Compile outside it: compile() itself recurses within the normal limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def assert_deep_matches_tree(e, m, points):
    compiled = compile_map(e, m)
    with deep_recursion():
        for x in points:
            assert outcome(compiled, x) == outcome(lambda y: eval_tree(e, y, m), x), (m, x)


CHAIN_OPS = {"+": fa.add, "-": fa.sub, "*": fa.mul, "xor": fa.xor, "and": fa.and_, "or": fa.or_}


@pytest.mark.parametrize("op", list(CHAIN_OPS))
def test_chain_of_3000_terms_matches_tree(op):
    # left and right nesting alternate, so one flat chain of 3000 operands,
    # nearly all distinct subterms that need a local each: written as one
    # expression, it is too deep for compile()
    build, e = CHAIN_OPS[op], X
    for i in range(1, 3000):
        term = fa.add(X, fa.const(i))
        if op in "+-":
            term = fa.mul(term, X)
        term = fa.const(i) if i % 1000 == 0 else X if i == 1500 else term
        e = build(e, term) if i % 2 else build(term, e)
    for m in (Modulus(2, 16), Modulus(3, 5)):
        assert_deep_matches_tree(e, m, [0, 1, 2, 77, m.value - 2, m.value - 1, m.value])


def nest(kind, depth):
    """depth levels of one kind; POW and INV take x at the bottom, so points
    where it is not a (1-)unit raise from the innermost node."""
    e = X
    for i in range(depth):
        if kind == "NEG":
            e = fa.neg(e)
        elif kind == "INV":
            e = fa.inv(e)
        elif kind == "POW":
            e = fa.pow_(e, X)
        elif kind == "COMPOSE":  # each outer map is its own generated function
            e = fa.compose(e, fa.add(fa.mul(fa.const(i % 5 + 1), X), fa.const(i)))
        else:
            e = fa.delta(e)
    return e


@pytest.mark.parametrize("kind", ["DELTA", "COMPOSE", "POW", "INV", "NEG"])
def test_100_levels_of_nesting_match_tree(kind, monkeypatch):
    e = nest(kind, 100)
    # the tree interpreter evaluates a DELTA child twice per level, so
    # memoize it: 2^100 evaluations otherwise
    monkeypatch.setattr(oracles, "eval_tree", functools.lru_cache(maxsize=None)(eval_tree))
    for m in (Modulus(2, 12), Modulus(3, 5)):
        assert_deep_matches_tree(e, m, [0, 1, 2, 3, 4, 6, 7, 100, m.value - 1, m.value])


def test_cache_keys_on_tree_and_modulus():
    e = parse_dsl("1 + x + 2*(x xor 3) + x*x")
    for m in (Modulus(2, 3), Modulus(2, 14), Modulus(3, 4)):
        assert_matches_tree(e, m, range(0, m.value, max(1, m.value // 64)))
    with pytest.raises(BitwiseOddPrime, match=r"^XOR needs p = 2, modulus is 3\^4$"):
        compile_map(e, Modulus(3, 4))(1)
    # equal trees built apart share one compiled function
    a, b = parse_dsl("x*x + 5*x + 1"), parse_dsl("x*x + 5*x + 1")
    m = Modulus(5, 3)
    assert a is not b and compile_map(a, m) is compile_map(b, m)
    assert_matches_tree(b, m, range(m.value))
    # a denominator divisible by p raises where it is evaluated, and only at that p
    half = parse_dsl("x*x + 1/2")
    for m in (Modulus(2, 4), Modulus(3, 3)):
        assert_matches_tree(half, m, range(m.value))
    with pytest.raises(NotAUnit, match="^2 is divisible by 2$"):
        compile_map(half, Modulus(2, 4))(3)
    size = expr._generated.cache_info().maxsize
    for c in range(size + 5):
        compile_map(fa.add(X, fa.const(c)), Modulus(2, 8))
    info = expr._generated.cache_info()
    assert info.currsize <= size == info.maxsize
    assert compile_map(fa.add(X, fa.const(size + 4)), Modulus(2, 8))(1) == size + 5


def test_constants_past_the_digit_limit_are_bound_as_names():
    # 2^20000, 3^9100 and 5^6200 have more decimal digits than the default
    # int-to-str limit (4300), so their long constants are names, not literals
    for p, k in ((2, 20000), (3, 9100), (5, 6200)):
        m = Modulus(p, k)
        source = (f"1 - 127*x - 152*x*x*x + 1/3*x + (1 + {p}*x)^7 + inv(1 + {p}*x)"
                  " + delta(x*x - 5*x)")
        if p == 2:
            source += " + neg(x) - ((x and -2) or -7) + (x xor (x*x - 5))"
        e = fa.add(parse_dsl(source), fa.compose(parse_dsl("x*x - 1"), parse_dsl("3 - x")))
        assert expr._Module(e, m).big
        assert_matches_tree(e, m, [0, 1, 2, 3, 12345, m.value - 1, m.value, 2 * m.value + 1])
    # below the limit every constant stays a decimal literal
    assert not expr._Module(parse_dsl("1 - 127*x + 1/3"), Modulus(2, 64)).big


def lane_corpus(seed, count):
    """The first count corpus.py trees at p = 2 that lane_table accepts."""
    rng, m, out = random.Random(seed), Modulus(2, 10), []
    while len(out) < count:
        e = random_compatible_ast(rng, 2, rng.randint(1, 4))
        if expr.lane_table(e, m) is not None:
            out.append(e)
    return out


def assert_lanes_match_tree(e, m):
    lanes = expr.lane_table(e, m)
    assert lanes is not None
    table = unpack_slots(lanes, 32, m.value)
    with deep_recursion():
        assert list(table) == [eval_tree(e, x, m) for x in range(m.value)], (e, m)


LANE_KS = range(10, 17)
# DELTA and COMPOSE in every order: a table turned by one lane is the value
# at x + 1 only where the point is x itself, not an inner map's value
SHIFTS = [
    fa.delta(fa.compose(parse_dsl("x xor (2*x + 1)"), parse_dsl("3*x + 5"))),
    fa.compose(fa.delta(parse_dsl("x and (4*x + 3)")), parse_dsl("x xor 7")),
    fa.compose(parse_dsl("neg(x) or 6"), fa.delta(parse_dsl("x xor 3"))),
    fa.delta(fa.compose(fa.delta(parse_dsl("(x or 5) - 3*x")), parse_dsl("neg(x) - 1/3"))),
    fa.compose(fa.compose(parse_dsl("x xor 9"), fa.delta(parse_dsl("5*x and x"))),
               fa.delta(fa.delta(parse_dsl("x or (x xor 12)")))),
    parse_dsl("1 + x + 2*delta(x xor (2*x + 1))"),
]


@pytest.mark.parametrize("k", LANE_KS)
def test_lane_table_matches_tree_interpreter(k):
    m = Modulus(2, k)
    trees = lane_corpus(7000 + k, 1 if k >= 15 else 6)
    for e in trees + SHIFTS[k % 2::2]:
        assert_lanes_match_tree(e, m)


@pytest.mark.parametrize("op", ["+", "-", "xor", "and", "or"])
def test_lane_table_of_3000_term_chains(op):
    # built as test_chain_of_3000_terms_matches_tree builds them, with a
    # constant times each term's x, so every product has a lane form
    build, e = CHAIN_OPS[op], X
    for i in range(1, 3000):
        term = fa.add(fa.mul(fa.const(i % 7 + 1), X), fa.const(i))
        term = fa.const(i) if i % 1000 == 0 else X if i == 1500 else term
        e = build(e, term) if i % 2 else build(term, e)
    m = Modulus(2, 10)
    compiled = compile_map(e, m)
    assert list(unpack_slots(expr.lane_table(e, m), 32, m.value)) == [
        compiled(x) for x in range(m.value)]
    for m in (Modulus(2, 10), Modulus(2, 13)):
        table = unpack_slots(expr.lane_table(e, m), 32, m.value)
        with deep_recursion():
            for x in (0, 1, 2, 77, m.value // 2 + 3, m.value - 2, m.value - 1):
                assert table[x] == eval_tree(e, x, m), (m, x)


@pytest.mark.parametrize("kind", ["DELTA", "COMPOSE", "NEG"])
def test_lane_table_of_100_levels_of_nesting(kind, monkeypatch):
    monkeypatch.setattr(oracles, "eval_tree", functools.lru_cache(maxsize=None)(eval_tree))
    e = nest(kind, 100)
    for k in (10, 11):
        assert_lanes_match_tree(e, Modulus(2, k))


def test_lane_table_declines_where_lanes_do_not_apply():
    m = Modulus(2, 12)
    lane_able = parse_dsl("1 + 3*x + 2*(x or 6) - (1/3)*delta(neg(x) xor 5)")
    assert expr.lane_table(lane_able, m) is not None
    assert expr.lane_table(parse_dsl("(x xor 3) * 5 * (1/7)"), m) is not None
    for source in ["(1 + 2*x)^x", "1 + x + inv(1 + 2*x)", "x + ff(x, 2)", "x + 1/2",
                   "x*x", "1 + x + 4*((x xor 3)*(x and 5))", "(x - x)*x", "delta(x)*x",
                   "1 + x + 2*delta(x xor (x + 1)^3)"]:
        assert expr.lane_table(parse_dsl(source), m) is None, source
    assert expr.lane_table(RationalPoly([1, 1]), m) is None
    assert expr.lane_table(MahlerSeries([1, 1], 2), m) is None
    assert expr.lane_table(lambda x: x + 1, m) is None
    for m in (Modulus(2, 9), Modulus(2, 17), Modulus(3, 7), Modulus(5, 5)):
        assert expr.lane_table(parse_dsl("1 + 3*x"), m) is None, m
    assert expr.lane_table(parse_dsl("1 + 3*x"), Modulus(2, 10)) is not None
    assert expr.lane_table(parse_dsl("1 + 3*x"), Modulus(2, 16)) is not None
