import hashlib
import math
import operator
import random
import time
from fractions import Fraction

import pytest
from corpus import dsl_cases, random_compatible_ast
from oracles import (
    LengthMismatch,
    is_bijection,
    is_transitive,
    preserves_congruences,
    triangle_digit,
    triangle_eval,
    value_table,
)

from padicforge import expr
from padicforge import funcalg as fa
from padicforge.certify import (
    CLASS_B,
    GENERIC_COMPATIBLE,
    PROVEN,
    Z_POLY,
    infer_class,
    is_class_b,
    triangle_ergodicity_certificate,
)
from padicforge.core import BaseNotOneUnit, Modulus, NotAUnit, ResidueInt
from padicforge.expr import BitwiseOddPrime, compile_map, evaluator
from padicforge.funcalg import (
    _MAX_DELTAS,
    _MAX_NESTING,
    BoolTriangle,
    CDivisibleByP,
    DslError,
    DslSyntaxError,
    UnknownIdentifier,
    build_composite_generator,
    build_ergodic,
    build_measure_preserving,
    expr_from_json,
    expr_to_json,
    parse_dsl,
)
from padicforge.genlib import GeneratorSpec
from padicforge.mahler import RationalPoly

X = fa.var()


def ev(e, x, p, k):
    return compile_map(e, Modulus(p, k))(x % p**k)


def table(e, p, k):
    f = evaluator(e, Modulus(p, k))
    return [f(x) for x in range(p**k)]


def test_eval_bitwise_examples():
    assert ev(fa.xor(fa.const(1), fa.const(3)), 0, 2, 3) == 2
    assert ev(fa.and_(fa.const(2), fa.const(7)), 0, 2, 3) == 2
    assert ev(fa.neg(fa.const(13)), 0, 2, 3) == 2
    rng = random.Random(42)
    for _ in range(20):
        k = rng.randint(1, 12)
        z = rng.randrange(2**k)
        total = ev(fa.add(X, fa.neg(X)), z, 2, k)
        assert total == 2**k - 1


def test_eval_arith_and_const():
    three_x2_plus_5 = fa.add(fa.mul(fa.const(3), fa.mul(X, X)), fa.const(5))
    for x in range(27):
        assert ev(three_x2_plus_5, x, 3, 3) == (3 * x * x + 5) % 27
    # rational constant: 5/18 = 5 * 18^-1 mod 25
    q = fa.const(Fraction(5, 18))
    assert ev(q, 0, 5, 2) == 5 * pow(18, -1, 25) % 25
    with pytest.raises(NotAUnit):
        ev(q, 0, 2, 3)


def test_eval_bitwise_rejects_odd_prime():
    for bad in (fa.xor(X, X), fa.and_(X, X), fa.or_(X, X), fa.neg(X)):
        with pytest.raises(BitwiseOddPrime):
            ev(bad, 0, 3, 2)


def test_eval_pow_and_inv():
    assert ev(fa.pow_(fa.const(3), fa.const(11)), 0, 2, 4) == 11
    assert ev(fa.pow_(fa.const(201), X), 201, 5, 2) == pow(201, 201, 25)
    with pytest.raises(BaseNotOneUnit):
        ev(fa.pow_(fa.const(2), X), 1, 2, 3)
    assert ev(fa.inv(fa.const(3)), 0, 2, 4) == 11
    with pytest.raises(NotAUnit):
        ev(fa.inv(X), 0, 2, 3)


def test_delta_examples():
    sq = fa.poly_node(RationalPoly([0, 0, 1]))
    assert ev(fa.delta(sq), 3, 2, 4) == 7
    for x in range(9):
        assert ev(fa.delta(fa.const(17)), x, 3, 2) == 0
    # Pascal: delta C(x,i) = C(x,i-1), checked on exact representatives
    for i in range(1, 7):
        node = fa.delta(fa.poly_node(RationalPoly([0] * i + [Fraction(1, math.factorial(i))], "falling")))
        for x in range(256):
            assert ev(node, x, 2, 8) == math.comb(x, i - 1) % 256, (i, x)


def test_eval_well_defined_on_residues():
    rng = random.Random(905)
    for p, k in ((2, 8), (5, 3)):
        for _ in range(8):
            e = random_compatible_ast(rng, p, rng.randint(1, 4))
            for _ in range(6):
                x = rng.randrange(p**k)
                t = rng.randint(1, 50)
                low = ev(e, x, p, k)
                lifted = ev(e, x + p**k * t, p, k + 2)
                assert lifted % p**k == low


def test_congruence_grouping_equals_all_pairs():
    # the grouped oracle agrees with the literal pairwise definition
    def all_pairs(tab, p, k):
        size = p**k
        for x in range(size):
            for y in range(x + 1, size):
                d = x - y
                o = 0
                while d % p == 0:
                    o += 1
                    d //= p
                if (tab[x] - tab[y]) % p ** min(o, k) != 0:
                    return False
        return True

    cases = [
        value_table(lambda x: x * x, 16),
        value_table(lambda x: math.comb(x, 2), 16),
        value_table(lambda x: x ^ 5, 16),
        value_table(lambda x: 3 * x + 7, 16),
    ]
    for tab in cases:
        assert preserves_congruences(tab, 2, 4) == all_pairs(tab, 2, 4)


def test_ast_corpus_is_compatible():
    rng = random.Random(1313)
    for p, k, rounds in ((2, 10, 10), (5, 4, 8)):
        seen = set()
        for _ in range(rounds):
            e = random_compatible_ast(rng, p, rng.randint(2, 5))
            seen.update(_kinds(e))
            assert preserves_congruences(table(e, p, k), p, k)
        assert {"ADD", "SUB", "MUL", "POW", "INV", "DELTA", "COMPOSE"} <= seen
        if p == 2:
            assert {"XOR", "AND", "OR", "NEG"} <= seen


def _kinds(e):
    out = {e.kind}
    for c in e.children:
        out |= _kinds(c)
    return out


def test_build_measure_preserving():
    ident = build_measure_preserving(fa.const(0), 1, 0, 2)
    assert table(ident, 2, 4) == list(range(16))
    v = fa.xor(X, fa.add(fa.mul(fa.const(2), X), fa.const(1)))
    g = build_measure_preserving(v, 1, 0, 2)
    tab = table(g, 2, 12)
    for k in range(1, 13):
        assert is_bijection([t % 2**k for t in tab[: 2**k]])
    with pytest.raises(CDivisibleByP):
        build_measure_preserving(v, 2, 0, 2)
    with pytest.raises(CDivisibleByP):
        build_measure_preserving(v, Fraction(1, 2), 0, 2)
    with pytest.raises(CDivisibleByP):
        build_measure_preserving(v, 5, 1, 5)


def test_build_ergodic_xor_generator():
    v = fa.xor(X, fa.add(fa.mul(fa.const(2), X), fa.const(1)))
    f = build_ergodic(v, 1, 2)
    tab = table(f, 2, 16)
    assert is_transitive(tab)
    for k in (1, 4, 9):
        assert is_transitive([t % 2**k for t in tab[: 2**k]])
    with pytest.raises(CDivisibleByP):
        build_ergodic(v, 2, 2)


def test_build_ergodic_displayed_function():
    # 7 + x + 2*((x+1)^2 XOR ((x+1) + (32 AND (x+1))) - (x^2 XOR (x + (32 AND x))))
    v = fa.xor(
        fa.poly_node(RationalPoly([0, 0, 1])),
        fa.add(X, fa.and_(fa.const(32), X)),
    )
    f = build_ergodic(v, 7, 2)
    tab = table(f, 2, 10)
    for k in (2, 6, 10):
        assert is_transitive([t % 2**k for t in tab[: 2**k]])


def test_build_ergodic_trivial_and_corpus():
    assert is_transitive(table(build_ergodic(fa.const(0), 1, 3), 3, 4))
    rng = random.Random(7041)
    for p, k in ((2, 12), (3, 8), (5, 6)):
        for _ in range(3):
            v = random_compatible_ast(rng, p, rng.randint(1, 4))
            f = build_ergodic(v, 1 + p * rng.randint(0, 2), p)
            assert is_transitive(table(f, p, k)), (p, expr_to_json(v))


def test_is_class_b():
    assert is_class_b(fa.poly_node(RationalPoly([1, 2, 3])), 5)
    assert is_class_b(fa.const(Fraction(5, 18)), 5)
    assert not is_class_b(fa.const(Fraction(5, 18)), 3)
    assert is_class_b(fa.inv(fa.add(fa.const(1), fa.mul(fa.const(5), X))), 5)
    assert not is_class_b(fa.inv(X), 5)  # hits 0 mod 5
    one_unit_pow = fa.pow_(fa.add(fa.const(1), fa.mul(fa.const(5), X)), X)
    assert is_class_b(one_unit_pow, 5)
    # its base 1 + 5x is no 1-unit elsewhere: 6 = 0 mod 2, 11 = 2 mod 3
    assert not is_class_b(one_unit_pow, 2)
    assert not is_class_b(one_unit_pow, 3)
    assert is_class_b(fa.pow_(fa.const(201), X), 5)  # 201 = 1 mod 5, found semantically
    assert not is_class_b(fa.pow_(fa.add(fa.const(2), X), X), 5)
    assert not is_class_b(fa.xor(X, X), 2)
    assert not is_class_b(fa.add(X, fa.neg(X)), 2)
    assert is_class_b(fa.compose(fa.poly_node(RationalPoly([0, 0, 1])), fa.delta(X)), 3)


def test_build_composite_generator():
    from padicforge.core import CompositeModulus

    m = CompositeModulus.from_int(10)
    zero = RationalPoly([0])
    f = build_composite_generator(zero, zero, zero, m)
    assert table(f, 2, 3) == [(1 + x) % 8 for x in range(8)]
    inversive = build_composite_generator(
        RationalPoly([1]), RationalPoly([0, 1]), RationalPoly([-1]), m
    )
    for p in (2, 5):
        assert is_transitive(table(inversive, p, 5)), p
    exponential = build_composite_generator(
        RationalPoly([1]), RationalPoly([0, 20]), RationalPoly([0, 1]), m
    )
    for p in (2, 5):
        assert is_transitive(table(exponential, p, 4)), p
    with pytest.raises(ValueError):
        build_composite_generator(RationalPoly([Fraction(1, 2)]), zero, zero, m)


def test_triangle_eval():
    flip = BoolTriangle(([()], [], [], []))  # psi_0 = 1, others 0
    m = Modulus(2, 4)
    tab = [int(triangle_eval(flip, ResidueInt(x, m))) for x in range(16)]
    assert tab == [x ^ 1 for x in range(16)]
    assert is_bijection(tab)

    four_cycle = BoolTriangle(([()], [[0]]))
    m2 = Modulus(2, 2)
    tab2 = [int(triangle_eval(four_cycle, ResidueInt(x, m2))) for x in range(4)]
    assert is_transitive(tab2)

    flat = BoolTriangle(([()], []))  # psi_1 = 0 has even weight
    tab3 = [int(triangle_eval(flat, ResidueInt(x, m2))) for x in range(4)]
    assert not is_transitive(tab3)

    with pytest.raises(LengthMismatch):
        triangle_eval(four_cycle, ResidueInt(0, Modulus(2, 3)))
    with pytest.raises(BitwiseOddPrime):
        triangle_eval(four_cycle, ResidueInt(0, Modulus(3, 2)))
    with pytest.raises(ValueError):
        BoolTriangle(([()], [[1]]))


def all_triangles(n):
    """Every length-n triangle, by choosing each psi_i's monomial subset."""
    import itertools

    per_digit = []
    for i in range(n):
        monos = [frozenset(s) for r in range(i + 1) for s in itertools.combinations(range(i), r)]
        per_digit.append([set(c) for r in range(len(monos) + 1) for c in itertools.combinations(monos, r)])
    for combo in itertools.product(*per_digit):
        yield BoolTriangle(tuple(combo))


def test_triangle_transitive_form_matches_walk():
    for n in (1, 2, 3):
        m = Modulus(2, n)
        count = 0
        for t in all_triangles(n):
            count += 1
            tab = [int(triangle_eval(t, ResidueInt(x, m))) for x in range(2**n)]
            verdict = triangle_ergodicity_certificate(t).verdict
            assert (verdict == PROVEN) == is_transitive(tab), t.psi
        assert count == 2 ** (2**n - 1)


def test_triangle_weight_vs_truth_table():
    import itertools

    rng = random.Random(65)
    for nvars in (1, 2, 3):
        monos = [frozenset(s) for r in range(nvars + 1) for s in itertools.combinations(range(nvars), r)]
        for _ in range(12):
            chosen = [mo for mo in monos if rng.random() < 0.5]
            t = BoolTriangle(tuple([[]] * nvars + [chosen]))
            weight = 0
            for bits in itertools.product((0, 1), repeat=nvars):
                weight += triangle_digit(t, nvars, list(bits))
            assert t.has_odd_weight(nvars) == (weight % 2 == 1)


def test_parse_examples():
    e = parse_dsl("1 + x + 2*((x+1) xor x)")
    assert e.kind == "ADD"
    assert e.children[0].kind == "ADD"
    two_g = e.children[1]
    assert two_g.kind == "MUL" and two_g.children[1].kind == "XOR"

    p = parse_dsl("(1 + 2*x)^(-1)")
    assert p.kind == "POW"
    assert p.children[1].kind == "CONST" and p.children[1].value == -1

    q = parse_dsl("1 + x + (5/18)*ff(x,6)")
    poly = q.children[1]
    assert poly.kind == "POLY" and poly.poly.basis == "falling"
    assert poly.poly.coeffs[6] == Fraction(5, 18)
    assert ev(q, 7, 5, 3) == 33

    r = parse_dsl("1 + x + 201^x")
    assert r.children[1].kind == "POW"
    assert ev(r, 0, 5, 2) == 1 + 0 + 1

    assert parse_dsl("\u0663*x") == fa.mul(fa.const(3), X)  # a decimal digit in another script


def test_parse_matches_built_ast():
    text = "7 + x + 2*(((x*x + 2*x + 1) xor ((x+1) + (32 and (x+1)))) + neg((x*x) xor (x + (32 and x))))"
    parsed = parse_dsl(text)
    v = fa.xor(
        fa.poly_node(RationalPoly([0, 0, 1])),
        fa.add(X, fa.and_(fa.const(32), X)),
    )
    built = build_ergodic(v, 7, 2)
    # the parsed form writes -v(x) as neg(v(x)) inside the doubled term:
    # 2*(a + neg b) = 2a - 2b - 2, so built and parsed differ by the known shift
    for x in range(64):
        assert ev(parsed, x, 2, 6) == (ev(built, x, 2, 6) - 2) % 64


def test_parse_errors():
    with pytest.raises(DslSyntaxError) as err:
        parse_dsl("1 +")
    assert err.value.line == 1
    with pytest.raises(UnknownIdentifier) as err:
        parse_dsl("1 + y")
    assert (err.value.line, err.value.col) == (1, 5)
    with pytest.raises(DslSyntaxError):
        parse_dsl("xor(1)")
    with pytest.raises(DslSyntaxError):
        parse_dsl("(x")
    with pytest.raises(DslSyntaxError) as err:
        parse_dsl("1 +\n  @")
    assert err.value.line == 2
    with pytest.raises(DslSyntaxError):
        parse_dsl("ff(3, x)")
    with pytest.raises(DslSyntaxError):
        parse_dsl("1/0")


@pytest.mark.parametrize("text, message, position", [
    ("", "unexpected 'end of input'", (1, 1)),
    ("(x +\n 1", "expected ')', found 'end of input'", (2, 3)),
    ("1 + " + "7" * 5000, "integer literal of 5000 digits", (1, 5)),
    ("x + 2\u00b2", "unexpected '\u00b2'", (1, 6)),  # a digit int() refuses
    ("x\t+ \u00bd", "unknown identifier '\u00bd'", (1, 5)),
    ("x + $", "unexpected character '$'", (1, 5)),
])
def test_parse_errors_name_their_position(text, message, position):
    with pytest.raises(DslError) as err:
        parse_dsl(text)
    assert (err.value.line, err.value.col) == position
    assert str(err.value).startswith(message)
    assert str(err.value).endswith(f" at line {position[0]}, column {position[1]}")


DSL_FUZZ_CASES = 50_000
# sha256 of every case's tree or error type and position, as the parser gave
# them before its tokenizer became one regular expression
DSL_FUZZ_DIGEST = "01e6f0ecfaeb78f73070d21240b02499829609fa9eea25841198308b90c07482"


def test_dsl_fuzz_parses_or_names_a_position():
    """Each seeded DSL string, valid or mutated, parses or raises a DslError
    that names its line and column, in well under a second."""
    digest, parsed, slowest = hashlib.sha256(), 0, 0.0
    for text in dsl_cases(16, DSL_FUZZ_CASES):
        t0 = time.perf_counter()
        try:
            outcome = expr_to_json(parse_dsl(text))
            parsed += 1
        except DslError as exc:
            outcome = f"{type(exc).__name__} {exc.line} {exc.col}"
            assert str(exc).endswith(f" at line {exc.line}, column {exc.col}")
        slowest = max(slowest, time.perf_counter() - t0)
        digest.update(outcome.encode() + b"\n")
    assert slowest < 0.5
    assert DSL_FUZZ_CASES // 4 < parsed < DSL_FUZZ_CASES * 3 // 4
    assert digest.hexdigest() == DSL_FUZZ_DIGEST


def test_json_roundtrip():
    rng = random.Random(2024)
    for p in (2, 5):
        for _ in range(6):
            e = random_compatible_ast(rng, p, 3)
            back = expr_from_json(expr_to_json(e))
            for x in range(20):
                assert ev(back, x, p, 3) == ev(e, x, p, 3)


CHAINS = {"ADD": (fa.add, operator.add), "SUB": (fa.sub, operator.sub),
          "MUL": (fa.mul, operator.mul), "XOR": (fa.xor, operator.xor),
          "AND": (fa.and_, operator.and_), "OR": (fa.or_, operator.or_)}


@pytest.mark.parametrize("kind", sorted(CHAINS))
@pytest.mark.parametrize("nesting", ["left", "right"])
def test_3000_term_chains_need_no_recursion(kind, nesting):
    build, op = CHAINS[kind]
    terms = [X if j % 3 else fa.const(j % 11 + 1) for j in range(3000)]
    e = terms[0] if nesting == "left" else terms[-1]
    for t in terms[1:] if nesting == "left" else reversed(terms[:-1]):
        e = build(e, t) if nesting == "left" else build(t, e)
    m = Modulus(2, 16)
    fn = compile_map(e, m)
    for x in (0, 1, 777, m.value - 1):
        vals = [x if t.kind == "VAR" else int(t.value) for t in terms]
        want = vals[0] if nesting == "left" else vals[-1]
        for v in vals[1:] if nesting == "left" else reversed(vals[:-1]):
            want = (op(want, v) if nesting == "left" else op(v, want)) % m.value
        assert fn(x) == want, (kind, nesting, x)
    text = expr_to_json(e)
    assert expr_to_json(expr_from_json(text)) == text
    tag = {"ADD": Z_POLY, "SUB": Z_POLY, "MUL": CLASS_B}.get(kind, GENERIC_COMPATIBLE)
    assert infer_class(e, 2).tag == tag
    assert is_class_b(e, 2) == (kind in ("ADD", "SUB", "MUL"))


def dataclass_key(e):
    """The tuple a recursive dataclass would compare; small trees only."""
    return (e.kind, tuple(map(dataclass_key, e.children)), e.value, e.poly)


def test_eq_hash_repr_are_structural():
    rng = random.Random(5)
    trees = [random_compatible_ast(rng, p, rng.randint(0, 4)) for p in (2, 3, 5) for _ in range(40)]
    one_unit_pow = fa.pow_(fa.add(fa.const(1), fa.mul(fa.const(2), X)), X)
    trees += [one_unit_pow, fa.neg(X), parse_dsl("ff(x, 3) + 1/3")]
    rebuilt = lambda e: fa.FnExpr(e.kind, tuple(map(rebuilt, e.children)), e.value, e.poly)
    equal_pairs = 0
    for a in trees:
        twin = rebuilt(a)
        assert a == twin and hash(a) == hash(twin) and repr(a) == repr(twin)
        for b in trees[:30]:
            same = dataclass_key(a) == dataclass_key(b)
            assert (a == b) == same and (repr(a) == repr(b)) == same
            equal_pairs += same and a is not b
    assert equal_pairs >= 10
    assert one_unit_pow != fa.FnExpr("POW", (X, X))
    assert repr(fa.neg(X)) == "FnExpr(postfix=[('VAR', 0, None, None), ('NEG', 1, None, None)])"
    assert X != "VAR" and X.__eq__("VAR") is NotImplemented


def test_equal_trees_parsed_apart_share_one_cache_entry(monkeypatch):
    source = "1 + x + 2*((x*x) xor ((x + 32) and x))"
    a, b, c = parse_dsl(source), parse_dsl(source), parse_dsl(source + " + 1")
    m = Modulus(2, 13)  # a modulus no other test compiles at
    before = expr._generated.cache_info()
    assert compile_map(a, m) is compile_map(b, m)
    after = expr._generated.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
    # once hashed, trees compare by their cached hashes and postfix keys
    assert hash(a) == hash(b) != hash(c)
    monkeypatch.setattr(fa.FnExpr, "_postfix", lambda self: pytest.fail("walked a tree"))
    assert a == b and a is not b
    assert a != c and c != b
    # equal hashes alone do not make trees equal
    object.__setattr__(c, "_hash", hash(a))
    assert a != c and c != a


def test_eq_hash_repr_of_3000_term_chain_need_no_recursion():
    source = " xor ".join(["x"] * 3000)
    a, b = parse_dsl(source), parse_dsl(source)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != parse_dsl(source + " xor 1") and a != parse_dsl("x or " + source)
    text = repr(a)
    assert text.startswith("FnExpr(postfix=[('VAR', 0, None, None), ('VAR', 0,")
    assert text.count("'VAR'") == 3000 and text.count("'XOR'") == 2999
    spec, twin = (GeneratorSpec(e, Modulus(2, 8), 0, unchecked=True) for e in (a, b))
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != GeneratorSpec(parse_dsl(source + " xor 1"), Modulus(2, 8), 0, unchecked=True)
    assert repr(spec).count("'XOR'") == 2999


def test_spec_nesting_capped_at_max_nesting():
    # chain links are no level: NEG levels are, each between two long sums
    sum_of = lambda e: fa.add(fa.add(e, X), fa.sub(X, fa.add(X, X)))
    for depth in (_MAX_NESTING, _MAX_NESTING + 1, 3000):
        e = X
        for _ in range(depth):
            e = fa.neg(e)
        mixed = X
        for _ in range(depth // 2):
            mixed = sum_of(fa.neg(mixed))
        for tree, levels in ((e, depth), (mixed, 2 * (depth // 2))):
            text = expr_to_json(tree)
            if levels <= _MAX_NESTING:
                assert expr_from_json(text) == tree
            else:
                with pytest.raises(ValueError, match=f"deeper than {_MAX_NESTING} levels"):
                    expr_from_json(text)
    nested = '{"kind": "NEG", "children": [' * 101 + '{"kind": "VAR"}' + "]}" * 101
    with pytest.raises(ValueError, match=f"deeper than {_MAX_NESTING} levels"):
        expr_from_json(nested)


def test_parser_and_spec_loader_agree_on_depth():
    # neg(...)^x nested d deep is d source levels but 2d tree levels, and
    # 1 + x + 2*delta(...) adds three more: 99 at d = 48, 101 at d = 49
    for depth in (48, 49, 60):
        text, tree = "x", X
        for _ in range(depth):
            text, tree = f"neg({text})^x", fa.pow_(fa.neg(tree), X)
        text = f"1 + x + 2*delta({text})"
        tree = fa.add(fa.add(fa.const(1), X), fa.mul(fa.const(2), fa.delta(tree)))
        if 2 * depth + 3 <= _MAX_NESTING:
            parsed = parse_dsl(text)
            assert parsed == tree
            assert expr_from_json(expr_to_json(parsed)) == parsed
            continue
        with pytest.raises(DslSyntaxError, match=f"deeper than {_MAX_NESTING} levels"):
            parse_dsl(text)
        with pytest.raises(ValueError, match=f"deeper than {_MAX_NESTING} levels"):
            expr_from_json(expr_to_json(tree))


def test_delta_nesting_capped_in_source_and_spec():
    # d deltas on one path evaluate their core 2^d times per point, so both
    # readers refuse more than _MAX_DELTAS; a sum between them is no level
    for depth in (_MAX_DELTAS, _MAX_DELTAS + 1):
        text, tree = "x xor 3", fa.xor(X, fa.const(3))
        for _ in range(depth):
            text, tree = f"x + delta({text})", fa.add(X, fa.delta(tree))
        if depth <= _MAX_DELTAS:
            assert parse_dsl(text) == tree
            assert expr_from_json(expr_to_json(tree)) == tree
            continue
        with pytest.raises(DslSyntaxError) as err:
            parse_dsl(text)
        assert (err.value.line, err.value.col) == (1, text.rindex("delta(") + 1)
        assert str(err.value).startswith(f"delta nested deeper than {_MAX_DELTAS} levels")
        with pytest.raises(ValueError, match=f"^delta nested deeper than {_MAX_DELTAS} levels$"):
            expr_from_json(expr_to_json(tree))
    # deltas side by side are one level each
    siblings = " + ".join(["delta(delta(x xor 3))"] * (4 * _MAX_DELTAS))
    assert expr_from_json(expr_to_json(parse_dsl(siblings))) == parse_dsl(siblings)


def test_three_machine_forms():
    # reference f = 1 + x + 2*(v(x+1) - v(x)); the two NEG rewritings match it
    # exactly, the third classic display sits 2 lower since neg z = -1 - z
    vs = [
        fa.xor(X, fa.add(fa.mul(fa.const(2), X), fa.const(1))),
        fa.poly_node(RationalPoly([0, 0, 1])),
        fa.and_(X, fa.neg(X)),
    ]
    for v in vs:
        v_next = fa.compose(v, fa.add(X, fa.const(1)))
        reference = build_ergodic(v, 1, 2)
        form_b = fa.add(
            fa.add(fa.const(2), X),
            fa.add(fa.mul(fa.const(2), v_next), fa.neg(fa.mul(fa.const(2), v))),
        )
        form_c = fa.add(
            fa.add(fa.const(3), X),
            fa.add(fa.mul(fa.const(2), v_next), fa.mul(fa.const(2), fa.neg(v))),
        )
        form_a = fa.add(
            fa.add(fa.const(1), X),
            fa.mul(fa.const(2), fa.add(v_next, fa.neg(v))),
        )
        for k in (1, 4, 7, 10):
            size = 2**k
            for x in range(size):
                want = ev(reference, x, 2, k)
                assert ev(form_b, x, 2, k) == want
                assert ev(form_c, x, 2, k) == want
                assert ev(form_a, x, 2, k) == (want - 2) % size
        # every form is a single cycle regardless of the shift
        for form in (reference, form_a, form_b, form_c):
            assert is_transitive(table(form, 2, 6))
