"""Seeded random AST corpora for property tests and the acceptance suite.

Generation only; value-level oracles stay in oracles.py.
"""

import random

from padicforge import funcalg as fa
from padicforge.mahler import RationalPoly


def _leaf(rng: random.Random, p: int) -> fa.FnExpr:
    roll = rng.random()
    if roll < 0.45:
        return fa.var()
    if roll < 0.75:
        return fa.const(rng.randint(0, 12))
    degree = rng.randint(1, 3)
    coeffs = [rng.randint(-6, 6) for _ in range(degree + 1)]
    return fa.poly_node(RationalPoly(coeffs))


def random_compatible_ast(rng: random.Random, p: int, depth: int) -> fa.FnExpr:
    """Random 1-Lipschitz expression of the given nesting depth.

    POW bases are built in verified 1 + p*h shape and INV children as
    1 + p*h (a pointwise unit), so every draw is compatible by
    construction, whatever the mix of node kinds above it.
    """
    if depth <= 0:
        return _leaf(rng, p)
    kinds = ["ADD", "ADD", "SUB", "MUL", "POW", "INV", "DELTA", "COMPOSE"]
    if p == 2:
        kinds += ["XOR", "XOR", "AND", "OR", "NEG"]
    kind = rng.choice(kinds)
    child = lambda: random_compatible_ast(rng, p, depth - 1)
    if kind == "ADD":
        return fa.add(child(), child())
    if kind == "SUB":
        return fa.sub(child(), child())
    if kind == "MUL":
        return fa.mul(child(), child())
    if kind == "XOR":
        return fa.xor(child(), child())
    if kind == "AND":
        return fa.and_(child(), child())
    if kind == "OR":
        return fa.or_(child(), child())
    if kind == "NEG":
        return fa.neg(child())
    if kind == "POW":
        base = fa.add(fa.const(1), fa.mul(fa.const(p), child()))
        return fa.pow_(base, child())
    if kind == "INV":
        return fa.inv(fa.add(fa.const(1), fa.mul(fa.const(p), child())))
    if kind == "DELTA":
        return fa.delta(child())
    return fa.compose(child(), child())


# Pieces a mutation inserts: characters of every token class, names the DSL
# knows and does not, and a non-ASCII letter and decimal digit.
_DSL_PIECES = list("x0123456789+-*/^(),_ \t\n\r$.;=é٣\x0b") + [
    "xor", "and", "or", "neg(", "inv(", "delta(", "ff(x, ", "not", "x1", "99", "/0", "(("]


def random_dsl(rng: random.Random, depth: int) -> str:
    """Random DSL source of nesting at most `depth` (plus, rarely, a nest
    near the parser's limit), in the grammar but with no promise that its
    map evaluates; separators vary between none, blanks, tabs and newlines."""
    sep = lambda: rng.choice(("", " ", " ", "  ", "\t", "\n", "\r\n "))
    child = lambda: random_dsl(rng, depth - 1)
    roll = rng.random()
    if roll < 0.002:
        n = rng.randint(95, 105)
        return "(" * n + child() + ")" * n
    if depth <= 0 or roll < 0.3:
        if roll < 0.15:
            return "x"
        if roll < 0.24:
            return str(rng.randint(0, 99))
        if roll < 0.27:
            return f"{rng.randint(0, 20)}/{rng.randint(0, 12)}"
        return f"ff({sep()}x,{sep()}{rng.randint(0, 70)})"
    pick = rng.randrange(7)
    if pick == 0:
        return f"{child()}{sep()}{rng.choice('+-*')}{sep()}{child()}"
    if pick == 1:
        return f"{child()} {rng.choice(('xor', 'and', 'or'))}{sep()} {child()}"
    if pick == 2:
        return f"({sep()}{child()}{sep()})"
    if pick == 3:
        return f"-{sep()}{child()}"
    if pick == 4:
        return f"({child()}){sep()}^{sep()}({child()})"
    if pick == 5:
        name = rng.choice(("neg", "inv", "delta"))
        return f"{name}({child()})"
    name = rng.choice(("xor", "and", "or"))
    return f"{name}({child()},{sep()}{child()})"


def mutated_dsl(rng: random.Random, text: str) -> str:
    """text after one to three random deletions, insertions, cuts and copies."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = rng.randint(i, min(len(text), i + 8))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(_DSL_PIECES) + text[i:]
        elif op == 2:
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def dsl_cases(seed: int, count: int):
    """`count` seeded DSL strings, about half of them mutated."""
    rng = random.Random(seed)
    for _ in range(count):
        text = random_dsl(rng, rng.randint(0, 5))
        yield mutated_dsl(rng, text) if rng.random() < 0.5 else text
