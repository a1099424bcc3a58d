"""Expression nodes and their evaluation mod p^k, compiled once per modulus.

Every node kind except POLY computes a 1-Lipschitz function of its inputs,
so arbitrary compositions stay 1-Lipschitz and evaluation mod p^k is well
defined on residues.  POLY leaves are the one escape hatch: a polynomial
with rational coefficients need not be 1-Lipschitz (C(x,2) is not), and
they evaluate at the exact integer representative.  Callers composing
POLY leaves own that choice.

Bitwise nodes (XOR/AND/OR/NEG) act on base-2 digit expansions and are
rejected outside p = 2.  POW bases must be 1-units and INV arguments
units, both checked at every point.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import BaseNotOneUnit, Modulus, NotAUnit, ResidueInt, mod_inverse
from .mahler import MahlerSeries, RationalPoly

KINDS = frozenset(
    "VAR CONST ADD SUB MUL XOR AND OR NEG POW INV POLY DELTA COMPOSE".split()
)
_BITWISE = frozenset(("XOR", "AND", "OR", "NEG"))


class BitwiseOddPrime(ValueError):
    """Bitwise node evaluated at an odd prime."""


@dataclass(frozen=True)
class FnExpr:
    kind: str
    children: tuple = ()
    value: Fraction = None
    poly: RationalPoly = None
    base_verified: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")


# An expression compiles once per modulus into nested closures, a
# straight-line program over Z/p^k: constants are reduced up front and
# ADD/SUB/MUL chains become one n-ary closure with their constant operands
# folded.  _compile returns an int for a subtree that is a constant and
# cannot raise, and an int -> int closure for everything else.  A closure
# takes the exact integer point, as the node semantics require: VAR
# reduces it, POLY consumes it, DELTA shifts it.
#
# Errors keep their point of evaluation.  A subtree that fails whatever the
# input (a bitwise node at odd p, a rational constant whose denominator is
# divisible by p) compiles to a closure that raises when it is reached, so
# an evaluation raises the same exception, with the same message, at the
# same input and in the same left-to-right order as evaluating the tree
# node by node.  Compiling raises nothing for a well-formed tree.


def _raising(exc):
    """Closure raising a fresh copy of exc when it is evaluated."""
    kind, args = type(exc), exc.args

    def fail(x):
        raise kind(*args)

    return fail


def _lift(c):
    """The closure form of a compiled subtree."""
    return c if callable(c) else lambda x: c


def _chain(e: FnExpr, kinds):
    """Operands of a left-to-right chain of `kinds` nodes, with their signs."""
    out = []
    stack = [(e, 1)]
    while stack:
        node, sign = stack.pop()
        if node.kind in kinds:
            a, b = node.children
            stack.append((b, -sign if node.kind == "SUB" else sign))
            stack.append((a, sign))
        else:
            out.append((sign, node))
    return out


def _product(e: FnExpr, m: Modulus):
    """MUL chain as (constant factor, power of x, closures of other factors)."""
    mv = m.value
    c, xpow, fns = 1, 0, []
    for _, node in _chain(e, ("MUL",)):
        if node.kind == "VAR":
            xpow += 1
            continue
        f = _compile(node, m)
        if callable(f):
            fns.append(f)
        else:
            c = c * f % mv
    return c, xpow, tuple(fns)


def _compile_mul(e: FnExpr, m: Modulus):
    mv = m.value
    c, xpow, fns = _product(e, m)
    if not fns and not xpow:
        return c
    f = _monomial_fn(xpow, fns, mv)
    return f if c == 1 else (lambda x: c * f(x) % mv)


def _monomial_fn(xpow, fns, mv):
    """x^xpow times the product of fns(x), mod mv; fns run left to right."""
    if not fns:
        return (lambda x: x % mv) if xpow == 1 else (lambda x: pow(x, xpow, mv))
    if len(fns) == 1 and not xpow:
        return fns[0]
    if len(fns) == 1:
        (f,) = fns
        return lambda x: f(x) * pow(x, xpow, mv) % mv

    def prod(x):
        acc = pow(x, xpow, mv)
        for f in fns:
            acc = acc * f(x) % mv
        return acc

    return prod


def _compile_sum(e: FnExpr, m: Modulus):
    """ADD/SUB chain as offset + a*x + sum of c_i * term_i(x), mod p^k."""
    mv = m.value
    offset, a, terms = 0, 0, []
    for sign, node in _chain(e, ("ADD", "SUB")):
        if node.kind == "VAR":
            a += sign
            continue
        if node.kind == "MUL":
            c, xpow, fns = _product(node, m)
            if not fns and xpow <= 1:
                if xpow:
                    a += sign * c
                else:
                    offset += sign * c
                continue
            terms.append((sign * c % mv, _monomial_fn(xpow, fns, mv)))
            continue
        f = _compile(node, m)
        if callable(f):
            terms.append((sign % mv, f))
        else:
            offset += sign * f
    offset, a = offset % mv, a % mv
    if not terms:
        if not a:
            return offset
        return lambda x: (offset + a * x) % mv
    if len(terms) == 1:
        ((c, f),) = terms
        if c == 1:
            return lambda x: (offset + a * x + f(x)) % mv
        return lambda x: (offset + a * x + c * f(x)) % mv
    terms = tuple(terms)

    def total(x):
        acc = offset + a * x
        for c, f in terms:
            acc += c * f(x)
        return acc % mv

    return total


def _compile_bitwise(e: FnExpr, m: Modulus):
    kind = e.kind
    if m.p != 2:
        return _raising(BitwiseOddPrime(f"{kind} needs p = 2, modulus is {m}"))
    mv = m.value
    top = mv - 1
    if kind == "NEG":
        f = _compile(e.children[0], m)
        if not callable(f):
            return top - f
        return lambda x: top - f(x)
    f, g = (_compile(c, m) for c in e.children)
    if not callable(f) and not callable(g):
        return {"XOR": f ^ g, "AND": f & g, "OR": f | g}[kind]
    f, g = _lift(f), _lift(g)
    if kind == "XOR":
        return lambda x: f(x) ^ g(x)
    if kind == "AND":
        return lambda x: f(x) & g(x)
    return lambda x: f(x) | g(x)


def _compile_pow(e: FnExpr, m: Modulus):
    """1-unit power, with the check and messages of core.unit_pow.  The base
    and the exponent are both evaluated before the base is checked."""
    p, mv = m.p, m.value
    why = "is even, not a unit mod" if p == 2 else "is not a 1-unit mod"
    base, expo = (_compile(c, m) for c in e.children)
    if not callable(base) and base % p == 1:
        if not callable(expo):
            return pow(base, expo, mv)
        return lambda x: pow(base, expo(x), mv)
    base, expo = _lift(base), _lift(expo)

    def power(x):
        a = base(x)
        n = expo(x)
        if a % p != 1:
            raise BaseNotOneUnit(f"{a} {why} {m}")
        return pow(a, n, mv)

    return power


def _compile_inv(e: FnExpr, m: Modulus):
    """Unit inverse, with the check and message of core.mod_inverse."""
    p, mv = m.p, m.value
    f = _compile(e.children[0], m)
    if not callable(f):
        if f % p:
            return pow(f, -1, mv)
        return _raising(NotAUnit(f"{f} is divisible by {p}"))

    def inverse(x):
        a = f(x)
        if a % p == 0:
            raise NotAUnit(f"{a} is divisible by {p}")
        return pow(a, -1, mv)

    return inverse


def _compile(e: FnExpr, m: Modulus):
    kind = e.kind
    mv = m.value
    if kind == "VAR":
        return lambda x: x % mv
    if kind == "CONST":
        q = e.value
        if q.denominator == 1:
            return q.numerator % mv
        try:
            return q.numerator * mod_inverse(ResidueInt(q.denominator % mv, m)).residue % mv
        except NotAUnit as exc:
            return _raising(exc)
    if kind == "POLY":
        return e.poly.compile_mod(m)
    if kind in ("ADD", "SUB"):
        return _compile_sum(e, m)
    if kind == "MUL":
        return _compile_mul(e, m)
    if kind in _BITWISE:
        return _compile_bitwise(e, m)
    if kind == "POW":
        return _compile_pow(e, m)
    if kind == "INV":
        return _compile_inv(e, m)
    if kind == "DELTA":
        # the child runs at the exact point x + 1, so a POLY leaf that is
        # not 1-Lipschitz sees p^k rather than 0 at the wrap point
        f = _compile(e.children[0], m)
        if not callable(f):
            return 0
        return lambda x: (f(x + 1) - f(x)) % mv
    if kind == "COMPOSE":
        outer, inner = (_lift(_compile(c, m)) for c in e.children)
        return lambda x: outer(inner(x))
    raise AssertionError(kind)


def compile_map(f, m: Modulus) -> Callable[[int], int]:
    """f as a plain int -> int closure mod m, built once for this modulus.

    Takes an FnExpr, a RationalPoly, a MahlerSeries or a Python callable
    (whose values are reduced mod m).  Expressions and polynomials take the
    exact integer point: pass residues in 0..m-1 for values of the map on
    Z/m.  Evaluation errors raise when the failing node is evaluated,
    exactly as node-by-node evaluation raises them.
    """
    if isinstance(f, FnExpr):
        return _lift(_compile(f, m))
    if isinstance(f, RationalPoly):
        return f.compile_mod(m)
    if isinstance(f, MahlerSeries):
        if f.p != m.p:
            raise ValueError(f"series is {f.p}-adic, modulus is {m.p}-adic")
        return lambda x: f.eval(ResidueInt(x, m)).residue
    if callable(f):
        mv = m.value
        return lambda x: f(x) % mv
    raise TypeError(f"cannot evaluate {type(f).__name__} as a map")


def evaluator(e: FnExpr, m: Modulus):
    """Plain int -> int closure for bulk evaluation loops; see compile_map."""
    return compile_map(e, m)
