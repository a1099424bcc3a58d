"""Expression nodes, the walks over them, and their evaluation mod p^k.

Every node kind except POLY computes a 1-Lipschitz function of its inputs,
so arbitrary compositions stay 1-Lipschitz and evaluation mod p^k is well
defined on residues.  POLY leaves are the one escape hatch: a polynomial
with rational coefficients need not be 1-Lipschitz (C(x,2) is not), and
they evaluate at the exact integer representative.  Callers composing
POLY leaves own that choice.

Bitwise nodes (XOR/AND/OR/NEG) act on base-2 digit expansions and are
rejected outside p = 2.  POW bases must be 1-units and INV arguments
units, both checked at every point.

Every walk over a tree is one of two, each on an explicit stack, so no
tree is too deep to walk: `nodes(e)` yields the nodes in post-order, and
`fold(e, visit)` computes each node's value from its operands' values,
handing every ADD/SUB, MUL, XOR, AND or OR chain to `visit` as one call.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_, or_, xor
from typing import Callable

from .core import BaseNotOneUnit, Modulus, NotAUnit, ResidueInt, mod_inverse
from .mahler import MahlerSeries, RationalPoly

KINDS = frozenset(
    "VAR CONST ADD SUB MUL XOR AND OR NEG POW INV POLY DELTA COMPOSE".split()
)
_BITWISE = frozenset(("XOR", "AND", "OR", "NEG"))
# A node absorbs the operands of a child of its own group: ADD and SUB
# chain together, each other chain kind with itself.
_GROUP = {"ADD": "+", "SUB": "+", "MUL": "*", "XOR": "^", "AND": "&", "OR": "|"}
_BITOPS = {"XOR": xor, "AND": and_, "OR": or_}


class BitwiseOddPrime(ValueError):
    """Bitwise node evaluated at an odd prime."""


@dataclass(frozen=True, eq=False, repr=False)
class FnExpr:
    kind: str
    children: tuple = ()
    value: Fraction = None
    poly: RationalPoly = None
    base_verified: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._postfix() == other._postfix()

    def __hash__(self):
        return hash(self._postfix())

    def __repr__(self):
        return f"FnExpr(postfix={list(self._postfix())})"

    def _postfix(self):
        """Each node's (kind, child count, value, poly, base_verified), post-order."""
        return tuple((n.kind, len(n.children), n.value, n.poly, n.base_verified)
                     for n in nodes(self))


def nodes(root, children=None):
    """Every node under root in post-order, children left to right first.
    `children` reads a node's children, so any tree of nodes will do."""
    order, todo = [], [root]
    while todo:  # pre-order, right child first: post-order reversed
        node = todo.pop()
        order.append(node)
        todo += node.children if children is None else children(node)
    return reversed(order)


def operands(node: FnExpr):
    """(signs, operands) that fold hands to visit with node.  A chain gives
    its operands left to right, a SUB negating its right side; any other
    node gives its children, with signs 1."""
    group = _GROUP.get(node.kind)
    if group is None:
        return (1,) * len(node.children), node.children
    a, b = node.children
    if _GROUP.get(a.kind) != group != _GROUP.get(b.kind):  # the common case
        return (1, -1 if node.kind == "SUB" else 1), node.children
    signs, ops, todo = [], [], [(1, node)]
    while todo:
        sign, n = todo.pop()
        if _GROUP.get(n.kind) == group:
            a, b = n.children
            todo += [(-sign if n.kind == "SUB" else sign, b), (sign, a)]
        else:
            signs.append(sign)
            ops.append(n)
    return signs, ops


def fold(e: FnExpr, visit):
    """visit(node, values, signs) computed bottom-up over e; returns e's.

    values are the operands' results, left to right.  A chain is one call
    on its top node: a + (b - c) - d calls visit once, with the values of
    a, b, c, d and signs [1, 1, -1, -1].  Outside ADD/SUB signs are all 1.
    """
    order, todo = [], [e]
    while todo:  # as in nodes, but over operands
        node = todo.pop()
        signs, ops = operands(node) if node.children else ((), ())
        order.append((node, signs))
        todo += ops
    values = []
    for node, signs in reversed(order):
        if signs:
            cut = len(values) - len(signs)
            values[cut:] = [visit(node, values[cut:], signs)]
        else:
            values.append(visit(node, (), ()))
    return values[0]


# An expression compiles once per modulus, by one fold, into closures
# nested one frame per level that is not a chain: every chain becomes one
# n-ary closure, ADD/SUB/MUL with their constant operands folded.  A
# compiled subtree is an int when it is a constant and cannot raise, an
# open product (c, xpow, fns) for x and MUL chains, so that sums inline
# their products, and else an int -> int closure.  A closure takes the
# exact integer point: VAR reduces it, POLY consumes it, DELTA shifts it.
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


def _close(v, mv):
    """A compiled subtree as an int or a closure: open products close here."""
    if not isinstance(v, tuple):
        return v
    c, xpow, fns = v
    if not fns and not xpow:
        return c
    f = _monomial_fn(xpow, fns, mv)
    return f if c == 1 else (lambda x: c * f(x) % mv)


def _product(vals, mv):
    """MUL chain as (constant factor, power of x, closures of other factors)."""
    c, xpow, fns = 1, 0, []
    for v in vals:
        if isinstance(v, tuple):  # x: no operand of a chain is a product
            xpow += 1
        elif callable(v):
            fns.append(v)
        else:
            c = c * v % mv
    return c, xpow, tuple(fns)


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


def _compile_sum(vals, signs, mv):
    """ADD/SUB chain as offset + a*x + sum of c_i * term_i(x), mod p^k."""
    offset, a, terms = 0, 0, []
    for sign, v in zip(signs, vals):
        if isinstance(v, tuple):
            c, xpow, fns = v
            if not fns and xpow <= 1:
                if xpow:
                    a += sign * c
                else:
                    offset += sign * c
                continue
            terms.append((sign * c % mv, _monomial_fn(xpow, fns, mv)))
        elif callable(v):
            terms.append((sign % mv, v))
        else:
            offset += sign * v
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


def _compile_bitwise(kind, fs, m: Modulus):
    if m.p != 2:
        return _raising(BitwiseOddPrime(f"{kind} needs p = 2, modulus is {m}"))
    top = m.value - 1
    if kind == "NEG":
        (f,) = fs
        return (lambda x: top - f(x)) if callable(f) else top - f
    op = _BITOPS[kind]
    if not any(map(callable, fs)):
        return reduce(op, fs)
    if len(fs) == 2:
        f, g = map(_lift, fs)
        return {"XOR": lambda x: f(x) ^ g(x), "AND": lambda x: f(x) & g(x),
                "OR": lambda x: f(x) | g(x)}[kind]
    first, *rest = map(_lift, fs)

    def chain(x):
        acc = first(x)
        for f in rest:
            acc = op(acc, f(x))
        return acc

    return chain


def _compile_pow(base, expo, m: Modulus):
    """1-unit power, with the check and messages of core.unit_pow.  The base
    and the exponent are both evaluated before the base is checked."""
    p, mv = m.p, m.value
    why = "is even, not a unit mod" if p == 2 else "is not a 1-unit mod"
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


def _compile_inv(f, m: Modulus):
    """Unit inverse, with the check and message of core.mod_inverse."""
    p, mv = m.p, m.value
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
    """e compiled mod m, as an int or an int -> int closure."""
    mv = m.value

    def visit(node, vals, signs):
        kind = node.kind
        if kind == "VAR":
            return (1, 1, ())
        if kind == "CONST":
            q = node.value
            if q.denominator == 1:
                return q.numerator % mv
            try:
                return q.numerator * mod_inverse(ResidueInt(q.denominator % mv, m)).residue % mv
            except NotAUnit as exc:
                return _raising(exc)
        if kind == "POLY":
            return node.poly.compile_mod(m)
        if kind in ("ADD", "SUB"):
            return _compile_sum(vals, signs, mv)
        if kind == "MUL":
            return _product(vals, mv)
        vals = [_close(v, mv) for v in vals]
        if kind in _BITWISE:
            return _compile_bitwise(kind, vals, m)
        if kind == "POW":
            return _compile_pow(*vals, m)
        if kind == "INV":
            return _compile_inv(*vals, m)
        if kind == "DELTA":
            # the child runs at the exact point x + 1, so a POLY leaf that is
            # not 1-Lipschitz sees p^k rather than 0 at the wrap point
            (f,) = vals
            return (lambda x: (f(x + 1) - f(x)) % mv) if callable(f) else 0
        outer, inner = map(_lift, vals)  # COMPOSE
        return lambda x: outer(inner(x))

    return _close(fold(e, visit), mv)


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
