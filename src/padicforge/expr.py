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

`compile_map(e, m)` evaluates through generated Python, compiled once per
(tree, modulus) and cached: straight-line code that reduces mod p^k only
where a value must lie in [0, p^k), and raises every evaluation error at
the input, in the order and with the message of node-by-node evaluation.
Polynomials and interpolation series compile into the same code, as a
POLY leaf: there is one evaluator for every map.

`lane_table(e, m)` computes e's whole table mod m = 2^k, 2^10 <= m <= 2^16,
as one big-integer operation per node over packed lanes, for the brute
checkers, and returns it packed: one int, 32 bits per value.  It applies
to trees of VAR, CONST with an odd denominator, ADD, SUB, a product with
at most one non-constant factor, XOR, AND, OR, NEG, DELTA and COMPOSE,
and declines (returns None) on anything else.
None of those nodes can raise at p = 2 (an odd denominator is a unit, and
the bitwise nodes need only p = 2), so a table is never built where
evaluating point by point would have raised.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_, mul, or_, xor
from typing import Callable

from .core import Modulus, ResidueInt, mod_inverse, pack_slots, slot_ones, unit_pow, unpack_slots
from .mahler import MahlerSeries, NotIntegerValued, RationalPoly, WrongPrime, _poly_from_series

KINDS = frozenset(
    "VAR CONST ADD SUB MUL XOR AND OR NEG POW INV POLY DELTA COMPOSE".split()
)
_BITWISE = frozenset(("XOR", "AND", "OR", "NEG"))
# A node absorbs the operands of a child of its own group: ADD and SUB
# chain together, each other chain kind with itself.
_GROUP = {"ADD": "+", "SUB": "+", "MUL": "*", "XOR": "^", "AND": "&", "OR": "|"}


class BitwiseOddPrime(ValueError):
    """Bitwise node evaluated at an odd prime."""


@dataclass(frozen=True, eq=False, repr=False)
class FnExpr:
    kind: str
    children: tuple = ()
    value: Fraction = None
    poly: RationalPoly = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")

    def __eq__(self, other):  # unequal hashes part trees without a walk
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or hash(self) == hash(other) and self._key == other._key

    def __hash__(self):  # cached: compile_map's cache hashes every tree it gets
        h = self.__dict__.get("_hash")
        if h is None:  # the postfix it hashes is kept for __eq__
            object.__setattr__(self, "_key", self._postfix())
            h = hash(self._key)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):  # the cached hash is of strs: it differs by process
        return {k: v for k, v in self.__dict__.items() if k not in ("_hash", "_key")}

    def __repr__(self):
        return f"FnExpr(postfix={list(self._postfix())})"

    def _postfix(self):
        """Each node's (kind, child count, value, poly), post-order."""
        return tuple((n.kind, len(n.children), n.value, n.poly) for n in nodes(self))


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


def fold(e: FnExpr, visit, operands=operands):
    """visit(node, values, signs) computed bottom-up over e; returns e's.

    values are the operands' results, left to right.  A chain is one call
    on its top node: a + (b - c) - d calls visit once, with the values of
    a, b, c, d and signs [1, 1, -1, -1].  Outside ADD/SUB signs are all 1;
    `operands(node)` gives the (signs, operands) to fold over, as above.
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


# An expression compiles once per (tree, modulus) into a small generated
# module, kept in a bounded cache.  It has one function per point the tree
# is evaluated at: the root, each DELTA child (called at x + 1, then at x)
# and each COMPOSE outer map (called at the inner value, computed in line).
# A body is straight-line code: one statement per node that is not a leaf,
# one local per distinct subterm, assigned at its first use left to right.
# A chain is one statement with its constants folded, continued every
# _CHUNK operands, since compile() recurses on long expressions.
#
# Values stay congruent mod p^k and are reduced into [0, p^k) only after a
# product of non-constants (a constant times one operand is written into
# the statement that uses it), before POW, INV, a COMPOSE outer map or an
# error message sees them, and on return; at p = 2 by `& (2^k - 1)`, which
# keeps bitwise nodes exact.  POLY consumes the point x as given and DELTA
# shifts it.  A POLY leaf is one loop of Horner's rule over its integer-
# scaled coefficients (see _scaled), so its code does not grow with its
# degree; a linear one is one statement and a constant one a literal.  A
# literal POW exponent e is written as its least absolute residue mod p^k,
# so (...)^(-1) runs pow(a, -1, p^k), not pow(a, p^k - 1, p^k): exact for
# every base that passes the POW test, since such a base has a^(p^k) = 1.
#
# Errors keep their point of evaluation.  POW and INV test their operand in
# line and hand a failing one to core.unit_pow (with the exponent as the
# tree has it) and core.mod_inverse, a POLY leaf tests that its value is a
# p-adic integer, and a node that fails for every input (a bitwise node at
# odd p, a constant whose denominator is divisible by p) is a statement
# that raises there.
# So an evaluation raises the same exception, with the same message, at
# the same input and in the same left-to-right order as evaluating the
# tree node by node, and compiling raises nothing for a well-formed tree.

_CHUNK = 32
# chain kind -> operator, constant fold, identity and absorbing constant
# (each constant mod p^k)
_CHAINS = {"MUL": ("*", mul, 1, 0), "XOR": ("^", xor, 0, None),
           "AND": ("&", and_, -1, 0), "OR": ("|", or_, 0, -1)}


class _Module:
    """The generated functions of one tree mod m: their source and names."""

    def __init__(self, e: FnExpr, m: Modulus):
        self.m, self.p, self.mv = m, m.p, m.value
        self.env = {"m": m, "ResidueInt": ResidueInt, "unit_pow": unit_pow,
                    "mod_inverse": mod_inverse, "BitwiseOddPrime": BitwiseOddPrime,
                    "NotIntegerValued": NotIntegerValued}
        self.big = {}  # name -> a constant too long to write in decimal
        self.mvs = self.literal(m.value)
        self.mod = f" & {self.literal(m.value - 1)}" if m.p == 2 else f" % {self.mvs}"
        self.defs, self.funcs, self.key, keys = [], {}, {}, {}
        for n in nodes(e):  # post-order: callees are defined before callers
            k = (n.kind, n.value, n.poly, tuple([self.key[id(c)] for c in n.children]))
            self.key[id(n)] = keys.setdefault(k, len(keys))  # equal subtrees, equal keys
            if n.kind in ("DELTA", "COMPOSE"):
                self.function(n.children[0])
        self.root = self.function(e, named=True)

    def literal(self, v: int) -> str:
        """The constant v >= 0 as source: its decimal digits or, where they
        pass the int-to-str digit limit, a name bound to v in the env."""
        try:
            return str(v)
        except ValueError:
            name = f"K{len(self.big)}"
            self.big[name] = self.env[name] = v
            return name

    def constant(self, a: str):
        """The value of a if it is a constant (a literal or a bound name), else None."""
        return int(a) if a.isdigit() else self.big.get(a)

    def function(self, root, named=False):
        """The function computing root at x: its name or, when its body has
        no statement and no name is asked for, its value ("x" or a literal)."""
        k = self.key[id(root)]
        if k not in self.funcs:
            lines, value, exact = self.body(root)
            if not lines and not named and (self.constant(value) is not None or value == "x"):
                self.funcs[k] = value
                return value
            if lines and lines[-1].startswith(value + " = "):  # return it directly
                value = lines.pop()[len(value) + 3:]
                value = value if exact else f"({value})"
            ret = f"return {value}" if exact else f"return {value}{self.mod}"
            self.funcs[k] = name = f"f{len(self.defs)}"
            self.defs.append(f"def {name}(x):\n    " + "\n    ".join(lines + [ret]))
        return self.funcs[k]

    def operands(self, node):
        """(signs, operands) evaluated in the body that holds node."""
        if node.kind == "DELTA" or (node.kind in _BITWISE and self.p != 2):
            return (), ()
        if node.kind == "COMPOSE":
            return (1,), node.children[1:]
        return operands(node)

    def body(self, root):
        """(statements, value, whether value is reduced) of root at x; a
        value is a local, "x", a literal or a product "c * a" of those."""
        p, mv, mvs, mod = self.p, self.mv, self.mvs, self.mod
        lit, const = self.literal, self.constant
        lines, local, reduced = [], {}, set()

        def exact(a):
            return const(a) is not None or a in reduced

        def settled(a):
            """a reduced: x into a new local, a local where it was assigned."""
            if " " in a:  # a product c * b
                return assign(a + mod, True)
            b = "xr" if a == "x" else a
            if not exact(b):
                if b == a and lines[-1].startswith(a + " = "):
                    lines[-1] = f"{a} = ({lines[-1][len(a) + 3:]}){mod}"
                else:
                    lines.append(f"{b} = {a}{mod}")
                reduced.add(b)
            return b

        def chain(terms, tail="", is_exact=False):
            """A new local for (operator, operand) terms, _CHUNK a statement;
            the first operator is dropped unless it is a minus."""
            name = f"t{len(lines)}"
            for i in range(0, len(terms), _CHUNK):
                text = "".join(f" {op} {a}" for op, a in terms[i:i + _CHUNK])
                text = name + text if i else ("-" if text[1] == "-" else "") + text[3:]
                lines.append(f"{name} = {text}{tail}")
            if is_exact:
                reduced.add(name)
            return name

        def assign(text, is_exact=False):
            return chain([("+", text)], "", is_exact)

        def visit(node, args, signs):
            kind = node.kind
            if kind == "VAR":
                return "x"
            if kind == "CONST":
                den = node.value.denominator % mv
                if den % p:
                    return lit(node.value.numerator * pow(den, -1, mv) % mv)
                lines.append(f"mod_inverse(ResidueInt({lit(den)}, m))")  # raises
                return "0"
            if kind == "POLY":  # Horner's rule in one loop, nested over (x - i) when falling
                coeffs, big, p_part = _scaled(node.poly, p, mv)
                if len(coeffs) == 1 and p_part == 1:  # a literal, as a CONST folds
                    return lit(coeffs[0])
                t = f"t{len(lines)}"
                if len(coeffs) == 2:  # c0 + c1*x in either basis: one statement
                    lines.append(f"{t} = ({lit(coeffs[1])} * x + {lit(coeffs[0])}) % {lit(big)}")
                else:
                    name, falling = f"C{len(self.env)}", node.poly.basis == "falling"
                    self.env[name] = tuple(enumerate(coeffs) if falling else coeffs)[-2::-1]
                    loop, factor = ("i, c", "(x - i)") if falling else ("c", "x")
                    lines.append(f"{t} = {lit(coeffs[-1])}")
                    lines.append(f"for {loop} in {name}: {t} = ({t} * {factor} + c) % {lit(big)}")
                if p_part > 1:
                    msg = f"value at {{x}} has denominator divisible by {p}"
                    lines.append(f"if {t} % {lit(p_part)}: raise NotIntegerValued(f{msg!r})")
                    lines.append(f"{t} = {t} // {lit(p_part)}")
                reduced.add(t)
                return t
            if kind in _BITWISE and p != 2:
                msg = f"{kind} needs p = 2, modulus is {self.m}"
                lines.append(f"raise BitwiseOddPrime({msg!r})")
                return "0"
            if kind in ("ADD", "SUB"):
                count = {"1": 0}  # operand -> its coefficient, constants as 1s
                for s, a in zip(signs, args):
                    v = const(a)
                    s, a = (s * v, "1") if v is not None else (s, a)
                    count[a] = count.get(a, 0) + s
                c = count.pop("1") % mv
                terms = [("-", a) if n == mv - 1 else ("+", a if n == 1 else f"{lit(n)} * {a}")
                         for a, n in ((a, n % mv) for a, n in count.items()) if n]
                if c or not terms:
                    terms.insert(0, ("+", lit(c)))
                if len(terms) == 1 and terms[0][0] == "+":
                    return terms[0][1]
                return chain(terms)
            if kind in _CHAINS:
                op, fold_op, unit, zero = _CHAINS[kind]
                values = [const(a) for a in args]
                terms = [(op, a) for a, v in zip(args, values) if v is None]
                consts = [v for v in values if v is not None]
                if consts:
                    c = reduce(fold_op, consts) % mv
                    if not terms or (zero is not None and c == zero % mv):
                        return lit(c)
                    if c != unit % mv:
                        terms.insert(0, (op, lit(c)))
                if len(terms) == 1:
                    return terms[0][1]
                if kind == "MUL" and len(terms) == 2 and const(terms[0][1]) is not None:
                    return f"{terms[0][1]} * {terms[1][1]}"  # c * a: left to its user
                return chain(terms, mod, True) if kind == "MUL" else chain(terms)
            if kind == "NEG":
                (a,) = args
                v = const(a)
                return lit(mv - 1 - v) if v is not None else assign(f"-1 - {a}")
            if kind == "POW":
                a, n = settled(args[0]), args[1]
                e = const(n)  # a literal exponent runs as its least absolute residue
                signed = f"-{lit(mv - e)}" if e is not None and 2 * e > mv else n
                test = f"{a} & 1" if p == 2 else f"{a} % {p} == 1"
                return assign(f"pow({a}, {signed}, {mvs}) if {test} else"
                              f" unit_pow(ResidueInt({a}, m), {n}).residue", True)
            if kind == "INV":
                a = settled(args[0])
                test = f"{a} & 1" if p == 2 else f"{a} % {p}"
                return assign(f"pow({a}, -1, {mvs}) if {test} else"
                              f" mod_inverse(ResidueInt({a}, m)).residue", True)
            f = self.funcs[self.key[id(node.children[0])]]
            folded = const(f) is not None
            if kind == "DELTA":
                return "0" if folded else "1" if f == "x" else assign(f"{f}(x + 1) - {f}(x)")
            if folded or f == "x":  # COMPOSE
                return f if folded else args[0]
            return assign(f"{f}({settled(args[0])})", True)

        def memo(node, args, signs):  # a repeated subterm reuses its first local
            k = self.key[id(node)]
            if k not in local:
                local[k] = visit(node, args, signs)
            return local[k]

        value = fold(root, memo, self.operands)
        return lines, value, exact(value)


def _scaled(poly: RationalPoly, p: int, mv: int):
    """(integer coefficients, B, P) of poly mod p^k = mv.  With D the common
    denominator and P its p-part, B = p^k * P and the coefficients are poly's
    times D, then times the inverse of D / P mod p^k, mod B.  So their sum at
    x is P * poly(x) mod B: P divides it iff poly(x) is a p-adic integer, and
    the quotient is poly(x) mod p^k."""
    d = math.lcm(*(c.denominator for c in poly.coeffs))
    p_part = 1
    while d % (p_part * p) == 0:
        p_part *= p
    big = mv * p_part
    unit_inv = pow(d // p_part, -1, mv)
    return [c.numerator * (d // c.denominator) * unit_inv % big for c in poly.coeffs], big, p_part


@lru_cache(maxsize=128)
def _generated(e, m: Modulus):
    """e's root function, generated and compiled once per (tree or
    polynomial, modulus); a polynomial compiles as a POLY leaf."""
    module = _Module(e if isinstance(e, FnExpr) else FnExpr("POLY", poly=e), m)
    code = compile("\n".join(module.defs), f"<{m}: {module.root}>", "exec")
    exec(code, module.env)
    return module.env[module.root]


def compile_map(f, m: Modulus) -> Callable[[int], int]:
    """f as a plain int -> int function mod m; an expression's, a
    polynomial's or a series' is generated once per (tree or polynomial,
    modulus) and cached.

    Takes an FnExpr, a RationalPoly, a MahlerSeries or a Python callable
    (whose values are reduced mod m).  Expressions, polynomials and series
    take the exact integer point: pass residues in 0..m-1 for values of the
    map on Z/m.  A polynomial compiles as a POLY leaf, and a series as its
    falling-factorial polynomial, raising WrongPrime or NotIntegerValued
    here.  Evaluation errors raise when the failing node is evaluated,
    exactly as node-by-node evaluation raises them.
    """
    if isinstance(f, MahlerSeries):
        if m.p != f.p:
            raise WrongPrime(f"series is {f.p}-adic, modulus is {m.p}-adic")
        f._require_integer_valued()
        f = _poly_from_series(f)
    if isinstance(f, (FnExpr, RationalPoly)):
        return _generated(f, m)
    if callable(f):
        mv = m.value
        return lambda x: f(x) % mv
    raise TypeError(f"cannot evaluate {type(f).__name__} as a map")


def evaluator(e: FnExpr, m: Modulus):
    """Plain int -> int function for bulk evaluation loops; see compile_map."""
    return compile_map(e, m)


# A whole table at 2^10 <= m <= 2^16 is one big-integer operation per node:
# residue x sits in 32-bit lane x and every node's value is its table, kept
# below m in each lane, so a sum of two lanes or a constant times a lane
# (below m^2 <= 2^32) never carries into the next.  A subtraction adds
# (b ^ M) + ONES, which is m - b in each lane.  DELTA turns its child's
# table by one lane, its values at x + 1, since no lane-able node reads
# more of x than its residue; COMPOSE reads its outer map's table at its
# inner map's values.  Operands are evaluated heaviest first (Sethi and
# Ullman), so few tables are alive at once; core packs them, on any host.
# Below 2^10 states the compiled loop can be faster: walking the orbit of 0
# under 3 + 5*x + 2*(x xor (4*x + 1)) took 0.07 ms on lanes against 0.04 ms
# at 2^8, 0.09 ms against 0.08 ms at 2^9 and 0.13 ms against 0.18 ms at
# 2^10 (min of 15, Python 3.11.7 on a 2-core x86-64 VM).
_LANE_STATES = (1 << 10, 1 << 16)
_LANE = (1 << 32) - 1


@lru_cache(maxsize=4)
def _lanes(m: int):
    """(X, ONES, M): lane x holds x, 1 and m - 1."""
    ones = slot_ones(32, m)
    return pack_slots(range(m), 32), ones, (m - 1) * ones


def _lane_plan(e: FnExpr):
    """{id(node): (varies, weight)} over e, or None if a node has no lane
    form.  A node varies unless its shape makes it constant; its weight is
    the number of tables alive while it is evaluated."""
    plan = {}
    for n in nodes(e):
        kind, subs = n.kind, [plan[id(c)] for c in n.children]
        if kind in ("POW", "INV", "POLY") or (kind == "CONST" and n.value.denominator % 2 == 0
                                              or kind == "MUL" and subs[0][0] and subs[1][0]):
            return None
        if len(subs) == 2:
            first, second = sorted(subs, reverse=True)
            varies = subs[0][0] and subs[1][0] if kind == "COMPOSE" else first[0]
            plan[id(n)] = varies, max(first[1], second[1] + 1)
        else:
            plan[id(n)] = subs[0] if subs else (kind == "VAR", 1)
    return plan


def _on_lanes(e: FnExpr, plan: dict, m: int) -> int:
    """e's table as lanes; see lane_table."""
    x, ones, mask = _lanes(m)
    swapped = lambda node: plan[id(node.children[0])] < plan[id(node.children[1])]

    def operands(node):  # varying first, then heaviest first: a MUL's constant is last
        if len(node.children) == 1:
            return (1,), node.children
        signs = (1, -1 if node.kind == "SUB" else 1)
        return (signs[::-1], node.children[::-1]) if swapped(node) else (signs, node.children)

    def visit(node, values, signs):
        kind = node.kind
        if kind == "VAR":
            return x
        if kind == "CONST":
            return node.value.numerator * pow(node.value.denominator, -1, m) % m * ones
        if kind == "NEG":
            return values[0] ^ mask
        if kind == "DELTA":  # the table at x + 1 less the table at x
            a = values[0]
            values, signs = ((a >> 32) | (a & _LANE) << 32 * (m - 1), a), (1, -1)
        a, b = values
        if kind == "COMPOSE":
            outer, inner = (b, a) if swapped(node) else (a, b)
            return pack_slots(map(unpack_slots(outer, 32, m).__getitem__,
                                  unpack_slots(inner, 32, m)), 32)
        if kind == "XOR":
            return a ^ b
        if kind == "AND":
            return a & b
        if kind == "OR":
            return a | b
        if kind == "MUL":  # b is the constant
            return a * (b & _LANE) & mask
        return sum(v if s == 1 else (v ^ mask) + ones for s, v in zip(signs, values)) & mask

    return fold(e, visit, operands)


def lane_table(f, m: Modulus):
    """f's values at 0..m-1 as one int whose 32-bit lane x (bits 32x to 32x + 31)
    holds f(x), for core.unpack_slots, or None where lanes do not apply: f not
    an FnExpr, p odd, m outside 2^10..2^16, or a node with no lane form (POW,
    INV, POLY, an even-denominator constant, a product of two non-constants)."""
    if not (isinstance(f, FnExpr) and m.p == 2 and _LANE_STATES[0] <= m.value <= _LANE_STATES[1]):
        return None
    plan = _lane_plan(f)
    return None if plan is None else _on_lanes(f, plan, m.value)
