"""Expression algebra for generator construction: builders, DSL, constructors.

The node type FnExpr, its walks and its compile-once evaluation live in
`expr`; class-B membership is a fact `certify` reads off a tree.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .core import ord_p
from .expr import _BITWISE, KINDS, FnExpr, fold, nodes
from .mahler import DEGREE_CAP, RationalPoly


class CDivisibleByP(ValueError):
    """Linear coefficient of a construction is not a unit."""


class DslError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class DslSyntaxError(DslError):
    pass


class UnknownIdentifier(DslError):
    pass


def var():
    return FnExpr("VAR")


def const(q):
    return FnExpr("CONST", value=Fraction(q))


def add(a, b):
    return FnExpr("ADD", (a, b))


def sub(a, b):
    return FnExpr("SUB", (a, b))


def mul(a, b):
    return FnExpr("MUL", (a, b))


def xor(a, b):
    return FnExpr("XOR", (a, b))


def and_(a, b):
    return FnExpr("AND", (a, b))


def or_(a, b):
    return FnExpr("OR", (a, b))


def neg(a):
    return FnExpr("NEG", (a,))


def pow_(base, exponent):
    return FnExpr("POW", (base, exponent))


def inv(a):
    return FnExpr("INV", (a,))


def poly_node(poly: RationalPoly):
    return FnExpr("POLY", poly=poly)


def delta(e):
    """AST for x -> e(x+1) - e(x)."""
    return FnExpr("DELTA", (e,))


def compose(outer, inner):
    """AST for x -> outer(inner(x))."""
    return FnExpr("COMPOSE", (outer, inner))


def build_measure_preserving(v: FnExpr, c, d, p: int) -> FnExpr:
    """d + c*x + p*v(x); bijective mod p^k at every k for 1-Lipschitz v."""
    c = Fraction(c)
    if ord_p(c, p) != 0:
        raise CDivisibleByP(f"linear coefficient {c} is not a unit mod {p}")
    return add(add(const(d), mul(const(c), var())), mul(const(p), v))


def build_ergodic(v: FnExpr, c, p: int) -> FnExpr:
    """c + x + p*(v(x+1) - v(x)); single cycle mod p^k for 1-Lipschitz v."""
    c = Fraction(c)
    if ord_p(c, p) != 0:
        raise CDivisibleByP(f"additive constant {c} is not a unit mod {p}")
    return add(add(const(c), var()), mul(const(p), delta(v)))


def build_composite_generator(
    u: RationalPoly, v: RationalPoly, w: RationalPoly, m
) -> FnExpr:
    """1 + x + rad(m)^2 * u(x) * (1 + rad(m)*v(x))^w(x).

    The base is a 1-unit at every prime of m because rad(m) kills it mod
    each factor; evaluation mod m runs componentwise through the CRT.
    """
    for name, poly in (("u", u), ("v", v), ("w", w)):
        if any(c.denominator != 1 for c in poly.coeffs):
            raise ValueError(f"{name} must have integer coefficients")
    rad = m.radical()
    base = add(const(1), mul(const(rad), poly_node(v)))
    power = pow_(base, poly_node(w))
    return add(
        add(const(1), var()),
        mul(mul(const(rad * rad), poly_node(u)), power),
    )


# --- digit triangles ---------------------------------------------------------


def _normalize_anf(monomials):
    return frozenset(frozenset(mono) for mono in monomials)


@dataclass(frozen=True)
class BoolTriangle:
    """Digit functions psi_0, ..., psi_{n-1} in algebraic normal form.

    psi_i is a set of monomials over x_0..x_{i-1}; each monomial is the
    set of variable indices it multiplies (the empty monomial is the
    constant 1).  The induced map sends digit i of x to
    psi_i(x_0..x_{i-1}) xor x_i.
    """

    psi: tuple

    def __post_init__(self):
        normalized = tuple(_normalize_anf(entry) for entry in self.psi)
        for i, entry in enumerate(normalized):
            for mono in entry:
                if any(j >= i or j < 0 for j in mono):
                    raise ValueError(f"psi_{i} uses a variable outside x_0..x_{i-1}")
        object.__setattr__(self, "psi", normalized)

    @property
    def length(self):
        return len(self.psi)

    def has_odd_weight(self, i):
        """Parity of the truth table of psi_i.

        A Boolean function on i variables has odd weight iff its normal
        form contains the full monomial x_0...x_{i-1}; every smaller
        monomial contributes an even number of ones.
        """
        return frozenset(range(i)) in self.psi[i]


# --- DSL ---------------------------------------------------------------------

# DSL function name -> the node kind it builds; ff(x, n) builds a POLY leaf.
_FUNCTIONS = {"xor": "XOR", "and": "AND", "or": "OR", "neg": "NEG", "inv": "INV",
              "delta": "DELTA", "ff": "POLY"}
# Operand count of each node kind in the postfix form.
_ARITY = dict.fromkeys(KINDS, 2) | {"VAR": 0, "CONST": 0, "POLY": 0,
                                    "NEG": 1, "INV": 1, "DELTA": 1}
# Deepest nesting of parentheses, calls and unary minus the parser accepts.
# A level costs up to six parser frames, well inside Python's default limit
# of 1000.  Walks over the tree keep their own stacks; only generated code
# nests, one function call per DELTA or COMPOSE level.
_MAX_NESTING = 100
# Deepest nesting of delta the parser and expr_from_json accept.  Generated
# code calls a DELTA child at x + 1 and at x, so d nested deltas cost 2^d
# child calls per point: `check -p 2 -k 6` of 22 levels over x xor 3 took
# 1.4 s, so 40 would take days.  `gen -p 2 -k 32 --count 1024` of 1 + x +
# 2*delta(...) took 0.22 s at 8 levels and 0.95 s at 12 (Python 3.11 on a
# 2-core x86-64 VM).
_MAX_DELTAS = 8
# \d is a decimal digit, which int() reads, and an identifier a run of \w
# (letters, other digits, "_"); blanks, tabs and carriage returns match
# nothing and are skipped, and any other character matches alone.
_TOKEN = re.compile(r"(?P<NL>\n)|(?P<INT>\d+)|(?P<IDENT>\w+)|[^ \t\r]")


def _tokenize(text):
    """(kind, value, line, column) per token, a symbol its own kind, then EOF's."""
    tokens, line, line_start = [], 1, 0
    for match in _TOKEN.finditer(text):
        value, col = match.group(), match.start() - line_start + 1
        kind = match.lastgroup or value
        if kind == "NL":
            line, line_start = line + 1, match.end()
        elif kind == "INT":
            try:
                tokens.append((kind, int(value), line, col))
            except ValueError:  # past the int-to-str digit limit
                raise DslSyntaxError(f"integer literal of {len(value)} digits is too long",
                                     line, col) from None
        elif kind == "IDENT" or kind in "+-*/^(),":
            tokens.append((kind, value, line, col))
        else:
            raise DslSyntaxError(f"unexpected character {value!r}", line, col)
    tokens.append(("EOF", "end of input", line, len(text) - line_start + 1))
    return tokens


def _negated(e):
    """-e, folded into the constant when e is one."""
    return const(-e.value) if e.kind == "CONST" else sub(const(0), e)


def _product(a, b):
    """a*b, a constant folded into a POLY operand."""
    if a.kind == "CONST" and b.kind == "POLY":
        return poly_node(b.poly.scale(a.value))
    if a.kind == "POLY" and b.kind == "CONST":
        return poly_node(a.poly.scale(b.value))
    return mul(a, b)


class _Parser:
    """Recursive descent, one method per level from loosest to tightest."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.deltas = 0

    def take(self, kind=None):
        """The next token; given a kind, the next token only if of that kind."""
        tok = self.tokens[self.pos]
        if kind is None or tok[0] == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise DslSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def bitexpr(self):
        """Infix xor/and/or, the two-operand bitwise functions."""
        e = self.expr()
        while (kind := _FUNCTIONS.get(self.tokens[self.pos][1])) in _BITWISE and _ARITY[kind] == 2:
            self.take()
            e = FnExpr(kind, (e, self.expr()))
        return e

    def expr(self):
        e = _negated(self.term()) if self.take("-") else self.term()
        while tok := self.take("+") or self.take("-"):
            e = (add if tok[0] == "+" else sub)(e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.take("*"):
            e = _product(e, self.factor())
        return e

    def factor(self):
        e = self.atom()
        return pow_(e, self.atom()) if self.take("^") else e

    def atom(self):
        kind, value, line, col = self.take()
        if kind == "INT":
            den = self.expect("INT")[1] if self.take("/") else 1
            if den == 0:
                raise DslSyntaxError("zero denominator", line, col)
            return const(Fraction(value, den))
        if kind == "IDENT" and value == "x":
            return var()
        if kind == "IDENT" and value not in _FUNCTIONS:
            raise UnknownIdentifier(f"unknown identifier {value!r}", line, col)
        if kind not in ("(", "-", "IDENT"):
            raise DslSyntaxError(f"unexpected {value!r}", line, col)
        if self.depth == _MAX_NESTING:
            raise DslSyntaxError(f"nesting deeper than {_MAX_NESTING} levels", line, col)
        self.depth += 1
        if kind == "(":
            e = self.bitexpr()
            self.expect(")")
        else:
            e = _negated(self.atom()) if kind == "-" else self.call(value, line, col)
        self.depth -= 1
        return e

    def call(self, name, line, col):
        if name == "delta" and self.deltas == _MAX_DELTAS:
            raise DslSyntaxError(f"delta nested deeper than {_MAX_DELTAS} levels", line, col)
        self.deltas += name == "delta"
        self.expect("(")
        args = [self.bitexpr()]
        while self.take(","):
            args.append(self.bitexpr())
        self.expect(")")
        self.deltas -= name == "delta"
        kind = _FUNCTIONS[name]
        count = 2 if kind == "POLY" else _ARITY[kind]
        if len(args) != count:
            raise DslSyntaxError(f"{name} takes {count} argument(s), got {len(args)}", line, col)
        if kind != "POLY":
            return FnExpr(kind, tuple(args))
        arg, deg = args
        if arg.kind != "VAR":
            raise DslSyntaxError("ff needs x as its first argument", line, col)
        if deg.kind != "CONST" or deg.value.denominator != 1 or deg.value < 0:
            raise DslSyntaxError("ff needs a nonnegative integer degree", line, col)
        if deg.value > DEGREE_CAP:
            raise DslSyntaxError(f"ff degree {deg.value} is above the cap {DEGREE_CAP}", line, col)
        return poly_node(RationalPoly([0] * deg.value.numerator + [1], "falling"))


def _nesting(node, vals, signs):
    """(levels, DELTA levels) of node's tree, a chain counting as one level."""
    return (1 + max((v[0] for v in vals), default=-1),
            (node.kind == "DELTA") + max((v[1] for v in vals), default=0))


def _depth_checked(e: FnExpr, error) -> FnExpr:
    """e, unless its tree nests more than _MAX_NESTING levels or more than
    _MAX_DELTAS DELTA nodes on one path, when error(message) is raised: a
    map the parser accepts loads."""
    depth, deltas = fold(e, _nesting)
    if depth > _MAX_NESTING:
        raise error(f"expression nested deeper than {_MAX_NESTING} levels")
    if deltas > _MAX_DELTAS:
        raise error(f"delta nested deeper than {_MAX_DELTAS} levels")
    return e


def parse_dsl(text: str) -> FnExpr:
    """Parse the generator DSL.

    Grammar: infix + - * ^ with function forms xor/and/or/neg/inv/delta
    and the falling-factorial atom ff(x, n); infix xor/and/or bind loosest.
    Rational literals are written a/b.  Nesting deeper than _MAX_NESTING, in
    source or tree, delta nested deeper than _MAX_DELTAS (evaluation doubles
    per level), ff degrees above DEGREE_CAP and integer literals past the
    int-to-str digit limit are syntax errors; each DslError names its place.
    """
    parser = _Parser(text)
    e = parser.bitexpr()
    kind, value, line, col = parser.take()
    if kind != "EOF":
        raise DslSyntaxError(f"unexpected {value!r}", line, col)
    if len(parser.tokens) > _MAX_NESTING:  # at most one inner node per token
        _depth_checked(e, lambda msg: DslSyntaxError(msg, 1, 1))
    return e


# --- serialization -----------------------------------------------------------


def _doc(e: FnExpr) -> dict:
    doc = {"kind": e.kind}
    if e.kind == "CONST":
        doc["value"] = [e.value.numerator, e.value.denominator]
    elif e.kind == "POLY":
        doc["basis"] = e.poly.basis
        doc["coeffs"] = [[c.numerator, c.denominator] for c in e.poly.coeffs]
    return doc


def _from_docs(docs) -> FnExpr:
    """The tree of a postfix list of node docs."""
    stack = []
    for doc in docs:
        kind = doc["kind"]
        cut = len(stack) - _ARITY[kind]
        if cut < 0:
            raise ValueError(f"{kind} node is short of operands")
        if kind == "CONST":
            n, d = doc["value"]
            node = const(Fraction(n, d))
        elif kind == "POLY":
            coeffs = [Fraction(n, d) for n, d in doc["coeffs"]]
            node = poly_node(RationalPoly(coeffs, doc["basis"]))
        else:  # serialized POW guarantees are not trusted; certify re-checks bases
            node = FnExpr(kind, tuple(stack[cut:]))
        stack[cut:] = [node]
    if len(stack) != 1:
        raise ValueError(f"expression doc holds {len(stack)} trees, not one")
    return stack[0]


def expr_to_json(e: FnExpr) -> str:
    """e as a flat postfix list of node docs: operands before their node."""
    return json.dumps([_doc(node) for node in nodes(e)])


def expr_from_json(text: str) -> FnExpr:
    """Read expr_to_json's postfix list, or the nested {"kind", "children"}
    dict earlier versions wrote."""
    doc = json.loads(text)
    if isinstance(doc, dict):
        doc = nodes(doc, lambda d: d.get("children", ()))
    return _depth_checked(_from_docs(doc), ValueError)
