"""Expression algebra for generator construction: builders, DSL, constructors.

The node type FnExpr and its compile-once evaluation live in `expr` and
are re-exported here.  POW bases must be 1-units: evaluation checks the
base at every point, and `is_class_b` checks it on Z/p at the prime asked
about, since 1 + p*g is a 1-unit at p and need not be at another prime.
"""

from dataclasses import dataclass
from fractions import Fraction

import json

from .core import Modulus, ResidueInt, digits, ord_p
from .expr import _BITWISE, KINDS, BitwiseOddPrime, FnExpr, compile_map, evaluator, fold, nodes
from .mahler import DEGREE_CAP, RationalPoly


class CDivisibleByP(ValueError):
    """Linear coefficient of a construction is not a unit."""


class LengthMismatch(ValueError):
    """Triangle shorter than the digit count it is asked to produce."""


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


def one_unit_pow(subexpr, exponent, p):
    """(1 + p*subexpr) ^ exponent, whose base is a 1-unit at p."""
    return pow_(add(const(1), mul(const(p), subexpr)), exponent)


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


def _holds_mod_p(e: FnExpr, p: int, pred) -> bool:
    """pred holds at every value of e on Z/p; an evaluation error is a miss."""
    try:
        fn = compile_map(e, Modulus(p, 1))
        return all(pred(fn(r)) for r in range(p))
    except (ValueError, ArithmeticError):
        return False


def is_class_b(e: FnExpr, p: int) -> bool:
    """Membership in the polynomial/rational/exponential closure at p.

    Polynomials with p-integral coefficients, inversions of pointwise
    units, powers of 1-unit bases, and sums/products/compositions of
    those.  Bitwise nodes are outside.  Semantic POW/INV checks run mod p
    only; 1-Lipschitz closure makes that decisive.  They run after the
    structural walk.
    """
    semantic = []
    for node in nodes(e):
        kind = node.kind
        if kind in _BITWISE or (kind == "CONST" and node.value.denominator % p == 0):
            return False
        if kind == "POLY" and any(c.denominator % p == 0 for c in node.poly.coeffs):
            return False
        if kind == "POW":
            semantic.append((node.children[0], lambda v: v == 1))
        elif kind == "INV":
            semantic.append((node.children[0], lambda v: v != 0))
    return all(_holds_mod_p(arg, p, pred) for arg, pred in semantic)


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

    def digit(self, i, bits):
        """psi_i evaluated on the digit vector bits[0..i-1]."""
        acc = 0
        for mono in self.psi[i]:
            acc ^= all(bits[j] for j in mono)
        return acc

    def has_odd_weight(self, i):
        """Parity of the truth table of psi_i.

        A Boolean function on i variables has odd weight iff its normal
        form contains the full monomial x_0...x_{i-1}; every smaller
        monomial contributes an even number of ones.
        """
        return frozenset(range(i)) in self.psi[i]


def triangle_eval(t: BoolTriangle, x: ResidueInt) -> ResidueInt:
    m = x.modulus
    if m.p != 2:
        raise BitwiseOddPrime("digit triangles act on base-2 expansions")
    if t.length < m.k:
        raise LengthMismatch(f"triangle has {t.length} digits, modulus needs {m.k}")
    bits = digits(x)
    out = 0
    for i in range(m.k):
        out |= (t.digit(i, bits) ^ bits[i]) << i
    return ResidueInt(out, m)


def triangle_is_transitive_form(t: BoolTriangle) -> bool:
    """psi_0 = 1 and every later psi_i has odd weight.

    Exactly the triangles whose induced map is a single cycle mod 2^n for
    every n up to the length.
    """
    if t.psi[0] != frozenset({frozenset()}):
        return False
    return all(t.has_odd_weight(i) for i in range(1, t.length))


# --- DSL ---------------------------------------------------------------------

_FUNCS = frozenset(("xor", "and", "or", "neg", "inv", "ff", "delta"))
# Deepest nesting of parentheses, calls and unary minus the parser accepts.
# A level costs up to six parser frames, well inside Python's default limit
# of 1000.  Walks over the tree keep their own stacks; only generated code
# nests, one function call per DELTA or COMPOSE level.
_MAX_NESTING = 100
_SYMBOLS = "+-*/^(),"


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise DslSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self):
        e = self.bitexpr()
        tok = self.take()
        if tok[0] != "EOF":
            raise DslSyntaxError(f"unexpected {tok[1]!r}", tok[2], tok[3])
        if len(self.tokens) > _MAX_NESTING:  # at most one inner node per token
            _depth_checked(e, lambda msg: DslSyntaxError(msg, 1, 1))
        return e

    def bitexpr(self):
        e = self.expr()
        build = {"xor": xor, "and": and_, "or": or_}
        while self.peek()[0] == "IDENT" and self.peek()[1] in build:
            op = self.take()[1]
            e = build[op](e, self.expr())
        return e

    def expr(self):
        if self.peek()[0] == "-":
            self.take()
            first = self.term()
            e = const(-first.value) if first.kind == "CONST" else sub(const(0), first)
        else:
            e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] == "*":
            self.take()
            e = self._fold_mul(e, self.factor())
        return e

    @staticmethod
    def _fold_mul(a, b):
        if a.kind == "CONST" and b.kind == "POLY":
            return poly_node(b.poly.scale(a.value))
        if a.kind == "POLY" and b.kind == "CONST":
            return poly_node(a.poly.scale(b.value))
        return mul(a, b)

    def factor(self):
        e = self.atom()
        if self.peek()[0] == "^":
            self.take()
            e = pow_(e, self.atom())
        return e

    def atom(self):
        tok = self.take()
        kind, value, line, col = tok
        if kind == "INT":
            if self.peek()[0] == "/":
                self.take()
                den = self.expect("INT")[1]
                if den == 0:
                    raise DslSyntaxError("zero denominator", line, col)
                return const(Fraction(value, den))
            return const(value)
        if kind == "IDENT" and value == "x":
            return var()
        if kind == "IDENT" and value not in _FUNCS:
            raise UnknownIdentifier(f"unknown identifier {value!r}", line, col)
        if kind not in ("(", "-", "IDENT"):
            raise DslSyntaxError(f"unexpected {value!r}", line, col)
        if self.depth == _MAX_NESTING:
            raise DslSyntaxError(f"nesting deeper than {_MAX_NESTING} levels", line, col)
        self.depth += 1
        if kind == "(":
            e = self.bitexpr()
            self.expect(")")
        elif kind == "-":
            inner = self.atom()
            e = const(-inner.value) if inner.kind == "CONST" else sub(const(0), inner)
        else:
            e = self.call(value, line, col)
        self.depth -= 1
        return e

    def call(self, name, line, col):
        self.expect("(")
        args = [self.bitexpr()]
        while self.peek()[0] == ",":
            self.take()
            args.append(self.bitexpr())
        self.expect(")")
        arity = {"xor": 2, "and": 2, "or": 2, "neg": 1, "inv": 1, "delta": 1, "ff": 2}
        if len(args) != arity[name]:
            raise DslSyntaxError(
                f"{name} takes {arity[name]} argument(s), got {len(args)}", line, col
            )
        if name == "ff":
            arg, deg = args
            if arg.kind != "VAR":
                raise DslSyntaxError("ff needs x as its first argument", line, col)
            if deg.kind != "CONST" or deg.value.denominator != 1 or deg.value < 0:
                raise DslSyntaxError(
                    "ff needs a nonnegative integer degree", line, col
                )
            n = int(deg.value)
            if n > DEGREE_CAP:
                raise DslSyntaxError(f"ff degree {n} is above the cap {DEGREE_CAP}", line, col)
            return poly_node(RationalPoly([0] * n + [1], "falling"))
        build = {
            "xor": xor, "and": and_, "or": or_,
            "neg": neg, "inv": inv, "delta": delta,
        }
        return build[name](*args)


def _depth_checked(e: FnExpr, error) -> FnExpr:
    """e, unless its tree nests more than _MAX_NESTING levels, a chain counting
    as one, when error(message) is raised: a map the parser accepts loads."""
    if fold(e, lambda node, vals, signs: 1 + max(vals, default=-1)) > _MAX_NESTING:
        raise error(f"expression nested deeper than {_MAX_NESTING} levels")
    return e


def parse_dsl(text: str) -> FnExpr:
    """Parse the generator DSL.

    Grammar: infix + - * ^ with function forms xor/and/or/neg/inv/delta
    and the falling-factorial atom ff(x, n); infix xor/and/or bind loosest.
    Rational literals are written a/b.  Nesting deeper than _MAX_NESTING, in
    source or tree, and ff degrees above DEGREE_CAP are syntax errors.
    """
    return _Parser(text).parse()


# --- serialization -----------------------------------------------------------

# Operand count of each node kind in the postfix form.
_ARITY = dict.fromkeys(KINDS, 2) | {"VAR": 0, "CONST": 0, "POLY": 0,
                                    "NEG": 1, "INV": 1, "DELTA": 1}


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
