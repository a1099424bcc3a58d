"""Brute-force checkers and certificate constructors.

Two layers.  The checkers (`bijective_mod`, `transitive_mod`,
`equiprobable_mod`) enumerate residues and report exactly what they saw;
they are bounded by explicit state caps and never extrapolate.  The
certificate constructors decide a property at every precision from a
single finite check at a class-dependent threshold modulus, and record
which result licensed the extrapolation.  Ergodicity and measure
preservation share one dispatch: the (property, class) table `_THRESHOLDS`
gives each recognized class its theorem and threshold, `_PROPERTIES` gives
each property its fallbacks, and every route ends in one finite check,
`_check`, one call to a public checker.  What they read off the
map (its polynomial, series, class, T2_1 verdict and shift-family shape)
is one cached record per (map, prime), `_Facts`, from one fold of the
tree.  When a function falls outside every recognized class the
certificate honestly degrades to UNKNOWN.  Polynomial systems (C3_8,
and C3_10 for a square one) take one Hensel test, `_hensel_miss`: a
census mod p, then the Jacobian's rank over GF(p) at every point.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Optional, Sequence, Union

from .core import Modulus, ord_p, pack_slots, slot_ones, unpack_slots
from .expr import _BITWISE, _LANE_STATES, FnExpr, compile_map, fold, lane_table, operands
from .funcalg import BoolTriangle
from .mahler import (
    DEGREE_CAP,
    MahlerSeries,
    RationalPoly,
    floor_log,
    is_compatible,
    is_ergodic_2adic,
    is_measure_preserving_2adic,
    require_degree_cap,
    rho_lambda,
    series_from_poly,
)

DEFAULT_STATE_CAP = 1 << 24
DEFAULT_PAIR_CAP = 1 << 20
GENERIC_PROBE_BUDGET = 1 << 14

PROVEN = "PROVEN"
REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"

COMPATIBLE = "COMPATIBLE"
MEASURE_PRESERVING = "MEASURE_PRESERVING"
ERGODIC = "ERGODIC"
EQUIPROBABLE = "EQUIPROBABLE"

Z_POLY = "Z_POLY"
QP_POLY_INTVAL = "QP_POLY_INTVAL"
CLASS_A = "CLASS_A"
CLASS_B = "CLASS_B"
GENERIC_COMPATIBLE = "GENERIC_COMPATIBLE"


class CapExceeded(Exception):
    """State space larger than the enumeration cap."""


class NotBijective(Exception):
    """Orbit walk re-entered itself off the start; no cycle through 0 exists."""


@dataclass(frozen=True)
class Certificate:
    property: str
    verdict: str
    theorem: str
    checked_modulus: Modulus
    witness: Optional[dict] = None
    elapsed_ms: float = 0.0

    def to_json(self) -> dict:
        out = {
            "property": self.property,
            "verdict": self.verdict,
            "theorem": self.theorem,
            "modulus": {"p": self.checked_modulus.p, "k": self.checked_modulus.k},
            "elapsed_ms": self.elapsed_ms,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class FunctionClass:
    """Where a function sits in the certification hierarchy.

    CLASS_B members get rho=0, lam=1; CLASS_A carries the computed pair.
    Z_POLY and QP_POLY_INTVAL also record the polynomial degree since
    their ergodicity threshold depends on it.
    """

    tag: str
    degree: Optional[int] = None
    rho: Optional[int] = None
    lam: Optional[int] = None


MapLike = Union[FnExpr, MahlerSeries, RationalPoly, Callable[[int], int]]


def _require_cap(m: Modulus, cap: Optional[int]):
    cap = cap if cap is not None else DEFAULT_STATE_CAP
    if m.value > cap:
        raise CapExceeded(f"{m} states exceeds cap {cap}")


def bijective_mod(f: MapLike, m: Modulus, cap: Optional[int] = None):
    """Is x -> f(x) a permutation of Z/m?  Returns (bool, witness).

    The witness on failure is a colliding pair (y, x), y < x, where x is
    the first input whose value repeats, found by a second partial scan so
    no preimage index is stored.  Where `expr.lane_table` computes f's
    whole table, such a map is a T-function, so the level test of its bit
    slices on the packed lanes first decides a pass; a failure unpacks the
    table, and the scans read it instead of calling f and find the same
    pair.
    """
    _require_cap(m, cap)
    lanes = lane_table(f, m)
    if lanes is not None and _slices_bijective(lanes, m.k):
        return True, None
    table = None if lanes is None else unpack_slots(lanes, 32, m.value)
    fn = compile_map(f, m) if table is None else table.__getitem__
    seen = bytearray(m.value)
    for x in range(m.value):
        v = fn(x)
        if seen[v]:
            return False, (table.index(v) if table is not None
                           else next(y for y in range(x) if fn(y) == v), x)
        seen[v] = 1
    return True, None


def transitive_mod(f: MapLike, m: Modulus, cap: Optional[int] = None):
    """Does the orbit of 0 under f cover all of Z/m?  Returns (bool, orbit_length).

    Walks until the orbit returns to 0 or first revisits another state,
    so at most (distinct states + 1) evaluations.  A state other than 0
    seen again means the map cannot be a permutation, and NotBijective,
    naming that state and step, is raised rather than reporting a
    misleading short cycle.  At p = 2 and 2^10..2^16 states bit slices
    first decide a pass with no walk; on f's lane table, unpacked only
    then, the walk marks no state while 0 returns within m steps, else
    replays the marking walk.
    """
    _require_cap(m, cap)
    lanes = lane_table(f, m)
    if _slices_transitive(f, m, lanes):
        return True, m.value
    if lanes is not None:
        table = unpack_slots(lanes, 32, m.value)
        x = 0
        for step in range(1, m.value + 1):  # no state recurs before 0 does
            x = table[x]
            if not x:
                return step == m.value, step
    fn = compile_map(f, m) if lanes is None else table.__getitem__
    seen = bytearray(m.value)
    seen[0] = 1  # a return to 0 ends the walk as a re-entry does
    x = 0
    for step in range(1, m.value + 1):  # always breaks: m.value - 1 states unmarked
        x = fn(x)
        if seen[x]:
            break
        seen[x] = 1
    if x:  # the orbit is stuck in a cycle that misses 0
        raise NotBijective(f"orbit of 0 re-entered state {x} at step {step}; "
                           "map is not a permutation")
    return step == m.value, step


class MultiPoly:
    """Multivariate integer polynomial, stored as {exponent tuple: coeff}."""

    def __init__(self, arity: int, terms: dict):
        self.arity = arity
        self.terms = {
            tuple(e): int(c)
            for e, c in terms.items()
            if c
        }
        for e in self.terms:
            if len(e) != arity:
                raise ValueError(f"exponent tuple {e} has wrong arity")

    def compile_mod(self, modulus: int) -> Callable[[Sequence[int]], int]:
        """point -> value mod modulus, with the zero exponents dropped once."""
        terms = tuple((c, tuple((i, e) for i, e in enumerate(exps) if e))
                      for exps, c in self.terms.items())

        def value(point):
            acc = 0
            for c, factors in terms:
                t = c
                for i, e in factors:
                    t = t * pow(point[i], e, modulus)
                acc += t
            return acc % modulus

        return value

    def partial(self, i: int) -> "MultiPoly":
        out: dict = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, 0) + c * exps[i]
        return MultiPoly(self.arity, out)

    def __repr__(self):
        return f"MultiPoly(arity={self.arity}, terms={self.terms})"


def equiprobable_mod(F: Sequence[MultiPoly], n_in: int, m: Modulus, cap: Optional[int] = None):
    """Census of the map (Z/m)^n_in -> (Z/m)^len(F).  Returns (bool, census).

    True iff every point of the codomain is hit by exactly
    m^(n_in - len(F)) inputs.  The census reports expected fiber size and
    the min/max observed, plus how many distinct outputs appeared.
    """
    cap = cap if cap is not None else DEFAULT_PAIR_CAP
    n_out = len(F)
    if n_out == 0 or n_in <= 0:
        raise ValueError("need at least one component and one input variable")
    if n_out > n_in:
        raise ValueError("more output components than inputs cannot be equiprobable")
    total = m.value ** n_in
    if total > cap:
        raise CapExceeded(f"({m})^{n_in} input tuples exceeds cap {cap}")
    fns = [g.compile_mod(m.value) for g in F]
    counts: dict = {}
    for point in product(range(m.value), repeat=n_in):
        out = tuple(f(point) for f in fns)
        counts[out] = counts.get(out, 0) + 1
    expected = m.value ** (n_in - n_out)
    ok = len(counts) == m.value ** n_out and all(c == expected for c in counts.values())
    census = {
        "inputs": total,
        "distinct_outputs": len(counts),
        "expected_fiber": expected,
        "min_fiber": min(counts.values()),
        "max_fiber": max(counts.values()),
    }
    return ok, census


def _hensel_miss(F: Sequence[MultiPoly], p: int, cap: Optional[int] = None) -> Optional[dict]:
    """None when F mod p is equiprobable and its Jacobian has rank len(F)
    over GF(p) at every point of (Z/p)^n; else the first miss as a witness."""
    n_in = F[0].arity
    ok, census = equiprobable_mod(F, n_in, Modulus(p, 1), cap)
    if not ok:
        return {"reason": "not equiprobable mod p", "census": census}
    jacobian = [[g.partial(i).compile_mod(p) for i in range(n_in)] for g in F]
    for point in (t[::-1] for t in product(range(p), repeat=n_in)):  # point[0] fastest
        pivots = []  # Gaussian elimination mod p: (column, 1 / entry, row) per independent row
        for row in jacobian:
            v = [d(point) for d in row]
            for col, inv, pivot in pivots:
                v = [(a - v[col] * inv * b) % p for a, b in zip(v, pivot)] if v[col] else v
            col = next((i for i, a in enumerate(v) if a), None)
            if col is not None:
                pivots.append((col, pow(v[col], -1, p), v))
        if (rank := len(pivots)) < len(F):
            return ({"reason": "all partials vanish", "point": list(point)} if len(F) == 1 else
                    {"reason": "jacobian rank", "point": list(point), "rank": rank})
    return None


def jacobian_equiprobable_certificate(F: Sequence[MultiPoly], p: int) -> Certificate:
    """PROVEN equiprobability at every p^k, REFUTED, or UNKNOWN.

    Two conditions, both mod p, which Hensel lifting carries to every p^k:
    the reduced map must be equiprobable, and its Jacobian must have rank
    len(F) over GF(p) at every point of (Z/p)^n.  A census miss REFUTES with
    the census as witness, since fibres mod p^k refine those mod p.  A rank
    miss, the rank condition being sufficient only, drops to UNKNOWN with the
    first rank-deficient point: {"reason": "all partials vanish", "point"}
    for one component, {"reason": "jacobian rank", "point", "rank"} for more.
    """
    t0 = time.perf_counter()
    miss = _hensel_miss(F, p)
    verdict = PROVEN if miss is None else REFUTED if "census" in miss else UNKNOWN
    return Certificate(EQUIPROBABLE, verdict, "C3_8", Modulus(p, 1), miss,
                       (time.perf_counter() - t0) * 1000.0)


def polynomial_bijectivity_certificate(f, p: int, cap: Optional[int] = None) -> Certificate:
    """Measure preservation for polynomials over the p-adic integers.

    Decided exactly by bijectivity mod p^2: an if-and-only-if, so both
    PROVEN and REFUTED verdicts are available.  Accepts a univariate
    RationalPoly (denominators must be units mod p) or a square system
    of MultiPoly components.  A system is bijective mod p^2 exactly when
    it passes jacobian_equiprobable_certificate's test mod p, whose first
    miss is the REFUTED witness.
    """
    if isinstance(f, RationalPoly):  # the Z_POLY cell of _THRESHOLDS
        for c in f.to_monomial().coeffs:
            if c.denominator % p == 0:
                raise ValueError(f"coefficient {c} is not a p-adic integer at p={p}")
        return _certificate(MEASURE_PRESERVING, f, p, FunctionClass(Z_POLY), cap)
    t0 = time.perf_counter()
    F = list(f)
    if len(F) != F[0].arity:
        raise ValueError("bijectivity needs a square system")
    miss = _hensel_miss(F, p, cap)
    return Certificate(MEASURE_PRESERVING, REFUTED if miss else PROVEN, "C3_10", Modulus(p, 2),
                       miss, (time.perf_counter() - t0) * 1000.0)


def _poly_visit(node, vals, signs):  # see _Facts.poly
    k = node.kind
    if k == "VAR":
        return RationalPoly([0, 1])
    if k == "CONST":
        return RationalPoly([node.value])
    if k == "POLY":
        return node.poly if node.poly.degree <= DEGREE_CAP else None
    if any(v is None for v in vals):  # a degree past the cap below
        return None
    if k == "DELTA":
        return vals[0].compose(RationalPoly([1, 1])) + vals[0].scale(-1)
    if k == "COMPOSE":
        outer, inner = vals
        fits = outer.degree * max(inner.degree, 1) <= DEGREE_CAP
        return outer.compose(inner) if fits else None
    out = vals[0]
    for sign, v in zip(signs[1:], vals[1:]):
        if k == "MUL":
            if out.degree + v.degree > DEGREE_CAP:
                return None
            out = out * v
        else:  # every operand is within the cap, and so is their sum
            out = out + (v if sign == 1 else v.scale(-1))
    return out


class _Facts:
    """What certify reads off one map at one prime, each fact found once.

    One fold of an FnExpr notes the cheap facts: whether a bitwise node
    occurs, the POW and INV arguments, the distinct POLY leaves in
    post-order, and how many come before the first constant that is not
    p-integral.  A RationalPoly is its own one leaf; other maps have no
    fold.  The rest is computed on first read; what raises, raises on
    every read.
    """

    def __init__(self, f: MapLike, p: int):
        self.f, self.p = f, p
        self.bitwise, self.bad_const = False, None
        self.units = []  # (kind, argument) of each POW and INV node
        self.leaves = {f: None} if isinstance(f, RationalPoly) else {}  # an ordered set
        if isinstance(f, FnExpr):
            fold(f, self._note)

    def _note(self, node, vals, signs):
        kind = node.kind
        if kind == "POLY":
            self.leaves.setdefault(node.poly)
        elif kind == "CONST" and self.bad_const is None and node.value.denominator % self.p == 0:
            self.bad_const = len(self.leaves)  # the leaves met before it
        elif kind in ("POW", "INV"):
            self.units.append((kind, node.children[0]))
        self.bitwise |= kind in _BITWISE

    @cached_property
    def poly(self) -> Optional[RationalPoly]:
        """f as a RationalPoly, or None.  A tree with no bitwise, POW or INV
        node folds unless a degree, each checked before its arithmetic
        (chains left to right), would pass the cap: a POLY leaf above the
        cap gives None unless it is the whole tree."""
        f = self.f
        if isinstance(f, RationalPoly):
            return f
        if not isinstance(f, FnExpr) or self.bitwise or self.units:
            return None
        return f.poly if f.kind == "POLY" else fold(f, _poly_visit)

    @cached_property
    def series(self) -> Optional[MahlerSeries]:
        """f's interpolation series at p, or None where f has no polynomial."""
        f, p = self.f, self.p
        if isinstance(f, MahlerSeries):
            if f.p != p:
                raise ValueError(f"series is {f.p}-adic, asked about p={p}")
            return f
        return None if self.poly is None else series_from_poly(self.poly, p)

    @cached_property
    def lam(self) -> int:  # of a RationalPoly's rho/lambda pair; other maps have none
        if isinstance(self.f, RationalPoly):
            return rho_lambda(self.f, self.p)[1]
        raise ValueError("CLASS_A certification needs lam; pass it in the FunctionClass")

    @cached_property
    def compatible(self) -> bool:
        """The T2_1 verdict: exact for a polynomial or series; for a tree, by
        closure from its POLY leaves and p-integral constants, checked in
        the order a walk meets them; False for a callable."""
        f, p = self.f, self.p
        if isinstance(f, (MahlerSeries, RationalPoly)):
            return is_compatible(self.series)
        return (isinstance(f, FnExpr)
                and all(_facts(leaf, p).compatible for leaf in list(self.leaves)[:self.bad_const])
                and self.bad_const is None)

    @cached_property
    def class_b(self) -> bool:  # see is_class_b
        p = self.p
        if (not isinstance(self.f, (FnExpr, RationalPoly)) or self.bitwise
                or self.bad_const is not None
                or any(c.denominator % p == 0 for leaf in self.leaves for c in leaf.coeffs)
                or self.units and p > DEFAULT_STATE_CAP):  # Z/p too large to scan
            return False
        try:
            return all(v == 1 if kind == "POW" else v != 0 for kind, arg in self.units
                       for v in map(compile_map(arg, Modulus(p, 1)), range(p)))
        except (ValueError, ArithmeticError):
            return False

    @cached_property
    def shape(self) -> Optional[str]:  # see _shift_family
        return _shift_family(self.f, self.p) if isinstance(self.f, FnExpr) else None

    @cached_property
    def cls(self) -> FunctionClass:
        """f's place in the hierarchy; see infer_class."""
        f, p, poly = self.f, self.p, self.poly
        if isinstance(f, MahlerSeries):
            self.series._require_criteria_ready()
            return FunctionClass(QP_POLY_INTVAL, degree=f.degree)
        if poly is None and self.class_b:
            return FunctionClass(CLASS_B, rho=0, lam=1)
        if poly is None:
            return FunctionClass(GENERIC_COMPATIBLE)
        # the falling and the monomial basis differ by a unimodular integer
        # matrix, so the stored coefficients decide both tags in either basis
        if all(c.denominator == 1 for c in poly.coeffs):
            return FunctionClass(Z_POLY, degree=poly.degree, rho=0, lam=1)
        if all(c.denominator % p != 0 for c in poly.coeffs):
            return FunctionClass(CLASS_B, degree=poly.degree, rho=0, lam=1)
        require_degree_cap(poly.degree)  # before the change of basis, quadratic in it
        self.series._require_integer_valued()
        rho, lam = rho_lambda(poly, p)
        return FunctionClass(QP_POLY_INTVAL, degree=poly.degree, rho=rho, lam=lam)


_cached_facts = lru_cache(maxsize=128)(_Facts)  # the bound of expr._generated


def _facts(f: MapLike, p: int) -> _Facts:
    """f's record at p; a callable, maybe unhashable, gets a new one."""
    return (_cached_facts if isinstance(f, (FnExpr, RationalPoly, MahlerSeries)) else _Facts)(f, p)


def infer_class(f: MapLike, p: int) -> FunctionClass:
    """Classify f for certification.  Tags, most to least structured:

    Z_POLY            polynomial with integer coefficients
    CLASS_B           built from twice-differentiable pieces (rho=0, lam=1)
    QP_POLY_INTVAL    integer-valued polynomial with p in a denominator
    CLASS_A           via rho/lambda for rational polynomials (odd p route)
    GENERIC_COMPATIBLE  everything else; brute checks only
    """
    return _facts(f, p).cls


def is_class_b(e: FnExpr, p: int) -> bool:
    """Membership in the polynomial/rational/exponential closure at p:
    p-integral polynomials, inversions of pointwise units, powers of 1-unit
    bases, and sums/products/compositions of those; no bitwise node.  POW
    and INV arguments are checked on Z/p after the structural facts, which
    1-Lipschitz closure makes decisive; an evaluation error is a miss, and
    so is a POW or INV node at a p above DEFAULT_STATE_CAP, where Z/p is
    not scanned."""
    return _facts(e, p).class_b


def _split_scale(node: FnExpr):
    """Peel one constant factor off a MUL; scale 1 otherwise."""
    if node.kind == "MUL":
        a, b = node.children
        if a.kind == "CONST":
            return a.value, b
        if b.kind == "CONST":
            return b.value, a
    return Fraction(1), node


def _shift_family(e: FnExpr, p: int) -> Optional[str]:
    """Match e against c + x + q*Dv ("ergodic") or d + c*x + q*v ("measure").

    q*Dv with ord_p(q) >= 1 rewrites as p*D((q/p)v), and D is linear, so
    several such summands merge into a single one; likewise for q*v.  The
    perturbation only needs to respect congruences, which holds whenever
    its polynomial leaves do.  A miss returns None and decides nothing.
    """
    consts = Fraction(0)
    var_coeff = Fraction(0)
    saw_var = False
    rest = []
    summands = operands(e) if e.kind in ("ADD", "SUB") else ((1,), (e,))
    for sign, node in zip(*summands):
        if node.kind == "CONST":
            consts += sign * node.value
            continue
        q, core = _split_scale(node)
        if core.kind == "VAR":
            var_coeff += sign * q
            saw_var = True
            continue
        rest.append((sign * q, core))
    if not saw_var:
        return None
    if any(ord_p(q, p) < 1 or not _facts(core, p).compatible for q, core in rest):
        return None
    if (var_coeff == 1 and ord_p(consts, p) == 0
            and all(core.kind == "DELTA" for _, core in rest)):
        return "ergodic"
    if ord_p(var_coeff, p) == 0 and ord_p(consts, p) >= 0:
        return "measure"
    return None


def _probe_modulus(p: int, cap: Optional[int]) -> Modulus:
    budget = min(cap if cap is not None else DEFAULT_STATE_CAP, GENERIC_PROBE_BUDGET)
    return Modulus(p, max(floor_log(budget, p), 1))


# At p = 2 a compatible map is a T-function: bit i of f(x) depends only on
# x mod 2^(i+1).  So f is bijective mod 2^k iff at every level i < k, bit i
# of f(y) and of f(y + 2^i) differ for all y < 2^i (Klimov and Shamir,
# CHES 2002).  A bijective f is a single cycle mod 2^k iff f(0) is odd and
# at every level 1 <= i < k, bit i of f(y) is set for an odd number of
# y < 2^i (Anashin, Discrete Math. Appl. 12, 2002): the orbit of 0 mod
# 2^i then flips bit i that many times in 2^i steps.  Each level is a few
# big-integer operations on the packed lanes of a table (lane y, 32 bits
# wide, holds f(y); see expr.lane_table), over its first 2^(i+1) lanes.

@lru_cache(maxsize=16)  # one entry per level below 2^16 states
def _slice_masks(i: int):
    """(bit i of each of the lanes 0..2^i-1, all bits of the lanes 0..2^(i+1)-1)."""
    return slot_ones(32, 1 << i) << i, (1 << (64 << i)) - 1


def _slices_bijective(lanes: int, k: int) -> bool:
    """Is the T-function whose table mod 2^k `lanes` packs bijective mod 2^k?"""
    for i in range(k):
        bit, low = _slice_masks(i)
        low &= lanes  # f at 0..2^(i+1)-1: bit i of f(y) and f(y + 2^i) must differ
        if (low ^ low >> (32 << i)) & bit != bit:
            return False
    return True


def _slices_single_cycle(lanes: int, k: int) -> bool:
    """Is a bijective T-function a single cycle mod 2^k, given packed lanes
    that open with its values mod 2^k at 0..2^(k-1)-1?"""
    return all((lanes & _slice_masks(i)[0]).bit_count() & 1 for i in range(k))


def _slices_transitive(f: MapLike, m: Modulus, lanes: Optional[int]) -> bool:
    """Do f's bit slices show that f is a single cycle mod m = 2^k?

    Only a pass is decided here; False leaves the verdict, and its witness,
    to the walk.  The tests need a T-function: a tree with a lane table
    has only odd-denominator constants and no POLY leaf, and a "measure"
    shape (`_Facts.shape`) has compatible leaves, so either has the T2_1
    fact `_Facts.compatible`.  The parities run first, so a short cycle
    fails at its first level.  A "measure" shape is bijective, so its
    level test is skipped; without a lane table it reads the compiled
    map's values at 0..2^(k-1)-1, the half of the table its parities need.
    """
    # below 2^10 states the shape match costs more than the walk; above
    # 2^16 the half table, packed as lanes like a lane table, grows with m
    if m.p != 2 or not _LANE_STATES[0] <= m.value <= _LANE_STATES[1]:
        return False
    try:
        measure = _facts(f, 2).shape == "measure"
    except ValueError:  # raised where a route reads the shape; the walk decides here
        return False
    if lanes is not None:
        return _slices_single_cycle(lanes, m.k) and (measure or _slices_bijective(lanes, m.k))
    if not measure:
        return False
    fn = compile_map(f, m)
    try:
        half = pack_slots(map(fn, range(m.value >> 1)), 32)
    except ValueError:  # left for the walk to raise in its own order
        return False
    return _slices_single_cycle(half, m.k)


def _check(prop: str, f: MapLike, m: Modulus, cap: Optional[int]):
    """prop's finite check at m: (passes, witness on failure).  Every route
    runs it, through the public checker of its property."""
    if prop == MEASURE_PRESERVING:
        ok, pair = bijective_mod(f, m, cap)
        return ok, None if ok else {"collision": list(pair)}
    try:
        ok, length = transitive_mod(f, m, cap)
    except NotBijective:
        return False, {"reason": "not bijective"}
    return ok, None if ok else {"cycle_through_zero": length}


def _t4_9_ergodic(p, _):
    return 3 if p in (2, 3) else 2


def _degree_threshold(p, d):
    return floor_log(max(d, 1), p) + 3


# (property, class tag) -> (theorem, threshold exponent from p and d or lam).
# Every cell is an if-and-only-if, so a failed check at p^k0 is a REFUTED.
_THRESHOLDS = {
    (ERGODIC, Z_POLY): ("T4_9", _t4_9_ergodic),
    (ERGODIC, CLASS_B): ("T4_9", _t4_9_ergodic),
    (ERGODIC, QP_POLY_INTVAL): ("P4_7", _degree_threshold),
    (ERGODIC, CLASS_A): ("T4_1", lambda p, lam: lam + (2 if p == 3 else 1)),
    (MEASURE_PRESERVING, Z_POLY): ("C3_10", lambda p, _: 2),
    (MEASURE_PRESERVING, CLASS_B): ("T4_9", lambda p, _: 2),
    (MEASURE_PRESERVING, QP_POLY_INTVAL): ("P4_8", _degree_threshold),
    (MEASURE_PRESERVING, CLASS_A): ("T4_1", lambda p, lam: lam + 2),
}

# property -> (BRUTE_ONLY witness key, accepted shift shapes, p = 2 CLASS_A test)
_PROPERTIES = {
    ERGODIC: ("transitive_up_to", ("ergodic",), ("T2_3", is_ergodic_2adic)),
    MEASURE_PRESERVING: ("bijective_up_to", ("ergodic", "measure"),
                         ("T2_2", is_measure_preserving_2adic)),
}


def _certificate(prop: str, f: MapLike, p: int, cls: Optional[FunctionClass],
                 cap: Optional[int]) -> Certificate:
    """The route both property certificates share; see their docstrings."""
    t0 = time.perf_counter()
    elapsed = lambda: (time.perf_counter() - t0) * 1000.0
    if cls is None:
        cls = _facts(f, p).cls
    probe_key, shapes, (coeff_theorem, coeff_test) = _PROPERTIES[prop]
    row = _THRESHOLDS.get((prop, cls.tag))
    if row is None:
        if _facts(f, p).shape in shapes:
            # the construction is confirmed at the CLASS_B threshold; a
            # failed confirmation refutes there, with the check's witness
            m = Modulus(p, _THRESHOLDS[prop, CLASS_B][1](p, None))
            ok, witness = _check(prop, f, m, cap)
            return Certificate(prop, PROVEN if ok else REFUTED, "L2_5" if ok else "BRUTE_ONLY",
                               m, witness, elapsed())
        m = _probe_modulus(p, cap)
        ok, witness = _check(prop, f, m, cap)
        return Certificate(prop, UNKNOWN if ok else REFUTED, "BRUTE_ONLY", m,
                           {probe_key: m.k} if ok else witness, elapsed())
    theorem, threshold = row
    size = None
    if cls.tag in (QP_POLY_INTVAL, CLASS_A):  # read off the interpolation series
        facts = _facts(f, p)
        series = facts.series
        if series is None:
            raise ValueError("coefficient route needs a polynomial or interpolation series")
        if cls.tag == CLASS_A and p == 2:
            return Certificate(prop, PROVEN if coeff_test(series) else REFUTED,
                               coeff_theorem, Modulus(2, 1), None, elapsed())
        if not is_compatible(series):
            return Certificate(prop, REFUTED, "T2_1", Modulus(p, 1),
                               {"reason": "not compatible"}, elapsed())
        if cls.tag == CLASS_A:
            size = cls.lam if cls.lam is not None else facts.lam
        else:
            size = cls.degree if cls.degree is not None else series.degree
    m = Modulus(p, threshold(p, size))
    ok, witness = _check(prop, f, m, cap)
    return Certificate(prop, PROVEN if ok else REFUTED, theorem, m, witness, elapsed())


def ergodicity_certificate(f: MapLike, p: int, cls: Optional[FunctionClass] = None,
                           cap: Optional[int] = None) -> Certificate:
    """One finite transitivity check, extrapolated to every precision.

    Threshold moduli by class (all if-and-only-if, so REFUTED is sound):
      Z_POLY, CLASS_B    p^3 for p in {2,3}, else p^2          (T4_9)
      QP_POLY_INTVAL     p^(floor(log_p d) + 3)                (P4_7)
      CLASS_A, odd p     p^(lam+1), or p^(lam+2) for p=3       (T4_1)
      CLASS_A, p=2       interpolation-coefficient test        (T2_3)
    GENERIC_COMPATIBLE is first matched against the shift family
    c + x + q*Dv (unit c, ord_p(q) >= 1, v congruence-respecting), which
    is ergodic by construction at every prime (L2_5); should the match's
    check fail, that check's witness REFUTES.  Anything else gets a
    bounded brute probe: transitive there is UNKNOWN (no theorem extends
    it), a short cycle is REFUTED.  At p = 2 the probe's check tests bit
    slices first, as `transitive_mod` does on 2^10..2^16 states: a map
    bijective by its d + c*x + q*v shape, or by the slice test of
    measure_preservation_certificate on its lane table, is transitive mod
    2^k iff f(0) is odd and each bit i < k is set at an odd number of
    y < 2^i.  The lane table, or else the map's values at
    0..2^(k-1)-1, is read once; a failed test leaves the witness to the
    walk, which reads the same lane table.
    """
    return _certificate(ERGODIC, f, p, cls, cap)


def measure_preservation_certificate(f: MapLike, p: int, cls: Optional[FunctionClass] = None,
                                     cap: Optional[int] = None) -> Certificate:
    """One finite bijectivity check, extrapolated to every precision.

    Threshold moduli by class:
      Z_POLY             p^2, exact criterion                  (C3_10)
      CLASS_B            p^2, every p                          (T4_9)
      QP_POLY_INTVAL     p^(floor(log_p d) + 3)                (P4_8)
      CLASS_A, odd p     p^(lam+2)                             (T4_1)
      CLASS_A, p=2       interpolation-coefficient test        (T2_2)
    GENERIC_COMPATIBLE is first matched against the shift family
    d + c*x + q*v (unit c, ord_p(q) >= 1, v congruence-respecting), which
    is bijective at every precision by construction (L2_5), and REFUTED
    with the check's witness should the match's check fail; otherwise a
    bounded probe, UNKNOWN or REFUTED only.  At p = 2, on a map with a
    lane table, every check first tests bit slices: the map, a T-function,
    is bijective mod 2^k iff bit i of f(y) and of f(y + 2^i) differ for
    every y < 2^i at each level i < k.  A failed test leaves the collision
    to the scan, which reads the same table.
    """
    return _certificate(MEASURE_PRESERVING, f, p, cls, cap)


def compatibility_certificate(f: MapLike, p: int, cap: Optional[int] = None) -> Certificate:
    """Does f respect congruences at every precision?

    Polynomials and interpolation series are decided exactly by the
    coefficient criterion (T2_1).  ASTs whose polynomial leaves all pass
    the criterion are PROVEN by closure; otherwise a bounded probe either
    finds a violated congruence (REFUTED) or reports UNKNOWN.  The probe
    checks level 1 as it evaluates, so a level-1 refutation at input x
    evaluates only inputs 0..x: a map that would raise at a later input
    is REFUTED rather than raising.  Deeper levels scan the full table.
    """
    t0 = time.perf_counter()
    elapsed = lambda: (time.perf_counter() - t0) * 1000.0
    facts = _facts(f, p)
    if isinstance(f, (MahlerSeries, RationalPoly)) or facts.compatible:
        return Certificate(COMPATIBLE, PROVEN if facts.compatible else REFUTED, "T2_1",
                           Modulus(p, 1), None, elapsed())
    m = _probe_modulus(p, cap)
    fn = compile_map(f, m)
    table = array("q", map(fn, range(p)))
    # level 1 while the table fills: x mod p is the first input of its
    # class, so compare the rest with it; likewise mod p^j on the full table
    for x in range(p, m.value):
        v = fn(x)
        if (v - table[x % p]) % p:
            return Certificate(COMPATIBLE, REFUTED, "BRUTE_ONLY", m,
                               {"level": 1, "input_residue": x % p}, elapsed())
        table.append(v)
    for j in range(2, m.k):
        q = p ** j
        for x in range(q, m.value):
            if (table[x] - table[x % q]) % q:
                return Certificate(COMPATIBLE, REFUTED, "BRUTE_ONLY", m,
                                   {"level": j, "input_residue": x % q}, elapsed())
    return Certificate(COMPATIBLE, UNKNOWN, "BRUTE_ONLY", m,
                       {"compatible_up_to": m.k}, elapsed())


def triangle_ergodicity_certificate(t: BoolTriangle) -> Certificate:
    """Transitivity of a bit-recursion triangle, decided from its layer forms.

    The induced map is a single cycle mod 2^n for every n up to the length
    exactly when every psi_i has odd weight: psi_0, a function of no
    variables, is then the constant 1.  The first layer that fails is the
    witness.
    """
    t0 = time.perf_counter()
    layer = next((i for i in range(t.length) if not t.has_odd_weight(i)), None)
    witness = None if layer is None else {
        "layer": layer, "reason": "even weight" if layer else "layer 0 is not the constant 1"}
    return Certificate(ERGODIC, PROVEN if witness is None else REFUTED, "T3_14_NOTE",
                       Modulus(2, t.length), witness,
                       (time.perf_counter() - t0) * 1000.0)
