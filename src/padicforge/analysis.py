"""Sequence diagnostics: affine complexity over Z/p^k and bit-plane periods.

The central question: what is the least r such that one full period of a
sequence satisfies x_{n+r} = c + c_0*x_n + ... + c_{r-1}*x_{n+r-1} at every
cyclic index n?  Two flavors are reported.  ANY accepts any solution of the
congruence system, zero-divisor coefficients included.  UNIT additionally
demands a solution with at least one x-coefficient invertible mod p, which
rules out relations that degenerate mod p to a statement about the constant
term alone.  A relation proved on a row sample is always re-verified against
the entire period before it is reported.  That check and the bit planes
read the sequence packed by core into 64*s-bit slots, so a block of
indices costs a few big-integer operations, not a step per index and term.

Z/p^k is not a field, so the solver is not Berlekamp-Massey.  One
elimination, _absorb, serves both the relation and the prefix bound below.
It keeps a span over Z/p^k in Howell form, whose rows from any position t
on span every span vector that is zero before t.  Its vectors are packed
one entry to a slot like the sequence, so a row operation is a multiply-add
and one reduction of all slots mod p^k (a mask at p = 2, Barrett at odd p).  The sampled system of
order r goes into one such basis, each column tagged with its unknown and
the target column with a tag of its own.  The row at the target's tag
gives a particular solution, and the rows after it generate the kernel,
which the UNIT flavor draws a unit coefficient from when the particular
solution has none.  The reported relation is the member of its solution
coset that the basis gives.  A UNIT relation is also an ANY relation, so
when the ANY scan finds nothing up to r_max the UNIT flavor is reported as
NoneFoundUpTo(r_max) without scanning again.

A cheap bound rules out low orders first.  An affine relation of order r
gives dx_{n+r} = sum c_j dx_{n+j}, dx_n = x_{n+1} - x_n, on every window,
so orders failing on the windows of the first 2*r_max + 2 differences fail
on the full period and are skipped.  One pass keeps the window columns'
span in Howell form over Z/p^k and decides each order without a solve.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .certify import PROVEN, CapExceeded, MapLike, ergodicity_certificate
from .core import Modulus, bytes_to_words, pack_slots, slot_ones, words_to_bytes
from .expr import compile_map
from .genlib import GeneratorSpec, GeneratorState, NotBinaryModulus, NotCertified, walk

SOLVER_PERIOD_CAP = 1 << 20
DEFAULT_R_MAX = 32
R_MAX_CAP = 2 * DEFAULT_R_MAX


class EmptySequence(Exception):
    """The diagnostics need at least one element."""


@dataclass(frozen=True)
class NoneFoundUpTo:
    """No relation of any order up to and including r_max."""

    r_max: int


@dataclass(frozen=True)
class Relation:
    """x_{n+order} = constant + sum coeffs[j] * x_{n+j}, all indices cyclic."""

    order: int
    coeffs: Tuple[int, ...]
    constant: int

    def first_violation(self, seq: Sequence[int], m: Modulus) -> Optional[int]:
        """Least cyclic n where the relation fails, or None.

        Slot n (64*s bits) of X_j holds element n + j, so slot n of c +
        sum c_j*X_j + (q - 1)*X_r, q = p^k, is 0 mod q where the relation
        holds at n.  Coefficients are reduced into [0, q) and elements kept
        below 2^b, b = bitlen(q - 1), so slots stay below 2^w0 and never
        carry.  p = 2 masks the low k bits.  Odd p multiplies by q^-1 mod
        2^w0 in slots of 2*w0 bits, which maps the multiples of q onto
        [0, (2^w0 - 1)//q] (Granlund and Montgomery), and an offset carries
        every other slot into bit w0.  Blocks grow fourfold from 64 indices
        up to 2^16, which bounds the memory a long period takes.
        """
        period, q = len(seq), m.value
        terms = [(j, c % q) for j, c in enumerate(self.coeffs) if c % q] + [(self.order, q - 1)]
        reach = max(j for j, _ in terms)
        const = self.constant % q
        b = (q - 1).bit_length()
        w0 = (const + sum(c for _, c in terms) * ((1 << b) - 1)).bit_length()
        s = -(-(w0 if m.p == 2 else 2 * w0) // 64)
        slot, low = 64 * s, (1 << w0) - 1
        start, size = 0, 64
        while start < period:
            size = min(size, period - start)
            window = seq[start:start + size + reach]
            while len(window) < size + reach:  # wraps more than once when reach > period
                window += seq[:size + reach - len(window)]
            ones = slot_ones(slot, size + reach)
            below = ((1 << b) - 1) * ones
            try:
                xs = pack_slots(window, slot)
                wide = xs & below != xs
            except OverflowError:
                wide = True
            if wide:  # an element is negative or at least 2^b
                xs = pack_slots([x % q for x in window], slot)
            acc = const * ones
            for j, c in terms:
                acc += c * (xs >> slot * j)
            acc &= (1 << slot * size) - 1
            if m.p != 2:  # bit w0 of slot n: its multiple of q^-1 exceeds (2^w0 - 1)//q
                acc = ((acc * pow(q, -1, low + 1) & low * ones) + (low - low // q) * ones) >> w0
            bad = acc & (below if m.p == 2 else ones)
            if bad:
                return start + ((bad & -bad).bit_length() - 1) // slot
            start += size
            size = min(4 * size, 1 << 16)
        return None

    def verify(self, seq: Sequence[int], m: Modulus) -> bool:
        return self.first_violation(seq, m) is None

    def has_unit_coeff(self, p: int) -> bool:
        return any(cj % p for cj in self.coeffs)

    def to_json(self) -> dict:
        return {"order": self.order, "constant": self.constant,
                "coeffs": list(self.coeffs)}


Complexity = Union[int, NoneFoundUpTo]


@dataclass(frozen=True)
class SequenceReport:
    modulus: Modulus
    period: int
    linear_complexity: Complexity
    relation: Optional[Relation]
    unit_complexity: Complexity
    unit_relation: Optional[Relation]
    bit_periods: Tuple[int, ...]
    census_ok: bool

    def to_json(self) -> dict:
        def enc(value):
            if isinstance(value, NoneFoundUpTo):
                return {"none_found_up_to": value.r_max}
            return value

        blob = {
            "modulus": {"p": self.modulus.p, "k": self.modulus.k},
            "period": self.period,
            "linear_complexity": enc(self.linear_complexity),
            "unit_complexity": enc(self.unit_complexity),
            "bit_periods": list(self.bit_periods),
            "census_ok": self.census_ok,
        }
        if self.relation is not None:
            blob["relation"] = self.relation.to_json()
        if self.unit_relation is not None:
            blob["unit_relation"] = self.unit_relation.to_json()
        return blob


def _relation_at_order(seq: Sequence[int], m: Modulus, r: int,
                       unit_only: bool) -> Optional[Relation]:
    """Least-order search step: decide order r and return a verified relation.

    Solves on a row sample, then checks the candidate on the whole period;
    a violated index joins the sample and the solve repeats.  Each added
    row strictly shrinks the solution coset, so the loop terminates well
    before (r+1)*k rounds.
    """
    period = len(seq)
    want = min(period, 4 * (r + 1))
    picked = [i * (period // want) for i in range(want)]
    chosen = set(picked)
    while True:
        rows = [[seq[(n + j) % period] for j in range(r)] + [1] for n in picked]
        rhs = [seq[(n + r) % period] for n in picked]
        solved = _solve_howell(rows, rhs, m.value)
        if solved is None:
            return None
        particular, gens = solved
        z = particular
        if unit_only and not any(z[j] % m.p for j in range(r)):
            bump = next((g for g in gens if any(g[j] % m.p for j in range(r))), None)
            if bump is None:
                return None
            z = [(zi + gi) % m.value for zi, gi in zip(z, bump)]
        candidate = Relation(r, tuple(z[:r]), z[r])
        violated = candidate.first_violation(seq, m)
        if violated is None:
            return candidate
        picked.append(violated)
        if violated in chosen:
            raise AssertionError("row re-added; the solver returned a non-solution")
        chosen.add(violated)


def _solve_howell(rows: List[List[int]], rhs: List[int], q: int):
    """General solution of A z = b over Z/q, q = p^k, from one Howell basis.

    Column j of A joins the basis tagged with the unit vector e_(j+1), and
    b tagged with e_0, so the span is every (c*b + A z, c, z).  From
    position len(rows) on, the rows span the vectors with c*b + A z = 0.
    So the system is solvable iff the row there leads with 1, and then
    z = -(the rest of it); the rows after it generate the kernel.  A column
    is packed with its tag as one set bit.  Returns (particular, gens) or None.
    """
    n, width = len(rows), len(rows[0]) + 1
    slot, reduce = _slot_ring(q, n + width)
    basis = {}
    for j, col in enumerate([*zip(*rows), rhs]):  # tags e_1, ..., e_(width-1), then e_0
        tagged = pack_slots([v % q for v in col], slot) | 1 << slot * (n + (j + 1) % width)
        _absorb(basis, tagged, q, slot, reduce)
    lead, row = basis.get(n, (0, 0))
    if lead != 1:
        return None
    unpack = lambda x: [x >> slot * j & (1 << slot) - 1 for j in range(n + 1, n + width)]
    gens = [unpack(basis[t][1]) for t in sorted(basis) if t > n]
    return [-v % q for v in unpack(row)], gens


def _slot_ring(q: int, length: int) -> Tuple[int, Callable[[int], int]]:
    """(slot width, reduce) for length entries mod q packed one to a 64*s-bit
    slot: reduce takes every slot below q^2 + q into [0, q).  At p = 2 it
    masks.  At odd p it subtracts q times floor(x*mu / 2^w), mu = 2^w // q,
    2^w > q^2 + q (Barrett), leaving slots below 2q, then q where bit g of
    x + 2^g - q is set, 2^g > q.  Slots are wide enough for x*mu."""
    w, g, odd = (q * q + q).bit_length(), q.bit_length(), q & (q - 1)
    slot = 64 * -(-(w + g if odd else w) // 64)
    ones = slot_ones(slot, length)
    mask, low, off = (q - 1) * ones, ((1 << slot - w) - 1) * ones, ((1 << g) - q) * ones
    mu = (1 << w) // q

    def reduce(x: int) -> int:
        x -= (x * mu >> w & low) * q
        return x - ((x + off) >> g & ones) * q
    return slot, reduce if odd else lambda x: x & mask


def _absorb(basis: dict, v: int, q: int, slot: int, reduce: Callable[[int], int]) -> bool:
    """Add v to a span over Z/q, q = p^k, in Howell form; False if v is in it.
    v is packed in _slot_ring's slots.  basis[t] = (p^e, row), row zero before
    t and leading with p^e.  Installing it also absorbs p^(k-e) times it and
    the row it displaced, so the rows from t on span all of the span that is
    zero before t, and reduction decides membership.  The pivot is the lowest
    nonzero slot, and a row operation is reduce(v + (q - c)*row)."""
    todo, grew = [v], False
    while todo:
        v, last = todo.pop(), -1
        while v:
            t = ((v & -v).bit_length() - 1) // slot
            assert t > last, f"reduce left slot {t} nonzero mod {q}"  # a row op clears slot t
            last = t
            x = v >> slot * t & (1 << slot) - 1
            lead, row = basis.get(t, (q, 0))  # no row yet: x % q is x, not 0
            if x % lead == 0:
                v = reduce(v + (q - x // lead) * row)
                continue
            g = gcd(x, q)
            new = reduce(v * pow(x // g, -1, q))
            basis[t] = (g, new)
            if row:
                todo.append(reduce(row + (q - lead // g) * new))
            if g > 1:
                todo.append(reduce(new * (q // g)))
            grew = True
            break
    return grew


def _prefix_lower_bound(seq: Sequence[int], m: Modulus, r_max: int) -> int:
    """Least order that a short prefix of differences leaves open.

    With dx_n = x_{n+1} - x_n (cyclic) and n = min(period, 2*r_max + 2), a
    full-period relation of order r puts column r of H[i][j] = dx_{i+j},
    i < n - 1, in the span of columns 0..r-1.  The columns join one Howell
    basis in turn; the first to reduce to zero is the bound.  Orders above
    top = min(r_max, (n - 1) // 2) are not decided, so top + 1 ends it.
    """
    period = len(seq)
    n = min(period, 2 * r_max + 2)
    top = min(r_max, (n - 1) // 2)
    diff = [(seq[(i + 1) % period] - seq[i % period]) % m.value for i in range(n - 1 + top)]
    slot, reduce = _slot_ring(m.value, n - 1)
    diffs, window = pack_slots(diff, slot), (1 << slot * (n - 1)) - 1
    basis = {}
    for r in range(top + 1):
        if not _absorb(basis, diffs >> slot * r & window, m.value, slot, reduce) and r:
            return r
    return top + 1


def _least_order(seq, m, r_max, unit_only, r_start=1):
    for r in range(r_start, r_max + 1):
        rel = _relation_at_order(seq, m, r, unit_only)
        if rel is not None:
            return rel
    return None


def _check_r_max(r_max: int):
    if r_max > R_MAX_CAP:
        raise CapExceeded(f"r_max {r_max} exceeds the cap {R_MAX_CAP}")


def _check_buffer(seq, m: Modulus):
    if len(seq) == 0:
        raise EmptySequence("need one full period, got an empty buffer")
    if len(seq) > SOLVER_PERIOD_CAP:
        raise CapExceeded(f"period {len(seq)} exceeds the solver cap {SOLVER_PERIOD_CAP}")
    if min(seq) < 0 or max(seq) >= m.value:
        bad = next(x for x in seq if not 0 <= x < m.value)
        raise ValueError(f"element {bad} is not a residue mod {m.value}")


def affine_linear_complexity(seq: Sequence[int], m: Modulus,
                             r_max: int = DEFAULT_R_MAX) -> SequenceReport:
    """Full diagnostics for one period of residues mod p^k.

    The headline complexity is the ANY flavor; the UNIT flavor never comes
    out smaller, so its scan starts where the first one stopped.  A UNIT
    relation is also an ANY relation, and the ANY scan misses an order only
    when the system at that order has no solution at all, so after an ANY
    miss up to r_max the UNIT flavor is reported as a miss without a scan.
    The ANY scan starts at _prefix_lower_bound: orders below it fail on a
    prefix of the differences, hence on the full period, so the relation
    is the one a scan from order 1 finds; a bound past r_max is a miss.
    """
    _check_r_max(r_max)
    seq = list(seq)
    _check_buffer(seq, m)
    any_rel = _least_order(seq, m, r_max, unit_only=False,
                           r_start=_prefix_lower_bound(seq, m, r_max))
    if any_rel is None or any_rel.has_unit_coeff(m.p):
        unit_rel = any_rel
    else:
        unit_rel = _least_order(seq, m, r_max, unit_only=True,
                                r_start=any_rel.order)
    counts = Counter(seq)
    census_ok = len(counts) == m.value and len(set(counts.values())) == 1
    return SequenceReport(
        modulus=m,
        period=len(seq),
        linear_complexity=any_rel.order if any_rel else NoneFoundUpTo(r_max),
        relation=any_rel,
        unit_complexity=unit_rel.order if unit_rel else NoneFoundUpTo(r_max),
        unit_relation=unit_rel,
        bit_periods=tuple(_bit_plane_periods(seq, m.k)) if m.p == 2 else (),
        census_ok=census_ok,
    )


_BIT_OF_BYTE = [bytes((b >> j) & 1 for b in range(256)) for j in range(8)]


def bit_plane_periods(seq: Sequence[int], m: Modulus) -> List[int]:
    """Minimal period of each bit sequence delta_j(x_n), j = 0..k-1.

    The buffer is one full period, so a plane's least period is the first
    d >= 1 where it recurs in itself written twice.  Plane j is read from
    byte j//8 of every little-endian 64*s-bit word by bytes.translate.
    """
    if m.p != 2:
        raise NotBinaryModulus(f"bit planes need p = 2, modulus is {m}")
    seq = list(seq)
    _check_buffer(seq, m)
    return _bit_plane_periods(seq, m.k)


def _bit_plane_periods(seq: List[int], k: int) -> List[int]:
    """bit_plane_periods of a list that _check_buffer has passed mod 2^k."""
    s = -(-k // 64)
    image = words_to_bytes(seq, 8 * s)
    planes = (image[j // 8::8 * s].translate(_BIT_OF_BYTE[j % 8]) for j in range(k))
    return [(plane + plane).find(plane, 1) for plane in planes]


def orbit(step: Callable[[int], int], m: Modulus, seed: int = 0) -> List[int]:
    """seed, step(seed), ... up to the return to seed, at most m.value states and steps."""
    seq = [seed]
    while len(seq) <= m.value:
        block = walk(step, seq[-1], min(max(len(seq), 64), m.value + 1 - len(seq)))
        if seed in block:
            return seq + block[:block.index(seed)]
        seq += block
    return seq[:m.value]


def complexity_growth_profile(state_fn: MapLike, p: int, k_range,
                              r_max: int = 16) -> List[Tuple[int, Complexity]]:
    """UNIT-flavor complexity of the orbit of 0 at each precision in k_range.

    The state map must carry a PROVEN ergodicity certificate, which also
    guarantees the orbit is one full period of length p^k.  Complexity is
    nondecreasing in k (a relation mod p^k holds mod p^(k-1), units stay
    units), so each scan starts at max(previous order, prefix bound).
    """
    _check_r_max(r_max)
    cert = ergodicity_certificate(state_fn, p)
    if cert.verdict != PROVEN:
        raise NotCertified(f"state map is {cert.verdict} at p={p}, profile needs PROVEN",
                           cert.verdict)
    out = []
    r_floor = 1
    for k in sorted(k_range):
        m = Modulus(p, k)
        seq = orbit(compile_map(state_fn, m), m)
        _check_buffer(seq, m)
        rel = _least_order(seq, m, r_max, unit_only=True,
                           r_start=max(r_floor, _prefix_lower_bound(seq, m, r_max)))
        if rel is None:
            out.append((k, NoneFoundUpTo(r_max)))
            r_floor = r_max + 1
        else:
            out.append((k, rel.order))
            r_floor = rel.order
    return out


def sequence_from_generator(spec: GeneratorSpec, count: Optional[int] = None) -> List[int]:
    """One full period of outputs by default; count overrides."""
    n = spec.modulus.value if count is None else count
    if n > SOLVER_PERIOD_CAP:
        raise CapExceeded(f"requested {n} elements, solver cap is {SOLVER_PERIOD_CAP}")
    return GeneratorState(spec).take(n)


def sequence_from_bytes(data: bytes, m: Modulus) -> List[int]:
    """Little-endian words of k/8 bytes each, read by the inverse of emit_bytes's packing."""
    if m.p != 2 or m.k % 8 != 0:
        raise NotBinaryModulus(f"byte ingestion needs p = 2 and 8 | k, modulus is {m}")
    width = m.k // 8
    if len(data) % width:
        raise ValueError(f"{len(data)} bytes is not a whole number of {width}-byte words")
    return list(bytes_to_words(data, width))
