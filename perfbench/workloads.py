"""The three benchmark workloads: their input pools, ops and output checks.

Every workload is a fixed pool of items whose answers are recorded in
reference.json (written by record.py), so every op's output is checked
whatever the seed.  The run seed orders the ops inside every cycle and
picks each stream's initial state.  A run executes whole cycles, so each
run times the same mix of items and its percentiles sit at the same place
in that mix whatever the seed.

An op returns its raw output; `check` compares it with the references
and returns None or a one-line description of the mismatch.  Library
calls go through `tr.call(layer, name, fn, *args)` so a traced run can
record a span around each of them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, List, Optional

from padicforge import (
    BoolTriangle,
    CompositeModulus,
    FunctionClass,
    GeneratorState,
    MahlerSeries,
    Modulus,
    MultiPoly,
    NoneFoundUpTo,
    RationalPoly,
    affine_linear_complexity,
    bit_plane_periods,
    build_composite_generator,
    build_ergodic,
    compatibility_certificate,
    emit_bytes,
    ergodicity_certificate,
    evaluator,
    infer_class,
    jacobian_equiprobable_certificate,
    make_generator,
    measure_preservation_certificate,
    parse_dsl,
    series_from_poly,
    triangle_ergodicity_certificate,
)
from padicforge.certify import CLASS_A

REFERENCE_PATH = Path(__file__).with_name("reference.json")
CHUNK_WORDS = 256
STREAM_CHUNKS = 16
ROUTES = ("T2_1", "T4_9", "C3_10", "P4_7", "P4_8", "T4_1", "T2_2", "T2_3",
          "L2_5", "C3_8", "T3_14_NOTE", "BRUTE_ONLY")

OP_DEFINITION = {
    "certify-mix": (
        "one map certified at one prime: infer_class, then the compatibility,"
        " measure-preservation and ergodicity certificates (one certificate"
        " for Jacobian systems and digit triangles)"),
    "gen-stream": (
        f"one chunk of {CHUNK_WORDS} words from one stream (emit_bytes, or"
        " GeneratorState.take on the composite modulus)"),
    "analyze-orbits": (
        "one affine_linear_complexity report on a full-period orbit, plus"
        " bit_plane_periods when p = 2"),
}


class NullTracer:
    """Calls straight through; used for every untimed and untraced run."""

    @staticmethod
    def call(layer, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ------------------------------------------------------------ certify-mix

FF6 = RationalPoly([1, 1, 0, 0, 0, 0, Fraction(5, 18)], "falling")
QUINTIC = RationalPoly([1, -127, 0, -152, 0, 152])
# criterion-7 interpolation series of the two-branch map (x-3 even, x+5 odd)
PARITY_FLIP = MahlerSeries(
    (-3, 9) + tuple((-1) ** (j + 1) * (1 << (j + 2)) for j in range(2, 15)), 2)

# (id, kind, source, prime, explicit class tag or None); a source is DSL
# text or a function building the object.
# kind "map" makes the calls cmd_certify makes; "jacobian" and "triangle"
# are one certificate each.  The ten BRUTE_ONLY items are the expensive
# cluster: 10 of 35 items, so p50 and p90 fall inside one cluster each.
CERTIFY_ITEMS = [
    # integer polynomials: T2_1, C3_10, T4_9
    ("quintic@5", "map", lambda: QUINTIC, 5, None),
    ("quintic@2", "map", lambda: QUINTIC, 2, None),
    ("affine-1+5x@2", "map", "1 + 5*x", 2, None),
    ("cubic-1+4x+3x3@3", "map", "1 + 4*x + 3*x*x*x", 3, None),
    ("quad-1+x+5x2@5", "map", "1 + x + 5*x*x", 5, None),
    # integer-valued polynomials with p in a denominator: P4_7, P4_8
    ("sextic@2", "map", "1 + x + (5/18)*ff(x,6)", 2, None),
    ("quartic-ff4/6@2", "map", "1 + x + (1/6)*ff(x,4)", 2, None),
    # class B with POW and INV: T4_9
    ("sextic@5", "map", "1 + x + (5/18)*ff(x,6)", 5, None),
    ("exp201@5", "map", "1 + x + 201^x", 5, None),
    ("exp201@2", "map", "1 + x + 201^x", 2, None),
    ("inv200@2", "map", "1 + x + inv(1 + 200*x)", 2, None),
    ("pow-odd-base@2", "map", "1 + x + 4*(1+2*x)^x", 2, None),
    # build_ergodic shift family: L2_5 with bitwise or non-class-B leaves,
    # T4_9 when the perturbation is class B
    ("shift-readme@2", "map",
     lambda: build_ergodic(parse_dsl("x xor (2*x + 1)"), 1, 2), 2, None),
    ("shift-squares-mask@2", "map",
     lambda: build_ergodic(parse_dsl("(x*x) xor ((x + 32) and x)"), 7, 2), 2, None),
    ("shift-intval@3", "map",
     lambda: build_ergodic(parse_dsl("(1/40320)*ff(x,9)*(1+3*x)^x"), 1, 3), 3, None),
    ("shift-classb@3", "map",
     lambda: build_ergodic(parse_dsl("x*x*x + inv(1 + 3*x)"), 1, 3), 3, None),
    ("shift-pow@5", "map", lambda: build_ergodic(parse_dsl("(1+5*x)^x"), 2, 5), 5, None),
    # explicit class A (as the API allows): T4_1, T2_2, T2_3
    ("sextic-classA@5", "map", lambda: FF6, 5, CLASS_A),
    ("sextic-series-classA@2", "map", lambda: series_from_poly(FF6, 2), 2, CLASS_A),
    ("parity-flip-series-classA@2", "map", lambda: PARITY_FLIP, 2, CLASS_A),
    # Jacobian systems: C3_8
    ("jacobian-2x+y3@2", "jacobian",
     lambda: [MultiPoly(2, {(1, 0): 2, (0, 3): 1})], 2, None),
    ("jacobian-unit@2", "jacobian",
     lambda: [MultiPoly(2, {(1, 0): 1, (0, 1): 3, (0, 2): 6, (0, 3): 4})], 2, None),
    ("jacobian-xy+z@3", "jacobian",
     lambda: [MultiPoly(3, {(1, 1, 0): 1, (0, 0, 1): 1})], 3, None),
    # digit triangles: T3_14_NOTE
    ("triangle-odd@2", "triangle", lambda: BoolTriangle([
        {frozenset()}, {frozenset([0])}, {frozenset([0, 1])},
        {frozenset([0, 1, 2]), frozenset([1])}]), 2, None),
    ("triangle-even@2", "triangle", lambda: BoolTriangle([
        {frozenset()}, {frozenset([0])}, {frozenset([0])}]), 2, None),
    # unrecognized: BRUTE_ONLY probes over 2^14, 3^8 or 5^6 states
    ("brute-xor-square@2", "map", "1 + x + 2*((x*x) xor ((x + 32) and x))", 2, None),
    ("brute-measure-only@2", "map", "3 + 5*x + 2*(x xor (4*x + 1))", 2, None),
    ("brute-or-mix@2", "map", "1 + ((x*x + 3*x) xor (x and 12)) + 4*(x or 5)", 2, None),
    ("brute-sextic@3", "map", "1 + x + (5/18)*ff(x,6)", 3, None),
    ("brute-quartic-ff4/6@3", "map", "1 + x + (1/6)*ff(x,4)", 3, None),
    ("brute-pow-ff3@3", "map", "1 + x + (1/3)*ff(x,3)*(1+3*x)^x", 3, None),
    ("brute-ff5/5@5", "map", "1 + x + (1/5)*ff(x,5)", 5, None),
    ("brute-xor-and@2", "map", "1 + x + 4*((x xor 3)*(x and 5))", 2, None),
    ("brute-or@2", "map", "1 + 3*x + 2*(x or 6)", 2, None),
    ("brute-xor1@2", "map", "x xor 1", 2, None),
]

# Claims README.md makes about pool items: (source, test on encoded rows).
# They are checked on top of the recorded references.
QUINTIC_ORBITS = {2: 20, 3: 20, 4: 100, 5: 500, 6: 2500}
PUBLISHED = {
    "exp201@5": (
        "README.md certify example: PROVEN via T2_1 at 5^1 and T4_9 at 5^2",
        lambda rows: [r[1:4] for r in rows] == [
            ["T2_1", "PROVEN", 1], ["T4_9", "PROVEN", 2], ["T4_9", "PROVEN", 2]]),
    "exp201@2": (
        "README.md criterion 5: not transitive, orbit of 0 mod 2^k is 2^(k-1)",
        lambda rows: rows[2][2] == "REFUTED"
        and rows[2][4] == {"cycle_through_zero": 2 ** (rows[2][3] - 1)}),
    "inv200@2": (
        "README.md criterion 5: not transitive, orbit of 0 mod 2^k is 2^(k-1)",
        lambda rows: rows[2][2] == "REFUTED"
        and rows[2][4] == {"cycle_through_zero": 2 ** (rows[2][3] - 1)}),
    "quintic@5": (
        "README.md criterion 5: orbit of 0 mod 5^k is 20, 20, 100, 500, 2500 for k = 2..6",
        lambda rows: rows[2][2] == "REFUTED"
        and rows[2][4] == {"cycle_through_zero": QUINTIC_ORBITS[rows[2][3]]}),
    "shift-readme@2": (
        "README.md gen example: ergodic PROVEN via L2_5 at 2^3",
        lambda rows: rows[2][1:4] == ["L2_5", "PROVEN", 3]),
}


def encode_certs(certs) -> list:
    """[property, theorem, verdict, checked k, witness] per certificate, as JSON has it."""
    return json.loads(json.dumps([[c.property, c.theorem, c.verdict, c.checked_modulus.k,
                                   c.witness] for c in certs]))


def states_checked(cert) -> int:
    """Residues a certificate's finite check covered (computed, not timed).

    Coefficient and layer-form routes cover none; a short cycle counts its
    length, a collision the inputs up to its second point, a census its
    inputs, and any other walk or sweep the whole checked modulus.
    """
    w = cert.witness or {}
    if cert.theorem in ("T2_1", "T2_2", "T2_3", "T3_14_NOTE"):
        return 0
    if "census" in w:
        return w["census"]["inputs"]
    if "cycle_through_zero" in w:
        return w["cycle_through_zero"]
    if "collision" in w:
        return w["collision"][1] + 1
    return cert.checked_modulus.p ** cert.checked_modulus.k


@dataclass
class CertifyItem:
    id: str
    kind: str
    fn: Any
    p: int
    explicit: Optional[str]

    def run(self, tr) -> list:
        if self.kind == "jacobian":
            return [tr.call("certify", "jacobian_equiprobable_certificate",
                            jacobian_equiprobable_certificate, self.fn, self.p)]
        if self.kind == "triangle":
            return [tr.call("certify", "triangle_ergodicity_certificate",
                            triangle_ergodicity_certificate, self.fn)]
        cls = tr.call("certify", "infer_class", infer_class, self.fn, self.p)
        if self.explicit is not None:
            cls = FunctionClass(self.explicit)
        return [
            tr.call("certify", "compatibility_certificate",
                    compatibility_certificate, self.fn, self.p),
            tr.call("certify", "measure_preservation_certificate",
                    measure_preservation_certificate, self.fn, self.p, cls),
            tr.call("certify", "ergodicity_certificate",
                    ergodicity_certificate, self.fn, self.p, cls),
        ]


def build(source):
    return source() if callable(source) else parse_dsl(source)


def certify_items() -> List[CertifyItem]:
    return [CertifyItem(i, kind, build(src), p, explicit)
            for i, kind, src, p, explicit in CERTIFY_ITEMS]


class CertifyMix:
    name = "certify-mix"

    def __init__(self, seed: int, refs: dict):
        self.rng = random.Random(seed)
        self.refs = refs["certify-mix"]["items"]
        self.items = certify_items()
        self.routes_seen: set = set()

    def cycle(self) -> List["Op"]:
        order = list(self.items)
        self.rng.shuffle(order)
        return [Op(item.id, item.run, self._checker(item)) for item in order]

    def _checker(self, item: CertifyItem):
        def check(certs):
            got = encode_certs(certs)
            self.routes_seen.update(g[1] for g in got)
            want = self.refs[item.id]
            if got != want:
                return f"{item.id}: got {got}, recorded {want}"
            if item.id in PUBLISHED:
                source, holds = PUBLISHED[item.id]
                if not holds(got):
                    return f"{item.id}: got {got}, contradicting {source}"
            return None
        return check

    @staticmethod
    def words(certs) -> int:
        return sum(states_checked(c) for c in certs)

    def final_check(self) -> Optional[str]:
        missing = [r for r in ROUTES if r not in self.routes_seen]
        return f"routes never taken: {missing}" if missing else None


# ------------------------------------------------------------- gen-stream

README_MAP = "1 + x + 2*delta(x xor (2*x + 1))"

# (source, chunks per round).  Per chunk readme and outfn cost about 2-3 ms,
# pow about 5 ms and composite about 13 ms, so in a round of 11 ops p50
# (rank 5.5) sits inside the pow block and p90 (rank 9.9) inside the
# composite block.
GEN_WEIGHTS = (("readme", 2), ("outfn", 2), ("pow", 5), ("composite", 2))


def gen_specs(initial: dict) -> dict:
    """source -> list of certified GeneratorSpecs, one per recorded initial state."""
    readme = parse_dsl(README_MAP)
    pow_map = parse_dsl("1 + x + 4*(1 + 2*x)^x")
    out_fn = parse_dsl("x xor (2*x*x + 5)")
    m32, m16 = Modulus(2, 32), Modulus(2, 16)
    m10k = CompositeModulus.from_int(10_000)
    composite = build_composite_generator(
        RationalPoly([1]), RationalPoly([0, 2]), RationalPoly([-1]), m10k)
    build = {
        "readme": lambda s: make_generator(readme, m32, s),
        "pow": lambda s: make_generator(pow_map, m32, s),
        "outfn": lambda s: make_generator(readme, m16, s, out_fn=out_fn,
                                          out_modulus=m16),
        "composite": lambda s: make_generator(composite, m10k, s),
    }
    return {src: [build[src](s) for s in initial[src]] for src in build}


def readme_step(x: int) -> int:
    """The README map 1 + x + 2*(v(x+1) - v(x)), v(x) = x xor (2x+1), mod 2^32."""
    mask = (1 << 32) - 1

    def v(y):
        return (y & mask) ^ ((2 * y + 1) & mask)

    return (1 + x + 2 * ((v(x + 1) - v(x)) & mask)) & mask


def chunk(tr, source: str, spec, state) -> bytes:
    if source == "composite":
        words = tr.call("genlib", "GeneratorState.take", state.take, CHUNK_WORDS)
        return b"".join(w.to_bytes(2, "little") for w in words)
    return tr.call("genlib", "emit_bytes", emit_bytes, spec, CHUNK_WORDS, state)


class Stream:
    def __init__(self, source: str, index: int, spec, digests: List[str]):
        self.source, self.index, self.spec, self.digests = source, index, spec, digests
        self.pos = 0
        self.state = None

    def run(self, tr) -> bytes:
        if self.pos == 0:
            self.state = GeneratorState(self.spec)
        return chunk(tr, self.source, self.spec, self.state)

    def check(self, data: bytes) -> Optional[str]:
        pos = self.pos
        self.pos = (pos + 1) % STREAM_CHUNKS
        if hashlib.sha256(data).hexdigest() != self.digests[pos]:
            return f"{self.source}[{self.index}] chunk {pos}: SHA-256 differs from the record"
        if self.source == "readme" and pos == 0:
            x, want = self.spec.seed, bytearray()
            for _ in range(CHUNK_WORDS):
                x = readme_step(x)
                want += x.to_bytes(4, "little")
            if bytes(want) != data:
                return f"readme[{self.index}] chunk 0 differs from the plain-int step"
        return None


class GenStream:
    name = "gen-stream"

    def __init__(self, seed: int, refs: dict):
        self.rng = random.Random(seed)
        ref = refs["gen-stream"]
        pick = {src: self.rng.randrange(len(states))
                for src, states in ref["initial_states"].items()}
        specs = gen_specs({src: [ref["initial_states"][src][i]] for src, i in pick.items()})
        self.streams = {src: Stream(src, i, specs[src][0], ref["digests"][src][i])
                        for src, i in pick.items()}

    def cycle(self) -> List["Op"]:
        order = [src for src, w in GEN_WEIGHTS for _ in range(w)]
        self.rng.shuffle(order)
        return [Op(src, self.streams[src].run, self.streams[src].check) for src in order]

    @staticmethod
    def words(data: bytes) -> int:
        return CHUNK_WORDS

    def final_check(self) -> Optional[str]:
        return None


# --------------------------------------------------------- analyze-orbits

# (id, map, p, k, r_max); four of fifteen are solver-bound shift orbits
# ending in NoneFoundUpTo, so p50 (rank 7.5) is a walk-bound orbit and
# p90 (rank 13.5) a solver-bound one.
ORBIT_ITEMS = [
    ("affine-1+5x@2^12", "1 + 5*x", 2, 12, 16),
    ("cubic-1+3x+2x2+4x3@2^11", "1 + 3*x + 2*x*x + 4*x*x*x", 2, 11, 16),
    ("quintic@2^10", "1 - 127*x - 152*x*x*x + 152*x*x*x*x*x", 2, 10, 16),
    ("pow-odd-base@2^9", "1 + x + 4*(1+2*x)^x", 2, 9, 16),
    ("quad-5+9x+8x2@2^12", "5 + 9*x + 8*x*x", 2, 12, 16),
    ("cubic-1+4x+3x3@3^6", "1 + 4*x + 3*x*x*x", 3, 6, 16),
    ("affine-2+4x@3^7", "2 + 4*x", 3, 7, 16),
    ("cubic-1+x+3x3@3^5", "1 + x + 3*x*x*x", 3, 5, 16),
    ("quad-1+x+5x2@5^5", "1 + x + 5*x*x", 5, 5, 16),
    ("cubic-2+6x+5x3@5^4", "2 + 6*x + 5*x*x*x", 5, 4, 16),
    ("exp201@5^4", "1 + x + 201^x", 5, 4, 16),
    ("shift-readme@2^8", README_MAP, 2, 8, 16),
    ("shift-readme@2^9", README_MAP, 2, 9, 16),
    ("shift-squares-mask@2^8", "7 + x + 2*delta((x*x) xor ((x + 32) and x))", 2, 8, 16),
    ("shift-and@2^8", "3 + x + 2*delta(x and (4*x + 3))", 2, 8, 16),
]


def walk_orbit(fn, m: Modulus, x0: int) -> List[int]:
    """The orbit of x0 up to its return, as cmd_analyze walks it."""
    step = evaluator(fn, m)
    seq, x = [], x0
    for _ in range(m.value):
        seq.append(x)
        x = step(x)
        if x == x0:
            break
    return seq


def relation_holds(rel, seq: List[int], mod: int) -> bool:
    """The benchmark's own full-period check of x[n+r] = c + sum c_j x[n+j]."""
    n = len(seq)
    r, coeffs, c = rel.order, rel.coeffs, rel.constant
    for i in range(n):
        acc = c
        for j in range(r):
            acc += coeffs[j] * seq[(i + j) % n]
        if (acc - seq[(i + r) % n]) % mod:
            return False
    return True


def encode_complexity(value):
    return {"none_found_up_to": value.r_max} if isinstance(value, NoneFoundUpTo) else value


@dataclass
class OrbitItem:
    id: str
    fn: Any
    m: Modulus
    r_max: int
    x0: int = 0

    def run(self, tr):
        seq = tr.call("funcalg", "evaluator walk", walk_orbit, self.fn, self.m, self.x0)
        rep = tr.call("analysis", "affine_linear_complexity",
                      affine_linear_complexity, seq, self.m, self.r_max)
        bits = None
        if self.m.p == 2:
            bits = tr.call("analysis", "bit_plane_periods", bit_plane_periods, seq, self.m)
        return seq, rep, bits

    @staticmethod
    def encode(out) -> dict:
        seq, rep, bits = out
        return {"period": rep.period,
                "linear_complexity": encode_complexity(rep.linear_complexity),
                "unit_complexity": encode_complexity(rep.unit_complexity),
                "bit_periods": list(bits) if bits is not None else None,
                "census_ok": rep.census_ok}


def orbit_items() -> List[OrbitItem]:
    return [OrbitItem(i, parse_dsl(src), Modulus(p, k), r) for i, src, p, k, r in ORBIT_ITEMS]


class AnalyzeOrbits:
    """The solver's cost depends on where the orbit starts by up to a factor
    of 1.7, so start states come from one fixed sequence: cycle c of every
    run analyzes the same orbits from the same starts, and the run seed
    orders the ops inside each cycle."""

    name = "analyze-orbits"

    def __init__(self, seed: int, refs: dict):
        self.rng = random.Random(seed)
        self.starts = random.Random(0)
        self.refs = refs["analyze-orbits"]["items"]
        self.items = orbit_items()
        for item in self.items:  # the state maps are certified before any op
            cert = ergodicity_certificate(item.fn, item.m.p)
            if cert.verdict != "PROVEN":
                raise RuntimeError(f"{item.id} is {cert.verdict}; orbits must be full-period")

    def cycle(self) -> List["Op"]:
        ops = []
        for item in self.items:
            start = OrbitItem(item.id, item.fn, item.m, item.r_max,
                              self.starts.randrange(item.m.value))
            ops.append(Op(item.id, start.run, self._checker(start)))
        self.rng.shuffle(ops)
        return ops

    def _checker(self, item: OrbitItem):
        def check(out):
            seq, rep, bits = out
            got, want = item.encode(out), self.refs[item.id]
            if got != want:
                return f"{item.id} from {item.x0}: got {got}, recorded {want}"
            if bits is not None and tuple(bits) != rep.bit_periods:
                return f"{item.id}: bit_plane_periods disagrees with the report"
            for rel in (rep.relation, rep.unit_relation):
                if rel is not None and not relation_holds(rel, seq, item.m.value):
                    return f"{item.id} from {item.x0}: order-{rel.order} relation fails"
            if rep.unit_relation is not None and not any(
                    c % item.m.p for c in rep.unit_relation.coeffs):
                return f"{item.id}: unit relation has no unit coefficient"
            return None
        return check

    @staticmethod
    def words(out) -> int:
        return len(out[0])

    def final_check(self) -> Optional[str]:
        return None


# ------------------------------------------------------------------ common


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable


WORKLOADS = {w.name: w for w in (CertifyMix, GenStream, AnalyzeOrbits)}
