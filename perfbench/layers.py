"""Per-layer microbenchmarks, timed from outside around public library calls.

Every metric is labelled "timed" (a clock around calls) or "computed"
(a count or ratio derived from returned certificates and reports).  The
suite is the same in every traced run; its inputs are the workload pools
with fixed start states, so only the clock varies between runs.

Which end-to-end metric each layer should move, and on which workload:
  core     unit_pow, mod_inverse: op_ms_p90 on certify-mix, words_per_s on
           gen-stream; ord_p: op_ms_p90 on analyze-orbits
  mahler   eval_mod: op_ms_p90 on certify-mix, op_ms_p50 on analyze-orbits;
           criteria: op_ms_p50 on certify-mix
  funcalg  parse: setup_s; evaluation: op_ms_p90 and ops_per_s on
           certify-mix, words_per_s on gen-stream
  certify  recognized routes: op_ms_p50 on certify-mix; BRUTE_ONLY and the
           checkers: op_ms_p90 and ops_per_s on certify-mix
  genlib   setup_s and words_per_s on gen-stream
  analysis walk: op_ms_p50 on analyze-orbits; solver: op_ms_p90 there
  cli      setup_s everywhere; main_ms is CLI overhead outside the ops
Predicted non-moves: a solver change leaves certify-mix and gen-stream
alone, a table-evaluation change leaves gen-stream alone, and a genlib
change leaves certify-mix alone.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
from fractions import Fraction
from statistics import median
from time import perf_counter

from padicforge import (
    PROVEN,
    REFUTED,
    FnExpr,
    GeneratorState,
    Modulus,
    RationalPoly,
    ResidueInt,
    affine_linear_complexity,
    bijective_mod,
    bit_plane_periods,
    build_ergodic,
    emit_bytes,
    evaluator,
    infer_class,
    is_compatible,
    is_ergodic_2adic,
    is_ergodic_sufficient_oddp,
    is_measure_preserving_2adic,
    mod_inverse,
    ord_p,
    parse_dsl,
    series_from_poly,
    transitive_mod,
    unit_pow,
)
from padicforge.funcalg import (
    add, and_, compose, const, delta, inv, mul, neg, or_, poly_node, pow_, sub, var, xor,
)

import workloads as wl
from env import ROOT

PROBE_MODULI = (Modulus(2, 14), Modulus(3, 8), Modulus(5, 6))
GEN_SOURCES = ("readme", "pow", "outfn", "composite")
CLI_ARGV = {
    "check": ["check", wl.README_MAP, "-p", "2", "-k", "8"],
    "certify": ["certify", "1 + x + 201^x", "-p", "5"],
    "gen": ["gen", wl.README_MAP, "-p", "2", "-k", "32", "--seed", "1", "--count", "4096"],
    "analyze": ["analyze", "1 + 5*x", "-p", "2", "-k", "6", "--rmax", "8"],
}
# Integer and integer-valued polynomials of the certify-mix pool, at their primes.
CORPUS_POLYS = (
    (wl.QUINTIC, 5), (wl.QUINTIC, 2), (RationalPoly([1, 5]), 2),
    (RationalPoly([1, 4, 0, 3]), 3), (RationalPoly([1, 1, 5]), 5),
    (wl.FF6, 2), (wl.FF6, 5), (wl.FF6, 3),
    (RationalPoly([1, 1, 0, 0, Fraction(1, 6)], "falling"), 2),
    (RationalPoly([1, 1, 0, 0, 0, Fraction(1, 5)], "falling"), 5),
)

def _metric(out: dict, name: str, value: float, unit: str, how: str) -> None:
    out[name] = (value, unit, how)


def _timed(fn, repeats: int = 3) -> float:
    """Median wall seconds of repeated fn() calls."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return median(samples)


def node_count(e: FnExpr) -> int:
    return 1 + sum(node_count(c) for c in e.children)


# ------------------------------------------------------------------- core


def bench_core(out: dict) -> None:
    rng = random.Random(7)
    pow_args, inv_args, ord_args = [], [], []
    for p, k in ((2, 32), (3, 20), (5, 14)):
        m = Modulus(p, k)
        for _ in range(200):
            u = (1 + p * rng.randrange(m.value // p)) % m.value
            pow_args.append((ResidueInt(u, m), rng.randrange(m.value)))
            w = rng.randrange(1, m.value)
            while w % p == 0:
                w = rng.randrange(1, m.value)
            inv_args.append(ResidueInt(w, m))
            ord_args.append((rng.randrange(1, 1 << 20) * p ** rng.randrange(k), p))
    n = len(pow_args)
    _metric(out, "core.unit_pow_us",
            _timed(lambda: [unit_pow(u, e) for u, e in pow_args], 5) / n * 1e6, "us", "timed")
    _metric(out, "core.mod_inverse_us",
            _timed(lambda: [mod_inverse(u) for u in inv_args], 5) / n * 1e6, "us", "timed")
    _metric(out, "core.ord_p_us",
            _timed(lambda: [ord_p(v, p) for v, p in ord_args], 5) / n * 1e6, "us", "timed")


# ----------------------------------------------------------------- mahler


def _criteria(poly: RationalPoly, p: int) -> None:
    series = series_from_poly(poly, p)
    is_compatible(series)
    if p == 2:
        is_measure_preserving_2adic(series)
        is_ergodic_2adic(series)
    else:
        is_ergodic_sufficient_oddp(series)


def bench_mahler(out: dict) -> None:
    points = range(512)
    moduli = [Modulus(p, {2: 14, 3: 8, 5: 6}[p]) for _, p in CORPUS_POLYS]

    def sweep():
        for (poly, _), m in zip(CORPUS_POLYS, moduli):
            for x in points:
                poly.eval_mod(x, m)

    n = len(CORPUS_POLYS) * len(points)
    _metric(out, "mahler.eval_mod_us", _timed(sweep) / n * 1e6, "us", "timed")
    _metric(out, "mahler.criteria_ms",
            _timed(lambda: [_criteria(poly, p) for poly, p in CORPUS_POLYS])
            / len(CORPUS_POLYS) * 1e3, "ms", "timed")


# ---------------------------------------------------------------- funcalg


def single_kind_trees() -> dict:
    """kind -> (tree, points): one node kind above VAR and CONST leaves only.

    INV and POW need unit bases, so their trees are swept over odd points.
    """
    x, c = var(), const(3)

    def balanced(op, depth):
        if depth == 0:
            return x
        return op(balanced(op, depth - 1), c if depth == 1 else balanced(op, depth - 1))

    def chain(op, depth):
        e = x
        for _ in range(depth):
            e = op(e)
        return e

    every, odd = range(2048), range(1, 4096, 2)
    trees = {kind: (balanced(op, 3), every) for kind, op in (
        ("ADD", add), ("SUB", sub), ("MUL", mul), ("XOR", xor), ("AND", and_), ("OR", or_))}
    trees["COMPOSE"] = (balanced(compose, 3), every)
    trees["NEG"] = (chain(neg, 7), every)
    trees["DELTA"] = (chain(delta, 3), every)
    trees["INV"] = (chain(inv, 7), odd)
    trees["POW"] = (chain(lambda e: pow_(e, x), 3), odd)
    trees["POLY"] = (poly_node(wl.QUINTIC), every)
    return trees


def bench_funcalg(out: dict) -> None:
    sources = [src for _, _, src, _, _ in wl.CERTIFY_ITEMS if isinstance(src, str)]
    sources += [src for _, src, _, _, _ in wl.ORBIT_ITEMS]
    nodes = sum(node_count(parse_dsl(s)) for s in sources)
    _metric(out, "funcalg.parse_us_per_node",
            _timed(lambda: [parse_dsl(s) for s in sources], 5) / nodes * 1e6, "us", "timed")

    trees = [(item.fn, Modulus(item.p, {2: 14, 3: 8, 5: 6}[item.p]))
             for item in wl.certify_items() if isinstance(item.fn, FnExpr)]
    points = range(512)

    def sweep():
        for fn, m in trees:
            step = evaluator(fn, m)
            for x in points:
                step(x)

    work = sum(node_count(fn) for fn, _ in trees) * len(points)
    _metric(out, "funcalg.eval_ns_per_node_point", _timed(sweep) / work * 1e9, "ns", "timed")

    m32 = Modulus(2, 32)
    for kind, (tree, pts) in single_kind_trees().items():
        step = evaluator(tree, m32)
        t = _timed(lambda: [step(x) for x in pts])
        _metric(out, f"funcalg.eval_ns_per_point.{kind}", t / len(pts) * 1e9, "ns", "timed")


# ---------------------------------------------------------------- certify


def bench_certify(out: dict) -> None:
    items = wl.certify_items()
    maps = [it for it in items if it.kind == "map"]
    _metric(out, "certify.infer_class_ms",
            _timed(lambda: [infer_class(it.fn, it.p) for it in maps], 5)
            / len(maps) * 1e3, "ms", "timed")

    class RouteClock:
        """Times each certificate call and files it under the route it took."""

        def __init__(self):
            self.by_route = {r: [] for r in wl.ROUTES}
            self.certs = []

        def call(self, layer, name, fn, *args):
            t0 = perf_counter()
            result = fn(*args)
            if name != "infer_class":
                self.by_route[result.theorem].append(perf_counter() - t0)
                self.certs.append(result)
            return result

    clock = RouteClock()
    for item in items:
        item.run(clock)
    for route, times in clock.by_route.items():
        _metric(out, f"certify.route_ms.{route}", median(times) * 1e3, "ms", "timed")
    _metric(out, "certify.states_checked",
            sum(wl.states_checked(c) for c in clock.certs), "count", "computed")
    decided = sum(c.verdict in (PROVEN, REFUTED) for c in clock.certs)
    _metric(out, "certify.decided_ratio", decided / len(clock.certs), "ratio", "computed")

    for m in PROBE_MODULI:
        f = build_ergodic(parse_dsl("x*x*x + 2*x"), 1, m.p)
        t = _timed(lambda: transitive_mod(f, m), 1)
        _metric(out, f"certify.transitive_states_per_s.{m.p}", m.value / t, "states/s", "timed")
        t = _timed(lambda: bijective_mod(f, m), 1)
        _metric(out, f"certify.bijective_states_per_s.{m.p}", m.value / t, "states/s", "timed")


# ----------------------------------------------------------------- genlib


def bench_genlib(out: dict) -> None:
    refs = wl.load_references()["gen-stream"]["initial_states"]
    first = {src: states[:1] for src, states in refs.items()}
    specs = {}

    def make_all():
        specs.update((src, s[0]) for src, s in wl.gen_specs(first).items())

    _metric(out, "genlib.make_generator_ms",
            _timed(make_all) / len(GEN_SOURCES) * 1e3, "ms", "timed")
    words = 2048
    for src in GEN_SOURCES:
        state = GeneratorState(specs[src])
        t = _timed(lambda: [state.next() for _ in range(words)])
        _metric(out, f"genlib.step_ns_per_word.{src}", t / words * 1e9, "ns", "timed")
    spec = specs["readme"]
    state = GeneratorState(spec)
    t = _timed(lambda: emit_bytes(spec, words, state))
    _metric(out, "genlib.emit_ns_per_word", t / words * 1e9, "ns", "timed")


# --------------------------------------------------------------- analysis


def orders_scanned(rep, r_max: int) -> int:
    """Orders the least-order search tried: the ANY scan, then the UNIT scan
    from where the ANY scan stopped unless its relation already had a unit."""
    lc, uc = rep.linear_complexity, rep.unit_complexity
    scanned = lc if isinstance(lc, int) else r_max
    if rep.relation is not None and rep.unit_relation is rep.relation:
        return scanned
    start = lc if isinstance(lc, int) else 1
    return scanned + (uc if isinstance(uc, int) else r_max) - start + 1


def bench_analysis(out: dict) -> None:
    walk = alc = bits = 0.0
    orders = n_bits = 0
    items = wl.orbit_items()
    for item in items:
        t0 = perf_counter()
        seq = wl.walk_orbit(item.fn, item.m, 0)
        t1 = perf_counter()
        rep = affine_linear_complexity(seq, item.m, item.r_max)
        t2 = perf_counter()
        walk += t1 - t0
        alc += t2 - t1
        orders += orders_scanned(rep, item.r_max)
        if item.m.p == 2:
            t2 = perf_counter()
            bit_plane_periods(seq, item.m)
            bits += perf_counter() - t2
            n_bits += 1
    _metric(out, "analysis.walk_ms", walk / len(items) * 1e3, "ms", "timed")
    _metric(out, "analysis.alc_ms", alc / len(items) * 1e3, "ms", "timed")
    _metric(out, "analysis.alc_ms_per_order", alc / orders * 1e3, "ms", "timed")
    _metric(out, "analysis.orders_scanned", orders, "count", "computed")
    _metric(out, "analysis.bit_planes_ms", bits / n_bits * 1e3, "ms", "timed")


# -------------------------------------------------------------------- cli

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter();"
    " import padicforge.cli; print((time.perf_counter() - t) * 1e3)")


def bench_cli(out: dict) -> int:
    """Returns the number of CLI calls that did not exit 0."""
    samples = []
    for _ in range(5):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout))
    _metric(out, "cli.import_ms", median(samples), "ms", "timed")

    from padicforge.cli import main
    bad = 0
    for cmd, argv in CLI_ARGV.items():
        times = []
        for _ in range(3):
            stdout = io.TextIOWrapper(io.BytesIO())
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                t0 = perf_counter()
                code = main(argv)
                times.append(perf_counter() - t0)
            bad += code != 0
        _metric(out, f"cli.main_ms.{cmd}", median(times) * 1e3, "ms", "timed")
    return bad


def run_suite() -> tuple:
    """({name: (value, unit, "timed" | "computed")}, failed CLI calls)."""
    out: dict = {}
    for bench in (bench_core, bench_mahler, bench_funcalg, bench_certify,
                  bench_genlib, bench_analysis):
        bench(out)
    return out, bench_cli(out)
