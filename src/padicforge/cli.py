"""Command-line frontend: check, certify, gen, analyze, repro.

check    runs the direct diagnostics at a concrete modulus: compatibility,
         bijectivity with a collision witness, transitivity with the orbit
         length, and the coefficient criteria when the function folds to a
         polynomial.  Composite moduli are split into prime-power factors
         and each factor is reported separately.
certify  infers the function class and asks for theorem-backed certificates
         of compatibility, measure preservation, and ergodicity.  The exit
         code reflects the worst verdict so pipelines can branch on it.
gen      certifies a state map, then writes the byte stream of a generator
         to stdout and the run report to stderr.
analyze  computes the affine-complexity report of a sequence: the orbit of
         a DSL expression, the output of a serialized generator spec, or a
         raw little-endian binary file.
repro    replays the worked-example regression table and fails the run if
         any row disagrees with its recorded outcome.  A row's observation,
         plain values the library computes now, must equal the outcome it
         records; a row that fails says "got <observed>, want <recorded>",
         or "raised <Type>: <message>" when the observation raises.

Exit codes: 0 success, 1 repro row failure, 2 any ValueError or OSError
or input nested too deep, 3 state cap exceeded, 4 a requested certificate
came back UNKNOWN, 5 one came back REFUTED.  PADIC_FORGE_CAP sets the
default brute-force cap; --cap-states overrides it per run.

Reports are plain dictionaries rendered either as text or as JSON
validating against schemas/report.schema.json.
"""

import argparse
import json
import os
import signal
import sys
import time
from functools import partial
from importlib import resources
from operator import attrgetter, itemgetter
from typing import List, Optional, Tuple

from .analysis import (
    DEFAULT_R_MAX,
    R_MAX_CAP,
    SOLVER_PERIOD_CAP,
    Relation,
    affine_linear_complexity,
    complexity_growth_profile,
    orbit,
    sequence_from_bytes,
    sequence_from_generator,
    _check_r_max,
)
from .certify import (
    PROVEN,
    REFUTED,
    UNKNOWN,
    CapExceeded,
    MultiPoly,
    NotBijective,
    bijective_mod,
    compatibility_certificate,
    equiprobable_mod,
    ergodicity_certificate,
    infer_class,
    is_class_b,
    jacobian_equiprobable_certificate,
    measure_preservation_certificate,
    polynomial_bijectivity_certificate,
    transitive_mod,
    _facts,
    _require_cap,
)
from .core import CompositeModulus, Modulus, ResidueInt, mod_inverse
from .expr import compile_map
from .funcalg import (
    add,
    build_composite_generator,
    build_ergodic,
    const,
    mul,
    parse_dsl,
    var,
)
from .genlib import (
    GeneratorSpec,
    NotCertified,
    _check_seed,
    _output_modulus,
    emit_blocks,
    full_period_census,
    make_generator,
    spec_from_json,
    spec_to_json,
)
from .mahler import (
    MahlerSeries,
    RationalPoly,
    coeffs_from_values,
    is_compatible,
    is_ergodic_2adic,
    is_ergodic_sufficient_oddp,
    is_measure_preserving_2adic,
)

EXIT_OK = 0
EXIT_ROW_FAILURE = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_UNKNOWN = 4
EXIT_REFUTED = 5

DEFAULT_GEN_WORDS = 1024


def report_schema() -> dict:
    """The shipped JSON schema every report validates against."""
    path = resources.files(__package__) / "schemas" / "report.schema.json"
    return json.loads(path.read_text())


# ---------------------------------------------------------------- plumbing


def _resolve_cap(args) -> Optional[int]:
    name, cap = "--cap-states", args.cap_states
    if cap is None:
        raw = os.environ.get("PADIC_FORGE_CAP")
        name, cap = "PADIC_FORGE_CAP", int(raw) if raw else None
    if cap is not None and cap <= 0:
        raise ValueError(f"{name} must be positive")
    return cap


def _resolve_modulus(args):
    """Single Modulus from -p/-k, or the factored form of -m."""
    if args.m is not None:
        if args.p is not None or args.k is not None:
            raise ValueError("give either -m or -p/-k, not both")
        comp = CompositeModulus.from_int(args.m)
        return comp.factors[0] if len(comp.factors) == 1 else comp
    if args.p is None or args.k is None:
        raise ValueError("modulus required: -p P -k K, or composite -m M")
    return Modulus(args.p, args.k)


def _resolve_primes(args) -> List[int]:
    """Primes to certify at; certify takes no -k, as a certificate holds at every k."""
    if args.m is not None:
        if args.p is not None:
            raise ValueError("give either -m or -p, not both")
        return [f.p for f in CompositeModulus.from_int(args.m).factors]
    if args.p is None:
        raise ValueError("a prime is required: -p P, or composite -m M")
    return [args.p]


def _load_source(args, raw: Optional[bytes] = None) -> str:
    """The inline source, or the text of --file; raw is its bytes when already read."""
    if args.source is not None and args.file is not None:
        raise ValueError("give the function inline or with --file, not both")
    if args.source is not None:
        return args.source
    if args.file is None:
        raise ValueError("a function is required, inline or with --file")
    if raw is None:
        with open(args.file, "rb") as fh:
            raw = fh.read()
    # newlines as text mode reads them: \r\n and \r become \n
    return raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _class_json(cls) -> dict:
    out = {"tag": cls.tag}
    for key in ("degree", "rho", "lam"):
        value = getattr(cls, key)
        if value is not None:
            out[key] = value
    return out


def _coefficient_criteria(fn, p: int) -> Optional[dict]:
    """Coefficient verdicts when the expression folds to a polynomial."""
    series = _facts(fn, p).series
    if series is None:
        return None
    out = {"compatible": is_compatible(series)}
    if p == 2:
        out["measure_preserving"] = is_measure_preserving_2adic(series)
        out["ergodic"] = is_ergodic_2adic(series)
    else:
        out["ergodic_sufficient"] = is_ergodic_sufficient_oddp(series)
    return out


# ------------------------------------------------------------- subcommands


def cmd_check(args) -> Tuple[dict, int]:
    cap = _resolve_cap(args)
    modulus = _resolve_modulus(args)
    source = _load_source(args)
    fn = parse_dsl(source)
    results = []
    for fac in modulus.factors:
        entry = {"modulus": fac.to_json()}
        entry["compatibility"] = compatibility_certificate(fn, fac.p, cap).to_json()
        ok, witness = bijective_mod(fn, fac, cap)
        entry["bijective"] = ok
        if witness is not None:
            entry["collision"] = list(witness)
        if ok:
            trans, orbit = transitive_mod(fn, fac, cap)
            entry["transitive"] = trans
            entry["orbit_length"] = orbit
        else:
            # a single cycle through all states would be a permutation
            entry["transitive"] = False
        criteria = _coefficient_criteria(fn, fac.p)
        if criteria is not None:
            entry["coefficient_criteria"] = criteria
        results.append(entry)
    report = {
        "kind": "check",
        "source": source.strip(),
        "modulus_value": modulus.value,
        "results": results,
    }
    return report, EXIT_OK


def cmd_certify(args) -> Tuple[dict, int]:
    cap = _resolve_cap(args)
    source = _load_source(args)
    fn = parse_dsl(source)
    results = []
    verdicts = []
    for p in _resolve_primes(args):
        cls = infer_class(fn, p)
        compat = compatibility_certificate(fn, p, cap)
        mp = measure_preservation_certificate(fn, p, cls, cap=cap)
        erg = ergodicity_certificate(fn, p, cls, cap=cap)
        verdicts += [compat.verdict, mp.verdict, erg.verdict]
        results.append({
            "modulus": erg.checked_modulus.to_json(),
            "class": _class_json(cls),
            "compatibility": compat.to_json(),
            "measure_preservation": mp.to_json(),
            "ergodicity": erg.to_json(),
        })
    if REFUTED in verdicts:
        worst, code = REFUTED, EXIT_REFUTED
    elif UNKNOWN in verdicts:
        worst, code = UNKNOWN, EXIT_UNKNOWN
    else:
        worst, code = PROVEN, EXIT_OK
    report = {
        "kind": "certify",
        "source": source.strip(),
        "results": results,
        "worst": worst,
    }
    return report, code


def _spec_from_file(args, cap: Optional[int]) -> Tuple[Optional[GeneratorSpec], bytes]:
    """The generator spec in --file, or None when the file holds no JSON
    object, and the file's bytes.  A spec fixes the modulus and the seed:
    -p/-k/-m and --seed beside one are refused."""
    with open(args.file, "rb") as fh:
        raw = fh.read()
    try:
        blob = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None, raw
    if not isinstance(blob, dict):
        return None, raw
    if args.p is not None or args.k is not None or args.m is not None:
        raise ValueError("the spec file fixes the modulus; drop -p/-k/-m")
    if args.seed is not None:
        raise ValueError("the spec file fixes the seed; drop --seed")
    return spec_from_json(blob, cap), raw


def cmd_gen(args) -> Tuple[dict, int]:
    cap = _resolve_cap(args)
    if args.count <= 0:
        raise ValueError("--count must be positive")
    spec = raw = None
    if args.file is not None and args.source is None:  # beside a source, _load_source refuses
        spec, raw = _spec_from_file(args, cap)
    if spec is not None:
        source = f"{args.file} (generator spec)"
    else:
        source = _load_source(args, raw)
        fn = parse_dsl(source)
        modulus = _resolve_modulus(args)
        spec = make_generator(fn, modulus, args.seed or 0, cap=cap)
    try:  # before the stream: a spec that cannot be saved writes no byte
        spec_json = spec_to_json(spec)
    except ValueError as exc:  # a constant past the int-to-str digit limit
        raise ValueError(f"the generator spec cannot be written as JSON: {exc}") from None
    written = 0
    for block in emit_blocks(spec, args.count):  # written as made: memory stays one block
        sys.stdout.buffer.write(block)
        written += len(block)
    sys.stdout.buffer.flush()
    report = {
        "kind": "gen",
        "source": source.strip(),
        "spec": spec_json,
        "words": args.count,
        "bytes_written": written,
        "certificates": [c.to_json() for c in spec.certificates],
    }
    return report, EXIT_OK


def cmd_analyze(args) -> Tuple[dict, int]:
    cap = _resolve_cap(args)
    if args.rmax <= 0:
        raise ValueError("--rmax must be positive")
    _check_r_max(args.rmax)  # before the walk, so a refusal is quick
    if args.file is not None and args.source is not None:
        raise ValueError("give a sequence source inline or with --file, not both")
    if args.file is not None:
        spec, raw = _spec_from_file(args, cap)
        if spec is not None:
            m = _output_modulus(spec)
            if isinstance(m, CompositeModulus):
                raise ValueError("affine analysis needs a prime-power modulus")
            seq = sequence_from_generator(spec)
            source = f"{args.file} (generator spec)"
        else:
            if args.seed is not None:
                raise ValueError("a binary file has no seed; drop --seed")
            m = _resolve_modulus(args)
            if isinstance(m, CompositeModulus):
                raise ValueError("binary input needs -p 2 -k with k a multiple of 8")
            seq = sequence_from_bytes(raw, m)
            source = f"{args.file} (binary)"
    else:
        source = _load_source(args)
        fn = parse_dsl(source)
        m = _resolve_modulus(args)
        if isinstance(m, CompositeModulus):
            raise ValueError("affine analysis needs a prime-power modulus")
        walk_cap = SOLVER_PERIOD_CAP if cap is None else min(cap, SOLVER_PERIOD_CAP)
        _require_cap(m, walk_cap)
        seed = args.seed or 0
        _check_seed(seed, m)
        step = compile_map(fn, m)
        seq = orbit(step, m, seed)
        if len(seq) == m.value and step(seq[-1]) != seed:
            raise ValueError(f"the orbit of seed {seed} never returns to it mod {m.p}^{m.k}: "
                             "the map is not a permutation, so there is no period to analyze")
        source = source.strip()
    rep = affine_linear_complexity(seq, m, r_max=args.rmax)
    report = {"kind": "analyze", "source": source, "words": len(seq)}
    report.update(rep.to_json())
    return report, EXIT_OK


# ---------------------------------------------------------------- repro

# The worked-example table: (name, group, observe, want).  observe() returns
# what the library computes now, as plain values, and want is the recorded
# outcome; cmd_repro judges every row by observed == want.  A rule checked
# over many inputs observes the inputs that break it, so it records [].
# --only selects one group.


def _affine_rule_breaks() -> List[Tuple[int, int]]:
    """(a, b) mod 2^5 where a + b*x breaks the rule: transitive iff a odd and b = 1 mod 4."""
    m, breaks = Modulus(2, 5), []
    for a in range(m.value):
        for b in range(m.value):
            try:
                got, _ = transitive_mod(add(const(a), mul(const(b), var())), m)
            except NotBijective:
                got = False
            if got != (a % 2 == 1 and b % 4 == 1):
                breaks.append((a, b))
    return breaks


def _orbit_relations(cases) -> List[tuple]:
    """Per (step, m, rel): whether rel holds on the orbit of 0 under step mod m,
    and the orbit's least affine order."""
    out = []
    for step, m, rel in cases:
        seq = orbit(step, m)
        out.append((rel.verify(seq, m),
                    affine_linear_complexity(seq, m, r_max=4).linear_complexity))
    return out


def _parity_flip(modval: int, x: int) -> int:
    """x - 3 on evens, x + 5 on odds; single cycle mod every power of two."""
    return (x - 3 if x % 2 == 0 else x + 5) % modval


# verdict, theorem and checked modulus of a certificate
_outcome = attrgetter("verdict", "theorem", "checked_modulus.p", "checked_modulus.k")

_REPRO_ROWS = [
    ("inverse-3-mod-16", "section1",
     lambda: mod_inverse(ResidueInt(3, Modulus(2, 4))).residue, 11),
    ("negative-cube-root-mod-16", "section1",
     lambda: (pow(3, 11, 16), mod_inverse(ResidueInt(pow(3, 5, 16), Modulus(2, 4))).residue,
              pow(11, 3, 16)),
     (11, 11, 3)),
    ("xor-and-octet", "section1",
     lambda: (compile_map(parse_dsl("1 xor 3"), Modulus(2, 3))(0),
              compile_map(parse_dsl("2 and 7"), Modulus(2, 3))(0)),
     (2, 2)),
    ("complement-13-mod-8", "section1",
     lambda: compile_map(parse_dsl("neg(13)"), Modulus(2, 3))(0), 2),
    ("xor-shift-generator", "section1",
     lambda: [transitive_mod(build_ergodic(parse_dsl("x xor (2*x + 1)"), 1, 2), Modulus(2, k))
              for k in (4, 10, 16)],
     [(True, 16), (True, 1024), (True, 65536)]),
    ("second-order-affine-recurrence", "section1",
     lambda: _orbit_relations(
         (compile_map(add(const(a), mul(const(b), var())), Modulus(2, 8)), Modulus(2, 8),
          Relation(2, (-b % 256, (1 + b) % 256), 0))
         for a, b in ((3, 5), (7, 13), (5, 9))),
     [(True, 1), (True, 1), (True, 1)]),
    ("affine-profile-bounded", "section1",
     lambda: complexity_growth_profile(RationalPoly([1, 5]), 2, range(1, 9)),
     [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1)]),
    ("complement-sum-identity", "section2",
     lambda: [(k, z) for k in (3, 8, 12) for z in (0, 1, 5, min(100, 2**k - 1), 2**k - 1)
              if compile_map(parse_dsl("x + neg(x)"), Modulus(2, k))(z) != 2**k - 1],
     []),
    ("squares-xor-mask-generator", "section2",
     lambda: [transitive_mod(build_ergodic(parse_dsl("(x*x) xor ((x + 32) and x)"), 7, 2),
                             Modulus(2, k))
              for k in (4, 8, 10)],
     [(True, 16), (True, 256), (True, 1024)]),
    ("affine-transitivity-rule", "section3", _affine_rule_breaks, []),
    ("cube-mix-equiprobable", "section3",
     lambda: [(ok, census["expected_fiber"]) for ok, census in (
         equiprobable_mod([MultiPoly(2, {(1, 0): 2, (0, 3): 1})], 2, Modulus(2, n))
         for n in range(1, 9))],
     [(True, 2), (True, 4), (True, 8), (True, 16), (True, 32), (True, 64), (True, 128),
      (True, 256)]),
    ("jacobian-unit-certificate", "section3",
     lambda: _outcome(jacobian_equiprobable_certificate(
         [MultiPoly(2, {(1, 0): 1, (0, 1): 3, (0, 2): 6, (0, 3): 4})], 2)),
     (PROVEN, "C3_8", 2, 1)),
    ("jacobian-vanishing-unknown", "section3",
     lambda: _outcome(jacobian_equiprobable_certificate(
         [MultiPoly(2, {(1, 0): 2, (0, 3): 1})], 2)),
     (UNKNOWN, "C3_8", 2, 1)),
    ("unit-power-shift-collision", "section4",
     lambda: [(bijective_mod(RationalPoly([1] + [0] * (p - 1) + [1]), Modulus(p, 1)),
               bijective_mod(RationalPoly([1] + [0] * (p - 1) + [1]), Modulus(p, 2)))
              for p in (2, 3, 5)],
     [((True, None), (False, (0, 2))), ((True, None), (False, (0, 3))),
      ((True, None), (False, (0, 5)))]),
    ("unit-power-shift-refuted", "section4",
     lambda: [_outcome(polynomial_bijectivity_certificate(
         RationalPoly([1] + [0] * (p - 1) + [1]), p)) for p in (2, 3, 5)],
     [(REFUTED, "C3_10", 2, 2), (REFUTED, "C3_10", 3, 2), (REFUTED, "C3_10", 5, 2)]),
    ("unit-power-shift-measure", "section4",
     lambda: [_outcome(measure_preservation_certificate(
         RationalPoly([1] + [0] * (p - 1) + [1]), p)) for p in (2, 3, 5)],
     [(REFUTED, "C3_10", 2, 2), (REFUTED, "C3_10", 3, 2), (REFUTED, "C3_10", 5, 2)]),
    ("one-unit-exponential-class", "section4",
     lambda: is_class_b(parse_dsl("(1 + 2*x)^x"), 2), True),
    ("parity-flip-series-criteria", "section5",
     lambda: [test(coeffs_from_values([x - 3 if x % 2 == 0 else x + 5 for x in range(16)], 2))
              for test in (is_compatible, is_ergodic_2adic)],
     [True, True]),
    ("falling-factorial-sextic", "section5",
     lambda: _outcome(ergodicity_certificate(parse_dsl("1 + x + (5/18)*ff(x,6)"), 2)),
     (PROVEN, "P4_7", 2, 5)),
    ("exponential-201-certificate", "section5",
     lambda: _outcome(ergodicity_certificate(parse_dsl("1 + x + 201^x"), 5)),
     (PROVEN, "T4_9", 5, 2)),
    ("inversive-composite-period", "section5",
     lambda: itemgetter("period", "uniform")(full_period_census(make_generator(
         build_composite_generator(RationalPoly([1]), RationalPoly([0, 2]), RationalPoly([-1]),
                                   CompositeModulus.from_int(10_000)),
         CompositeModulus.from_int(10_000), 1))),
     (10_000, True)),
    # transitive mod 2^k for every k; mod 5^2 the 5-cycle splits (orbit 20)
    ("quintic-two-prime-transitivity", "section5",
     lambda: [transitive_mod(RationalPoly([1, -127, 0, -152, 0, 152]), Modulus(p, k))
              for p, k in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (5, 1), (5, 2))],
     [(True, 2), (True, 4), (True, 8), (True, 16), (True, 32), (True, 64), (True, 5),
      (False, 20)]),
    # x_(n+2) = x_n + 2 holds mod every 2^k; mod 16, 8x = 8*(x mod 2), so both
    # branches are the one map 13 + 9x and the least affine order is 1 up to 2^4
    ("parity-flip-recurrence", "section5",
     lambda: _orbit_relations(
         (partial(_parity_flip, 1 << k), Modulus(2, k), Relation(2, (1, 0), 2))
         for k in range(2, 13)),
     [(True, 1)] * 3 + [(True, 2)] * 8),
    ("parity-flip-profile", "section5",
     lambda: complexity_growth_profile(
         MahlerSeries(tuple([-3, 9] + [(-1) ** (j + 1) * 2 ** (j + 2) for j in range(2, 15)]), 2),
         2, range(2, 11)),
     [(2, 1), (3, 1), (4, 1), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (10, 2)]),
]


def cmd_repro(args) -> Tuple[dict, int]:
    rows = [row for row in _REPRO_ROWS if args.only in (None, row[1])]
    if not rows:
        groups = sorted({row[1] for row in _REPRO_ROWS})
        raise ValueError(f"no rows in group {args.only!r}; groups: {', '.join(groups)}")
    out = []
    for name, group, observe, want in rows:
        t0 = time.perf_counter()
        try:
            got = observe()
            detail = None if got == want else f"got {got}, want {want}"
        except Exception as exc:  # a crashed row is a failed row
            detail = f"raised {type(exc).__name__}: {exc}"
        row = {"name": name, "group": group, "ok": detail is None,
               "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 2)}
        if detail is not None:
            row["detail"] = detail
        out.append(row)
    failed = sum(not row["ok"] for row in out)
    report = {
        "kind": "repro",
        "rows": out,
        "passed": len(out) - failed,
        "failed": failed,
    }
    return report, (EXIT_OK if failed == 0 else EXIT_ROW_FAILURE)


# ------------------------------------------------------------- rendering


def _fmt_relation(rel: dict) -> str:
    r = rel["order"]
    terms = [str(rel["constant"])]
    terms += [f"{c}*x[n+{j}]" if j else f"{c}*x[n]"
              for j, c in enumerate(rel["coeffs"]) if c]
    return f"x[n+{r}] = " + " + ".join(terms)


def _fmt_complexity(value) -> str:
    if isinstance(value, dict):
        return f"none found up to order {value['none_found_up_to']}"
    return str(value)


def _fmt_certificate(label: str, cert: dict) -> str:
    mod = cert["modulus"]
    line = (f"  {label:<20} {cert['verdict']:<8} via {cert['theorem']}"
            f" at {mod['p']}^{mod['k']}")
    if "witness" in cert:
        line += f"  witness {cert['witness']}"
    return line


def _render_text(report: dict) -> str:
    kind = report["kind"]
    lines: List[str] = []
    if kind == "check":
        lines.append(f"check {report['source']}  (modulus {report['modulus_value']})")
        for entry in report["results"]:
            mod = entry["modulus"]
            lines.append(f"mod {mod['p']}^{mod['k']}:")
            lines.append(_fmt_certificate("compatibility", entry["compatibility"]))
            bij = f"  bijective            {entry['bijective']}"
            if "collision" in entry:
                bij += f"  collision {tuple(entry['collision'])}"
            lines.append(bij)
            trans = f"  transitive           {entry['transitive']}"
            if "orbit_length" in entry:
                trans += f"  orbit length {entry['orbit_length']}"
            lines.append(trans)
            for name, value in entry.get("coefficient_criteria", {}).items():
                lines.append(f"  coefficient {name:<12} {value}")
    elif kind == "certify":
        lines.append(f"certify {report['source']}")
        for entry in report["results"]:
            mod = entry["modulus"]
            lines.append(f"p = {mod['p']}  (class {entry['class']['tag']}):")
            lines.append(_fmt_certificate("compatibility", entry["compatibility"]))
            lines.append(_fmt_certificate("measure preservation", entry["measure_preservation"]))
            lines.append(_fmt_certificate("ergodicity", entry["ergodicity"]))
        lines.append(f"worst verdict: {report['worst']}")
    elif kind == "gen":
        lines.append(f"gen {report['source']}")
        lines.append(f"wrote {report['bytes_written']} bytes ({report['words']} words)")
        for cert in report["certificates"]:
            lines.append(_fmt_certificate(cert["property"].lower(), cert))
    elif kind == "analyze":
        mod = report["modulus"]
        lines.append(f"analyze {report['source']}")
        lines.append(f"{report['words']} words mod {mod['p']}^{mod['k']},"
                     f" period {report['period']},"
                     f" equidistributed {report['census_ok']}")
        lines.append(f"linear complexity {_fmt_complexity(report['linear_complexity'])}")
        if "relation" in report:
            lines.append(f"  {_fmt_relation(report['relation'])}")
        lines.append(f"unit complexity {_fmt_complexity(report['unit_complexity'])}")
        if "unit_relation" in report:
            lines.append(f"  {_fmt_relation(report['unit_relation'])}")
        if report["bit_periods"]:
            lines.append("bit periods " + " ".join(str(b) for b in report["bit_periods"]))
    elif kind == "repro":
        for row in report["rows"]:
            mark = "ok  " if row["ok"] else "FAIL"
            line = f"{mark}  {row['group']:<9} {row['name']:<32} {row['elapsed_ms']:>9.2f} ms"
            if "detail" in row:
                line += f"  {row['detail']}"
            lines.append(line)
        lines.append(f"{report['passed']} passed, {report['failed']} failed")
    else:
        raise AssertionError(f"unrenderable report kind {kind!r}")
    return "\n".join(lines)


def _emit(report: dict, args) -> None:
    # gen owns stdout for the byte stream; its report goes to stderr
    stream = sys.stderr if report["kind"] == "gen" else sys.stdout
    if args.json_out:
        print(json.dumps(report, indent=2), file=stream)
    else:
        print(_render_text(report), file=stream)


# ------------------------------------------------------------------ entry


# Every option, defined once; each subcommand takes only the ones it reads,
# so any other is an argparse error (exit 2) rather than silently ignored.
_FLAGS = {
    "-p": dict(type=int, metavar="P", help="prime of the modulus"),
    "-k": dict(type=int, metavar="K", help="exponent of the modulus"),
    "-m": dict(type=int, metavar="M", help="composite modulus, factored by trial division"),
    "--seed": dict(type=int, metavar="N", help="starting state (default 0)"),
    "--cap-states": dict(type=int, metavar="N", dest="cap_states",
                         help="brute-force state cap (default from PADIC_FORGE_CAP)"),
    "--rmax": dict(type=int, default=DEFAULT_R_MAX, metavar="R",
                   help=f"largest recurrence order (default %(default)s, at most {R_MAX_CAP})"),
    "--json": dict(action="store_true", dest="json_out", help="machine-readable report"),
    "--file": dict(metavar="PATH", help="read the function, spec, or data from a file"),
    "--count": dict(type=int, default=DEFAULT_GEN_WORDS, metavar="N",
                    help=f"output words to emit (default {DEFAULT_GEN_WORDS})"),
    "--only": dict(metavar="GROUP", help="run a single row group"),
}

# name: (run, help, help of the source argument or None, flags)
_COMMANDS = {
    "check": (cmd_check, "direct diagnostics at a concrete modulus",
              "function in the expression language", "-p -k -m --cap-states --json --file"),
    "certify": (cmd_certify, "theorem-backed certificates; exit code tracks the verdict",
                "function in the expression language", "-p -m --cap-states --json --file"),
    "gen": (cmd_gen, "emit generator bytes on stdout, report on stderr",
            "state map in the expression language",
            "-p -k -m --seed --cap-states --json --file --count"),
    "analyze": (cmd_analyze, "affine-complexity report for a sequence",
                "state map in the expression language",
                "-p -k -m --seed --cap-states --rmax --json --file"),
    "repro": (cmd_repro, "replay the worked-example regression table", None, "--json --only"),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="padic-forge",
        description="construct, certify, and analyze congruential generators"
                    " on p-adic state spaces")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")
    for name, (run, help_, source_help, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(run=run, usage_error=sp.error)
        if source_help is not None:
            sp.add_argument("source", nargs="?", help=source_help)
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag])
    return top


def main(argv: Optional[List[str]] = None) -> int:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # with the subcommand's usage, which lists the flags it takes
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        report, code = args.run(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NotCertified as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN if exc.verdict == UNKNOWN else EXIT_REFUTED
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # RecursionError: input nested too deep
        return EXIT_PARSE
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
