"""Mutation check for the verdict paths: every mutant must fail its tests.

Each entry of MUTANTS is a Mutant: a name, a file under src/padicforge, an
exact text that occurs there once, the text that replaces it, and the tests
that must then fail.  For each entry the script copies src/ into a
temporary directory, makes the one edit, and runs the named tests with
PYTHONPATH pointing at the copy.  A mutant is killed when pytest reports a
failed test (exit code 1).  One whose tests all pass survives; any other
outcome (a missing test, a collection error, a timeout) marks a broken
entry.  Either makes the script exit 1.

    python tests/mutants.py              # every mutant
    python tests/mutants.py shape lane   # those whose name holds a given word

`test_mutants.py` checks in tier-1 that each old text still occurs exactly
once, so a change to the code that a mutant edits cannot leave it stale.
A change that adds a route or a checker path adds its mutants here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: Tuple[str, ...]


GOLDEN = "tests/test_certificate_golden.py"
RAISES = "tests/test_certify.py::TestWhereEachCallRaises"
CLASS_B = ("tests/test_funcalg.py::test_is_class_b",
           "tests/test_certify.py::TestClassBMembership")
SLICES = "tests/test_certify.py::TestBitSliceProbes"
LANES = "tests/test_compile.py::test_lane_table_matches_tree_interpreter"
POLY_LEAVES = "tests/test_compile.py::test_rational_poly_matches_rebuilt_scaled_form"
PINNED = "tests/test_analysis.py::TestPinnedReports"

MUTANTS = [
    # certificate routes: thresholds, witness keys and labels
    Mutant("c3_10-at-p1", "certify.py",
           '(MEASURE_PRESERVING, Z_POLY): ("C3_10", lambda p, _: 2)',
           '(MEASURE_PRESERVING, Z_POLY): ("C3_10", lambda p, _: 1)', (GOLDEN,)),
    Mutant("t4_9-ergodic-at-p2", "certify.py",
           "return 3 if p in (2, 3) else 2", "return 2", (GOLDEN,)),
    Mutant("probe-keys-swapped", "certify.py",
           'ERGODIC: ("transitive_up_to",', 'ERGODIC: ("bijective_up_to",', (GOLDEN,)),
    Mutant("shift-refutation-labelled-l2_5", "certify.py",
           '"L2_5" if ok else "BRUTE_ONLY"', '"L2_5"',
           (f"{SLICES}::test_misreported_shift_shape_is_refuted_by_its_check",)),
    # the Hensel test of polynomial systems
    Mutant("jacobian-rank-at-least-one", "certify.py",
           "if (rank := len(pivots)) < len(F):", "if (rank := len(pivots)) < 1:",
           ("tests/test_certify.py::TestTwoComponentSystems",)),
    Mutant("census-miss-unknown", "certify.py",
           'REFUTED if "census" in miss else UNKNOWN', "UNKNOWN",
           ("tests/test_certify.py::TestJacobianCertificate::test_unbalanced_mod_p_unknown",)),
    Mutant("system-miss-proven", "certify.py",
           'REFUTED if miss else PROVEN, "C3_10"', 'PROVEN, "C3_10"',
           ("tests/test_certify.py::TestPolynomialBijectivityCertificate::test_square_system",)),
    # the shift family's side conditions
    Mutant("shift-scale-of-order-0", "certify.py",
           "ord_p(q, p) < 1 or", "ord_p(q, p) < 0 or", (GOLDEN,)),
    Mutant("ergodic-shape-any-unit-coefficient", "certify.py",
           "if (var_coeff == 1 and", "if (ord_p(var_coeff, p) == 0 and", (GOLDEN,)),
    Mutant("measure-shape-coefficient-divisible-by-p", "certify.py",
           "if ord_p(var_coeff, p) == 0 and ord_p(consts, p) >= 0:",
           "if ord_p(var_coeff, p) >= 0 and ord_p(consts, p) >= 0:", (GOLDEN,)),
    # the fact record's side conditions
    Mutant("constants-not-checked-p-integral", "certify.py",
           "self.bad_const is None and node.value.denominator % self.p == 0:",
           "self.bad_const is None and node.value.denominator % self.p == -1:",
           (RAISES,) + CLASS_B),
    Mutant("bitwise-nodes-inside-class-b", "certify.py",
           "if (not isinstance(self.f, (FnExpr, RationalPoly)) or self.bitwise",
           "if (not isinstance(self.f, (FnExpr, RationalPoly))", CLASS_B),
    Mutant("pow-base-not-checked-1-unit", "certify.py",
           'v == 1 if kind == "POW"', 'v != 0 if kind == "POW"', CLASS_B),
    Mutant("inv-argument-not-checked-unit", "certify.py",
           'else v != 0 for kind, arg in self.units', 'else True for kind, arg in self.units',
           CLASS_B),
    Mutant("class-b-prime-bound-at-2", "certify.py",
           "self.units and p > DEFAULT_STATE_CAP", "self.units and p > 1", (GOLDEN,)),
    Mutant("poly-leaves-uncapped", "certify.py",
           "return node.poly if node.poly.degree <= DEGREE_CAP else None", "return node.poly",
           ("tests/test_cli.py::TestHostileInput::"
            "test_high_degree_poly_leaf_in_a_sum_classifies_at_once",)),
    # bit-slice probes at p = 2
    Mutant("no-value-error-fallback", "certify.py",
           "    except ValueError:  # left for the walk to raise in its own order",
           "    except ArithmeticError:  # left for the walk to raise in its own order",
           (f"{SLICES}::test_evaluation_error_raises_as_the_walk_raises",)),
    Mutant("parity-level-0-skipped", "certify.py",
           ".bit_count() & 1 for i in range(k))", ".bit_count() & 1 for i in range(1, k))",
           (SLICES,)),
    Mutant("shape-error-not-left-to-the-walk", "certify.py",
           "    except ValueError:  # raised where a route reads the shape; the walk decides here",
           "    except ArithmeticError:  # raised where a route reads the shape",
           (f"{RAISES}::test_shape_error_is_left_to_the_walk_on_the_lanes",)),
    Mutant("slices-outside-lane-range", "certify.py",
           "not _LANE_STATES[0] <= m.value <= _LANE_STATES[1]:",
           "not m.value <= _LANE_STATES[1]:",
           ("tests/test_certify.py::TestOneFactRecordPerMapAndPrime::"
            "test_threshold_routes_match_no_shape",)),
    Mutant("quarter-table", "certify.py",
           "range(m.value >> 1)", "range(m.value >> 2)", (SLICES,)),
    Mutant("second-lane-table", "certify.py",
           "if _slices_transitive(f, m, lanes):", "if _slices_transitive(f, m, lane_table(f, m)):",
           (f"{SLICES}::test_one_lane_table_per_probe",)),
    Mutant("level-test-skipped", "certify.py",
           "(measure or _slices_bijective(lanes, m.k))", "True", (SLICES, GOLDEN)),
    Mutant("shape-read-inverted", "certify.py",
           'measure = _facts(f, 2).shape == "measure"', 'measure = _facts(f, 2).shape != "measure"',
           (f"{SLICES}::test_measure_shape_reads_half_a_table",)),
    Mutant("level-test-top-level-skipped", "certify.py",
           "    for i in range(k):\n        bit, low",
           "    for i in range(k - 1):\n        bit, low",
           (SLICES,)),
    # the checkers on lane tables
    Mutant("bijective-on-every-lane-table", "certify.py",
           "if lanes is not None and _slices_bijective(lanes, m.k):", "if lanes is not None:",
           (GOLDEN, "tests/test_certify.py::TestCheckersOnLanes")),
    Mutant("transitive-on-any-return-to-0", "certify.py",
           "            if not x:\n                return step == m.value, step",
           "            if not x:\n                return True, step",
           ("tests/test_certify.py::TestCheckersOnLanes",)),
    Mutant("delta-lane-turned", "expr.py",
           "<< 32 * (m - 1), a), (1, -1)", "<< 32 * (m - 1), a), (-1, 1)", (LANES,)),
    Mutant("sub-lane-without-ones", "expr.py",
           "(v ^ mask) + ones", "(v ^ mask)", (LANES,)),
    Mutant("compose-lanes-swapped", "expr.py",
           "outer, inner = (b, a) if swapped(node) else (a, b)",
           "outer, inner = (a, b) if swapped(node) else (b, a)", (LANES,)),
    Mutant("mul-lane-constant-first", "expr.py",
           "plan[id(node.children[0])] < plan[id(node.children[1])]",
           "plan[id(node.children[0])] > plan[id(node.children[1])]", (LANES,)),
    # polynomial leaves in generated code
    Mutant("poly-leaf-without-p-part-test", "expr.py",
           'lines.append(f"if {t} % {lit(p_part)}: raise NotIntegerValued(f{msg!r})")', "pass",
           (POLY_LEAVES,)),
    Mutant("falling-basis-shifted", "expr.py", '"(x - i)"', '"(x - i - 1)"', (POLY_LEAVES,)),
    Mutant("p-part-constant-folded", "expr.py",
           "if len(coeffs) == 1 and p_part == 1:", "if len(coeffs) == 1:",
           ("tests/test_compile.py::test_random_rational_polys_match_oracle",)),
    # the probe's depth and the coefficient criteria
    Mutant("probe-modulus-one-power-high", "certify.py",
           "max(floor_log(budget, p), 1))", "max(floor_log(budget, p), 1) + 1)",
           (f"{SLICES}::test_one_lane_table_per_probe",)),
    Mutant("ergodic-a1-mod-2-at-p2", "mahler.py",
           "return _ergodic_coefficients(series, 2)", "return _ergodic_coefficients(series, 1)",
           ("tests/test_mahler.py::test_ergodic_2adic_examples",)),
    Mutant("ergodic-tail-bound-at-i", "mahler.py",
           "floor_log(i + 1, p)", "floor_log(i, p)",
           ("tests/test_mahler.py::test_ergodic_2adic_examples",)),
    # the CLI reads a spec file's modulus and seed from the file alone
    Mutant("spec-file-seed-accepted", "cli.py",
           'if args.seed is not None:\n        raise ValueError("the spec file fixes the seed',
           'if False:\n        raise ValueError("the spec file fixes the seed',
           ("tests/test_cli.py::TestGen::test_spec_file_conflicts_with_modulus_flags",)),
    # repro judges every row by one comparison
    Mutant("repro-row-always-passes", "cli.py",
           "detail = None if got == want else", "detail = None if True else",
           ("tests/test_cli.py::TestRepro::test_failing_rows_name_what_they_saw",)),
    # a spec file's own rules, and prime powers past trial division
    Mutant("unchecked-read-through-bool", "genlib.py",
           "if type(unchecked) is not bool:", "if False:",
           ("tests/test_cli.py::TestMalformedSpec::test_rule_break_exits_2_before_any_certificate",)),
    Mutant("prime-power-cofactor-not-rooted", "core.py",
           "for e in range(n.bit_length() // 16, 1, -1)", "for e in range(0)",
           ("tests/test_core.py::test_composite_modulus_factors_past_trial_division",)),
    # packed words: the one decoder of little-endian bytes
    Mutant("words-decoded-big-endian", "core.py",
           'int.from_bytes(data[i:i + width], "little")', 'int.from_bytes(data[i:i + width], "big")',
           ("tests/test_analysis.py::TestIngestion::test_bytes_round_trip_at_every_width",
            "tests/test_core.py::test_words_round_trip_through_little_endian_bytes")),
    # block kernels: the block CRT and literal POW exponents
    Mutant("crt-block-first-basis", "core.py",
           "(first, b), *rest = zip(runs, self.basis)",
           "(first, b), *rest = zip(runs, [self.basis[0]] * len(runs))",
           ("tests/test_core.py::test_block_crt_matches_a_plain_crt",)),
    Mutant("signed-exponent-off-by-one", "expr.py",
           'f"-{lit(mv - e)}"', 'f"-{lit(mv - e - 1)}"',
           ("tests/test_compile.py::test_literal_pow_exponents_match_unit_pow",)),
    # analyze's relation solve on one Howell basis
    Mutant("relation-coefficient-off-by-one", "analysis.py",
           "Relation(r, tuple(z[:r]), z[r])", "Relation(r, (z[0] + 1,) + tuple(z[1:r]), z[r])",
           (PINNED,)),
    Mutant("displaced-row-dropped", "analysis.py",
           "todo.append(reduce(row + (q - lead // g) * new))", "pass", (PINNED,)),
    Mutant("p-multiples-dropped", "analysis.py",
           "todo.append(reduce(new * (q // g)))", "pass", (PINNED,)),
]


def run(mutant: Mutant, scratch: Path) -> str:
    """'killed', 'survived' or what broke, for one mutant run in scratch."""
    src = scratch / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "padicforge" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if done.returncode in (0, 1):
        return ("survived", "killed")[done.returncode]
    return f"pytest exit {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"


def main(words) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    failed = 0
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        for mutant in chosen:
            t = time.perf_counter()
            outcome = run(mutant, Path(scratch))
            failed += outcome != "killed"
            print(f"{outcome:<10} {time.perf_counter() - t:5.1f} s  {mutant.name}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - t0:.1f} s")
    return 1 if failed or not chosen else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
