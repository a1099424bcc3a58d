"""CLI surface: exit codes, report schema conformance, byte output."""

import copy
import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from jsonschema import Draft202012Validator

import padicforge
from padicforge import cli
from padicforge import funcalg as fa
from padicforge.certify import GENERIC_COMPATIBLE, FunctionClass, infer_class
from padicforge.cli import main, report_schema
from padicforge.core import CompositeModulus, Modulus
from padicforge.funcalg import _MAX_DELTAS, _MAX_NESTING, parse_dsl
from padicforge.genlib import emit_bytes, make_generator, spec_to_json
from padicforge.mahler import RationalPoly

XORGEN = "1 + x + 2*delta(x xor (2*x + 1))"

# spec_to_json of the README generator (XORGEN mod 2^32, seed 1) in the nested
# {"kind", "children"} form that specs were saved in before the postfix form
LEGACY_README_SPEC = (
    '{"state_fn": "{\\"kind\\": \\"ADD\\", \\"children\\": [{\\"kind\\": \\"ADD\\", '
    '\\"children\\": [{\\"kind\\": \\"CONST\\", \\"value\\": [1, 1]}, {\\"kind\\": '
    '\\"VAR\\"}]}, {\\"kind\\": \\"MUL\\", \\"children\\": [{\\"kind\\": \\"CONST\\", '
    '\\"value\\": [2, 1]}, {\\"kind\\": \\"DELTA\\", \\"children\\": [{\\"kind\\": '
    '\\"XOR\\", \\"children\\": [{\\"kind\\": \\"VAR\\"}, {\\"kind\\": \\"ADD\\", '
    '\\"children\\": [{\\"kind\\": \\"MUL\\", \\"children\\": [{\\"kind\\": '
    '\\"CONST\\", \\"value\\": [2, 1]}, {\\"kind\\": \\"VAR\\"}]}, {\\"kind\\": '
    '\\"CONST\\", \\"value\\": [1, 1]}]}]}]}]}]}", '
    '"modulus": {"p": 2, "k": 32}, "seed": 1}'
)

VALIDATOR = Draft202012Validator(report_schema())


def run_json(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    blob = json.loads(captured.out)
    VALIDATOR.validate(blob)
    return rc, blob


def test_schema_file_is_itself_valid():
    Draft202012Validator.check_schema(report_schema())


class TestCheck:
    def test_unit_shift_all_green(self, capsys):
        rc, blob = run_json(capsys, ["check", "-p", "2", "-k", "8", "--json", "1+x"])
        assert rc == 0
        assert blob["kind"] == "check"
        (entry,) = blob["results"]
        assert entry["bijective"] is True
        assert entry["transitive"] is True
        assert entry["orbit_length"] == 256
        assert entry["coefficient_criteria"]["ergodic"] is True

    def test_square_reports_collision(self, capsys):
        rc, blob = run_json(capsys, ["check", "-p", "2", "-k", "4", "--json", "x*x"])
        assert rc == 0
        (entry,) = blob["results"]
        assert entry["bijective"] is False
        assert len(entry["collision"]) == 2
        assert entry["transitive"] is False

    def test_composite_modulus_splits_into_factors(self, capsys, tmp_path):
        src = tmp_path / "gen.dsl"
        src.write_text("1+x")
        rc, blob = run_json(
            capsys, ["check", "-m", "100000", "--json", "--file", str(src)])
        assert rc == 0
        mods = [(e["modulus"]["p"], e["modulus"]["k"]) for e in blob["results"]]
        assert mods == [(2, 5), (5, 5)]
        assert all(e["transitive"] for e in blob["results"])

    def test_bitwise_source_skips_coefficient_criteria(self, capsys):
        rc, blob = run_json(
            capsys, ["check", "-p", "2", "-k", "4", "--json", "x xor 3"])
        assert rc == 0
        assert "coefficient_criteria" not in blob["results"][0]

    def test_modulus_required(self, capsys):
        assert main(["check", "1+x"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_conflicting_modulus_flags(self, capsys):
        assert main(["check", "-p", "2", "-k", "3", "-m", "12", "1+x"]) == 2

    def test_parse_error(self, capsys):
        assert main(["check", "-p", "2", "-k", "3", "1 +"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_neg_is_the_complement_and_not_is_no_operator(self, capsys):
        rc, blob = run_json(capsys, ["check", "-p", "2", "-k", "3", "--json", "neg(x)"])
        (entry,) = blob["results"]
        assert rc == 0 and entry["bijective"] is True and entry["orbit_length"] == 2
        assert main(["check", "-p", "2", "-k", "3", "not(x)"]) == 2
        assert "unknown identifier 'not'" in capsys.readouterr().err

    def test_cap_exceeded(self, capsys):
        rc = main(["check", "-p", "2", "-k", "20", "--cap-states", "1000", "1+x"])
        assert rc == 3

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_FORGE_CAP", "100")
        assert main(["check", "-p", "2", "-k", "10", "1+x"]) == 3
        # explicit flag wins over the environment
        rc = main(["check", "-p", "2", "-k", "10", "--cap-states", "2000", "1+x"])
        assert rc == 0


class TestCertify:
    def test_exponential_base_proven(self, capsys):
        rc, blob = run_json(capsys, ["certify", "-p", "5", "--json", "1 + x + 201^x"])
        assert rc == 0
        assert blob["worst"] == "PROVEN"
        (entry,) = blob["results"]
        assert entry["class"]["tag"] == "CLASS_B"
        erg = entry["ergodicity"]
        assert (erg["theorem"], erg["modulus"]["p"], erg["modulus"]["k"]) == ("T4_9", 5, 2)

    def test_falling_factorial_proven_at_threshold(self, capsys):
        rc, blob = run_json(
            capsys, ["certify", "-p", "2", "--json", "1 + x + (5/18)*ff(x,6)"])
        assert rc == 0
        erg = blob["results"][0]["ergodicity"]
        assert (erg["theorem"], erg["modulus"]["k"]) == ("P4_7", 5)

    def test_identity_refuted_exit_code(self, capsys):
        rc, blob = run_json(capsys, ["certify", "-p", "2", "--json", "x"])
        assert rc == 5
        assert blob["worst"] == "REFUTED"
        assert blob["results"][0]["ergodicity"]["verdict"] == "REFUTED"

    def test_opaque_expression_unknown_exit_code(self, capsys):
        rc, blob = run_json(capsys, ["certify", "-p", "2", "--json", "1 + (x xor 0)"])
        assert rc == 4
        assert blob["worst"] == "UNKNOWN"

    def test_composite_certifies_each_prime(self, capsys):
        rc, blob = run_json(capsys, ["certify", "-m", "10", "--json", "1+x"])
        assert rc == 0
        assert [e["modulus"]["p"] for e in blob["results"]] == [2, 5]

    def test_prime_required(self, capsys):
        assert main(["certify", "1+x"]) == 2

    def test_constant_with_p_in_its_denominator_exits_2(self, capsys):
        # the polynomial is integer-valued, but the constant 1/2 has no value mod 2^k
        assert main(["certify", "(1/2)*(x*x - x)", "-p", "2"]) == 2
        assert capsys.readouterr().err == "error: 2 is divisible by 2\n"


class TestGen:
    def test_bytes_on_stdout_report_on_stderr(self, capsysbinary):
        rc = main(["gen", "-p", "2", "-k", "16", "--count", "16", "--seed", "3",
                   "--json", XORGEN])
        assert rc == 0
        captured = capsysbinary.readouterr()
        assert len(captured.out) == 32
        blob = json.loads(captured.err.decode())
        VALIDATOR.validate(blob)
        assert blob["kind"] == "gen"
        assert blob["bytes_written"] == 32
        assert all(c["verdict"] == "PROVEN" for c in blob["certificates"])
        spec = make_generator(parse_dsl(XORGEN), Modulus(2, 16), 3)
        assert captured.out == emit_bytes(spec, 16)

    def test_readme_stream_bytes_pinned(self, capsysbinary):
        rc = main(["gen", XORGEN, "-p", "2", "-k", "32", "--seed", "1", "--count", "4096"])
        assert rc == 0
        digest = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
        assert digest == "70da7f67f7669a9c0c2d5248472d033b84e7554ca8ab7e7e47106a2726e21b71"

    def test_legacy_nested_spec_replays_readme_stream(self, capsysbinary, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(LEGACY_README_SPEC)
        assert main(["gen", "--file", str(path), "--count", "4096"]) == 0
        replayed = capsysbinary.readouterr().out
        assert main(["gen", XORGEN, "-p", "2", "-k", "32", "--seed", "1", "--count", "4096"]) == 0
        assert replayed == capsysbinary.readouterr().out

    def test_refuted_state_map_exits_5(self, capsysbinary):
        rc = main(["gen", "-p", "2", "-k", "8", "x"])
        assert rc == 5
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert b"error:" in captured.err

    def test_unknown_state_map_exits_4(self, capsysbinary):
        rc = main(["gen", "-p", "2", "-k", "8", "1 + (x xor 0)"])
        assert rc == 4
        assert capsysbinary.readouterr().out == b""

    def test_spec_whose_output_map_collides_exits_5(self, capsysbinary, tmp_path):
        spec = make_generator(parse_dsl(XORGEN), Modulus(2, 8), 0, out_fn=parse_dsl("2*x"),
                              out_modulus=Modulus(2, 8), unchecked=True)
        blob = spec_to_json(spec)
        del blob["unchecked"]  # so that loading it checks the output map
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(blob))
        for command in ("gen", "analyze"):
            assert main([command, "--file", str(path)]) == 5
            captured = capsysbinary.readouterr()
            assert captured.out == b"" and b"output map collides" in captured.err

    def test_unchecked_map_that_raises_leaves_the_blocks_before(self, capsysbinary, tmp_path):
        # x + 1 + (x and 2^16) / 2^17: the state counts up until bit 16 is set,
        # where the value is no 2-adic integer; blocks hold 2^16 words
        half = fa.compose(fa.poly_node(RationalPoly([0, Fraction(1, 2**17)])),
                          fa.and_(fa.var(), fa.const(2**16)))
        state_fn = fa.add(fa.add(fa.var(), fa.const(1)), half)
        path = tmp_path / "spec.json"
        spec = make_generator(state_fn, Modulus(2, 32), 0, unchecked=True)
        path.write_text(json.dumps(spec_to_json(spec)))
        assert main(["gen", "--file", str(path), "--count", str(3 * 2**16)]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b"".join(n.to_bytes(4, "little") for n in range(1, 2**16 + 1))
        assert b"value at 65536 has denominator divisible by 2" in captured.err

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_memory_stays_one_block_at_any_count(self):
        def peak_rss_mb(count):
            """Peak resident memory of a gen child writing count words to
            /dev/null: its VmHWM, which starts afresh at exec, where ru_maxrss
            keeps the peak of the process it was forked from."""
            code = ("import sys; from padicforge.cli import main; code = main();"
                    " print(open('/proc/self/status').read(), file=sys.stderr); sys.exit(code)")
            argv = ["gen", XORGEN, "-p", "2", "-k", "32", "--count", str(count)]
            env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(padicforge.__file__)))
            done = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            return int(re.search(r"VmHWM:\s*(\d+) kB", done.stderr)[1]) / 1024

        assert peak_rss_mb(2**22) - peak_rss_mb(2**18) <= 8

    def test_odd_prime_modulus_cannot_emit_bytes(self, capsysbinary):
        rc = main(["gen", "-p", "3", "-k", "5", "1+x"])
        assert rc == 2
        assert capsysbinary.readouterr().out == b""

    def test_spec_file_round_trip(self, capsysbinary, tmp_path):
        spec = make_generator(parse_dsl(XORGEN), Modulus(2, 16), 3)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(spec)))
        rc = main(["gen", "--file", str(path), "--count", "4"])
        assert rc == 0
        assert capsysbinary.readouterr().out == emit_bytes(spec, 4)

    def test_spec_file_conflicts_with_modulus_flags(self, capsysbinary, tmp_path):
        spec = make_generator(parse_dsl(XORGEN), Modulus(2, 16), 3)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(spec)))
        for command in ("gen", "analyze"):
            assert main([command, "--file", str(path), "-p", "2", "-k", "8"]) == 2
            assert b"the spec file fixes the modulus" in capsysbinary.readouterr().err
            assert main([command, "--file", str(path), "--seed", "1"]) == 2
            assert b"the spec file fixes the seed" in capsysbinary.readouterr().err
        binary = tmp_path / "words.bin"
        binary.write_bytes(bytes(range(16)))
        assert main(["analyze", "--file", str(binary), "-p", "2", "-k", "8", "--seed", "1"]) == 2
        assert b"a binary file has no seed" in capsysbinary.readouterr().err

    def test_count_must_be_positive(self, capsysbinary):
        assert main(["gen", "-p", "2", "-k", "16", "--count", "0", XORGEN]) == 2

    def test_dsl_file_is_read_once(self, capsysbinary, tmp_path, monkeypatch):
        path = tmp_path / "map.txt"
        path.write_bytes(XORGEN.replace(" + 2", "\r\n+ 2").encode() + b"\r\n")
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        argv = ["gen", "--file", str(path), "-p", "2", "-k", "32", "--seed", "1", "--count", "4",
                "--json"]
        assert main(argv) == 0
        assert opened == [str(path)]
        captured = capsysbinary.readouterr()
        inline = ["gen", XORGEN, "-p", "2", "-k", "32", "--seed", "1", "--count", "4"]
        assert main(inline) == 0
        assert captured.out == capsysbinary.readouterr().out
        # the report's source keeps the file's line break as text mode reads it
        assert json.loads(captured.err)["source"] == XORGEN.replace(" + 2", "\n+ 2")


class TestAnalyze:
    def test_linear_generator_orbit(self, capsys):
        rc, blob = run_json(capsys, ["analyze", "-p", "2", "-k", "6", "--json", "1 + 5*x"])
        assert rc == 0
        assert blob["kind"] == "analyze"
        assert blob["period"] == 64
        assert blob["census_ok"] is True
        assert blob["linear_complexity"] == 1
        assert blob["relation"] == {"order": 1, "constant": 1, "coeffs": [5]}
        assert blob["bit_periods"] == [2, 4, 8, 16, 32, 64]

    def test_rmax_too_small_reports_none_found(self, capsys):
        rc, blob = run_json(
            capsys, ["analyze", "-p", "2", "-k", "6", "--rmax", "1", "--json", XORGEN])
        assert rc == 0
        assert blob["linear_complexity"] == {"none_found_up_to": 1}
        assert "relation" not in blob

    def test_rmax_above_cap_exits_3_before_the_walk(self, capsys, monkeypatch):
        walks = []
        monkeypatch.setattr(cli, "orbit", lambda *args: walks.append(args))
        assert main(["analyze", "-p", "2", "-k", "20", "--rmax", "65", XORGEN]) == 3
        assert walks == []
        assert capsys.readouterr().err == "error: r_max 65 exceeds the cap 64\n"
        monkeypatch.undo()
        assert main(["analyze", "-p", "2", "-k", "6", "--rmax", "64", XORGEN]) == 0

    def test_binary_file(self, capsys, tmp_path, monkeypatch):
        spec = make_generator(parse_dsl(XORGEN), Modulus(2, 16), 3)
        path = tmp_path / "stream.bin"
        path.write_bytes(emit_bytes(spec, 64))
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        rc, blob = run_json(
            capsys,
            ["analyze", "--file", str(path), "-p", "2", "-k", "16", "--json"])
        assert rc == 0
        assert opened == [str(path)]  # one read: the bytes the spec test read are the words
        assert blob == {
            "kind": "analyze", "source": f"{path} (binary)", "words": 64,
            "modulus": {"p": 2, "k": 16}, "period": 64,
            "linear_complexity": {"none_found_up_to": 32},
            "unit_complexity": {"none_found_up_to": 32},
            "bit_periods": [2, 4, 8, 16, 32, 64, 64, 64, 64, 1, 64, 1, 1, 1, 1, 1],
            "census_ok": False}

    def test_spec_file_full_period(self, capsys, tmp_path):
        spec = make_generator(parse_dsl("1 + 5*x"), Modulus(2, 6), 0)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(spec)))
        rc, blob = run_json(capsys, ["analyze", "--file", str(path), "--json"])
        assert rc == 0
        assert blob["words"] == 64
        assert blob["census_ok"] is True

    def test_orbit_that_never_returns_is_refused(self, capsys):
        # x*x + 1 is not a permutation: the orbit of 0 falls into a cycle
        # that misses 0, so its 1024 states hold repeats and are no period
        assert main(["analyze", "-p", "2", "-k", "10", "--json", "x*x + 1"]) == 2
        err = capsys.readouterr().err
        assert "seed 0 never returns to it mod 2^10" in err
        assert main(["analyze", "-p", "2", "-k", "10", "--seed", "3", "x*x + 1"]) == 2
        assert "seed 3 never returns" in capsys.readouterr().err
        # a short cycle through the seed is a period
        rc, blob = run_json(capsys, ["analyze", "-p", "2", "-k", "6", "--json", "x xor 1"])
        assert rc == 0 and blob["period"] == 2

    def test_composite_modulus_rejected(self, capsys):
        assert main(["analyze", "-m", "12", "1+x"]) == 2

    def test_binary_needs_byte_aligned_width(self, capsys, tmp_path):
        path = tmp_path / "stream.bin"
        path.write_bytes(bytes(range(16)))
        assert main(["analyze", "--file", str(path), "-p", "2", "-k", "12"]) == 2


class TestRepro:
    def test_full_table(self, capsys):
        rc, blob = run_json(capsys, ["repro", "--json"])
        assert rc == 0
        assert blob["failed"] == 0
        assert blob["passed"] == len(blob["rows"]) == 24
        for row in blob["rows"]:
            assert row["ok"] == ("detail" not in row)

    def test_only_group_subset(self, capsys):
        rc, blob = run_json(capsys, ["repro", "--only", "section1", "--json"])
        assert rc == 0
        assert blob["failed"] == 0
        assert {r["group"] for r in blob["rows"]} == {"section1"}

    def test_unknown_group(self, capsys):
        assert main(["repro", "--only", "nonesuch"]) == 2
        assert "groups:" in capsys.readouterr().err

    def test_text_table_marks_failures(self, capsys):
        rc = main(["repro", "--only", "section4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok  " in out and "0 failed" in out

    def test_failing_rows_name_what_they_saw(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_REPRO_ROWS", [
            ("agrees", "section1", lambda: [(True, 4)], [(True, 4)]),
            ("disagrees", "section1", lambda: [(True, 4)], [(True, 8)]),
            ("raises", "section1", lambda: 1 // 0, 0),
        ])
        assert main(["repro"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("ok    section1  agrees ")
        assert lines[1].startswith("FAIL  section1  disagrees ")
        assert lines[1].endswith(" ms  got [(True, 4)], want [(True, 8)]")
        assert lines[2].startswith("FAIL  section1  raises ")
        raised = "raised ZeroDivisionError: integer division or modulo by zero"
        assert lines[2].endswith(f" ms  {raised}")
        assert lines[3] == "1 passed, 2 failed"
        rc, blob = run_json(capsys, ["repro", "--json"])
        assert rc == 1
        assert (blob["passed"], blob["failed"]) == (1, 2)
        assert [(r["name"], r["ok"], r.get("detail")) for r in blob["rows"]] == [
            ("agrees", True, None),
            ("disagrees", False, "got [(True, 4)], want [(True, 8)]"),
            ("raises", False, raised)]


# perfbench/run.py's calibration loop and its time on the benchmark's
# reference host: a wall-clock bound holds at that host's speed
CAL_REFERENCE_S = 0.23e-3


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed."""
    t0 = time.perf_counter()
    x, acc = 0x9E3779B9, []
    for i in range(1200):
        x = (x * 6364136223846793005 + i) % 1_000_000_007
        acc.append(x ^ (x >> 3))
    acc.sort()
    return time.perf_counter() - t0


def reference_seconds(run):
    """(run()'s result, its wall time scaled to the reference host's speed):
    by CAL_REFERENCE_S over the median of calibration loops timed just before
    and just after it, as perfbench/run.py scales op times, so that host load
    moves the loop and the run alike."""
    samples = [calibration_loop() for _ in range(7)]
    t0 = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - t0
    samples += [calibration_loop() for _ in range(7)]
    return result, elapsed * CAL_REFERENCE_S / statistics.median(samples)


def timed_certify(source):
    """(exit code, reference seconds) of certify -p 2 source."""
    return reference_seconds(lambda: main(["certify", "-p", "2", source]))


class TestHostileInput:
    """Inputs that once ended in a traceback or an unbounded run."""

    def test_flat_sum_of_3000_terms(self, capsys):
        rc, seconds = timed_certify("+".join(["x"] * 3000))
        assert rc == 5 and seconds < 1.0
        assert "T4_9" in capsys.readouterr().out

    @pytest.mark.parametrize("opener", ["(", "neg("])
    def test_nesting_up_to_the_limit_certifies(self, capsys, opener):
        for depth in (_MAX_NESTING - 1, _MAX_NESTING):
            rc, _ = timed_certify(opener * depth + "x" + ")" * depth)
            assert rc in (0, 2, 3, 4, 5)
            assert "nesting" not in capsys.readouterr().err

    @pytest.mark.parametrize("opener", ["(", "neg(", "- "])
    def test_nesting_past_the_limit_exits_2(self, capsys, opener):
        for depth in (_MAX_NESTING + 1, 3000):
            closer = "" if opener == "- " else ")"
            rc, seconds = timed_certify("x + " + opener * depth + "x" + closer * depth)
            assert rc == 2 and seconds < 1.0
            assert f"nesting deeper than {_MAX_NESTING} levels" in capsys.readouterr().err

    def test_delta_nesting_past_the_cap_exits_2(self, capsysbinary, tmp_path):
        # d nested deltas cost 2^d calls per point: past the cap the input is
        # refused where it arrives, inline or in a spec file
        path = tmp_path / "spec.json"
        for depth in (_MAX_DELTAS, _MAX_DELTAS + 1):
            nested, tree = "delta(" * depth + "x*x*x + x" + ")" * depth, parse_dsl("x*x*x + x")
            for _ in range(depth):
                tree = fa.delta(tree)
            state = fa.add(fa.add(fa.const(1), fa.var()), fa.mul(fa.const(2), tree))
            path.write_text(json.dumps(spec_to_json(make_generator(state, Modulus(2, 32), 1))))
            runs = [["check", f"1 + x + 2*{nested}", "-p", "2", "-k", "6"],
                    ["certify", f"1 + x + 3*{nested}", "-p", "3"],
                    ["gen", "--file", str(path), "--count", "1024"]]
            for argv in runs:
                rc, seconds = reference_seconds(lambda: main(argv))
                err = capsysbinary.readouterr().err.decode()
                if depth <= _MAX_DELTAS:
                    assert rc != 2 and "nested" not in err, argv
                else:
                    assert rc == 2 and seconds < 1.0, argv
                    assert f"delta nested deeper than {_MAX_DELTAS} levels" in err

    def test_xor_chain_of_3000_terms(self, capsys):
        rc, seconds = timed_certify(" xor ".join(["x"] * 3000))
        assert rc == 5 and seconds < 1.0

    def test_and_chain_of_3000_terms_at_odd_prime(self, capsys):
        source = " and ".join(["x"] * 3000)
        rc, seconds = reference_seconds(lambda: main(["certify", "-p", "3", source]))
        assert rc == 2 and seconds < 1.0
        assert "AND needs p = 2" in capsys.readouterr().err

    def test_delta_sum_of_3000_terms_through_gen(self, capsysbinary):
        source = "1 + x + 2*delta(" + " + ".join(["x"] * 3000) + ")"
        argv = ["gen", source, "-p", "2", "-k", "16", "--count", "2"]
        rc, seconds = reference_seconds(lambda: main(argv))
        assert rc == 0 and seconds < 1.0
        assert len(capsysbinary.readouterr().out) == 4

    def test_alternating_chain_spec_replays_byte_identically(self, capsysbinary, tmp_path):
        source = "1 + x" + " - x + x" * 1499  # 3000 terms
        path = tmp_path / "spec.json"

        def gen_twice():
            assert main(["gen", source, "-p", "2", "-k", "16", "--count", "64", "--json"]) == 0
            first = capsysbinary.readouterr()
            path.write_text(json.dumps(json.loads(first.err)["spec"]))
            assert main(["gen", "--file", str(path), "--count", "64", "--json"]) == 0
            return first, capsysbinary.readouterr()

        (first, again), seconds = reference_seconds(gen_twice)
        assert seconds < 1.0
        spec = json.loads(first.err)["spec"]
        assert again.out == first.out and len(first.out) == 128
        assert json.loads(again.err)["spec"] == spec

    def test_spec_with_a_high_degree_poly_leaf_exits_2(self, capsysbinary, tmp_path):
        # the DSL caps ff at degree 64, but a spec file's POLY node has any degree
        coeffs = [[1, math.factorial(i)] for i in range(601)]
        state = json.dumps([{"kind": "POLY", "basis": "falling", "coeffs": coeffs}])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"state_fn": state, "modulus": {"p": 2, "k": 16}, "seed": 3}))
        rc, seconds = reference_seconds(lambda: main(["gen", "--file", str(path), "--count", "4"]))
        assert rc == 2 and seconds < 1.0
        assert "degree 600 above criteria cap 64" in capsysbinary.readouterr().err.decode()

    def test_high_degree_poly_leaf_in_a_sum_classifies_at_once(self):
        # the leaf's degree is checked before the sum converts it to monomials
        falling = RationalPoly([Fraction(1, math.factorial(i)) for i in range(301)], "falling")
        f = fa.add(fa.add(fa.const(1), fa.var()), fa.poly_node(falling))
        cls, seconds = reference_seconds(lambda: infer_class(f, 2))
        assert cls == FunctionClass(GENERIC_COMPATIBLE) and seconds < 0.1

    @pytest.mark.parametrize("source", ["1 + x + (1 + {p}*x)^x", "1 + x + inv(1 + {p}*x)"])
    def test_unit_node_at_a_huge_prime_exits_3_at_once(self, capsys, source):
        # Z/p is too large to scan for class B, and so is the probe's modulus
        p = "100000000000000000039"
        rc, seconds = reference_seconds(lambda: main(["certify", source.format(p=p), "-p", p]))
        assert rc == 3 and seconds < 1.0
        assert f"{p}^1 states exceeds cap" in capsys.readouterr().err

    def test_falling_factorial_degree_capped_at_parse(self, capsys):
        argv = ["check", "ff(x, 100000)", "-p", "2", "-k", "3"]
        rc, seconds = reference_seconds(lambda: main(argv))
        assert rc == 2 and seconds < 1.0
        assert "cap 64" in capsys.readouterr().err


class TestInputBoundary:
    """Inputs that once hung, walked far past a cap, or named no position."""

    def test_large_prime_answers_at_once(self, capsys):
        prime = "100000000000000000039"  # trial division to its root never ends
        for argv in (["check", "1+x", "-p", prime, "-k", "1"], ["certify", "1+x", "-m", prime]):
            rc, seconds = reference_seconds(lambda: main(argv))
            assert rc == 3 and seconds < 1.0
            assert "states exceeds cap" in capsys.readouterr().err

    def test_prime_past_the_test_bound_exits_2(self, capsys):
        assert main(["check", "1+x", "-p", str(2**89 - 1), "-k", "1"]) == 2
        assert "cannot decide whether" in capsys.readouterr().err

    def test_prime_power_past_trial_division(self, capsys):
        for argv in (["-m", str(65537**2)], ["-p", "65537", "-k", "2"]):
            assert main(["check", "1 + x", *argv]) == 3
            assert capsys.readouterr().err == "error: 65537^2 states exceeds cap 16777216\n"
        assert main(["check", "1 + x", "-m", str(65537 * 65539)]) == 2
        assert capsys.readouterr().err == ("error: cannot factor 4295229443: 4295229443 has no"
                                           " prime factor below 65536 and is not a prime power\n")

    def test_huge_modulus_is_shortened_in_the_error(self, capsys):
        assert main(["check", "1+x", "-m", str(10**4000 + 1)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: cannot decide whether \d{12}\.\.\. \(\d{4} digits\) is prime:"
                            r" primes must be below \d+\n", err), err[:200]

    def test_analyze_walk_stops_at_the_solver_cap(self, capsys, monkeypatch):
        walks = []
        monkeypatch.setattr(cli, "orbit", lambda *args: walks.append(args))
        assert main(["analyze", "1 + x", "-p", "2", "-k", "22", "--cap-states", "5000000"]) == 3
        assert walks == []
        assert capsys.readouterr().err == "error: 2^22 states exceeds cap 1048576\n"

    @pytest.mark.parametrize("source, message", [
        ("", "unexpected 'end of input' at line 1, column 1"),
        ("1 + " + "9" * 5000, "integer literal of 5000 digits is too long at line 1, column 5"),
    ])
    def test_dsl_errors_name_their_position(self, capsys, source, message):
        assert main(["certify", source, "-p", "2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def composite_spec(tmp_path):
    path = tmp_path / "spec.json"
    spec = make_generator(parse_dsl("1+x"), CompositeModulus.from_int(72), 5)
    path.write_text(json.dumps(spec_to_json(spec)))
    return str(path)


def data_file(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(bytes(16))
    return str(path)


@pytest.mark.parametrize("argv, cap_env, message", [
    (["check", "1+x", "-p", "2", "-k", "3", "--cap-states", "0"], None,
     "--cap-states must be positive"),
    (["check", "1+x", "-p", "2", "-k", "3"], "0", "PADIC_FORGE_CAP must be positive"),
    (["certify", "1+x", "-m", "12", "-p", "3"], None, "give either -m or -p, not both"),
    (["check", "1+x", "-p", "2", "-k", "3", "--file", data_file], None,
     "give the function inline or with --file, not both"),
    (["check", "-p", "2", "-k", "3"], None, "a function is required, inline or with --file"),
    (["analyze", "1+x", "-p", "2", "-k", "3", "--rmax", "0"], None, "--rmax must be positive"),
    (["analyze", "1+x", "-p", "2", "-k", "3", "--file", data_file], None,
     "give a sequence source inline or with --file, not both"),
    (["analyze", "--file", composite_spec], None, "affine analysis needs a prime-power modulus"),
    (["analyze", "--file", data_file, "-m", "12"], None,
     "binary input needs -p 2 -k with k a multiple of 8"),
    (["analyze", "1+x", "-p", "2", "-k", "4", "--seed", "16"], None, "seed 16 outside 0..15"),
    (["check", "1+x", "-p", "3", "-k", str(10**20)], None,
     "modulus 3^100000000000000000000 has more than 1048576 bits"),
    (["gen", "1+x", "--file", composite_spec, "--count", "1"], None,
     "give the function inline or with --file, not both"),
    # 2^20000 - 1 is past the int-to-str digit limit
    (["gen", "1+x", "-p", "2", "-k", "20000", "--seed", "-1"], None,
     "seed -1 outside 0..398027684033... (6021 digits)"),
])
def test_argument_check_exits_2_with_its_message(capsys, monkeypatch, tmp_path,
                                                 argv, cap_env, message):
    if cap_env is None:
        monkeypatch.delenv("PADIC_FORGE_CAP", raising=False)
    else:
        monkeypatch.setenv("PADIC_FORGE_CAP", cap_env)
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


VALID_STATE_FN = json.dumps([{"kind": "CONST", "value": [1, 1]}, {"kind": "VAR"}, {"kind": "ADD"}])

MALFORMED_SPECS = {
    "no modulus": {"state_fn": VALID_STATE_FN, "seed": 0},
    "no seed": {"state_fn": VALID_STATE_FN, "modulus": {"p": 2, "k": 8}},
    "no state_fn": {"modulus": {"p": 2, "k": 8}, "seed": 0},
    "string modulus": {"state_fn": VALID_STATE_FN, "modulus": "2^8", "seed": 0},
    "string prime": {"state_fn": VALID_STATE_FN, "modulus": {"p": "2", "k": 8}, "seed": 0},
    "float exponent": {"state_fn": VALID_STATE_FN, "modulus": {"p": 2, "k": 8.0}, "seed": 0},
    "float seed": {"state_fn": VALID_STATE_FN, "modulus": {"p": 2, "k": 8}, "seed": 1.5},
    "int state_fn": {"state_fn": 5, "modulus": {"p": 2, "k": 8}, "seed": 0},
    "node without kind": {"state_fn": json.dumps([{"value": [1, 1]}]),
                          "modulus": {"p": 2, "k": 8}, "seed": 0},
    "nested node without kind": {"state_fn": json.dumps({"children": []}),
                                 "modulus": {"p": 2, "k": 8}, "seed": 0},
    "zero denominator": {"state_fn": json.dumps([{"kind": "CONST", "value": [1, 0]}]),
                         "modulus": {"p": 2, "k": 8}, "seed": 0},
    "too few operands": {"state_fn": json.dumps([{"kind": "VAR"}, {"kind": "ADD"}]),
                         "modulus": {"p": 2, "k": 8}, "seed": 0},
    "two trees": {"state_fn": json.dumps([{"kind": "VAR"}, {"kind": "VAR"}]),
                  "modulus": {"p": 2, "k": 8}, "seed": 0},
    "no tree": {"state_fn": "[]", "modulus": {"p": 2, "k": 8}, "seed": 0},
    "unknown kind": {"state_fn": json.dumps([{"kind": "SIN"}]),
                     "modulus": {"p": 2, "k": 8}, "seed": 0},
    # json itself recurses on nesting, so a nested doc this deep cannot load
    "state_fn nested 5000 deep": {
        "state_fn": '{"kind": "NEG", "children": [' * 5000 + '{"kind": "VAR"}' + "]}" * 5000,
        "modulus": {"p": 2, "k": 8}, "seed": 0},
    # more levels than the nesting cap: evaluation closures nest one frame per NEG
    "3000 NEG levels": {
        "state_fn": json.dumps([{"kind": "CONST", "value": [1, 1]}, {"kind": "VAR"},
                                {"kind": "ADD"}, {"kind": "CONST", "value": [2, 1]},
                                {"kind": "VAR"}] + [{"kind": "NEG"}] * 3000
                               + [{"kind": "MUL"}, {"kind": "ADD"}]),
        "modulus": {"p": 2, "k": 8}, "seed": 0},
}


XOR_ONE = json.dumps([{"kind": "VAR"}, {"kind": "CONST", "value": [1, 1]}, {"kind": "XOR"}])

# specs that break GeneratorSpec's own rules, which run before any certificate
SPEC_RULE_BREAKS = {
    "out_fn without out_modulus": (
        {"state_fn": VALID_STATE_FN, "modulus": {"p": 2, "k": 8}, "seed": 0, "out_fn": XOR_ONE},
        "out_fn and out_modulus come together"),
    "composite out_modulus": (
        {"state_fn": VALID_STATE_FN, "modulus": {"factors": [[2, 3], [5, 1]]}, "seed": 0,
         "out_fn": json.dumps([{"kind": "VAR"}]), "out_modulus": {"factors": [[2, 3], [5, 1]]}},
        "output modulus must be a prime power"),
    # read through bool(), "false" would let the refuted state map x xor 1 through
    "string unchecked": (
        {"state_fn": XOR_ONE, "modulus": {"p": 2, "k": 8}, "seed": 0, "unchecked": "false"},
        "TypeError: unchecked 'false' is not a boolean"),
}


class TestPastTheDigitLimit:
    """2^20000 has 6021 decimal digits, past the default int-to-str limit
    of 4300: no message or generated line may write it in decimal."""

    def test_gen_emits_words(self, capsysbinary):
        rc = main(["gen", "1 + x", "-p", "2", "-k", "20000", "--count", "2"])
        assert rc == 0
        out = capsysbinary.readouterr().out
        assert len(out) == 5000
        assert [int.from_bytes(out[i:i + 2500], "little") for i in (0, 2500)] == [1, 2]

    @pytest.mark.parametrize("json_out", [["--json"], []])
    def test_gen_refuses_a_spec_it_cannot_save_before_any_byte(self, capsysbinary, json_out):
        # the parser folds both 3000-digit literals into one POLY coefficient
        # of about 6000 digits, which json.dumps cannot write in decimal
        n = "9" * 3000
        argv = ["gen", f"1 + x + 2*delta(ff(x,2)*{n}*{n})", "-p", "2", "-k", "8", "--count", "2"]
        assert main(argv + json_out) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"error: the generator spec cannot be written as JSON: ")
        assert len(captured.err) < 300

    @pytest.mark.parametrize("command, source, cap", [("check", "1 + x", 16777216),
                                                      ("analyze", "1 + 5*x", 1048576)])
    def test_cap_exits_3(self, capsys, command, source, cap):
        assert main([command, source, "-p", "2", "-k", "20000"]) == 3
        assert capsys.readouterr().err == f"error: 2^20000 states exceeds cap {cap}\n"


class TestMalformedSpec:
    """A spec file that is JSON but no generator spec exits 2, never a traceback."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
    @pytest.mark.parametrize("command", ["gen", "analyze"])
    def test_exits_2(self, capsysbinary, tmp_path, command, name):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(MALFORMED_SPECS[name]))
        assert main([command, "--file", str(path)]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b"" and captured.err.startswith(b"error: ")

    @pytest.mark.parametrize("name", sorted(SPEC_RULE_BREAKS))
    @pytest.mark.parametrize("command", ["gen", "analyze"])
    def test_rule_break_exits_2_before_any_certificate(self, capsysbinary, tmp_path, command,
                                                       name):
        blob, message = SPEC_RULE_BREAKS[name]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(blob))
        assert main([command, "--file", str(path)]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == f"error: malformed generator spec: {message}\n".encode()

    @pytest.mark.parametrize("command", ["gen", "analyze"])
    def test_file_nested_100000_deep_exits_2(self, capsysbinary, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main([command, "--file", str(path)]) == 2
        assert capsysbinary.readouterr().err.startswith(b"error: ")

    @pytest.mark.parametrize("command", ["gen", "analyze"])
    def test_spec_nested_past_the_cap_names_it(self, capsysbinary, tmp_path, command):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(MALFORMED_SPECS["3000 NEG levels"]))
        assert main([command, "--file", str(path)]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == f"error: expression nested deeper than {_MAX_NESTING} levels\n".encode()

    def test_valid_postfix_spec_runs(self, capsysbinary, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"state_fn": VALID_STATE_FN,
                                    "modulus": {"p": 2, "k": 8}, "seed": 0}))
        assert main(["gen", "--file", str(path), "--count", "3"]) == 0
        assert capsysbinary.readouterr().out == bytes([1, 2, 3])


FUZZ_BASE = {"state_fn": VALID_STATE_FN, "modulus": {"p": 2, "k": 8}, "seed": 3,
             "out_fn": XOR_ONE, "out_modulus": {"p": 2, "k": 8}}
FUZZ_VALUES = (None, True, False, 1.5, "x", "false", [], [1, 2], {}, 10**40, -1, 0)
FUZZ_MODULI = ({"factors": [[2, 3], [5, 1]]}, {"factors": [[2, 8]]}, {"factors": [[3, 1], [2, 1]]},
               {"factors": []}, {"factors": [[4, 1]]}, {"p": 4, "k": 2}, {"p": 1, "k": 1},
               {"p": 9, "k": 1}, {"p": 3, "k": 5}, {"p": 2, "k": 0}, {"p": 2, "k": 4})
FUZZ_NODES = ({"kind": "NEG"}, {"kind": "ADD"}, {"kind": "SIN"}, {}, {"kind": "CONST"},
              {"kind": "CONST", "value": [1]}, {"kind": "CONST", "value": [1, 0]},
              {"kind": "CONST", "value": ["1", 1]}, {"kind": "CONST", "value": [10**40, 3]},
              {"kind": "VAR", "children": [5]}, {"kind": "POW"}, {"kind": "INV"}, 5, "VAR", None, [])


def fuzzed_spec(rng: random.Random) -> dict:
    """FUZZ_BASE with one field dropped, swapped for a value of another type,
    given another modulus, or with its postfix node docs broken."""
    spec = copy.deepcopy(FUZZ_BASE)
    how = rng.randrange(4)
    if how == 0:
        where = rng.choice([spec, spec["modulus"], spec["out_modulus"]])
        del where[rng.choice(sorted(where))]
    elif how == 1:
        key = rng.choice(sorted(spec) + ["unchecked", "p", "k"])
        where = spec[rng.choice(["modulus", "out_modulus"])] if key in ("p", "k") else spec
        where[key] = rng.choice(FUZZ_VALUES)
    elif how == 2:
        spec[rng.choice(["modulus", "out_modulus"])] = rng.choice(FUZZ_MODULI)
    else:
        key = rng.choice(["state_fn", "out_fn"])
        nodes, op = json.loads(spec[key]), rng.randrange(4)
        if op == 0:
            del nodes[rng.randrange(len(nodes))]
        elif op == 1:
            nodes.insert(rng.randrange(len(nodes) + 1), rng.choice(FUZZ_NODES))
        elif op == 2:
            rng.choice(nodes)[rng.choice(["kind", "value", "children"])] = rng.choice(FUZZ_VALUES)
        spec[key] = json.dumps(nodes) if op < 3 else rng.choice(
            ["[{", '{"kind": "ADD", "children": [{"kind": "VAR"}]}', "[]", "{}", "3"])
    return spec


def test_fuzzed_spec_files_end_in_a_documented_exit_code(capsysbinary, tmp_path):
    """400 seeded mutations of a valid spec file, each through gen and
    analyze: every run ends in 0, 2, 3, 4 or 5 within a second."""
    rng, path, bad = random.Random(20261020), tmp_path / "spec.json", []
    for case in range(400):
        spec = fuzzed_spec(rng)
        path.write_text(json.dumps(spec))
        for argv in (["gen", "--file", str(path), "--count", "16"], ["analyze", "--file", str(path)]):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except Exception as exc:  # a traceback is the finding
                rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            capsysbinary.readouterr()
            if rc not in (0, 2, 3, 4, 5) or seconds > 1.0:
                bad.append((case, argv[0], spec, rc, round(seconds, 3)))
    assert bad == []


class TestParser:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--bogus"])
        assert exc.value.code == 2

    # every (subcommand, flag) pair the subcommand does not read
    @pytest.mark.parametrize("command, flag", [
        ("check", "--seed"), ("check", "--rmax"),
        ("certify", "-k"), ("certify", "--seed"), ("certify", "--rmax"),
        ("gen", "--rmax"),
        ("repro", "-p"), ("repro", "-k"), ("repro", "-m"), ("repro", "--seed"),
        ("repro", "--cap-states"), ("repro", "--rmax"), ("repro", "--file"),
    ])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, command, flag):
        argv = [command] if command == "repro" else [command, "1 + x", "-p", "2"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "3"])
        assert exc.value.code == 2
        # the usage is the subcommand's own, so it lists the flags it takes
        usage, _, error = capsys.readouterr().err.partition(f"padic-forge {command}: error: ")
        assert error == f"unrecognized arguments: {flag} 3\n"
        assert usage.startswith(f"usage: padic-forge {command} [-h]")
        assert all(f"[{own}" in usage for own in cli._COMMANDS[command][3].split())
        assert f"[{flag}" not in usage

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["gen", "analyze"])
    def test_map_too_deep_to_save_exits_2(self, capsysbinary, command):
        # 60 source levels are within the parser's cap, but each POW adds
        # a tree level, so the map could not replay from a saved spec
        tower = "x"
        for _ in range(60):
            tower = f"neg({tower})^x"
        assert main([command, "-p", "2", "-k", "8", f"1 + x + 2*delta({tower})"]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == (f"error: expression nested deeper than {_MAX_NESTING} levels"
                                f" at line 1, column 1\n").encode()

    def test_text_rendering_smoke(self, capsys):
        assert main(["certify", "-p", "5", "1 + x + 201^x"]) == 0
        out = capsys.readouterr().out
        assert "worst verdict: PROVEN" in out
