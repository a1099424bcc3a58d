"""Every certificate of the golden file's items, recomputed and compared.

A PROVEN or REFUTED line never changes.  An
UNKNOWN line may change only to a decided verdict that a brute check at a
fixed depth agrees with.  Regenerate the file with
`PYTHONPATH=src python tests/certificate_golden.py` and list each changed
line in CHANGES.md.
"""

from padicforge.certify import ERGODIC, MEASURE_PRESERVING, PROVEN, REFUTED, UNKNOWN
from padicforge.core import Modulus
from padicforge.expr import compile_map

import certificate_golden as golden
from oracles import compatibility_probe_full_table, is_bijection, is_transitive, value_table

# past the brute probe's 2^14, 3^8 and 5^6, so an UNKNOWN can be refuted here
BRUTE_DEPTH = {2: 16, 3: 10, 5: 7}


def brute_holds(f, p, prop):
    """Does f have the property mod p^BRUTE_DEPTH[p]?  Decided on a plain
    table by the oracles, never by the checkers whose routes are judged."""
    m = Modulus(p, BRUTE_DEPTH[p])
    if prop == ERGODIC:
        return is_transitive(value_table(compile_map(f, m), m.value))
    if prop == MEASURE_PRESERVING:
        return is_bijection(value_table(compile_map(f, m), m.value))
    return compatibility_probe_full_table(compile_map(f, m), p, m.k) is None


def transition_error(old, new, brute):
    """None if a line may go from old to new, else the reason it may not.
    brute() says whether the property holds at the fixed depth."""
    if old == new:
        return None
    was, now = old.split()[3], new.split()[3]
    if was != UNKNOWN:
        return f"a {was} line changed:\n  {old}\n  {new}"
    if now not in (PROVEN, REFUTED):
        return f"an UNKNOWN line changed but is not decided:\n  {old}\n  {new}"
    if brute() != (now == PROVEN):
        return f"{now} disagrees with the brute check:\n  {old}\n  {new}"
    return None


def test_every_certificate_matches_the_golden_file():
    every_item = golden.all_items()
    want, got = golden.read_golden(), golden.lines(every_item)
    assert list(got) == list(want), "items or properties differ from the golden file"
    by_name = {name: (f, p) for name, p, f, _ in every_item}
    errors = [transition_error(want[key], got[key], lambda: brute_holds(*by_name[key[0]], key[1]))
              for key in want]
    errors = [e for e in errors if e]
    assert not errors, f"{len(errors)} lines break the transition rule:\n" + "\n".join(errors[:10])


def test_the_golden_file_reaches_every_route_and_verdict():
    fields = [line.split() for line in golden.read_golden().values()]
    assert len(fields) == 2922
    assert {f[4] for f in fields if f[3] != UNKNOWN} >= {
        "BRUTE_ONLY", "C3_10", "L2_5", "P4_7", "P4_8", "T2_1", "T2_2", "T2_3", "T4_1", "T4_9"}
    assert {f[3] for f in fields} == {PROVEN, REFUTED, UNKNOWN}


def test_transition_rule():
    line = "p2/tree/000 ERGODIC GENERIC_COMPATIBLE {} BRUTE_ONLY 2^14 {}".format
    unknown = line(UNKNOWN, '{"transitive_up_to":14}')
    refuted = line(REFUTED, '{"cycle_through_zero":2}')
    proven = line(PROVEN, "-")
    never = lambda: 1 / 0  # the brute check runs only for a changed UNKNOWN
    assert transition_error(refuted, refuted, never) is None
    assert "a REFUTED line changed" in transition_error(refuted, proven, never)
    assert "a PROVEN line changed" in transition_error(proven, proven + " ", never)
    assert transition_error(refuted, line(REFUTED, '{"cycle_through_zero":4}'), never)
    assert transition_error(unknown, proven, lambda: True) is None
    assert transition_error(unknown, refuted, lambda: False) is None
    assert "disagrees" in transition_error(unknown, proven, lambda: False)
    assert "disagrees" in transition_error(unknown, refuted, lambda: True)
    assert "not decided" in transition_error(unknown, line(UNKNOWN, '{"transitive_up_to":12}'),
                                             never)
