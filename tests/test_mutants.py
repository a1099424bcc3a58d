"""The mutation list in mutants.py stays in step with the source it edits.

Running the mutants takes about a minute and is a CI step of its own
(`python tests/mutants.py`); here only the list is checked, so a change to
the code a mutant edits, or to a test it names, cannot leave it stale.
"""

import re

from mutants import MUTANTS, ROOT, SRC


def test_each_old_text_occurs_exactly_once_in_src():
    for mutant in MUTANTS:
        text = (SRC / "padicforge" / mutant.file).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name


def test_each_named_test_exists():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.tests, mutant.name
        for node in mutant.tests:
            path, *names = node.split("::")
            text = (ROOT / path).read_text()
            for name in names:
                assert re.search(rf"^\s*(def|class) {name}\b", text, re.M), (mutant.name, node)
