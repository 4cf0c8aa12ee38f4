"""The committed mutant list stays applicable: the full run
(``python tests/mutants.py``) is out of tier-1, this checks only that each
mutant still names code and tests that exist."""

import re

import pytest

from mutants import MUTANTS, PACKAGE, ROOT, occurrences


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies(mutant):
    # a snippet that no longer occurs exactly once would be reported stale
    assert occurrences(mutant) == 1
    assert mutant.replacement != mutant.snippet
    path = ROOT / PACKAGE / mutant.module
    source = path.read_text(encoding="utf-8")
    compile(source.replace(mutant.snippet, mutant.replacement), str(path), "exec")
    assert mutant.tests
    for test in mutant.tests:
        file, name = re.fullmatch(r"(tests/test_\w+\.py)::(\w+)(\[.*\])?",
                                  test).group(1, 2)
        assert f"def {name}(" in (ROOT / file).read_text(encoding="utf-8"), test
