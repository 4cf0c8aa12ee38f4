"""The committed mutant list stays applicable: the full run
(``python tests/mutants.py``) is out of tier-1, this checks only that each
mutant still names code and tests that exist."""

import ast
import re

import pytest

from mutants import MUTANTS, PACKAGE, ROOT, occurrences


def defines(file, names):
    """Whether the test file defines ``names``: a test function, or a class
    and then a test method in it."""
    scope = ast.parse((ROOT / file).read_text(encoding="utf-8")).body
    *classes, test = names
    for name in classes:
        scope = next((node.body for node in scope if isinstance(node, ast.ClassDef)
                      and node.name == name), [])
    return any(isinstance(node, ast.FunctionDef) and node.name == test
               for node in scope)


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
        match = re.fullmatch(r"(tests/test_\w+\.py)((?:::\w+)+)(\[.*\])?", test)
        assert match, test
        assert defines(match[1], match[2].split("::")[1:]), test


def test_ids_name_a_method_in_its_class():
    file = "tests/test_complexity.py"
    assert defines(file, ["TestCodingBound", "test_dyadic_lds_holds"])
    assert not defines(file, ["test_dyadic_lds_holds"])
    assert not defines(file, ["TestProfiles", "test_dyadic_lds_holds"])
    assert not defines(file, ["TestCodingBound", "test_absent"])
