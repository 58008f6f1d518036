"""The mutation catalogue in mutants/run.py still applies to this tree.

The catalogue itself runs outside the suite (``python mutants/run.py``);
this only checks that no edit of the code or the tests has silently
turned one of its mutants into a no-op.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _catalogue():
    spec = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.CATALOGUE


CATALOGUE = _catalogue()


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_old_text_occurs_once_and_named_tests_exist(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        path, *classes, func = node.split("::")
        text = (ROOT / path).read_text()
        for cls in classes:
            assert f"class {cls}" in text, node
        assert f"def {func}(" in text, node
