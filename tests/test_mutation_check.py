"""Keeps ``mutation_check.py`` from rotting: every anchor it replaces must
still occur exactly once, and every test file it runs must exist."""

import pytest

from mutation_check import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_anchor_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.anchor) == 1
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).is_file(), test
