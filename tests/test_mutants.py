"""The mutation list of ``tests/mutants.py`` still applies to the engine:
each snippet occurs exactly once in ``src/``, so every mutant changes the
code it names and nothing else."""

import pytest

from mutants import MUTANTS, occurrences


@pytest.mark.parametrize("entry", MUTANTS, ids=lambda entry: entry[4])
def test_each_mutant_snippet_occurs_once_in_src(entry):
    name, snippet, replacement, modules, _ = entry
    assert snippet != replacement
    assert modules
    assert occurrences(snippet) == 1
