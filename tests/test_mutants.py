import pytest

from mutants import MUTANTS, run_mutant


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant, tmp_path):
    survived = run_mutant(mutant, tmp_path)
    assert not survived, f"{mutant.name}: these tests passed with the mutant applied: {survived}"
