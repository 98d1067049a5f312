import pytest

from .corpus import run_corpus


@pytest.mark.slow
def test_corpus_slice_delivers_min_of_value_and_max_flow():
    # a fixed slice of the differential corpus: `python -m tests.corpus --seed 0 --count 200`
    tally = run_corpus(seed=0, count=200)
    assert tally.failures == []
    assert (tally.instances, tally.wrong, tally.errors) == (200, 0, 0)
    assert tally.later_epochs == 71
    # the epoch trigger's cost on payments within max-flow, and above it
    assert tally.feasible_messages == 6964
    assert tally.infeasible_messages == 36340
    # every trace and outcome; a deliberate schedule change updates it and says why
    assert tally.digest == "a72e73d20e0273a9c9f18751def52747dfcd81842fbaf0858d6ad30e478eee01"
