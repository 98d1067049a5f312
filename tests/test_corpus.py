import pytest

from .corpus import run_corpus


@pytest.mark.slow
def test_corpus_slice_delivers_min_of_value_and_max_flow():
    # a fixed slice of the differential corpus: `python -m tests.corpus --seed 0 --count 200`
    tally = run_corpus(seed=0, count=200)
    assert tally.failures == []
    assert (tally.instances, tally.wrong, tally.errors) == (200, 0, 0)
    assert tally.later_epochs == 51
    # every trace and outcome; a deliberate schedule change updates it and says why
    assert tally.digest == "4f9e5c8bae6f9f5378ddc4341839bd979d1af68f3f73aa6eb64fab5b8d04c032"
