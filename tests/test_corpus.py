import pytest

from .corpus import run_corpus


@pytest.mark.slow
def test_corpus_slice_delivers_min_of_value_and_max_flow():
    # a fixed slice of the differential corpus: `python -m tests.corpus --seed 0 --count 200`
    tally = run_corpus(seed=0, count=200)
    assert tally.failures == []
    assert (tally.instances, tally.wrong, tally.errors) == (200, 0, 0)
    assert tally.later_epochs == 74
    # the epoch trigger's cost on payments above max-flow
    assert tally.infeasible_messages == 53393
    # every trace and outcome; a deliberate schedule change updates it and says why
    assert tally.digest == "dac3ec616b8c61f4f715b4d99289dc4ddfee5d44c0a519930f712d026eefa3f2"
