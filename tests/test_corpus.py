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
    assert tally.infeasible_messages == 64223
    # every trace and outcome; a deliberate schedule change updates it and says why
    assert tally.digest == "5a9ff31d05c06fb76b59fb3d9ad2a1a44a4017ff26e586c2757904de2048e42f"
