import random

import pytest

from hushrelay.graph import ChannelGraph
from hushrelay.oracle import is_feasible, maxflow_augmenting
from hushrelay.topology import BAConfig, generate_ba

from .conftest import A, B, C, R, S
from .oracles import feasible_flow_sequential, residual_reachable, validate_flow


class TestMaxflowAugmenting:
    def test_five_node_example_max_is_20(self, example_graph):
        # hand check: S-A-C-R carries 10, S-B-C-R carries 10, C->R is the cut
        res = maxflow_augmenting(example_graph, S, R)
        assert res.max_value == 20
        validate_flow(res.flow, example_graph)
        assert res.flow.value == 20

    def test_isolated_source_has_zero_flow(self):
        g = ChannelGraph(3)
        g.open_channel(1, 2, 5, 5)
        assert maxflow_augmenting(g, 0, 2).max_value == 0

    def test_single_channel(self):
        g = ChannelGraph(2)
        g.open_channel(0, 1, 7, 0)
        assert maxflow_augmenting(g, 0, 1).max_value == 7

    def test_min_cut_certificate(self, example_graph):
        res = maxflow_augmenting(example_graph, S, R)
        reachable = residual_reachable(example_graph, res.flow, S)
        assert R not in reachable

    def test_stop_at_truncates(self, example_graph):
        res = maxflow_augmenting(example_graph, S, R, stop_at=5)
        assert res.max_value == 5

    def test_same_endpoints_rejected(self, example_graph):
        with pytest.raises(ValueError):
            maxflow_augmenting(example_graph, S, S)


class TestFeasibleFlowSequential:
    def test_worked_example_exact_flow(self, example_graph):
        f = feasible_flow_sequential(example_graph, S, R, 15)
        assert f.value == 15
        assert f.positive_edges() == {
            (S, A): 10,
            (A, C): 10,
            (S, B): 5,
            (B, C): 5,
            (C, R): 15,
        }
        validate_flow(f, example_graph)

    def test_zero_value_gives_zero_flow(self, example_graph):
        f = feasible_flow_sequential(example_graph, S, R, 0)
        assert f.positive_edges() == {}
        assert f.value == 0

    def test_excess_beyond_maxflow_returns(self, example_graph):
        f = feasible_flow_sequential(example_graph, S, R, 25)
        assert f.value == 20
        validate_flow(f, example_graph)

    def test_unreachable_sink_delivers_nothing(self):
        g = ChannelGraph(3)
        g.open_channel(1, 2, 5, 5)
        f = feasible_flow_sequential(g, 0, 2, 9)
        assert f.value == 0


class TestIsFeasible:
    def test_worked_value_feasible(self, example_graph):
        assert is_feasible(example_graph, S, R, 15)

    def test_zero_always_feasible(self, example_graph):
        assert is_feasible(example_graph, S, R, 0)

    def test_above_max_infeasible(self, example_graph):
        assert not is_feasible(example_graph, S, R, 21)
        assert is_feasible(example_graph, S, R, 20)


def test_oracles_agree_on_random_graphs():
    # the two solvers must agree on delivered value across a random corpus
    rng = random.Random(2024)
    for trial in range(150):
        n = rng.randint(4, 60)
        g = generate_ba(BAConfig(n=n, m_attach=2, cap_range=(0, 40), seed=trial))
        s = rng.randrange(n)
        r = rng.randrange(n - 1)
        if r >= s:
            r += 1
        max_value = maxflow_augmenting(g, s, r).max_value
        # full-drain surrogate: everything the source could possibly emit
        out_cap = sum(g.cap[s].values())
        f = feasible_flow_sequential(g, s, r, out_cap)
        assert f.value == max_value
        validate_flow(f, g)


def test_sequential_delivers_min_of_value_and_max():
    rng = random.Random(99)
    for trial in range(1000):
        n = rng.randint(4, 40)
        g = generate_ba(BAConfig(n=n, m_attach=2, cap_range=(5, 30), seed=1000 + trial))
        s = rng.randrange(n)
        r = rng.randrange(n - 1)
        if r >= s:
            r += 1
        val = rng.randint(0, 60)
        expected = min(val, maxflow_augmenting(g, s, r).max_value)
        f = feasible_flow_sequential(g, s, r, val)
        assert f.value == expected
        validate_flow(f, g)
