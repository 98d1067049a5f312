import random

import pytest

from hushrelay import oracle
from hushrelay.graph import ChannelGraph, FlowAssignment
from hushrelay.oracle import is_feasible, maxflow_augmenting
from hushrelay.topology import BAConfig, generate_ba

from .conftest import A, B, C, R, S
from .oracles import (
    add_flow,
    feasible_flow_sequential,
    net_flow,
    residual_hops,
    residual_reachable,
    scipy_max_flow,
    validate_flow,
)


def random_pair(rng: random.Random, n: int) -> tuple[int, int]:
    s = rng.randrange(n)
    r = rng.randrange(n - 1)
    return s, r + (r >= s)


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


def first_path(g: ChannelGraph, s: int, r: int) -> list[int] | None:
    return oracle._shortest_path(g.cap, {}, s, r)


def fan_graph(cap_vr: int, cap_rv: int) -> ChannelGraph:
    """s=0 fans out to 1, 2, 3, which all meet at v=4; v's channel to r=5 is c(v, r), c(r, v).

    After s's level the forward frontier (3 nodes) is larger than the
    backward one ({r}), so the search steps back from r over c(v, r).
    """
    g = ChannelGraph(6)
    for a in (1, 2, 3):
        g.open_channel(0, a, 5, 5)
        g.open_channel(a, 4, 5, 5)
    g.open_channel(4, 5, cap_vr, cap_rv)
    return g


class TestShortestPath:
    def test_source_adjacent_to_sink(self):
        g = ChannelGraph(3)
        g.open_channel(0, 1, 9, 9)
        g.open_channel(1, 2, 9, 9)
        g.open_channel(0, 2, 5, 5)
        assert first_path(g, 0, 2) == [0, 2]
        assert maxflow_augmenting(g, 0, 2).max_value == 14

    @pytest.mark.parametrize("s, r", [(0, 2), (2, 0)])
    def test_isolated_endpoint_has_no_path(self, s, r):
        g = ChannelGraph(3)
        g.open_channel(1, 2, 5, 5)
        assert first_path(g, s, r) is None
        assert maxflow_augmenting(g, s, r).max_value == 0
        assert not is_feasible(g, s, r, 1)

    def test_sink_in_another_component(self):
        g = ChannelGraph(4)
        g.open_channel(0, 1, 5, 5)
        g.open_channel(2, 3, 5, 5)
        assert first_path(g, 0, 3) is None
        assert not is_feasible(g, 0, 3, 1)

    def test_backward_side_follows_capacity_into_the_sink(self):
        g = fan_graph(7, 0)
        assert first_path(g, 0, 5) == [0, 1, 4, 5]
        assert maxflow_augmenting(g, 0, 5).max_value == 7

    def test_backward_side_ignores_capacity_out_of_the_sink(self):
        g = fan_graph(0, 7)
        assert first_path(g, 0, 5) is None
        assert maxflow_augmenting(g, 0, 5).max_value == 0

    def test_stop_at_below_first_bottleneck(self):
        g = ChannelGraph(3)
        g.open_channel(0, 1, 7, 0)
        g.open_channel(1, 2, 7, 0)
        res = maxflow_augmenting(g, 0, 2, stop_at=3)
        assert res.max_value == 3
        assert res.flow.positive_edges() == {(0, 1): 3, (1, 2): 3}
        validate_flow(res.flow, g)
        assert is_feasible(g, 0, 2, 3)


def test_every_augmenting_path_is_a_shortest_residual_path(monkeypatch):
    # capacities from 0 make one-way channels, so the backward side must
    # read the capacity into each node
    search = oracle._shortest_path
    rng = random.Random(12)
    seen = {"paths": 0, "cut_off": 0, "one_way": 0}
    for trial in range(150):
        n = rng.randint(4, 60)
        g = generate_ba(BAConfig(n=n, m_attach=2, cap_range=(0, 40), seed=5000 + trial))
        seen["one_way"] += sum(1 for ch in g.channels() if 0 in (ch.cap_forward, ch.cap_backward))
        s, r = random_pair(rng, n)

        def checked(cap, flow, s, r, g=g):
            path = search(cap, flow, s, r)
            f = FlowAssignment(s, r)
            for (v, w), a in flow.items():
                if a > 0:
                    add_flow(f, v, w, a)
            assert (path is None) == (r not in residual_reachable(g, f, s))
            if path is None:
                seen["cut_off"] += 1
            else:
                seen["paths"] += 1
                assert path[0] == s and path[-1] == r
                assert len(path) - 1 == residual_hops(g, f, s)[r]
                assert all(g.cap[v][w] - net_flow(f, v, w) > 0 for v, w in zip(path, path[1:]))
            return path

        monkeypatch.setattr(oracle, "_shortest_path", checked)
        validate_flow(maxflow_augmenting(g, s, r).flow, g)
    assert seen["paths"] > 150 and seen["cut_off"] == 150 and seen["one_way"] > 0


def test_is_feasible_exactly_up_to_scipy_max_flow():
    pytest.importorskip("scipy.sparse.csgraph")
    rng = random.Random(31)
    for trial in range(100):
        n = rng.randint(4, 60)
        g = generate_ba(BAConfig(n=n, m_attach=2, cap_range=(0, 40), seed=7000 + trial))
        s, r = random_pair(rng, n)
        max_flow = scipy_max_flow(g, s, r)
        assert is_feasible(g, s, r, max_flow)
        assert not is_feasible(g, s, r, max_flow + 1)


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
        s, r = random_pair(rng, n)
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
        s, r = random_pair(rng, n)
        val = rng.randint(0, 60)
        expected = min(val, maxflow_augmenting(g, s, r).max_value)
        f = feasible_flow_sequential(g, s, r, val)
        assert f.value == expected
        validate_flow(f, g)
