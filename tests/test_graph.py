import pytest

from hushrelay.graph import (
    MAX_NODES,
    Channel,
    ChannelGraph,
    DuplicateChannel,
    FlowAssignment,
    NegativeCapacity,
    SelfLoop,
)

from .conftest import A, B, C, R, S, escrows, reversed_flow
from .oracles import CapacityViolation, add_flow, apply_flow, net_flow, validate_flow


class TestOpenChannel:
    def test_open_sets_directed_capacities(self):
        g = ChannelGraph(5)
        g.open_channel(S, A, 10, 0)
        assert g.cap[S].get(A, 0) == 10
        assert g.cap[A].get(S, 0) == 0

    def test_zero_capacity_channel_is_valid(self):
        g = ChannelGraph(2)
        g.open_channel(0, 1, 0, 0)
        assert g.channel_count == 1
        assert sorted(g.cap[0]) == [1] and sorted(g.cap[1]) == [0]
        assert g.cap[0].get(1, 0) == g.cap[1].get(0, 0) == 0

    def test_self_loop_rejected(self):
        g = ChannelGraph(3)
        with pytest.raises(SelfLoop):
            g.open_channel(1, 1, 5, 5)

    def test_duplicate_rejected_either_orientation(self):
        g = ChannelGraph(3)
        g.open_channel(0, 1, 5, 5)
        with pytest.raises(DuplicateChannel):
            g.open_channel(1, 0, 2, 2)

    def test_negative_capacity_rejected(self):
        g = ChannelGraph(3)
        with pytest.raises(NegativeCapacity):
            g.open_channel(0, 1, -1, 5)

    def test_endpoints_normalized(self):
        g = ChannelGraph(3)
        cid = g.open_channel(2, 0, 7, 3)
        assert cid == (0, 2)
        assert g.cap[2].get(0, 0) == 7
        assert g.cap[0].get(2, 0) == 3

    def test_adjacency_symmetric(self):
        g = ChannelGraph(4)
        g.open_channel(0, 2, 1, 1)
        assert sorted(g.cap[0]) == [2]
        assert sorted(g.cap[2]) == [0]


    @pytest.mark.parametrize("n", [-1, MAX_NODES + 1, 10**12])
    def test_node_count_outside_bound_rejected_before_allocating(self, n):
        with pytest.raises(ValueError, match=f"node count must be in 0..{MAX_NODES}, got {n}$"):
            ChannelGraph(n)


class TestChannels:
    # opened out of order, in both orientations
    SPECS = [(3, 1, 5, 6), (0, 2, 1, 2), (2, 1, 7, 0), (1, 0, 4, 3)]

    def graph(self, specs) -> ChannelGraph:
        g = ChannelGraph(4)
        for spec in specs:
            g.open_channel(*spec)
        return g

    def test_each_channel_once_sorted_by_endpoint_pair(self):
        g = self.graph(self.SPECS)
        assert list(g.channels()) == [
            Channel(0, 1, 3, 4),
            Channel(0, 2, 1, 2),
            Channel(1, 2, 0, 7),
            Channel(1, 3, 6, 5),
        ]
        assert g.channel_count == 4

    def test_equality_ignores_opening_order_only(self):
        flipped = [(v, u, c_vu, c_uv) for u, v, c_uv, c_vu in reversed(self.SPECS)]
        assert self.graph(flipped) == self.graph(self.SPECS)
        changed = [(3, 1, 5, 6), (0, 2, 1, 2), (2, 1, 7, 1), (1, 0, 4, 3)]
        assert self.graph(changed) != self.graph(self.SPECS)


class TestResidual:
    # apply_flow leaves each direction at its residual capacity c - f
    def test_saturating_push_leaves_zero_residual(self, example_graph):
        f = FlowAssignment(S, R)
        add_flow(f, S, A, 10)
        assert apply_flow(example_graph, f).cap[S].get(A, 0) == 0

    def test_zero_flow_residual_equals_capacity(self, example_graph):
        f = FlowAssignment(S, R)
        assert apply_flow(example_graph, f).cap[S].get(A, 0) == 10

    def test_reverse_residual_from_antisymmetry(self, example_graph):
        # f(A,S) = -10 against c(A,S) = 0 opens 10 units of reverse residual
        f = FlowAssignment(S, R)
        add_flow(f, S, A, 10)
        assert net_flow(f, A, S) == -10
        assert apply_flow(example_graph, f).cap[A].get(S, 0) == 10

    def test_non_edge_residual_is_zero(self, example_graph):
        f = FlowAssignment(S, R)
        assert apply_flow(example_graph, f).cap[S].get(C, 0) == 0


class TestApplyFlow:
    def test_worked_example_shifts_bottleneck_channel(self, example_graph):
        f = FlowAssignment(S, R)
        for v, w, a in [(S, A, 10), (A, C, 10), (S, B, 5), (B, C, 5), (C, R, 15)]:
            add_flow(f, v, w, a)
        g2 = apply_flow(example_graph, f)
        assert g2.cap[C].get(R, 0) == 5
        assert g2.cap[R].get(C, 0) == 15

    def test_empty_flow_leaves_graph_unchanged(self, example_graph):
        g2 = apply_flow(example_graph, FlowAssignment(S, R))
        assert g2 == example_graph

    def test_apply_then_reverse_apply_restores(self, example_graph):
        f = FlowAssignment(S, R)
        add_flow(f, S, A, 7)
        add_flow(f, A, C, 7)
        g2 = apply_flow(apply_flow(example_graph, f), reversed_flow(f))
        assert g2 == example_graph

    def test_escrow_total_conserved(self, example_graph):
        f = FlowAssignment(S, R)
        add_flow(f, S, A, 9)
        assert escrows(apply_flow(example_graph, f)) == escrows(example_graph)

    def test_overflow_rejected(self, example_graph):
        f = FlowAssignment(S, R)
        add_flow(f, S, A, 11)
        with pytest.raises(CapacityViolation):
            apply_flow(example_graph, f)


class TestFlowAssignment:
    def test_value_is_net_flow_into_sink(self, example_graph):
        f = FlowAssignment(S, R)
        add_flow(f, C, R, 15)
        assert f.value == 15

    def test_opposite_adds_cancel_to_empty(self):
        f = FlowAssignment(S, R)
        add_flow(f, A, C, 4)
        add_flow(f, C, A, 4)
        assert f.positive_edges() == {}
        assert f == FlowAssignment(S, R)

    def test_pair_stored_once_as_positive_net(self):
        f = FlowAssignment(S, R)
        add_flow(f, A, C, 4)
        add_flow(f, C, A, 6)
        assert f.positive_edges() == {(C, A): 2}
        assert net_flow(f, A, C) == -2

    def test_validate_accepts_worked_flow(self, example_graph):
        f = FlowAssignment(S, R)
        for v, w, a in [(S, A, 10), (A, C, 10), (S, B, 5), (B, C, 5), (C, R, 15)]:
            add_flow(f, v, w, a)
        validate_flow(f, example_graph)

    def test_validate_rejects_conservation_break(self, example_graph):
        f = FlowAssignment(S, R)
        add_flow(f, S, A, 5)
        with pytest.raises(CapacityViolation):
            validate_flow(f, example_graph)

    def test_validate_rejects_overflow(self, example_graph):
        f = FlowAssignment(S, R)
        add_flow(f, S, A, 12)
        add_flow(f, A, C, 10)
        add_flow(f, A, R, 2)
        with pytest.raises(CapacityViolation):
            validate_flow(f, example_graph)
