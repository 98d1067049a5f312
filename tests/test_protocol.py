import random

import pytest

from hushrelay import protocol
from hushrelay.protocol import (
    Accept,
    CutOff,
    LabelUpdate,
    Nak,
    NodeStates,
    ProtocolError,
    PushRequest,
    SameSourceSink,
    SinkDistance,
    UnknownNeighbor,
    UnknownRequestId,
    ZeroValue,
    init_instance,
    on_activate,
    on_cut_off,
    on_label_update,
    on_push_request,
    on_reply,
    on_sink_distance,
)
from hushrelay.graph import ChannelGraph
from hushrelay.sim import SimConfig, Simulator
from hushrelay.topology import BAConfig, generate_ba

from .conftest import A, B, C, R, S, five_node_graph, zero_labeled
from .oracles import active, public_hops, step

SP, RP = 5, 6  # virtual endpoints for the five-node example


def unreachable_tail_graph(pick: int) -> ChannelGraph:
    """A BA network with zero-capacity directions, plus a path 150-151-152 and a lone node 153 with no channel to it."""
    ba = generate_ba(BAConfig(n=150, m_attach=1 + pick % 3, cap_range=(0, 3), seed=pick))
    g = ChannelGraph(154)
    for ch in ba.channels():
        g.open_channel(*ch)
    g.open_channel(150, 151, 0, 4)
    g.open_channel(151, 152, 2, 2)
    return g


class ReadCounter(list):
    """A graph's per-node channel dicts that record which nodes' channels were read."""

    def __init__(self, cap):
        super().__init__(cap)
        self.read = set()

    def __getitem__(self, v):
        self.read.add(v)
        return super().__getitem__(v)


class TestInitInstance:
    def test_virtual_source_label_is_n_plus_2(self, example_graph):
        states = init_instance(example_graph, S, R, 15)
        assert states[SP].label == 7

    @pytest.mark.parametrize("pick", range(4))
    def test_labels_and_caches_are_public_hop_distances(self, pick):
        # nodes 150-153 have no channel path to r: those take n+3
        g = unreachable_tail_graph(pick)
        s, r = 3 * pick + 1, 7 * pick + 2
        states = init_instance(g, s, r, 5)
        hops = public_hops(g, r)
        assert max(hops.values()) >= 3
        label = [hops.get(v, g.n + 3) for v in range(g.n)]
        for v in range(g.n):
            st = states[v]
            assert st.label == label[v], v
            real_cache = {w: c for w, c in st.neighbor_labels.items() if w < g.n}
            assert real_cache == {w: label[w] for w in g.cap[v]}, v
        assert states[g.n].neighbor_labels == {s: label[s]}  # the feeder's cache

    def test_only_the_endpoints_are_built(self, example_graph):
        states = init_instance(example_graph, S, R, 15)
        assert sorted(states) == [S, R, SP, RP]
        assert states[C].label == 1  # looked up: built
        assert sorted(states) == [S, C, R, SP, RP]
        assert states.get(A) is None and A not in states
        with pytest.raises(KeyError):
            states[RP + 1]

    def test_source_holds_the_full_value(self, example_graph):
        states = init_instance(example_graph, S, R, 15)
        assert states[S].excess == 15
        assert all(states[v].excess == 0 for v in (A, B, C, R, RP))
        assert states[SP].edge_flow[S] == 15
        assert states[S].edge_flow[SP] == -15

    def test_virtual_edges_not_in_graph(self, example_graph):
        init_instance(example_graph, S, R, 15)
        assert example_graph.n == 5
        assert example_graph.channel_count == 5
        assert sorted(example_graph.cap[S]) == [A, B]
        assert sorted(example_graph.cap[R]) == [C]
        assert example_graph == five_node_graph()

    def test_same_source_sink_rejected(self, example_graph):
        with pytest.raises(SameSourceSink):
            init_instance(example_graph, S, S, 5)

    def test_zero_value_rejected(self, example_graph):
        with pytest.raises(ZeroValue):
            init_instance(example_graph, S, R, 0)


class TestFirstLabels:
    @pytest.mark.parametrize("pick", range(4))
    def test_label_is_the_public_hop_distance_in_any_order(self, pick):
        g = unreachable_tail_graph(pick)
        r = 7 * pick + 2
        hops = public_hops(g, r)
        expected = {v: hops.get(v, g.n + 3) for v in range(g.n)}
        order = random.Random(pick).sample(range(g.n), g.n)
        states = NodeStates(g, r)
        assert {v: states.label(v) for v in order} == expected
        assert len(states) == 0  # labeling builds nothing
        # states built in a random order start from the same labels, and so
        # do their caches of each neighbor's label
        states = NodeStates(g, r)
        for v in order:
            st = states[v]
            assert st.label == expected[v], v
            assert st.neighbor_labels == {w: expected[w] for w in g.cap[v]}, v

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sink_and_build_order_start_from_public_hops(self, seed):
        # init_instance, then every node built in a random order, with some
        # labels asked for first: states built past the search's completed
        # levels take their labels from their own channels
        rng = random.Random(seed)
        g = unreachable_tail_graph(seed)
        r = rng.randrange(g.n)
        hops = public_hops(g, r)
        expected = {v: hops.get(v, g.n + 3) for v in range(g.n)}
        s = rng.choice([v for v in range(g.n) if v != r])
        states = init_instance(g, s, r, 5)
        if s in hops:
            # the search completes only the levels below s's
            assert states._depth == hops[s] - 1
        for v in rng.sample(range(g.n), g.n):
            if rng.random() < 0.3:
                assert states.label(v) == expected[v], v
            st = states[v]
            assert st.label == expected[v], v
            assert {w: st.neighbor_labels[w] for w in g.cap[v]} == {w: expected[w] for w in g.cap[v]}, v

    @pytest.mark.parametrize("ring", [False, True])
    def test_search_stops_at_the_level_of_the_nodes_built(self, ring):
        # r = 0 on a path or ring of 100 nodes: building node 2 reads the
        # channels of the levels two or more below node 2's, of node 2
        # itself, and of its neighbor the search has not labeled
        g = ChannelGraph(100)
        for v in range(99 + ring):
            g.open_channel(v, (v + 1) % 100, 5, 5)
        g.cap = ReadCounter(g.cap)
        states = NodeStates(g, 0)
        st = states[2]
        assert (st.label, st.neighbor_labels) == (2, {1: 1, 3: 3})
        assert g.cap.read == {0, 2, 3}
        # labeling node 50 expands every level two or more below its own,
        # and no further
        assert states.label(50) == 50
        assert g.cap.read == {*range(49), 50, *(range(52, 100) if ring else ())}


class TestOnActivate:
    def test_source_pushes_by_ascending_neighbor_id(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[S]
        st.label = 1  # as after its first relabel
        out = on_activate(st)
        assert [(dest, type(m), m.amount) for dest, m in out] == [
            (A, PushRequest, 10),
            (B, PushRequest, 5),
        ]
        assert st.excess == 0
        assert st.edge_flow[A] == 10 and st.edge_flow[B] == 5

    def test_inactive_node_emits_nothing(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        assert not on_activate(states[C])

    def test_stuck_node_relabels(self, example_graph):
        # every neighbor cached at or above our label forces a relabel
        states = zero_labeled(example_graph, S, R, 15)
        st = states[C]
        st.excess = 5
        st.neighbor_labels = {A: 1, B: 1, R: 1}
        out = on_activate(st)
        assert st.label == 2
        # one relabel: one broadcast, to each channel neighbor in order
        assert out == [(w, LabelUpdate(C, 2)) for w in (A, B, R)]

    def test_no_relabel_while_pushes_in_flight(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[S]
        st.label = 1
        on_activate(st)  # saturates A and B, both now in flight
        st.excess = 3  # more excess arrives
        assert not on_activate(st)
        assert st.label == 1

    def test_busy_edge_not_pushed_twice(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[S]
        st.label = 1
        first = on_activate(st)
        assert len(first) == 2
        st.excess = 4
        st.neighbor_labels[A] = 0  # still looks eligible, but in flight
        assert not on_activate(st)

    def test_passive_endpoints_never_push(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        states[SP].excess = 5
        states[RP].excess = 5
        assert not on_activate(states[SP])
        assert not on_activate(states[RP])


class TestOnPushRequest:
    def test_equal_labels_nak(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[C]
        st.label = 1
        [(dest, reply)] = on_push_request(st, PushRequest(B, 1, 5, 1))
        assert dest == B
        assert type(reply) is Nak
        assert reply.responder_label == 1
        assert st.excess == 0 and st.edge_flow[B] == 0

    def test_lower_label_accepts_and_applies(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[R]
        [(dest, reply)] = on_push_request(st, PushRequest(C, 4, 10, 1))
        assert dest == C
        assert type(reply) is Accept
        assert st.excess == 10
        assert st.edge_flow[C] == -10

    def test_virtual_sink_accepts_without_forwarding(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[RP]
        [(_, reply)] = on_push_request(st, PushRequest(R, 9, 10, 1))
        assert type(reply) is Accept
        assert st.excess == 10
        assert not active(st)  # passive role: gains excess but never activates

    def test_unknown_sender_rejected(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        with pytest.raises(UnknownNeighbor):
            on_push_request(states[A], PushRequest(B, 2, 5, 1))


class TestOnReply:
    def _pushed_source(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[S]
        st.label = 1
        out = on_activate(st)
        rids = [m.request_id for _, m in out]
        return st, rids

    def test_nak_rolls_back_exactly(self, example_graph):
        st, rids = self._pushed_source(example_graph)
        before = (st.excess, st.edge_flow[B])
        on_reply(st, Nak(B, rids[1], 5, 1))
        assert st.excess == before[0] + 5
        assert st.edge_flow[B] == before[1] - 5
        assert B not in st.pending

    def test_accept_commits_without_ledger_change(self, example_graph):
        st, rids = self._pushed_source(example_graph)
        flow_a = st.edge_flow[A]
        on_reply(st, Accept(A, rids[0], 10, 0))
        assert st.edge_flow[A] == flow_a
        assert A not in st.pending
        assert st.pending == {B: (rids[1], 5)}

    def test_nak_updates_label_cache(self, example_graph):
        st, rids = self._pushed_source(example_graph)
        on_reply(st, Nak(A, rids[0], 10, 3))
        assert st.neighbor_labels[A] == 3

    def test_unknown_request_id_is_fatal(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        with pytest.raises(UnknownRequestId):
            on_reply(states[S], Accept(A, 424242, 1, 0))

    @pytest.mark.parametrize("forge", [
        lambda rid: Nak(C, rid, 10, 3),  # a node S pushed nothing to
        lambda rid: Accept(B, rid, 10, 0),  # another edge's responder
        lambda rid: Nak(A, rid, 7, 0),  # the right edge, the wrong amount
    ], ids=["non-neighbor", "other-edge", "wrong-amount"])
    def test_reply_must_match_its_edge_push(self, example_graph, forge):
        # each names the request id of S's push of 10 to A, but none
        # matches that push's edge and amount, so none may settle it
        st, rids = self._pushed_source(example_graph)
        with pytest.raises(UnknownRequestId):
            on_reply(st, forge(rids[0]))

    def test_stale_duplicate_reply_is_fatal(self, example_graph):
        st, rids = self._pushed_source(example_graph)
        on_reply(st, Accept(A, rids[0], 10, 0))
        with pytest.raises(UnknownRequestId):
            on_reply(st, Accept(A, rids[0], 10, 0))


class TestRelabel:
    def test_min_plus_one_over_residual_neighbors(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[B]
        st.excess = 5
        st.label = 1
        st.edge_flow[S] = -5  # inflow from S; S is a residual neighbor
        st.neighbor_labels = {S: 1, C: 1}
        update = protocol.relabel(st)
        assert st.label == 2
        assert update.new_label == 2

    def test_single_low_neighbor_gives_label_one(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[A]
        st.excess = 1
        update = protocol.relabel(st)
        assert update.new_label == 1

    def test_no_residual_neighbor_is_protocol_error(self):
        from hushrelay.graph import ChannelGraph

        g = ChannelGraph(3)
        g.open_channel(0, 1, 5, 0)
        g.open_channel(1, 2, 5, 0)
        states = zero_labeled(g, 0, 2, 5)
        st = states[1]
        st.excess = 3  # impossible state: excess with no residual edge anywhere
        st.edge_flow[0] = 0
        st.edge_flow[2] = 5
        with pytest.raises(ProtocolError):
            protocol.relabel(st)


class TestOnLabelUpdate:
    def test_first_update_sets_cache(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        on_label_update(states[C], LabelUpdate(A, 2))
        assert states[C].neighbor_labels[A] == 2

    def test_stale_lower_value_discarded(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[C]
        on_label_update(st, LabelUpdate(A, 4))
        on_label_update(st, LabelUpdate(A, 2))
        assert st.neighbor_labels[A] == 4

    def test_non_neighbor_rejected(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        with pytest.raises(UnknownNeighbor):
            on_label_update(states[A], LabelUpdate(B, 1))


class TestHeardOnly:
    """NodeStates.hear: a LabelUpdate to a node with no state yet."""

    def test_update_to_unbuilt_node_builds_nothing(self, example_graph):
        states = init_instance(example_graph, S, R, 15)
        states.hear(A, LabelUpdate(S, 5))
        assert A not in states
        assert states.heard == {A: {S: 5}}

    def test_stale_lower_value_discarded(self, example_graph):
        states = init_instance(example_graph, S, R, 15)
        states.hear(A, LabelUpdate(S, 5))
        states.hear(A, LabelUpdate(S, 4))
        # below C's first label (1): the build keeps the first label
        states.hear(A, LabelUpdate(C, 0))
        assert states.heard == {A: {S: 5}}
        assert states[A].neighbor_labels == {S: 5, C: 1}

    def test_highest_label_heard_is_cached_once_built(self, example_graph):
        states = init_instance(example_graph, S, R, 15)
        for label in (4, 6, 5):
            states.hear(C, LabelUpdate(A, label))
        states.hear(C, LabelUpdate(R, 3))
        assert C not in states
        st = states[C]
        assert (st.label, st.neighbor_labels) == (1, {A: 6, B: 2, R: 3})
        assert states.heard == {}

    def test_non_neighbor_rejected_and_nothing_built(self, example_graph):
        states = init_instance(example_graph, S, R, 15)
        with pytest.raises(UnknownNeighbor):
            states.hear(A, LabelUpdate(B, 3))
        assert A not in states
        assert states.heard == {}


class TestOnSinkDistance:
    def test_first_wave_over_residual_edge_adopted_and_forwarded(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        out = on_sink_distance(states[C], SinkDistance(R, 0, 1))
        assert states[C].label == 1
        assert [(dest, m.sender, m.label) for dest, m in out] == [
            (A, C, 1),
            (B, C, 1),
            (R, C, 1),
        ]

    def test_adopted_only_once(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[C]
        on_sink_distance(st, SinkDistance(R, 0, 1))
        assert not on_sink_distance(st, SinkDistance(R, 4, 1))
        assert st.label == 1
        assert st.neighbor_labels[R] == 4  # the cache still learns

    def test_never_adopted_across_zero_capacity(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[A]  # channel S-A has no capacity from A toward S
        assert not on_sink_distance(st, SinkDistance(S, 3, 1))
        assert st.label == 0 and not st.reached
        assert st.neighbor_labels[S] == 3
        # a later wave over the residual edge A->C is still adopted
        assert on_sink_distance(st, SinkDistance(C, 1, 1))
        assert st.label == 2

    def test_never_lowers_a_cached_label(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[C]
        st.neighbor_labels[R] = 5
        on_sink_distance(st, SinkDistance(R, 0, 1))
        assert st.neighbor_labels[R] == 5
        assert st.label == 1

    def test_never_lowers_own_label(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[C]
        st.label = 4  # relabeled before the wave arrived
        out = on_sink_distance(st, SinkDistance(R, 0, 1))
        assert st.label == 4
        assert {m.label for _, m in out} == {1}  # the hop distance, not the label

    def test_non_neighbor_rejected(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        with pytest.raises(UnknownNeighbor):
            on_sink_distance(states[A], SinkDistance(B, 1, 1))


    def test_own_in_flight_push_counted_as_rolled_back(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[A]
        st.excess, st.label = 10, 1
        (dest, push), = on_activate(st)  # saturates A->C while in flight
        assert dest == C and st.cap[C] - st.edge_flow[C] == 0
        assert on_sink_distance(st, SinkDistance(C, 1, 2))
        assert st.reached == 2 and st.label == 2

    def test_unadopted_senders_remembered_until_reached(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[A]
        on_sink_distance(st, SinkDistance(S, 3, 2))  # no capacity from A toward S
        assert st.heard == [S] and st.heard_epoch == 2
        on_sink_distance(st, SinkDistance(C, 1, 2))
        assert st.reached == 2 and not st.heard


class TestRefusal:
    def test_cut_off_node_refuses_a_neighbor_that_reaches_r(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[A]
        on_sink_distance(st, SinkDistance(S, 3, 2))
        out = on_push_request(st, PushRequest(S, 0, 5, 4))
        assert out == ((S, Nak(A, 0, 5, 4)),)  # reports the sender's label, so it stops offering
        assert st.label == 0 and st.excess == 0 and st.edge_flow[S] == 0

    def test_sender_above_n_is_not_refused(self, example_graph):
        # under valid labels a node above n cannot reach r any more
        states = zero_labeled(example_graph, S, R, 15)
        st = states[A]
        on_sink_distance(st, SinkDistance(S, 3, 2))
        out = on_push_request(st, PushRequest(S, 0, 5, 6))
        assert out == ((S, Accept(A, 0, 5, 0)),)

    def test_reached_node_accepts_again(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[A]
        on_sink_distance(st, SinkDistance(S, 3, 2))
        on_sink_distance(st, SinkDistance(C, 1, 2))
        out = on_push_request(st, PushRequest(S, 0, 5, 4))
        assert out == ((S, Accept(A, 0, 5, 2)),)


class TestOnCutOff:
    def test_lifts_unreached_node_and_forwards_its_level(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[A]
        out = on_cut_off(st, CutOff(C, 9, 2))
        assert st.label == 10 and st.cut_off == 2
        assert out == [(S, CutOff(A, 10, 2)), (C, CutOff(A, 10, 2))]

    def test_taken_once_per_epoch_but_always_cached(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[C]
        on_cut_off(st, CutOff(R, 9, 2))
        assert not on_cut_off(st, CutOff(R, 12, 2))
        assert st.label == 10 and st.neighbor_labels[R] == 12
        assert on_cut_off(st, CutOff(R, 12, 3))  # the next epoch lifts again
        assert st.label == 13

    def test_never_lowers_own_label(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[C]
        st.label = 20
        out = on_cut_off(st, CutOff(R, 9, 2))
        assert st.label == 20
        assert {m.label for _, m in out} == {10}

    def test_node_reached_this_epoch_only_caches(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[C]
        on_sink_distance(st, SinkDistance(R, 0, 2))
        assert not on_cut_off(st, CutOff(A, 9, 2))
        assert st.label == 1 and st.neighbor_labels[A] == 9

    def test_never_taken_across_zero_capacity(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[A]  # no capacity from A toward S
        assert not on_cut_off(st, CutOff(S, 9, 2))
        assert st.label == 0 and st.cut_off == 0

    def test_blocked_by_residual_toward_a_node_that_reached_r(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        st = states[A]
        on_sink_distance(st, SinkDistance(S, 3, 2))
        st.edge_flow[S] = -5  # S has since pushed 5 into A: A can reach S now
        assert not on_cut_off(st, CutOff(C, 9, 2))
        assert st.label == 0

    def test_non_neighbor_rejected(self, example_graph):
        states = zero_labeled(example_graph, S, R, 15)
        with pytest.raises(UnknownNeighbor):
            on_cut_off(states[A], CutOff(B, 9, 2))


class TestExtractOutcome:
    def test_full_delivery_outcome(self, example_graph):
        out = Simulator(example_graph, S, R, 15, SimConfig(seed=1)).run()
        assert out.delivered == 15
        assert out.returned == 0
        assert out.flow.value == 15
        assert out.delivered + out.returned == 15

    def test_partial_delivery_returns_excess(self, example_graph):
        out = Simulator(example_graph, S, R, 25, SimConfig(seed=1)).run()
        assert out.delivered == 20
        assert out.returned == 5

    def test_single_channel_single_path(self):
        from hushrelay.graph import ChannelGraph

        g = ChannelGraph(2)
        g.open_channel(0, 1, 1, 0)
        out = Simulator(g, 0, 1, 1, SimConfig(seed=1)).run()
        assert out.delivered == 1
        assert out.flow.positive_edges() == {(0, 1): 1}

    @pytest.mark.parametrize("zeroed", [A, C])
    def test_one_sided_ledger_rejected(self, example_graph, zeroed):
        # any 15-unit flow sends at least 5 over A->C; wipe one side's entry,
        # and the check must catch it from the other, whichever sign it has
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=1))
        sim.run()
        sim.states[zeroed].edge_flow[A + C - zeroed] = 0
        with pytest.raises(ProtocolError, match=r"ledger mismatch on channel \(1, 3\)"):
            sim.outcome()

    def test_terminal_excess_at_relay_rejected(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=1))
        sim.run()
        sim.states[A].excess = 1
        with pytest.raises(ProtocolError, match=rf"terminal excess 1 at node {A}"):
            sim.outcome()

    def test_value_not_accounted_for_rejected(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=1))
        sim.run()
        sim.states[sim._rp].excess -= 1
        with pytest.raises(ProtocolError, match=r"delivered 14 \+ returned 0 != routed value 15"):
            sim.outcome()

    def test_not_terminated_rejected(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=1))
        while not any(st.pending for st in sim.states.values()):
            assert step(sim)
        with pytest.raises(protocol.NotTerminated):
            sim.outcome()
