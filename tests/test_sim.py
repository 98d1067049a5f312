import hashlib
import io

import pytest

from hushrelay import cli, protocol
from hushrelay.graph import ChannelGraph
from hushrelay.netfile import dumps_network, loads_network
from hushrelay.protocol import Nak, NodeStates, ProtocolError
from hushrelay.sim import (
    MAX_DELAY,
    EventBudgetExhausted,
    LatencyModel,
    SimConfig,
    Simulator,
)
from hushrelay.topology import BAConfig, generate_ba

from .conftest import A, B, R, S
from .oracles import public_hops, quiescent, step


class TestLatencyModel:
    @pytest.mark.parametrize("spec", ["const:3", "uniform:1:10"])
    def test_dispatch_draws_each_delay_from_the_model(self, spec):
        # the delivery ticks of real runs: on one channel, S's push at tick 0
        # is the first delivery, so it lands after exactly one drawn delay
        latency = LatencyModel.parse(spec)
        g = ChannelGraph(2)
        g.open_channel(0, 1, 10, 0)
        firsts = []
        for seed in range(8):
            buf = io.StringIO()
            Simulator(g, 0, 1, 5, SimConfig(seed=seed, latency=latency), trace=buf).run()
            ticks = [int(line.split()[0][2:]) for line in buf.getvalue().splitlines()]
            assert latency.lo <= ticks[0] <= latency.hi
            if latency.lo == latency.hi:
                assert all(t % latency.lo == 0 for t in ticks)
            firsts.append(ticks[0])
        # the seed drives the draws: a uniform model does not repeat one delay
        assert (len(set(firsts)) > 1) == (latency.lo < latency.hi)

    def test_parse_forms(self):
        assert LatencyModel.parse("const:2") == LatencyModel.constant(2)
        assert LatencyModel.parse("uniform:1:10") == LatencyModel(1, 10)

    @pytest.mark.parametrize("bad", [
        "const:0", "uniform:0:5", "uniform:5:1", "nope", "const:x", "uniform:1:1000000000",
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            LatencyModel.parse(bad)

    # a zero delay breaks the event ring's order, lo > hi and negative
    # delays fail mid-run, and hi sizes the ring
    @pytest.mark.parametrize("lo, hi", [(0, 0), (3, 2), (-2, -1), (1, MAX_DELAY + 1)])
    def test_direct_construction_checks_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="MAX_DELAY"):
            LatencyModel(lo, hi)


class TestRun:
    def test_worked_example_terminates_with_full_delivery(self, example_graph):
        out = Simulator(example_graph, S, R, 15, SimConfig(seed=0)).run()
        assert out.delivered == 15

    def test_isolated_sink_returns_everything(self):
        g = ChannelGraph(3)
        g.open_channel(0, 1, 50, 50)
        out = Simulator(g, 0, 2, 9, SimConfig(seed=0)).run()
        assert out.delivered == 0
        assert out.returned == 9

    def test_isolated_source_returns_everything(self):
        g = ChannelGraph(3)
        g.open_channel(1, 2, 50, 50)
        out = Simulator(g, 0, 2, 9, SimConfig(seed=0)).run()
        assert out.delivered == 0
        assert out.returned == 9

    def test_same_seed_same_trace(self, example_graph):
        traces = []
        for _ in range(2):
            buf = io.StringIO()
            Simulator(example_graph, S, R, 15, SimConfig(seed=42), trace=buf).run()
            traces.append(buf.getvalue())
        assert traces[0] == traces[1]
        assert traces[0]  # non-empty

    def test_different_seed_may_change_trace_not_outcome(self, example_graph):
        cfg_a = SimConfig(seed=1, latency=LatencyModel(1, 10))
        cfg_b = SimConfig(seed=2, latency=LatencyModel(1, 10))
        out_a = Simulator(example_graph, S, R, 15, cfg_a).run()
        out_b = Simulator(example_graph, S, R, 15, cfg_b).run()
        assert out_a.delivered == out_b.delivered == 15

    def test_trace_field_order(self, example_graph):
        buf = io.StringIO()
        Simulator(example_graph, S, R, 15, SimConfig(seed=0), trace=buf).run()
        first = buf.getvalue().splitlines()[0].split()
        assert first[0].startswith("t=")
        assert first[4].startswith("δ=")
        assert first[5].startswith("d_from=")
        assert first[6].startswith("d_to=")

    def test_event_budget_exhaustion_carries_state(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0))
        sim.max_events = 3
        with pytest.raises(EventBudgetExhausted) as exc:
            sim.run()
        assert exc.value.sim.events_dispatched > 0

    def test_label_bound_checked_without_invariant_checks(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0, check_invariants=False))
        # corrupted caches: S's first relabel lands one above 2(n+2) = 14
        src = sim.states[S]
        for w in src.neighbor_labels:
            src.neighbor_labels[w] = 14
        with pytest.raises(ProtocolError, match="node 0 label 15 exceeds bound 14"):
            sim.run()

    def test_simulated_time_is_last_delivery(self, example_graph):
        out = Simulator(example_graph, S, R, 15, SimConfig(seed=0)).run()
        # hand-checked constant-latency schedule: S starts at its hop
        # distance 3 and pushes 10/5 to A/B (labels 2) at t=0; they arrive at
        # t=1, and A and B push to C (label 1), arriving at t=2; C pushes 15
        # to R (t=3); R accepts at label 0, relabels to 1 and pushes to the
        # virtual sink (t=4), whose Accept arrives at t=5
        assert out.simulated_time == 5

    def test_source_pushes_at_tick_zero(self, example_graph):
        # no wave to wait for: the first event is S's activation, which
        # pushes along its hop distances before any message is delivered
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0))
        assert step(sim)
        assert (sim.simulated_time, sim.messages_sent, sim.messages_delivered) == (0, 2, 0)
        assert sim.states[S].pending == {A: (0, 10), B: (1, 5)}


class TestQuiescent:
    def test_false_right_after_init(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0))
        assert not quiescent(sim)

    def test_true_after_completion(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0))
        sim.run()
        assert quiescent(sim)

    def test_false_with_reply_in_flight(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0))
        # step until the first push request has been applied at the sender
        while not any(st.pending for st in sim.states.values()):
            assert step(sim)
        assert not quiescent(sim)


class TestDelivery:
    def test_every_sent_message_delivered_exactly_once(self, example_graph):
        sim = Simulator(example_graph, S, R, 25, SimConfig(seed=3))
        sim.run()
        assert sim.messages_delivered == sim.messages_sent

    def test_no_delivery_after_quiescence(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=3))
        sim.run()
        delivered = sim.messages_delivered
        assert not step(sim)
        assert sim.messages_delivered == delivered


class TestDeterminism:
    def test_metrics_identical_across_runs(self, example_graph):
        outs = [Simulator(example_graph, S, R, 15, SimConfig(seed=9)).run() for _ in range(2)]
        assert outs[0].messages_sent == outs[1].messages_sent
        assert outs[0].relabels == outs[1].relabels
        assert outs[0].simulated_time == outs[1].simulated_time
        assert outs[0].flow == outs[1].flow

    def test_delivery_schedule_robustness(self, example_graph):
        # outcome must not depend on the latency schedule
        delivered = {
            Simulator(
                example_graph, S, R, 25, SimConfig(seed=s, latency=LatencyModel(1, 10))
            ).run().delivered
            for s in range(20)
        }
        assert delivered == {20}


def bridged_graph(n_far: int, n_near: int, seed: int) -> ChannelGraph:
    """A BA network 0..n_far-1 (capacities 20-100) and a ring of n_near nodes (50 each way), joined by one channel of 5."""
    ba = generate_ba(BAConfig(n=n_far, m_attach=2, cap_range=(20, 100), seed=seed))
    g = ChannelGraph(n_far + n_near)
    for ch in ba.channels():
        g.open_channel(*ch)
    for i in range(n_near):
        g.open_channel(n_far + i, n_far + (i + 1) % n_near, 50, 50)
    g.open_channel(n_far, 0, 5, 5)
    return g


class TestSinkDistanceWave:
    @pytest.mark.parametrize("pick", range(6))
    def test_unrelabeled_labels_are_hop_distances(self, pick):
        # zero-capacity directions make some residual distances longer than
        # the public hop distances the labels start from; relabels repair
        # those, and every other node keeps its first label
        g = generate_ba(BAConfig(n=150, m_attach=2, cap_range=(0, 3), seed=pick))
        s, r = 3 * pick + 1, 7 * pick + 2
        buf = io.StringIO()
        sim = Simulator(g, s, r, 2, SimConfig(seed=pick), trace=buf)
        assert sim.run().global_relabels == 0  # no wave lifted a label
        hops = public_hops(g, r)
        lines = [line.split() for line in buf.getvalue().splitlines()]
        # a node other than s does nothing before its first message arrives,
        # so the label that message finds (d_to) is its first label
        first = {}
        for f in lines:
            first.setdefault(int(f[3]), int(f[6].removeprefix("d_to=")))
        relays = [v for v in first if v < g.n and v != s]
        assert {v: first[v] for v in relays} == {v: hops[v] for v in relays}
        # every relabel broadcasts a label_update to each channel neighbor;
        # a node that heard nothing else has no state, and its label is the
        # first label NodeStates.label gives without building one
        relabeled = {int(f[2]) for f in lines if f[1] == "label_update"}
        receivers = [*sim.states, *sim.states.heard]
        unrelabeled = [v for v in receivers if v < g.n and v not in relabeled]
        assert len(unrelabeled) > len(relabeled)
        for v in unrelabeled:
            if v in sim.states:
                assert sim.states[v].label == hops[v], v
            else:
                assert sim.states.label(v) == hops[v], v
                assert v not in sim.states

    def test_one_trace_line_per_forwarding_edge(self):
        # 30 units from the ring to node 9 cross the 5-unit bridge, so the
        # epoch-2 wave reaches every node of the BA side and no ring node
        g = bridged_graph(10, 4, 1)
        buf = io.StringIO()
        sim = Simulator(g, 12, 9, 30, SimConfig(seed=0), trace=buf)
        out = sim.run()
        assert (out.delivered, out.global_relabels) == (5, 1)
        lines = [line.split() for line in buf.getvalue().splitlines()]
        wave = sorted((int(f[2]), int(f[3])) for f in lines if f[1] == "sink_distance")
        reached = [v for v in sim.states if v < g.n and sim.states[v].reached == 2]
        assert sorted(reached) == [*range(10)]
        # each reached node forwards once to every channel neighbor: 34 lines
        # inside the BA side, and one over the bridge
        forwarding = sorted((v, w) for v in range(10) for w in g.cap[v])
        assert wave == forwarding
        assert len(wave) == 2 * 17 + 1
        assert out.messages_sent == len(lines)

    def test_unreached_source_drains_back_under_run_and_step(self, example_graph):
        # every channel has zero capacity toward S, so R has no residual
        # channel and returns everything to the feeder, by run() and step()
        # alike
        out = Simulator(example_graph, R, S, 15, SimConfig(seed=0)).run()
        assert out.delivered == 0
        assert out.returned == 15
        stepped = Simulator(example_graph, R, S, 15, SimConfig(seed=0))
        while step(stepped):
            pass
        assert quiescent(stepped)
        assert stepped.outcome() == out


class TestLazyStates:
    def test_feasible_desk_scale_payment_builds_few_states(self, monkeypatch):
        # a `small`-like payment: 33 units, 20 messages
        g = generate_ba(BAConfig(n=1000, m_attach=2, cap_range=(20, 100), seed=61))
        sim = Simulator(g, 637, 261, 33, SimConfig(seed=0))
        out = sim.run()
        assert (out.delivered, out.messages_sent, out.informed_relays) == (33, 20, 8)
        # of the 8 relays, 5 are built beside s, r and the virtual endpoints,
        # of 1002, and 3 only heard a label update
        assert (len(sim.states), len(sim.states.heard)) == (9, 3)
        built, heard = dict(sim.states), dict(sim.states.heard)

        def build(states, v):
            raise AssertionError(f"built the state of node {v}")

        monkeypatch.setattr(NodeStates, "__missing__", build)
        assert sim.outcome() == out
        assert quiescent(sim)
        assert (sim.states, sim.states.heard) == (built, heard)
        monkeypatch.undo()
        # a heard-only relay was already counted; only building a node no
        # message reached raises the count
        sim.states[next(iter(heard))]
        assert sim.outcome().informed_relays == 8
        sim.states[next(v for v in range(g.n) if v not in sim.states)]
        assert sim.outcome().informed_relays == 9

    def test_label_update_to_unbuilt_node_builds_no_state(self):
        # x - s - y - r, and z beyond y: s has no capacity toward y, so its
        # excess climbs against x and drains back.  y hears s relabel twice
        # before the epoch-2 wave reaches it and builds its state: the
        # fifth relabel (s, x, s, x, s) brings the work to 3 * 14 + 2 * 13,
        # 2(6n + m) = 68, and starts that wave
        x, s, y, r, z = range(5)
        g = ChannelGraph(5)
        g.open_channel(s, x, 10, 0)
        g.open_channel(s, y, 0, 5)
        g.open_channel(y, r, 5, 5)
        g.open_channel(y, z, 1, 1)
        buf = io.StringIO()
        sim = Simulator(g, s, r, 5, SimConfig(seed=0), trace=buf)
        while y not in sim.states:
            before = sorted(sim.states), {v: dict(h) for v, h in sim.states.heard.items()}
            assert step(sim)
        assert before == ([x, s, r, 5, 6], {y: {s: 6}})
        # built by the wave, y caches the highest label it heard
        assert sim.states[y].neighbor_labels == {s: 6, r: 0, z: 2}
        assert sim.states.heard == {}
        out = sim.run()
        assert (out.delivered, out.returned, out.global_relabels) == (0, 5, 1)
        # x, y, and z, which y's wave message built
        assert out.informed_relays == 3
        to_y = [f[1] for f in map(str.split, buf.getvalue().splitlines()) if int(f[3]) == y]
        assert to_y == ["label_update", "label_update", "sink_distance", "label_update", "sink_distance"]
        assert sorted(sim.states) == [x, s, y, r, z, 5, 6]
        # s's last relabel took it to 8, past the feeder's n+2
        assert sim.states[s].label == 8
        assert sim.states[y].neighbor_labels == {s: 8, r: 0, z: 2}
        assert sim.states.heard == {}

    def test_traced_run_builds_the_states_an_untraced_run_builds(self):
        # payments on a BA network under jittered latency
        g = generate_ba(BAConfig(n=300, m_attach=2, cap_range=(20, 100), seed=61))
        cfg = SimConfig(seed=5, latency=LatencyModel.parse("uniform:1:10"))
        for s, r, val in [(17, 250, 60), (3, 120, 90), (200, 41, 45)]:
            runs = []
            for trace in (None, io.StringIO()):
                sim = Simulator(g, s, r, val, cfg, trace=trace)
                runs.append((sim.run(), dict(sim.states), sim.states.heard))
            assert runs[0] == runs[1]
            assert runs[0][2]  # some node only heard label updates

    @pytest.mark.parametrize("graph, s, r, val, latency, expected", [
        ("example", S, R, 15, "const:1", 3),
        # above max-flow: the later epoch's waves reach every relay
        ("drain", 22, 20, 189, "uniform:1:10", 98),
    ])
    def test_informed_relays_are_the_distinct_receivers(
        self, example_graph, drain_graph, graph, s, r, val, latency, expected
    ):
        g = example_graph if graph == "example" else drain_graph
        buf = io.StringIO()
        cfg = SimConfig(seed=196, latency=LatencyModel.parse(latency))
        out = Simulator(g, s, r, val, cfg, trace=buf).run()
        receivers = {int(line.split()[3]) for line in buf.getvalue().splitlines()}
        informed = receivers - {s, r} - {g.n, g.n + 1}
        assert out.informed_relays == len(informed) == expected


@pytest.fixture(scope="module")
def drain_graph():
    return generate_ba(BAConfig(n=100, m_attach=2, cap_range=(20, 100), seed=61))


class TestGlobalRelabeling:
    """Deterministic counters: infeasible payments drain through epochs, feasible ones need none."""

    # (s, r, value) with max-flow 104, 114 and 152; each min cut leaves at
    # least half the network on the sender's side.  Before global
    # relabeling each took about 49.6k messages and 6.1k relabels.
    @pytest.mark.parametrize("s, r, val, max_flow", [
        (53, 93, 143, 104), (72, 94, 134, 114), (43, 61, 160, 152),
    ])
    def test_drain_payment_is_cheap(self, drain_graph, s, r, val, max_flow):
        out = Simulator(drain_graph, s, r, val, SimConfig(seed=0)).run()
        assert out.delivered == max_flow
        assert out.global_relabels >= 1
        assert out.messages_sent < 10_000

    def test_epoch_starts_after_fixed_relabel_work(self, drain_graph, monkeypatch):
        # Cherkassky & Goldberg's global-update frequency: each relabel of v
        # is 12 + deg(v) work, and epoch 2's wave starts at the relabel that
        # brings the work to 2(6n + m), not at relabel 2n
        sim = Simulator(drain_graph, 53, 93, 143, SimConfig(seed=0))
        relabeled = []  # (degree, epoch when the relabel began)
        handler = protocol.relabel

        def watch(v):
            relabeled.append((len(v.channel_neighbors), sim.epoch))
            return handler(v)

        monkeypatch.setattr(protocol, "relabel", watch)
        out = sim.run()
        assert out.global_relabels == 1
        n, m = drain_graph.n, drain_graph.channel_count
        work = 0
        for count, (degree, _) in enumerate(relabeled, 1):
            work += 12 + degree
            if work >= 2 * (6 * n + m):
                break
        # the relabel after that one is the first to run in epoch 2
        assert [epoch for _, epoch in relabeled[count - 1:count + 1]] == [1, 2]
        assert count != 2 * n
        assert out.relabels == len(relabeled)

    def test_worked_example_needs_no_epoch(self, example_graph):
        assert Simulator(example_graph, S, R, 15, SimConfig(seed=0)).run().global_relabels == 0

    def test_feasible_desk_scale_payment_needs_no_epoch(self):
        g = generate_ba(BAConfig(n=1000, m_attach=2, cap_range=(20, 100), seed=61))
        out = Simulator(g, 913, 475, 49, SimConfig(seed=0)).run()
        assert out.delivered == 49
        assert out.global_relabels == 0

    def test_every_wave_message_is_counted_and_traced(self):
        # 30 units from the ring to node 29 cross the 5-unit bridge; the
        # epoch-2 wave reaches all 30 nodes of the BA side, and each forwards
        # to all its channel neighbors: 2 * 57 messages inside, one over the
        # bridge.  The cut-off wave then lifts the ring the same way: 2 * 8
        # messages inside, one over the bridge.
        g = bridged_graph(30, 8, 1)
        buf = io.StringIO()
        out = Simulator(g, 34, 29, 30, SimConfig(seed=0), trace=buf).run()
        kinds = [line.split()[1] for line in buf.getvalue().splitlines()]
        assert len(kinds) == out.messages_sent
        assert out.global_relabels == 1
        assert kinds.count("sink_distance") == 2 * 57 + 1
        assert kinds.count("cut_off") == 2 * 8 + 1

    def test_cut_off_region_never_regains_a_path_to_r(self, monkeypatch):
        # The refusal rule exists for this network: when every payment
        # opened with a wave, routing 54 from 21 to 28 without it let node
        # 30, which the epoch-2 wave missed, accept a push from node 19,
        # which the wave reached, after node 29 had taken a cut-off level
        # over its residual channel to 30; the source returned 3 units that
        # could still have been delivered.  Routing 28 from 34 to 28 runs two
        # later epochs, and nodes 25 and 36, which the epoch-2 wave missed,
        # refuse 3 pushes from nodes 30 and 17, which it reached.
        refused = []
        handler = protocol.on_push_request

        def watch(v, m):
            out = handler(v, m)
            if type(out[0][1]) is Nak and v.label < m.sender_label:
                refused.append((v.id, m.sender))
            return out

        monkeypatch.setattr(protocol, "on_push_request", watch)
        g = loads_network(CUT_OFF_RACE_NET)
        out = Simulator(g, 34, 28, 28, SimConfig(seed=0)).run()
        assert out.global_relabels == 2
        assert sorted(set(refused)) == [(25, 30), (36, 17)] and len(refused) == 3
        assert out.delivered == 4 and out.returned == 24



def trace_digest(
    g: ChannelGraph, s: int, r: int, val: int, latency: str, seed: int, stepped: bool = False
):
    """run()'s outcome and the sha256 of its trace; with `stepped`, driven by step() first."""
    buf = io.StringIO()
    sim = Simulator(g, s, r, val, SimConfig(seed=seed, latency=LatencyModel.parse(latency)), buf)
    while stepped and step(sim):
        pass
    return sim.run(), hashlib.sha256(buf.getvalue().encode()).hexdigest()


class TestPinnedSchedule:
    """The exact delivery schedule, pinned by the sha256 of the trace text.

    A deliberate change to the schedule must update these digests and say
    why in CHANGES.md.
    """

    def test_worked_example_under_jitter(self, example_graph):
        # criterion 9's route command
        _, digest = trace_digest(example_graph, S, R, 15, "uniform:1:10", 4)
        assert digest == "b4e0971171f83d0bbe0480d02975530cf751783b2e1ea8141f8e351217034004"

    def test_worked_example_under_constant_delay(self, example_graph):
        # every message takes 3 ticks, so most ticks carry no event: S -> A
        # -> C -> R -> virtual sink, and that Accept, are five hops
        out, digest = trace_digest(example_graph, S, R, 15, "const:3", 0)
        assert (out.delivered, out.simulated_time) == (15, 15)
        assert digest == "ddc59027662f6905a7e358a3c682b104fb875a662736122a84dddb9227f5eab7"

    def test_drain_payment_with_an_epoch(self, drain_graph):
        out, digest = trace_digest(drain_graph, 53, 93, 143, "uniform:1:3", 0)
        assert (out.global_relabels, out.messages_sent) == (1, 1211)
        assert digest == "481076cfff71f99593cc56333368f836c4536cd960c97f81f808c4749a21cb0c"

    def test_drain_payment_under_wide_jitter(self, drain_graph):
        # delays of 5 to 60 ticks over 5995 ticks: the event ring of 61
        # slots wraps around over 90 times, and some ticks carry no event
        out, digest = trace_digest(drain_graph, 53, 93, 143, "uniform:5:60", 0)
        assert (out.global_relabels, out.messages_sent, out.simulated_time) == (1, 1234, 5995)
        assert digest == "8e23d49aa65bd25ecf38602326322981929c2d56ef554fdd21d222e94b1271c9"

    @pytest.mark.parametrize("latency, messages, ticks, digest", [
        # a span of 8, a power of two: a draw takes 4 bits and redraws 8-15
        ("uniform:1:8", 1229, 806, "1cd60e4a690f4e8a3f41287ebd94cb1dff86ee070fe36028f6a8977188ed9ca3"),
        # a span of 2: a draw takes 2 bits and redraws 2 and 3
        ("uniform:1:2", 1232, 266, "75d0dd4122fd481b61e1863cd0f098d81da5a3ca39c6fcf181df01bdda9c5123"),
    ])
    def test_drain_payment_under_narrow_jitter(self, drain_graph, latency, messages, ticks, digest):
        out, got = trace_digest(drain_graph, 53, 93, 143, latency, 0)
        assert (out.global_relabels, out.messages_sent, out.simulated_time) == (1, messages, ticks)
        assert got == digest

    def test_payment_that_rolls_back_an_in_flight_push(self, monkeypatch):
        # 160 units from 2 to 1 on four nodes, max-flow 147: two later epochs
        # and 106 messages.  Node 3 hears the epoch-3 wave from node 1 while
        # its push in flight saturates the channel to 1, so only the
        # roll-back rule finds that residual edge.
        rolled_back = []
        handler = protocol.on_sink_distance

        def watch(v, m):
            if v.cap[m.sender] - v.edge_flow[m.sender] <= 0 and m.sender in v.pending:
                rolled_back.append((v.id, m.sender, m.epoch))
            return handler(v, m)

        monkeypatch.setattr(protocol, "on_sink_distance", watch)
        out, digest = trace_digest(loads_network(ROLL_BACK_NET), 2, 1, 160, "uniform:1:10", 20)
        assert rolled_back == [(3, 1, 3)]
        assert (out.delivered, out.global_relabels, out.messages_sent) == (147, 2, 106)
        assert digest == "a3824f0fd9ad396379c83cf9cc612e95a31b8714b0c6c3936fe902ddba5e77fc"

    def test_step_reproduces_run_on_the_roll_back_payment(self):
        # step() returns mid-tick with activations still queued in the
        # tick's slot, and must resume them in the order run() gives
        g = loads_network(ROLL_BACK_NET)
        ran = trace_digest(g, 2, 1, 160, "uniform:1:10", 20)
        assert trace_digest(g, 2, 1, 160, "uniform:1:10", 20, stepped=True) == ran


class TestPinnedPipeline:
    """The whole bench pipeline's output, pinned by the sha256 of its JSON report.

    One digest covers oracle feasibility, amounts delivered, messages,
    relabels, simulated time and epochs.  A deliberate change to any of them
    must update it and say why in CHANGES.md.
    """

    def test_bench_json_on_a_ba_network(self, tmp_path):
        # 42 feasible and 18 infeasible payments on n=100
        out = tmp_path / "bench.json"
        assert cli.main([
            "bench", "--nodes", "100", "--txns", "60", "--val-max", "200", "--seed", "5",
            "--latency", "uniform:1:3", "--format", "json", "--out", str(out),
        ]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "2872703e31d8a45fe6b7660238df5d5bdb0bace9a329684725927df49b3cfcd4"


class TestGraphUntouched:
    # the node states share the graph's capacity dicts; s and r, which gain
    # a virtual peer, must get copies
    @pytest.mark.parametrize("s, r, val", [(53, 93, 143), (93, 53, 40)])
    def test_routing_leaves_the_graph_untouched(self, s, r, val):
        g = generate_ba(BAConfig(n=100, m_attach=2, cap_range=(20, 100), seed=61))
        text = dumps_network(g)
        Simulator(g, s, r, val, SimConfig(seed=0)).run()
        assert g.n not in g.cap[s]
        assert g.n + 1 not in g.cap[r]
        assert dumps_network(g) == text
        assert g == loads_network(text)


# a complete graph on four nodes; max-flow 2 -> 1 is 147
ROLL_BACK_NET = """\
pcn 4
chan 0 1 5 56
chan 0 2 63 85
chan 0 3 13 58
chan 1 2 57 56
chan 1 3 19 86
chan 2 3 81 84
"""

# 37 nodes, some channel directions without capacity; max-flow 21 -> 28 is 15
CUT_OFF_RACE_NET = """\
pcn 37
chan 0 17 7 25
chan 0 24 24 12
chan 0 33 0 24
chan 1 36 20 0
chan 2 31 12 6
chan 3 5 9 0
chan 3 8 0 22
chan 3 22 0 27
chan 3 26 0 24
chan 4 19 0 0
chan 4 20 8 27
chan 4 26 1 0
chan 5 14 29 16
chan 6 7 0 0
chan 6 14 0 18
chan 6 23 17 0
chan 7 20 14 0
chan 7 32 13 16
chan 7 34 0 0
chan 8 23 0 1
chan 8 34 30 19
chan 9 16 5 29
chan 9 18 9 29
chan 9 19 0 29
chan 10 21 10 0
chan 10 29 22 4
chan 11 24 0 0
chan 11 27 6 0
chan 11 34 0 22
chan 12 18 0 0
chan 12 30 11 0
chan 13 23 0 0
chan 14 19 6 0
chan 14 20 13 0
chan 17 19 19 10
chan 17 22 0 0
chan 17 36 10 0
chan 18 19 1 3
chan 19 24 0 0
chan 19 30 23 0
chan 20 22 0 12
chan 21 28 15 0
chan 21 31 16 0
chan 22 28 0 6
chan 25 30 0 30
chan 26 36 0 0
chan 28 30 0 0
chan 28 31 6 0
chan 29 30 17 13
chan 29 34 0 0
"""
