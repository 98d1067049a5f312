import hashlib
import io

import pytest

from hushrelay import cli, protocol
from hushrelay.graph import ChannelGraph
from hushrelay.netfile import dumps_network, loads_network
from hushrelay.protocol import Nak, NodeOutOfRange, NodeStates, ProtocolError, ReplayedRequest
from hushrelay.sim import (
    MAX_DELAY,
    RELABEL_WORK,
    EventBudgetExhausted,
    LatencyModel,
    SimConfig,
    Simulator,
)
from hushrelay.topology import BAConfig, generate_ba

from .conftest import A, B, C, R, S
from .oracles import (
    HANDLERS,
    check_node_invariants,
    invariants_checked,
    public_hops,
    quiescent,
    step,
)


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
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0))
        # corrupted caches: S's first relabel lands one above 2(n+2) = 14
        src = sim.states[S]
        for w in src.neighbor_labels:
            src.neighbor_labels[w] = 14
        with pytest.raises(ProtocolError, match="node 0 label 15 exceeds bound 14"):
            sim.run()

    @pytest.mark.parametrize("s, r, bad", [(99, R, 99), (S, -1, -1)])
    def test_node_outside_the_network_rejected(self, example_graph, s, r, bad):
        with pytest.raises(NodeOutOfRange, match=f"node {bad} out of range 0..4"):
            Simulator(example_graph, s, r, 15, SimConfig(seed=0))

    def test_duplicated_push_request_fails_the_run(self, example_graph, monkeypatch):
        # S's first push, of 10 to A, is delivered twice: A applies the first
        # copy and refuses the second before its ledger changes
        handler = protocol.on_activate

        def duplicate_first_push(v):
            out = list(handler(v))
            if v.id == S and v.next_request == 2:
                out.insert(1, out[0])
            return out

        monkeypatch.setattr(protocol, "on_activate", duplicate_first_push)
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0))
        with pytest.raises(ReplayedRequest, match="node 1 got push 0 from 0 after push 0"):
            sim.run()
        a = sim.states[A]
        assert (a.excess, a.edge_flow[S]) == (10, -10)

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


def past_capacity(on_activate):
    """on_activate as if every capacity were doubled: it pushes past residual capacity."""

    def call(v):
        cap = v.cap
        v.cap = {w: 2 * c for w, c in cap.items()}
        try:
            return on_activate(v)
        finally:
            v.cap = cap

    return call


def ignoring_the_lift(on_activate):
    """on_activate as if no cut-off wave had lifted the node: it pushes over any residual edge."""

    def call(v):
        cut_off = v.cut_off
        v.cut_off = 0
        try:
            return on_activate(v)
        finally:
            v.cut_off = cut_off

    return call


class TestInvariantOracle:
    @pytest.mark.parametrize("breach, message", [
        (lambda st: setattr(st, "excess", -1), "node 1 has negative excess -1"),
        (lambda st: st.edge_flow.__setitem__(C, 11), r"flow f\(1,3\)=11 exceeds capacity 10"),
        (lambda st: setattr(st, "label", 15), "node 1 label 15 exceeds bound 14"),
    ], ids=["negative-excess", "over-capacity", "label-bound"])
    def test_each_breach_raises(self, example_graph, breach, message):
        st = Simulator(example_graph, S, R, 15, SimConfig(seed=0)).states[A]
        check_node_invariants(st, example_graph.n)
        breach(st)
        with pytest.raises(ProtocolError, match=message):
            check_node_invariants(st, example_graph.n)

    def test_push_past_capacity_fails_the_run(self, example_graph, monkeypatch):
        broken = past_capacity(protocol.on_activate)
        monkeypatch.setattr(protocol, "on_activate", broken)
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0))
        with invariants_checked(example_graph):
            with pytest.raises(ProtocolError, match=r"flow f\(0,1\)=15 exceeds capacity 10"):
                sim.run()
        assert protocol.on_activate is broken  # the block restores what it wrapped

    def test_lifted_push_outward_fails_the_run(self, monkeypatch):
        # the ring's excess crosses the bridge's 5 units and drains back;
        # a lifted ring node that pushes on along its outflow is caught
        monkeypatch.setattr(protocol, "on_activate", ignoring_the_lift(protocol.on_activate))
        g = bridged_graph(30, 8, 1)
        sim = Simulator(g, 34, 29, 30, SimConfig(seed=0))
        with invariants_checked(g):
            with pytest.raises(ProtocolError, match="lifted node 31 pushed to 30, which had sent it no flow"):
                sim.run()
        # the same run, unbroken, passes the oracle
        monkeypatch.undo()
        with invariants_checked(g):
            assert Simulator(g, 34, 29, 30, SimConfig(seed=0)).run().delivered == 5

    def test_sink_pushing_back_after_final_delivery_fails_the_run(self, drain_graph, monkeypatch):
        # 143 from 53 to 93: every channel into r is saturated at 104, below
        # the value; an r that then pushes once back to its first channel
        # neighbor moves its ledger, and the oracle stops the run there
        g, r = drain_graph, 93
        handler = protocol.on_activate
        first = min(g.cap[r])
        pushed_back = []

        def pushing_back(v):
            if v.id == r and not pushed_back and all(g.cap[w][r] + v.edge_flow[w] == 0 for w in g.cap[r]):
                pushed_back.append(v.excess)
                v.neighbor_labels[first] = 0
            return handler(v)

        monkeypatch.setattr(protocol, "on_activate", pushing_back)
        with invariants_checked(g):
            with pytest.raises(ProtocolError, match="sink 93's ledger moved after delivery was final"):
                Simulator(g, 53, r, 143, SimConfig(seed=0)).run()
        assert pushed_back and pushed_back[0] > 0
        # the same run, unbroken, passes the oracle
        monkeypatch.undo()
        with invariants_checked(g):
            assert Simulator(g, 53, r, 143, SimConfig(seed=0)).run().delivered == 104

    def test_wraps_every_handler_inside_the_block_only(self, example_graph):
        handlers = {name: getattr(protocol, name) for name in HANDLERS}
        with invariants_checked(example_graph):
            assert all(getattr(protocol, name) is not h for name, h in handlers.items())
        assert {name: getattr(protocol, name) for name in HANDLERS} == handlers


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


def stalled_graph() -> ChannelGraph:
    """x - s - y - r on nodes 0-3, with z (4) beyond y: s has no capacity toward y."""
    x, s, y, r, z = range(5)
    g = ChannelGraph(5)
    g.open_channel(s, x, 10, 0)
    g.open_channel(s, y, 0, 5)
    g.open_channel(y, r, 5, 5)
    g.open_channel(y, z, 1, 1)
    return g


def stepped_relabels(sim: Simulator, monkeypatch):
    """Step sim to the end: each relabel's work, r's absorbed amount just after it, and each later epoch's start.

    An epoch's start is the count of relabels done when its wave went out,
    and whether that step relabeled (else the last wave of the epoch before
    died there).
    """
    costs, absorbed, starts = [], [], []
    handler = protocol.relabel

    def watch(v):
        costs.append(RELABEL_WORK + len(v.channel_neighbors))
        return handler(v)

    monkeypatch.setattr(protocol, "relabel", watch)
    sink = sim.states[sim.graph.n + 1]
    while True:
        epoch, relabels = sim.epoch, len(costs)
        if not step(sim):
            return costs, absorbed, starts
        if len(costs) != relabels:
            absorbed.append(sink.excess)
        if sim.epoch != epoch:
            starts.append((len(costs), len(costs) != relabels))


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
        # excess climbs against x and drains back.  y hears s relabel once
        # before the epoch-2 wave reaches it and builds its state: r never
        # gains, and the third relabel (s, x, s) brings the work to
        # 2 * 14 + 13 = 41, past 6n + m = 34, and starts that wave
        x, s, y, r, z = range(5)
        g = stalled_graph()
        buf = io.StringIO()
        sim = Simulator(g, s, r, 5, SimConfig(seed=0), trace=buf)
        while y not in sim.states:
            before = sorted(sim.states), {v: dict(h) for v, h in sim.states.heard.items()}
            assert step(sim)
        assert before == ([x, s, r, 5, 6], {y: {s: 4}})
        # built by the wave, y caches the highest label it heard
        assert sim.states[y].neighbor_labels == {s: 4, r: 0, z: 2}
        assert sim.states.heard == {}
        out = sim.run()
        assert (out.delivered, out.returned, out.global_relabels) == (0, 5, 2)
        # x, y, and z, which y's wave message built
        assert out.informed_relays == 3
        to_y = [f[1] for f in map(str.split, buf.getvalue().splitlines()) if int(f[3]) == y]
        # each of the two waves reaches y from r and again from z
        assert to_y == [
            "label_update", "sink_distance", "label_update", "sink_distance",
            "label_update", "sink_distance", "sink_distance",
        ]
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
        # above max-flow, which is in-cap(20) = 159: epoch 2 starts once
        # every channel into r is saturated, as a cut-off wave alone, and
        # the excess drains back before 17 relays get any message
        ("drain", 22, 20, 189, "uniform:1:10", 81),
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

    def test_epoch_after_6n_plus_m_work_without_a_sink_gain(self, monkeypatch):
        # Cherkassky & Goldberg's global-update frequency, at half hi_pr's
        # 2(6n + m): each relabel of v is 12 + deg(v) work, and with no sink
        # gain the next epoch is due at the relabel that brings the work
        # since the last epoch began to 6n + m = 34.  r never gains here: s
        # relabels at 14 and x at 13, so epoch 2 starts at the third relabel
        # (41).  Epoch 3 is due at the sixth (40 since the third), while
        # epoch 2's cut-off wave is still out, and starts when it dies
        g = stalled_graph()
        sim = Simulator(g, 1, 3, 5, SimConfig(seed=0))
        costs, absorbed, starts = stepped_relabels(sim, monkeypatch)
        assert set(absorbed) == {0}
        assert costs == [14, 13] * 3 and starts == [(3, True), (6, False)]
        begun = 0
        for k, _ in starts:
            assert sum(costs[begun:k - 1]) < 6 * g.n + g.channel_count <= sum(costs[begun:k])
            begun = k
        out = sim.run()
        assert (out.delivered, out.global_relabels, out.relabels) == (0, 2, len(costs))

    def test_sink_gain_restarts_the_epoch_count(self, drain_graph, monkeypatch):
        # 92 from 1 to 68, max-flow 87: the cut is not at r, whose channels
        # in carry 124, so r never sees it.  r's absorbed amount grows at
        # the 2nd, 7th and 10th relabels, each of which restarts the count,
        # so epoch 2's wave starts once the work since the 10th reaches
        # 6n + m, long after the work since the run began did
        assert sum(drain_graph.cap[w][68] for w in drain_graph.cap[68]) == 124
        sim = Simulator(drain_graph, 1, 68, 92, SimConfig(seed=0))
        costs, absorbed, starts = stepped_relabels(sim, monkeypatch)
        gains = [k for k, (was, now) in enumerate(zip([0] + absorbed, absorbed), 1) if now > was]
        assert gains == [2, 7, 10] and absorbed[9] == 87
        [(k, relabeled)] = starts
        assert relabeled
        due = 6 * drain_graph.n + drain_graph.channel_count
        assert sum(costs[10:k - 1]) < due <= sum(costs[10:k])
        assert sum(costs[:k - 1]) >= due
        out = sim.run()
        assert (out.delivered, out.global_relabels, out.relabels) == (87, 1, len(costs))

    def test_epoch_starts_at_the_accept_that_saturates_r(self, drain_graph):
        # 143 from 53 to 93: max-flow 104 is in-cap(93), so the cut is r's
        # own channels in.  The Accept that saturates the last of them
        # starts epoch 2 in the same event, long before 6n + m of work, and
        # with no relabel in between; r sends no SinkDistance wave, as no
        # node can reach it, so the epoch is its cut-off wave alone
        g, r = drain_graph, 93
        into_r = {w: g.cap[w][r] for w in g.cap[r]}
        assert sum(into_r.values()) == 104
        buf = io.StringIO()
        sim = Simulator(g, 53, r, 143, SimConfig(seed=0), trace=buf)
        sink = sim.states[r]

        def saturated():
            return all(c + sink.edge_flow[w] == 0 for w, c in into_r.items())

        while sim.epoch == 1:
            assert not saturated()
            relabels, delivered = sim.relabels, sim.messages_delivered
            assert step(sim)
        assert saturated() and sim.relabels == relabels
        assert sim.messages_delivered == delivered + 1
        last = buf.getvalue().splitlines()[-1].split()
        assert (last[1], int(last[3])) == ("push_request", r)
        assert sim._work < 6 * g.n + g.channel_count
        ledger = dict(sink.edge_flow)
        out = sim.run()
        assert (out.delivered, out.returned, out.global_relabels) == (104, 39, 1)
        # delivery was final: r's ledger toward its channels never moved again
        assert {w: f for w, f in sink.edge_flow.items() if w < g.n} == {
            w: f for w, f in ledger.items() if w < g.n
        }
        kinds = [line.split()[1] for line in buf.getvalue().splitlines()]
        assert "sink_distance" not in kinds and "cut_off" in kinds
        assert out.messages_sent == 107

    def test_saturation_during_a_wave_starts_the_next_epoch_when_it_dies(self, drain_graph):
        # 206 from 4 to 65, max-flow 196 = in-cap(65): the Accept that
        # saturates r comes while epoch 2's waves are out, so epoch 3 is due
        # from then and starts when they die.  r passes on what it holds in
        # between, and a relabel after that sink gain leaves the due point
        # where it was, 6n + m of work sooner than a restart would put it
        g = drain_graph
        sim = Simulator(g, 4, 65, 206, SimConfig(seed=0))
        absorber = sim.states[g.n + 1]
        while not sim._delivery_final():
            assert step(sim)
        assert (sim.epoch, sim._epoch_due) == (2, sim._work) and sim._waves
        gained = relabeled_after = False
        while sim.epoch == 2:
            absorbed, relabels = absorber.excess, sim.relabels
            assert step(sim)
            gained |= absorber.excess > absorbed
            relabeled_after |= gained and sim.relabels > relabels
        assert gained and relabeled_after
        assert sim.relabels == relabels  # the step that started epoch 3 was a wave's last message
        out = sim.run()
        assert (out.delivered, out.global_relabels, out.messages_sent) == (196, 2, 1339)

    def test_value_equal_to_in_cap_starts_no_epoch(self, drain_graph):
        # 104 from 53 to 93 is exactly in-cap(93): the last Accept saturates
        # r and completes the payment, and no epoch starts
        out = Simulator(drain_graph, 53, 93, 104, SimConfig(seed=0)).run()
        assert (out.delivered, out.returned, out.global_relabels, out.messages_sent) == (104, 0, 0, 76)

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
        # bridge.  The cut-off wave then follows the flow alone, not every
        # ring channel both ways (2 * 8 + 1): from 34 down the ring to 30,
        # over the bridge, and on through 37, 36 and 35, which the flow
        # circled; 35 sends it back to 36 too, because its push to 36 is
        # still in flight.  That is 4 + 1 + 3 + 1 messages.
        g = bridged_graph(30, 8, 1)
        buf = io.StringIO()
        out = Simulator(g, 34, 29, 30, SimConfig(seed=0), trace=buf).run()
        kinds = [line.split()[1] for line in buf.getvalue().splitlines()]
        assert len(kinds) == out.messages_sent
        assert out.global_relabels == 1
        assert kinds.count("sink_distance") == 2 * 57 + 1
        assert kinds.count("cut_off") == 9

    def test_cut_off_region_never_regains_a_path_to_r(self, monkeypatch):
        # The refusal rule exists for this network: when every payment
        # opened with a wave, routing 54 from 21 to 28 without it let node
        # 30, which the epoch-2 wave missed, accept a push from node 19,
        # which the wave reached, after node 29 had taken a cut-off level
        # over its residual channel to 30; the source returned 3 units that
        # could still have been delivered.  Routing 28 from 34 to 28 runs two
        # later epochs: node 25, which the epoch-2 wave missed, refuses 2
        # pushes from node 30, which it reached, and node 36, which the
        # epoch-3 wave missed, refuses 2 from node 17.
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
        assert sorted(set(refused)) == [(25, 30), (36, 17)] and len(refused) == 4
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
        assert (out.global_relabels, out.messages_sent) == (1, 116)
        assert digest == "ed7207b8fd53d69698d56ed1194128ea95695061aa677c8ab434f335cb5db99b"

    def test_drain_payment_under_wide_jitter(self, drain_graph):
        # delays of 5 to 60 ticks over 862 ticks: the event ring of 61
        # slots wraps around 14 times, and some ticks carry no event
        out, digest = trace_digest(drain_graph, 53, 93, 143, "uniform:5:60", 0)
        assert (out.global_relabels, out.messages_sent, out.simulated_time) == (1, 129, 862)
        assert digest == "31905518e9d708b73f8fbbcabf0610ec05a94c5b069597adb8cdca61347b8ffe"

    @pytest.mark.parametrize("latency, messages, ticks, digest", [
        # a span of 8, a power of two: a draw takes 4 bits and redraws 8-15
        ("uniform:1:8", 121, 79, "79d1e0e87d55983408cfc71ff4b08afb6624ab4f08b750d0c6da65810851a3f8"),
        # a span of 2: a draw takes 2 bits and redraws 2 and 3
        ("uniform:1:2", 107, 27, "ca06e7d20ff36aa2825028dec487b204d3e732b88689bf2dd28f3aa1014f6481"),
    ], ids=["uniform:1:8", "uniform:1:2"])
    def test_drain_payment_under_narrow_jitter(self, drain_graph, latency, messages, ticks, digest):
        out, got = trace_digest(drain_graph, 53, 93, 143, latency, 0)
        assert (out.global_relabels, out.messages_sent, out.simulated_time) == (1, messages, ticks)
        assert got == digest

    def test_payment_that_rolls_back_an_in_flight_push(self, monkeypatch):
        # 160 units from 2 to 1 on four nodes, max-flow 147: three later
        # epochs and 119 messages.  Node 3 hears the epoch-3 wave from node
        # 1 while its push in flight saturates the channel to 1, so only the
        # roll-back rule finds that residual edge.
        rolled_back = []
        handler = protocol.on_sink_distance

        def watch(v, m):
            if v.cap[m.sender] - v.edge_flow[m.sender] <= 0 and m.sender in v.pending:
                rolled_back.append((v.id, m.sender, m.epoch))
            return handler(v, m)

        monkeypatch.setattr(protocol, "on_sink_distance", watch)
        out, digest = trace_digest(loads_network(ROLL_BACK_NET), 2, 1, 160, "uniform:1:10", 58)
        assert rolled_back == [(3, 1, 3)]
        assert (out.delivered, out.global_relabels, out.messages_sent) == (147, 3, 119)
        assert digest == "2b9137229c605d5c12f7ca0fda7966dd6c1824989a11b8073390c338899f71bf"

    def test_step_reproduces_run_on_the_roll_back_payment(self):
        # step() returns mid-tick with activations still queued in the
        # tick's slot, and must resume them in the order run() gives
        g = loads_network(ROLL_BACK_NET)
        ran = trace_digest(g, 2, 1, 160, "uniform:1:10", 58)
        assert trace_digest(g, 2, 1, 160, "uniform:1:10", 58, stepped=True) == ran

    def test_drain_payment_cut_away_from_r(self, drain_graph):
        # 107 from 2 to 85: in-cap(85) is 95, below the value, but max-flow
        # is 87, so a channel into r always has room and r's saturation
        # rule never fires.  The schedule is the one the work rule alone
        # gave, digest and all.
        assert sum(drain_graph.cap[w][85] for w in drain_graph.cap[85]) == 95
        out, digest = trace_digest(drain_graph, 2, 85, 107, "uniform:1:3", 0)
        assert (out.delivered, out.global_relabels, out.messages_sent) == (87, 1, 1292)
        assert digest == "c426f396c5af58b6b48fdc07e228054a7174a156442d76d43aa8cf128e41a570"


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
        assert digest == "fe92c7da2cb4c548d51a2d9018773bd80d4aeffd033974f2916cf9f4fcbb1e8c"


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
