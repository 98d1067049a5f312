import hashlib
import io
from collections import deque

import pytest

from hushrelay import cli
from hushrelay.graph import ChannelGraph
from hushrelay.netfile import dumps_network, loads_network
from hushrelay.protocol import ProtocolError
from hushrelay.sim import (
    EventBudgetExhausted,
    LatencyModel,
    SimConfig,
    Simulator,
    run,
)
from hushrelay.topology import BAConfig, generate_ba

from .conftest import R, S


class TestLatencyModel:
    def test_constant(self):
        m = LatencyModel.constant(3)
        assert m.sample(None) == 3

    def test_uniform_bounds(self):
        import random

        m = LatencyModel.uniform(1, 10)
        rng = random.Random(5)
        draws = [m.sample(rng) for _ in range(200)]
        assert min(draws) >= 1 and max(draws) <= 10

    def test_parse_forms(self):
        assert LatencyModel.parse("const:2") == LatencyModel.constant(2)
        assert LatencyModel.parse("uniform:1:10") == LatencyModel.uniform(1, 10)

    @pytest.mark.parametrize("bad", [
        "const:0", "uniform:0:5", "uniform:5:1", "nope", "const:x", "uniform:1:1000000000",
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            LatencyModel.parse(bad)


class TestRun:
    def test_worked_example_terminates_with_full_delivery(self, example_graph):
        out = run(example_graph, S, R, 15, SimConfig(seed=0))
        assert out.delivered == 15

    def test_isolated_sink_returns_everything(self):
        g = ChannelGraph(3)
        g.open_channel(0, 1, 50, 50)
        out = run(g, 0, 2, 9, SimConfig(seed=0))
        assert out.delivered == 0
        assert out.returned == 9

    def test_isolated_source_returns_everything(self):
        g = ChannelGraph(3)
        g.open_channel(1, 2, 50, 50)
        out = run(g, 0, 2, 9, SimConfig(seed=0))
        assert out.delivered == 0
        assert out.returned == 9

    def test_same_seed_same_trace(self, example_graph):
        traces = []
        for _ in range(2):
            buf = io.StringIO()
            run(example_graph, S, R, 15, SimConfig(seed=42), trace=buf)
            traces.append(buf.getvalue())
        assert traces[0] == traces[1]
        assert traces[0]  # non-empty

    def test_different_seed_may_change_trace_not_outcome(self, example_graph):
        cfg_a = SimConfig(seed=1, latency=LatencyModel.uniform(1, 10))
        cfg_b = SimConfig(seed=2, latency=LatencyModel.uniform(1, 10))
        out_a = run(example_graph, S, R, 15, cfg_a)
        out_b = run(example_graph, S, R, 15, cfg_b)
        assert out_a.delivered == out_b.delivered == 15

    def test_trace_field_order(self, example_graph):
        buf = io.StringIO()
        run(example_graph, S, R, 15, SimConfig(seed=0), trace=buf)
        first = buf.getvalue().splitlines()[0].split()
        assert first[0].startswith("t=")
        assert first[4].startswith("δ=")
        assert first[5].startswith("d_from=")
        assert first[6].startswith("d_to=")

    def test_event_budget_exhaustion_carries_state(self, example_graph):
        with pytest.raises(EventBudgetExhausted) as exc:
            run(example_graph, S, R, 15, SimConfig(seed=0, max_events=3))
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
        out = run(example_graph, S, R, 15, SimConfig(seed=0))
        # hand-checked constant-latency schedule: the sink-distance wave
        # reaches C at t=1, A and B at t=2 and S at t=3, where S pushes 10/5
        # to A/B (t=4); A and B push to C (t=5), C pushes 15 to R (t=6); R
        # accepts at label 0, relabels to 1 and pushes to the virtual sink
        # (t=7), whose Accept arrives at t=8
        assert out.simulated_time == 8


class TestQuiescent:
    def test_false_right_after_init(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0))
        assert not sim.quiescent()

    def test_true_after_completion(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0))
        sim.run()
        assert sim.quiescent()

    def test_false_with_reply_in_flight(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0))
        # step until the first push request has been applied at the sender
        while not any(sim.states[v].pending for v in range(5)):
            assert sim.step()
        assert not sim.quiescent()


class TestDelivery:
    def test_every_sent_message_delivered_exactly_once(self, example_graph):
        sim = Simulator(example_graph, S, R, 25, SimConfig(seed=3))
        sim.run()
        assert sim.messages_delivered == sim.messages_sent

    def test_no_delivery_after_quiescence(self, example_graph):
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=3))
        sim.run()
        delivered = sim.messages_delivered
        assert not sim.step()
        assert sim.messages_delivered == delivered


class TestDeterminism:
    def test_metrics_identical_across_runs(self, example_graph):
        outs = [run(example_graph, S, R, 15, SimConfig(seed=9)) for _ in range(2)]
        assert outs[0].messages_sent == outs[1].messages_sent
        assert outs[0].relabels == outs[1].relabels
        assert outs[0].simulated_time == outs[1].simulated_time
        assert outs[0].flow == outs[1].flow

    def test_delivery_schedule_robustness(self, example_graph):
        # outcome must not depend on the latency schedule
        delivered = {
            run(example_graph, S, R, 25, SimConfig(seed=s, latency=LatencyModel.uniform(1, 10))).delivered
            for s in range(20)
        }
        assert delivered == {20}


def sink_hops(g: ChannelGraph, r: int) -> dict[int, int]:
    """Hop distance to r over channel directions with positive capacity toward r."""
    hops = {r: 0}
    frontier = deque([r])
    while frontier:
        w = frontier.popleft()
        for v in sorted(g.cap[w]):
            if v not in hops and g.cap[v][w] > 0:
                hops[v] = hops[w] + 1
                frontier.append(v)
    return hops


class TestSinkDistanceWave:
    @pytest.mark.parametrize("pick", range(6))
    def test_unrelabeled_labels_are_hop_distances(self, pick):
        # zero-capacity directions make the residual distances differ from
        # plain graph distances, and leave some nodes unable to reach r
        g = generate_ba(BAConfig(n=150, m_attach=2, cap_range=(0, 3), seed=pick))
        s, r = 3 * pick + 1, 7 * pick + 2
        buf = io.StringIO()
        sim = Simulator(g, s, r, 2, SimConfig(seed=pick), trace=buf)
        sim.run()
        hops = sink_hops(g, r)
        # every relabel broadcasts a label_update to each channel neighbor
        lines = [line.split() for line in buf.getvalue().splitlines()]
        relabeled = {int(f[2]) for f in lines if f[1] == "label_update"}
        unrelabeled = [v for v in range(g.n) if v not in relabeled]
        assert len(unrelabeled) > g.n // 2
        assert any(v not in hops for v in unrelabeled)
        for v in unrelabeled:
            assert sim.states[v].label == hops.get(v, 0), v

    def test_one_trace_line_per_forwarding_edge(self, example_graph):
        buf = io.StringIO()
        sim = Simulator(example_graph, S, R, 15, SimConfig(seed=0), trace=buf)
        out = sim.run()
        lines = [line.split() for line in buf.getvalue().splitlines()]
        wave = [(int(f[2]), int(f[3])) for f in lines if f[1] == "sink_distance"]
        # every node reaches r, and each forwards once to every channel neighbor
        forwarding = {(v, w) for v in range(5) for w in sorted(example_graph.cap[v])}
        assert len(wave) == len(forwarding) == 10
        assert set(wave) == forwarding
        assert out.messages_sent == len(lines)

    def test_source_waits_for_the_wave(self):
        # S hears the wave first from X, over a channel with no capacity from
        # S toward X, and only later over its residual path S-A-B-R
        s, x, a, b, r = range(5)
        g = ChannelGraph(5)
        g.open_channel(r, x, 10, 10)
        g.open_channel(s, x, 0, 10)
        g.open_channel(s, a, 10, 10)
        g.open_channel(a, b, 10, 10)
        g.open_channel(b, r, 10, 10)
        buf = io.StringIO()
        sim = Simulator(g, s, r, 5, SimConfig(seed=0), trace=buf)
        src = sim.states[s]
        heard_early = False
        while not src.reached:
            # only s holds excess, so nothing may push or relabel yet
            assert src.next_request == 0 and sim.relabels == 0
            heard_early |= src.neighbor_labels[x] > 0
            assert sim.step()
        assert heard_early
        traced = [line.split()[1:3] for line in buf.getvalue().splitlines()]
        assert ["label_update", str(s)] not in traced
        assert src.label == 3
        assert sim.run().delivered == 5

    def test_unreached_source_drains_back_under_run_and_step(self, example_graph):
        # every channel has zero capacity toward S, so no wave reaches R; R is
        # woken once the network goes quiet, by run() and step() alike
        out = run(example_graph, R, S, 15, SimConfig(seed=0))
        assert out.delivered == 0
        assert out.returned == 15
        stepped = Simulator(example_graph, R, S, 15, SimConfig(seed=0))
        while stepped.step():
            pass
        assert stepped.quiescent()
        assert stepped.outcome() == out


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
        out = run(drain_graph, s, r, val, SimConfig(seed=0))
        assert out.delivered == max_flow
        assert out.global_relabels >= 1
        assert out.messages_sent < 10_000

    def test_worked_example_needs_no_epoch(self, example_graph):
        assert run(example_graph, S, R, 15, SimConfig(seed=0)).global_relabels == 0

    def test_feasible_desk_scale_payment_needs_no_epoch(self):
        g = generate_ba(BAConfig(n=1000, m_attach=2, cap_range=(20, 100), seed=61))
        out = run(g, 913, 475, 49, SimConfig(seed=0))
        assert out.delivered == 49
        assert out.global_relabels == 0

    def test_every_wave_message_is_counted_and_traced(self, drain_graph):
        buf = io.StringIO()
        out = run(drain_graph, 53, 93, 143, SimConfig(seed=0), trace=buf)
        kinds = [line.split()[1] for line in buf.getvalue().splitlines()]
        assert len(kinds) == out.messages_sent
        assert "cut_off" in kinds
        # the first wave reaches every node, and each forwards to all its
        # channel neighbors: 2m messages; the later epochs' waves add more
        assert out.global_relabels >= 1
        assert kinds.count("sink_distance") > 2 * drain_graph.channel_count

    def test_cut_off_region_never_regains_a_path_to_r(self):
        # Without the refusal rule, node 30, which the epoch-2 wave missed,
        # accepted a push from node 19, which the wave reached.  Node 29 had
        # already taken a cut-off level over its residual channel to 30, so
        # the path 21 -> 10 -> 29 -> 30 -> 19 -> ... -> 28 stayed open behind
        # labels above the feeder's, and the source returned 3 units that
        # could still have been delivered.
        g = loads_network(CUT_OFF_RACE_NET)
        out = run(g, 21, 28, 54, SimConfig(seed=0))
        assert out.global_relabels >= 1
        assert out.delivered == 15 and out.returned == 39



def trace_digest(
    g: ChannelGraph, s: int, r: int, val: int, latency: str, seed: int, stepped: bool = False
):
    """run()'s outcome and the sha256 of its trace; with `stepped`, driven by step() first."""
    buf = io.StringIO()
    sim = Simulator(g, s, r, val, SimConfig(seed=seed, latency=LatencyModel.parse(latency)), buf)
    while stepped and sim.step():
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
        assert digest == "318ba5604ef0d2d7dd3e021c7763bee7b9c5c87390a9c19bfb8fc52bf30772ad"

    def test_worked_example_under_constant_delay(self, example_graph):
        # every message takes 3 ticks, so most ticks carry no event
        out, digest = trace_digest(example_graph, S, R, 15, "const:3", 0)
        assert (out.delivered, out.simulated_time) == (15, 24)
        assert digest == "e1962e6247fae8883c1fd26bd9a10102b01004b8129eb4c91f977280eba6f0ec"

    def test_drain_payment_with_an_epoch(self, drain_graph):
        out, digest = trace_digest(drain_graph, 53, 93, 143, "uniform:1:3", 0)
        assert out.global_relabels >= 1
        assert digest == "4201a96a07a47f450be6e02a8cb4cee3d15759a0deb1e7cf44a49aa97139be0f"

    def test_drain_payment_under_wide_jitter(self, drain_graph):
        # delays of 5 to 60 ticks over 13473 ticks: the event ring of 61
        # slots wraps around over 200 times, and some ticks carry no event
        out, digest = trace_digest(drain_graph, 53, 93, 143, "uniform:5:60", 0)
        assert (out.global_relabels, out.messages_sent, out.simulated_time) == (1, 2642, 13473)
        assert digest == "e6a7aa318148fa295b5d282311b17d93664715e502a74c6fb2f671cd628fff08"

    def test_payment_that_rolls_back_an_in_flight_push(self, drain_graph):
        # one later epoch and 2601 messages.  Node 32 first hears the epoch-1
        # wave from node 0 while its push of 66 saturates the channel to 0,
        # so only the roll-back rule finds that residual edge.
        out, digest = trace_digest(drain_graph, 22, 20, 189, "uniform:1:10", 196)
        assert (out.global_relabels, out.messages_sent) == (1, 2601)
        assert digest == "d91828720440fbb98b2899dd6ab7386b257aa54df13de26d1ab835f666f9eb49"

    def test_step_reproduces_run_on_the_roll_back_payment(self, drain_graph):
        # step() returns mid-tick with activations still queued in the
        # tick's slot, and must resume them in the order run() gives
        ran = trace_digest(drain_graph, 22, 20, 189, "uniform:1:10", 196)
        assert trace_digest(drain_graph, 22, 20, 189, "uniform:1:10", 196, stepped=True) == ran


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
        assert digest == "02efa48665f1b6204016aa8bd66c035c92a73f64d6b9e10a5df1ef42d246cbf7"


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
