from random import Random

import pytest

from hushrelay.graph import FlowAssignment
from hushrelay.report import (
    UNIT_LEN,
    AuthFailure,
    FactOverflow,
    InconsistentFlow,
    ReportPacket,
    build_report,
    open_unit,
    reconstruct,
    relay_report,
    run_report,
)
from hushrelay.sim import SimConfig, Simulator
from hushrelay.topology import BAConfig, WorkloadConfig, generate_ba, generate_workload

from .conftest import A, B, C, R, S, run_report_observed
from .oracles import add_flow


KEY = b"k" * 32


def negative_flow():
    f = FlowAssignment(0, 1)
    f.out[0] = {1: -5}
    return f


def worked_outcome(example_graph):
    return Simulator(example_graph, S, R, 15, SimConfig(seed=7)).run()


class TestBuildReport:
    def test_sink_emits_one_packet_per_predecessor(self, example_graph):
        out = worked_outcome(example_graph)
        rr = run_report(out.flow, rng=Random(1))
        # sink R has a single inbound edge C->R carrying 15
        packets, fillers = build_report(
            [(C, 15, rr.edge_keys[(C, R)])], rr.k_sink, depth=3, rng=Random(2)
        )
        assert set(packets) == {C}
        assert len(packets[C]) == 3 * UNIT_LEN
        assert len(fillers) == 2

    def test_zero_delivered_empty_report(self):
        f = FlowAssignment(0, 1)
        rr = run_report(f, rng=Random(1))
        assert rr.source_packets == []
        assert rr.depth == 0

    @pytest.mark.parametrize(
        "edge, amount",
        [((0, 1), 2**64), ((2**64, 1), 5), ((0, 2**64), 5)],
    )
    def test_values_beyond_u64_rejected_before_sealing(self, edge, amount):
        f = FlowAssignment(*edge)
        add_flow(f, *edge, amount)
        rng = Random(1)
        state = rng.getstate()
        with pytest.raises(FactOverflow):
            run_report(f, rng=rng)
        # sealing draws k_sink first, so an untouched rng means nothing was sealed
        assert rng.getstate() == state

    @pytest.mark.parametrize(
        "seal",
        [
            lambda rng: build_report([(2**64, 1, KEY)], KEY, 2, rng),
            lambda rng: build_report([(1, -1, KEY)], KEY, 2, rng),
            lambda rng: relay_report(ReportPacket(bytes(UNIT_LEN)), KEY, (1, 2**64, KEY), rng),
            lambda rng: relay_report(ReportPacket(bytes(UNIT_LEN)), KEY, (-1, 1, KEY), rng),
            lambda rng: run_report(negative_flow(), rng),
        ],
        ids=["build-id", "build-negative", "relay-amount", "relay-negative", "run-negative"],
    )
    def test_fact_outside_u64_is_fact_overflow(self, seal):
        # every public sealing entry point names the error; none leaks struct.error
        rng = Random(1)
        state = rng.getstate()
        with pytest.raises(FactOverflow):
            seal(rng)
        # a unit draws its nonce after packing the fact, so nothing was sealed
        assert rng.getstate() == state

    def test_circulation_rejected(self):
        f = FlowAssignment(0, 3)
        for v, w, a in [(0, 1, 5), (1, 3, 5), (1, 2, 3), (2, 4, 3), (4, 1, 3)]:
            add_flow(f, v, w, a)
        with pytest.raises(ValueError, match=r"nodes \[0, 1, 2, 4\] are not ordered"):
            run_report(f, rng=Random(1))

    def test_largest_u64_amount_round_trips(self):
        f = FlowAssignment(0, 1)
        add_flow(f, 0, 1, 2**64 - 1)
        rr = run_report(f, rng=Random(1))
        rec = reconstruct(0, 1, rr.source_packets, rr.k_sink, rr.filler_set)
        assert rec.flow == f

    def test_wrong_key_fails_authentication(self, example_graph):
        out = worked_outcome(example_graph)
        rr = run_report(out.flow, rng=Random(1))
        with pytest.raises(AuthFailure):
            reconstruct(S, R, rr.source_packets, b"\x01" * 32, rr.filler_set)


class TestRelayReport:
    def test_relay_wraps_one_layer_per_predecessor(self, example_graph):
        out = worked_outcome(example_graph)
        rr = run_report(out.flow, rng=Random(3))
        packets, _ = build_report(
            [(C, 15, rr.edge_keys[(C, R)])], rr.k_sink, depth=3, rng=Random(4)
        )
        key = rr.edge_keys[(C, R)]
        rng = Random(5)
        for fact in [(A, 10, b"\x02" * 32), (B, 5, b"\x03" * 32)]:
            relayed = relay_report(packets[C], key, fact, rng)
            # constant length: one unit added, one filler dropped
            assert len(relayed) == len(packets[C])
            units = relayed.units()
            assert open_unit(key, units[0]) == fact
            assert units[1:] == packets[C].units()[:-1]

    def test_tampered_ciphertext_fails_at_source(self, example_graph):
        out = worked_outcome(example_graph)
        rr = run_report(out.flow, rng=Random(6))
        data = bytearray(rr.source_packets[0].data)
        data[UNIT_LEN // 2] ^= 0xFF
        broken = ReportPacket(bytes(data))
        packets = [broken] + rr.source_packets[1:]
        with pytest.raises(AuthFailure):
            reconstruct(S, R, packets, rr.k_sink, rr.filler_set)


class TestReconstruct:
    def test_worked_example_paths(self, example_graph):
        out = worked_outcome(example_graph)
        rr = run_report(out.flow, rng=Random(8))
        rec = reconstruct(S, R, rr.source_packets, rr.k_sink, rr.filler_set)
        assert rec.flow == out.flow
        assert rec.paths == [((S, A, C, R), 10), ((S, B, C, R), 5)]

    def test_single_channel_flow(self):
        from hushrelay.graph import ChannelGraph

        g = ChannelGraph(2)
        g.open_channel(0, 1, 9, 0)
        out = Simulator(g, 0, 1, 4, SimConfig(seed=1)).run()
        rr = run_report(out.flow, rng=Random(9))
        rec = reconstruct(0, 1, rr.source_packets, rr.k_sink, rr.filler_set)
        assert rec.paths == [((0, 1), 4)]

    def test_duplicate_packets_deduplicated(self, example_graph):
        out = worked_outcome(example_graph)
        rr = run_report(out.flow, rng=Random(10))
        doubled = rr.source_packets + rr.source_packets
        rec = reconstruct(S, R, doubled, rr.k_sink, rr.filler_set)
        assert rec.flow == out.flow

    def test_conflicting_fact_is_inconsistent(self, example_graph):
        out = worked_outcome(example_graph)
        rr = run_report(out.flow, rng=Random(11))
        # forge an extra single-layer chain claiming a different value on C->R
        forged, _ = build_report(
            [(C, 14, rr.edge_keys[(C, R)])], rr.k_sink, depth=1, rng=Random(12)
        )
        with pytest.raises(InconsistentFlow):
            reconstruct(S, R, rr.source_packets + [forged[C]], rr.k_sink, rr.filler_set)


    def test_forged_two_cycle_is_inconsistent(self, example_graph):
        # relays B and A each forge one more hop, A->B and B->A with equal
        # amounts: the fact set still conserves, but it holds a cycle
        out = worked_outcome(example_graph)
        rr = run_report(out.flow, rng=Random(13))
        keys = rr.edge_keys
        sealed, _ = build_report([(C, 15, keys[(C, R)])], rr.k_sink, depth=3, rng=Random(14))
        rng = Random(15)
        at_a = relay_report(sealed[C], keys[(C, R)], (A, 10, keys[(A, C)]), rng)
        at_b = relay_report(sealed[C], keys[(C, R)], (B, 5, keys[(B, C)]), rng)
        forged = [
            relay_report(at_b, keys[(B, C)], (A, 3, b"\x04" * 32), rng=Random(16)),
            relay_report(at_a, keys[(A, C)], (B, 3, b"\x05" * 32), rng=Random(17)),
        ]
        with pytest.raises(InconsistentFlow, match="not acyclic"):
            reconstruct(S, R, rr.source_packets + forged, rr.k_sink, rr.filler_set)

    def test_forged_unconserved_facts_are_inconsistent(self, example_graph):
        # relay C alone reports A->C 10 and B->C 7 against the sink's C->R 15:
        # no fact conflicts and every node drains into R, but C takes in 17
        # and passes on 15
        out = worked_outcome(example_graph)
        rr = run_report(out.flow, rng=Random(18))
        keys = rr.edge_keys
        sealed, _ = build_report([(C, 15, keys[(C, R)])], rr.k_sink, depth=2, rng=Random(19))
        rng = Random(20)
        forged = [
            relay_report(sealed[C], keys[(C, R)], fact, rng)
            for fact in [(A, 10, keys[(A, C)]), (B, 7, keys[(B, C)])]
        ]
        with pytest.raises(InconsistentFlow):
            reconstruct(S, R, forged, rr.k_sink, rr.filler_set)

    @pytest.mark.parametrize(
        "paths",
        [
            # a forged 2-cycle on the pair (1, 2)
            [(0, 1, 2, 3), (0, 2, 1, 3)],
            # the support cycle 1->2->5->1
            [(0, 1, 2, 3), (0, 2, 5, 1, 4, 3), (0, 3)],
        ],
    )
    def test_cycle_across_simple_paths_is_inconsistent(self, paths):
        # every path is simple and carries 1 unit, so the facts are conserved
        # and split exactly into paths; only their support holds a cycle
        rng = Random(21)
        k_sink = rng.randbytes(32)
        keys: dict[tuple[int, int], bytes] = {}
        depth = max(len(p) for p in paths) - 1
        packets, filler_set = [], []
        for path in paths:
            edges = list(zip(path, path[1:]))
            for e in edges:
                keys.setdefault(e, rng.randbytes(32))
            u, r = edges[-1]
            sealed, fillers = build_report([(u, 1, keys[(u, r)])], k_sink, depth, rng=rng)
            filler_set.extend(fillers)
            pkt = sealed[u]
            for (u, v), (w, _) in zip(reversed(edges), reversed(edges[:-1])):
                pkt = relay_report(pkt, keys[(u, v)], (w, 1, keys[(w, u)]), rng=rng)
            packets.append(pkt)
        with pytest.raises(InconsistentFlow, match="not acyclic"):
            reconstruct(0, 3, packets, k_sink, filler_set)


class TestRoundTripCorpus:
    def test_reconstruction_matches_ledger_everywhere(self):
        checked = 0
        for seed in range(25):
            g = generate_ba(BAConfig(n=6 + seed, m_attach=2, seed=seed))
            for t in generate_workload(g, WorkloadConfig(txn_count=2, seed=seed)):
                out = Simulator(g, t.s, t.r, t.val, SimConfig(seed=seed)).run()
                if out.delivered == 0:
                    continue
                rr = run_report(out.flow, rng=Random(seed))
                rec = reconstruct(t.s, t.r, rr.source_packets, rr.k_sink, rr.filler_set)
                assert rec.flow == out.flow
                assert sum(v for _, v in rec.paths) == out.delivered
                checked += 1
        assert checked >= 30


class TestKeyFreshness:
    def test_edge_keys_differ_across_instances(self, example_graph):
        out = worked_outcome(example_graph)
        first = run_report(out.flow, rng=Random(20))
        second = run_report(out.flow, rng=Random(21))
        for edge in first.edge_keys:
            assert first.edge_keys[edge] != second.edge_keys[edge]
        assert first.k_sink != second.k_sink

    def test_keys_are_256_bit(self, example_graph):
        out = worked_outcome(example_graph)
        rr = run_report(out.flow, rng=Random(22))
        assert all(len(k) == 32 for k in rr.edge_keys.values())
        assert len(rr.k_sink) == 32


class TestLengthUniformity:
    def test_all_packets_same_length_within_instance(self, example_graph):
        out = worked_outcome(example_graph)
        rr = run_report(out.flow, rng=Random(14))
        lengths = {length for _, length in rr.position_lengths}
        assert lengths == {rr.depth * UNIT_LEN}

    def test_equal_depth_instances_equal_lengths(self):
        # same hop depth, very different values and identities
        f1 = FlowAssignment(0, 3)
        add_flow(f1, 0, 1, 70)
        add_flow(f1, 1, 3, 70)
        f2 = FlowAssignment(5, 9)
        add_flow(f2, 5, 8, 3)
        add_flow(f2, 8, 9, 3)
        r1 = run_report(f1, rng=Random(15))
        r2 = run_report(f2, rng=Random(16))
        assert r1.depth == r2.depth
        by_pos1 = {pos: length for pos, length in r1.position_lengths}
        by_pos2 = {pos: length for pos, length in r2.position_lengths}
        assert by_pos1 == by_pos2


class TestConfidentiality:
    def test_relays_cannot_peel_any_inbound_layer(self, example_graph):
        # a relay holds only the keys of its own incident edges; every unit
        # of every packet it receives must fail authentication under them
        out = worked_outcome(example_graph)
        rr, relay_inbound = run_report_observed(out.flow, Random(17))
        assert relay_inbound  # the worked example has relays A, B, C
        attempts = 0
        for relay, packets in relay_inbound.items():
            keys = [key for edge, key in rr.edge_keys.items() if relay in edge]
            assert keys
            for pkt in packets:
                for unit in pkt.units():
                    for key in keys:
                        attempts += 1
                        with pytest.raises(AuthFailure):
                            open_unit(key, unit)
        assert attempts > 0
