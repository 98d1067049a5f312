"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.  The randomized corpus (criteria 2, 3, 4 and 6) is built once
per session under the per-event invariant oracle and shared across tests.
"""

import random
import time
from dataclasses import dataclass
from random import Random

import pytest

from hushrelay.bench import run_bench
from hushrelay.cli import main
from hushrelay.decompose import decompose
from hushrelay.netfile import save_network
from hushrelay.oracle import maxflow_augmenting
from hushrelay.report import AuthFailure, UNIT_LEN, open_unit, reconstruct
from hushrelay.sim import LatencyModel, SimConfig, Simulator
from hushrelay.topology import BAConfig, WorkloadConfig, generate_ba, generate_workload

from .conftest import A, B, C, R, S, five_node_graph, run_report_observed
from .oracles import invariants_checked

CORPUS_SIZE = 1000


def _ok(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


@dataclass
class CorpusRow:
    n: int
    channels: int
    val: int
    oracle_max: int
    delivered: int
    returned: int
    messages: int


@pytest.fixture(scope="session")
def corpus():
    """1000 routed instances, n in [10, 60], caps U[20, 100], vals U[10, 80].

    Every run is inside `invariants_checked`, which checks each handled node
    after every event; any capacity, negative-excess, label, lifted-push or
    terminal-excess breach raises inside Simulator.run and fails the
    building of this fixture.
    """
    rows = []
    rng = random.Random(20_26)
    started = time.perf_counter()
    for i in range(CORPUS_SIZE):
        n = rng.randint(10, 60)
        g = generate_ba(BAConfig(n=n, m_attach=2, cap_range=(20, 100), seed=i))
        s = rng.randrange(n)
        r = rng.randrange(n - 1)
        if r >= s:
            r += 1
        val = rng.randint(10, 80)
        with invariants_checked(g):
            out = Simulator(g, s, r, val, SimConfig(seed=i)).run()
        oracle_max = maxflow_augmenting(g, s, r).max_value
        rows.append(
            CorpusRow(n, g.channel_count, val, oracle_max, out.delivered, out.returned, out.messages_sent)
        )
    return rows, time.perf_counter() - started


def test_criterion_1_golden_replay(example_graph):
    started = time.perf_counter()
    with invariants_checked(example_graph):
        out = Simulator(example_graph, S, R, 15, SimConfig(seed=0)).run()
    elapsed = time.perf_counter() - started
    assert out.delivered == 15
    assert out.returned == 0
    assert out.flow.positive_edges() == {
        (S, A): 10,
        (A, C): 10,
        (S, B): 5,
        (B, C): 5,
        (C, R): 15,
    }
    assert decompose(out.flow) == [((S, A, C, R), 10), ((S, B, C, R), 5)]
    assert elapsed < 1.0
    _ok(1, f"five-node replay exact (flow, split, {elapsed * 1000:.0f} ms)")


def test_criterion_2_full_delivery_whenever_feasible(corpus):
    rows, elapsed = corpus
    assert len(rows) >= 1000
    failures = [r for r in rows if r.val <= r.oracle_max and r.delivered != r.val]
    assert failures == []
    assert elapsed < 120.0
    feasible = sum(1 for r in rows if r.val <= r.oracle_max)
    _ok(2, f"{feasible} feasible instances all delivered in full ({elapsed:.1f} s corpus)")


def test_criterion_3_delivered_is_min_of_value_and_max(corpus):
    rows, _ = corpus
    wrong = [r for r in rows if r.delivered != min(r.val, r.oracle_max)]
    assert wrong == []
    infeasible = sum(1 for r in rows if r.val > r.oracle_max)
    _ok(3, f"delivered == min(val, maxflow) on all {len(rows)} runs ({infeasible} infeasible)")


def test_criterion_4_runtime_invariants_never_trip(corpus):
    rows, _ = corpus
    # the corpus runs inside the invariant oracle: capacity, excess, the
    # label bound and a lifted node's pushes are checked after every event,
    # terminal excess and ledger mirroring by Simulator.outcome();
    # reaching here means no run raised.  Conservation re-asserted cheaply:
    assert all(r.delivered + r.returned == r.val for r in rows)
    _ok(4, f"no invariant assertion tripped across {len(rows)} checked runs")


def test_criterion_5_outcome_schedule_independent():
    rng = random.Random(555)
    checked = 0
    for i in range(100):
        n = rng.randint(10, 40)
        g = generate_ba(BAConfig(n=n, m_attach=2, cap_range=(20, 100), seed=9000 + i))
        s = rng.randrange(n)
        r = rng.randrange(n - 1)
        if r >= s:
            r += 1
        val = rng.randint(10, 80)
        delivered = {
            Simulator(
                g, s, r, val,
                SimConfig(seed=seed, latency=LatencyModel(1, 10)),
            ).run().delivered
            for seed in range(20)
        }
        assert len(delivered) == 1, (i, delivered)
        checked += 1
    _ok(5, f"{checked} instances x 20 latency seeds: delivered value identical")


def test_criterion_6_message_budget(corpus):
    rows, _ = corpus

    def bound_units(row: CorpusRow) -> int:
        n_aug = row.n + 2
        m_aug = row.channels + 2
        return n_aug * n_aug * m_aug

    # calibrate on n=10 instances, including deliberately drain-heavy ones
    calib = [r.messages / bound_units(r) for r in rows if r.n == 10]
    rng = random.Random(66)
    for i in range(30):
        g = generate_ba(BAConfig(n=10, m_attach=2, cap_range=(20, 100), seed=7000 + i))
        s = rng.randrange(10)
        r = rng.randrange(9)
        if r >= s:
            r += 1
        # everything the source can emit plus more: forces a full drain-back
        val = sum(g.cap[s].values()) + rng.randint(1, 80)
        with invariants_checked(g):
            out = Simulator(g, s, r, val, SimConfig(seed=i)).run()
        calib.append(out.messages_sent / (12 * 12 * (g.channel_count + 2)))
    c = max(calib)
    assert c <= 10.0
    over = [r for r in rows if r.messages > c * bound_units(r)]
    assert over == []
    _ok(6, f"messages <= C*n^2*m with C={c:.3f} calibrated on n=10; no instance exceeded")


@pytest.mark.slow
def test_criterion_7_desk_scale_workload():
    started = time.perf_counter()
    g = generate_ba(BAConfig(n=1000, m_attach=2, cap_range=(20, 100), seed=61))
    txns = generate_workload(g, WorkloadConfig(txn_count=2000, val_range=(10, 80), seed=62))
    report = run_bench(g, txns, master_seed=61)
    elapsed = time.perf_counter() - started
    agg = report.aggregate
    assert agg["errors"] == 0
    assert agg["success_ratio"] == agg["feasible_ratio"]
    assert elapsed < 600.0
    _ok(
        7,
        f"n=1000, 2000 txns in {elapsed:.0f} s; success_ratio "
        f"{agg['success_ratio']:.4f} == feasible_ratio",
    )


def test_criterion_8_flow_report_round_trip():
    rng = random.Random(888)
    lengths_by_depth: dict[int, set[int]] = {}
    confidentiality_attempts = 0
    checked = 0
    i = 0
    while checked < 200:
        i += 1
        n = rng.randint(8, 40)
        g = generate_ba(BAConfig(n=n, m_attach=2, cap_range=(20, 100), seed=3000 + i))
        s = rng.randrange(n)
        r = rng.randrange(n - 1)
        if r >= s:
            r += 1
        val = rng.randint(10, 80)
        out = Simulator(g, s, r, val, SimConfig(seed=i)).run()
        if out.delivered == 0:
            continue
        run, relay_inbound = run_report_observed(out.flow, Random(i))
        rec = reconstruct(s, r, run.source_packets, run.k_sink, run.filler_set)
        assert rec.flow == out.flow
        assert sum(v for _, v in rec.paths) == out.delivered
        # uniform length schedule: depth * unit at every position
        lengths = {length for _, length in run.position_lengths}
        assert lengths == {run.depth * UNIT_LEN}
        lengths_by_depth.setdefault(run.depth, set()).update(lengths)
        # intermediates cannot authenticate any layer they carry (sampled)
        for relay, packets in list(relay_inbound.items())[:2]:
            keys = [key for edge, key in run.edge_keys.items() if relay in edge]
            for pkt in packets[:2]:
                for unit in pkt.units()[:3]:
                    for key in keys:
                        confidentiality_attempts += 1
                        with pytest.raises(AuthFailure):
                            open_unit(key, unit)
        checked += 1
    assert all(len(lengths) == 1 for lengths in lengths_by_depth.values())
    assert confidentiality_attempts > 0
    _ok(
        8,
        f"200 round trips exact; byte-identical lengths per depth; "
        f"{confidentiality_attempts} deep decryptions all failed",
    )


def test_criterion_9_byte_identical_outputs(tmp_path):
    net = tmp_path / "net.pcn"
    save_network(five_node_graph(), net)
    # repeated route command: identical trace bytes
    traces = []
    for name in ("t1.log", "t2.log"):
        trace = tmp_path / name
        assert main([
            "route", "--network", str(net), "--source", "0", "--sink", "4",
            "--amount", "15", "--seed", "4", "--latency", "uniform:1:10",
            "--trace", str(trace),
        ]) == 0
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]
    # repeated bench command: identical CSV bytes
    csvs = []
    for name in ("b1.csv", "b2.csv"):
        out = tmp_path / name
        assert main([
            "bench", "--nodes", "25", "--txns", "40", "--seed", "5",
            "--latency", "uniform:1:10", "--out", str(out),
        ]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    # generated network files are byte-identical too
    nets = []
    for name in ("n1.pcn", "n2.pcn"):
        out = tmp_path / name
        assert main(["gen", "--nodes", "30", "--seed", "6", "--out", str(out)]) == 0
        nets.append(out.read_bytes())
    assert nets[0] == nets[1]
    _ok(9, "route trace, bench CSV and gen output byte-identical across reruns")
