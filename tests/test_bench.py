import functools
import io
import random

import pytest

from hushrelay import bench
from hushrelay.bench import CSV_COLUMNS, ExperimentReport, TxnResult, run_bench, run_txn, txn_seed
from hushrelay.oracle import is_feasible
from hushrelay.sim import LatencyModel, SimConfig
from hushrelay.topology import BAConfig, Transaction, WorkloadConfig, generate_ba, generate_workload


def small_setup(seed=0, txns=25):
    g = generate_ba(BAConfig(n=25, m_attach=2, seed=seed))
    return g, generate_workload(g, WorkloadConfig(txn_count=txns, seed=seed))


class TestTxnSeed:
    def test_stable(self):
        assert txn_seed(1, 1) == txn_seed(1, 1)

    def test_spreads(self):
        seeds = {txn_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestRunTxn:
    def test_success_means_full_delivery(self):
        g, txns = small_setup()
        row = run_txn(g, 0, txns[0], 0, LatencyModel.constant(1))
        assert row.success == (row.delivered == row.value)

    def test_feasibility_matches_oracle(self):
        g, txns = small_setup()
        for i, t in enumerate(txns[:10]):
            row = run_txn(g, i, t, 0, LatencyModel.constant(1))
            assert row.feasible == is_feasible(g, t.s, t.r, t.val)

    def test_graph_untouched_by_routing(self):
        g, txns = small_setup()
        before = {ch.id: (ch.cap_forward, ch.cap_backward) for ch in g.channels()}
        for i, t in enumerate(txns[:5]):
            run_txn(g, i, t, 0, LatencyModel.constant(1))
        after = {ch.id: (ch.cap_forward, ch.cap_backward) for ch in g.channels()}
        assert after == before

    def test_budget_exhausted_row_keeps_partial_counters(self, monkeypatch, example_graph):
        # the full run is 19 events (13 deliveries, 6 activations), the last
        # the virtual sink's Accept at t=5.  A budget of 17 stops after 18:
        # the whole 15 has reached the virtual sink at t=4 after R's one
        # relabel, and that Accept is still in flight
        monkeypatch.setattr(bench, "SimConfig", functools.partial(SimConfig, max_events=17))
        row = run_txn(example_graph, 0, Transaction(0, 4, 15), 0, LatencyModel.constant(1))
        assert row.error == "event_budget_exhausted"
        assert not row.success
        assert (row.delivered, row.messages, row.simulated_ttr, row.relabels) == (15, 13, 4, 1)


class TestRunBench:
    def test_success_ratio_equals_feasible_ratio(self):
        g, txns = small_setup(seed=4, txns=60)
        report = run_bench(g, txns, master_seed=4)
        assert report.aggregate["success_ratio"] == report.aggregate["feasible_ratio"]

    def test_all_infeasible_workload_scores_zero(self):
        g = generate_ba(BAConfig(n=10, m_attach=2, cap_range=(1, 2), seed=0))
        txns = [Transaction(0, 9, 1000), Transaction(3, 7, 999)]
        report = run_bench(g, txns, master_seed=0)
        assert report.aggregate["success_ratio"] == 0.0

    def test_csv_schema_and_determinism(self):
        g, txns = small_setup(seed=2, txns=15)
        outputs = []
        for _ in range(2):
            report = run_bench(g, txns, master_seed=2)
            buf = io.StringIO()
            report.write_csv(buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        header = outputs[0].splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert len(outputs[0].splitlines()) == 16

    def test_wallclock_column_empty_by_default(self):
        g, txns = small_setup(seed=2, txns=3)
        report = run_bench(g, txns, master_seed=2)
        buf = io.StringIO()
        report.write_csv(buf)
        for line in buf.getvalue().splitlines()[1:]:
            assert line.split(",")[8] == ""

    def test_wallclock_column_filled_when_enabled(self):
        g, txns = small_setup(seed=2, txns=3)
        report = run_bench(g, txns, master_seed=2, with_wallclock=True)
        buf = io.StringIO()
        report.write_csv(buf)
        for line in buf.getvalue().splitlines()[1:]:
            assert float(line.split(",")[8]) >= 0

    def test_json_contains_aggregate(self):
        import json

        g, txns = small_setup(seed=3, txns=5)
        report = run_bench(g, txns, master_seed=3)
        doc = json.loads(report.to_json())
        assert doc["columns"] == CSV_COLUMNS
        assert doc["aggregate"]["txn_count"] == 5


class TestAggregate:
    @pytest.mark.parametrize("n, rank", [(1, 1), (20, 19), (30, 29), (100, 95), (101, 96)])
    def test_p95_is_nearest_rank(self, n, rank):
        ttrs = list(range(1, n + 1))
        random.Random(n).shuffle(ttrs)
        rows = [TxnResult(i, 0, 1, 5, True, 5, True, t, 0.0, 1, 0) for i, t in enumerate(ttrs)]
        # the rank-th smallest of 1..n is rank itself; ceil(0.95 * 30) = 29
        assert ExperimentReport(rows).aggregate["p95_simulated_ttr"] == rank

    def test_feasible_and_infeasible_reported_apart(self):
        def row(i, feasible, messages, seconds):
            return TxnResult(i, 0, 1, 5, feasible, 5, feasible, 1, seconds, messages, 0)

        rows = [row(0, True, 100, 0.5), row(1, True, 300, 0.5), row(2, False, 600, 3.0)]
        report = ExperimentReport(rows, with_wallclock=True)
        agg = report.aggregate
        assert agg["feasible"] == {
            "count": 2, "mean_messages": 200.0, "message_share": 0.4, "time_share": 0.25,
        }
        assert agg["infeasible"] == {
            "count": 1, "mean_messages": 600.0, "message_share": 0.6, "time_share": 0.75,
        }
        lines = report.summary_lines()
        assert "feasible          2 txns  mean_messages 200.0  messages 40.0%  time 25.0%" in lines
        assert "infeasible        1 txns  mean_messages 600.0  messages 60.0%  time 75.0%" in lines
        # without wall clocks there is no time share, and the CSV keeps its columns
        plain = ExperimentReport(rows)
        assert "time_share" not in plain.aggregate["infeasible"]
        assert plain.summary_lines()[-1] == "infeasible        1 txns  mean_messages 600.0  messages 60.0%"
        buf = io.StringIO()
        plain.write_csv(buf)
        assert buf.getvalue().splitlines()[0] == ",".join(CSV_COLUMNS)
