"""Workload benchmarking: oracle feasibility vs routed outcome per transaction.

Every transaction runs against the pristine graph (routing never commits
channel balances).  A transaction succeeds iff it delivers its full value.
Per-transaction latency seeds derive from the master seed and the
transaction id, so results are independent of execution order.

Wall-clock columns are hardware-bound and empty unless explicitly enabled:
with them off, repeated runs of the same command are byte-identical.
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import IO

from .graph import ChannelGraph
from .oracle import is_feasible
from .sim import EventBudgetExhausted, LatencyModel, SimConfig, Simulator
from .topology import Transaction

CSV_COLUMNS = [
    "txn",
    "source",
    "sink",
    "value",
    "feasible",
    "delivered",
    "success",
    "simulated_ttr",
    "wallclock_ttr_hw",
    "messages",
    "relabels",
    "error",
]

_SEED_MIX = 0x9E3779B97F4A7C15


def txn_seed(master_seed: int, txn_id: int) -> int:
    """Stable per-transaction latency seed; independent of worker scheduling."""
    x = (master_seed ^ ((txn_id + 1) * _SEED_MIX)) & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return (x ^ (x >> 31)) & 0x7FFFFFFFFFFFFFFF


@dataclass
class TxnResult:
    txn: int
    source: int
    sink: int
    value: int
    feasible: bool
    delivered: int
    success: bool
    simulated_ttr: int
    wallclock_ttr: float
    messages: int
    relabels: int
    error: str = ""

    def row(self, with_wallclock: bool) -> list[str]:
        return [
            str(self.txn),
            str(self.source),
            str(self.sink),
            str(self.value),
            str(int(self.feasible)),
            str(self.delivered),
            str(int(self.success)),
            str(self.simulated_ttr),
            f"{self.wallclock_ttr:.6f}" if with_wallclock else "",
            str(self.messages),
            str(self.relabels),
            self.error,
        ]


@dataclass
class ExperimentReport:
    rows: list[TxnResult]
    with_wallclock: bool = False
    aggregate: dict = field(init=False)

    def __post_init__(self):
        self.aggregate = self._aggregate()

    def _aggregate(self) -> dict:
        done = [r for r in self.rows if not r.error]
        count = len(self.rows)
        successes = sum(r.success for r in self.rows)
        agg = {
            "txn_count": count,
            "errors": count - len(done),
            "successes": successes,
            "success_ratio": successes / count if count else 0.0,
            "feasible_ratio": sum(r.feasible for r in self.rows) / count if count else 0.0,
        }
        if done:
            ttrs = [r.simulated_ttr for r in done]
            agg["mean_simulated_ttr"] = statistics.fmean(ttrs)
            agg["p50_simulated_ttr"] = statistics.median(ttrs)
            # nearest rank: the ceil(0.95 n)-th smallest, in exact integer arithmetic
            agg["p95_simulated_ttr"] = sorted(ttrs)[-(-95 * len(ttrs) // 100) - 1]
            agg["mean_messages"] = statistics.fmean(r.messages for r in done)
            agg["mean_relabels"] = statistics.fmean(r.relabels for r in done)
            if self.with_wallclock:
                agg["mean_wallclock_ttr_hw"] = statistics.fmean(
                    r.wallclock_ttr for r in done
                )
        # the two classes cost very different amounts, so each gets its share
        messages = sum(r.messages for r in self.rows)
        seconds = sum(r.wallclock_ttr for r in self.rows)
        for name, feasible in (("feasible", True), ("infeasible", False)):
            rows = [r for r in self.rows if r.feasible == feasible]
            mine = sum(r.messages for r in rows)
            split = {
                "count": len(rows),
                "mean_messages": mine / len(rows) if rows else 0.0,
                "message_share": mine / messages if messages else 0.0,
            }
            if self.with_wallclock:
                time_spent = sum(r.wallclock_ttr for r in rows)
                split["time_share"] = time_spent / seconds if seconds else 0.0
            agg[name] = split
        return agg

    def write_csv(self, fh: IO[str]) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow(r.row(self.with_wallclock))

    def to_json(self) -> str:
        return json.dumps(
            {
                "columns": CSV_COLUMNS,
                "rows": [r.row(self.with_wallclock) for r in self.rows],
                "aggregate": self.aggregate,
            },
            indent=2,
            sort_keys=True,
        )

    def summary_lines(self) -> list[str]:
        agg = self.aggregate
        lines = [
            f"transactions      {agg['txn_count']} ({agg['errors']} errors)",
            f"success_ratio     {agg['success_ratio']:.4f}",
            f"feasible_ratio    {agg['feasible_ratio']:.4f}",
        ]
        if "mean_simulated_ttr" in agg:
            lines.append(
                "simulated_ttr     "
                f"mean {agg['mean_simulated_ttr']:.1f}  p50 {agg['p50_simulated_ttr']:.0f}  "
                f"p95 {agg['p95_simulated_ttr']:.0f}"
            )
            lines.append(f"mean_messages     {agg['mean_messages']:.1f}")
            lines.append(f"mean_relabels     {agg['mean_relabels']:.1f}")
        if "mean_wallclock_ttr_hw" in agg:
            lines.append(
                f"wallclock_ttr     mean {agg['mean_wallclock_ttr_hw']:.4f}s (hardware-bound)"
            )
        for name in ("feasible", "infeasible"):
            split = agg[name]
            line = (
                f"{name:<18}{split['count']} txns  mean_messages {split['mean_messages']:.1f}  "
                f"messages {split['message_share']:.1%}"
            )
            if "time_share" in split:
                line += f"  time {split['time_share']:.1%}"
            lines.append(line)
        return lines


def run_txn(
    g: ChannelGraph,
    txn_id: int,
    txn: Transaction,
    master_seed: int,
    latency: LatencyModel,
) -> TxnResult:
    """Route one transaction on the pristine graph and score it."""
    feasible = is_feasible(g, txn.s, txn.r, txn.val)
    cfg = SimConfig(seed=txn_seed(master_seed, txn_id), latency=latency)
    started = time.perf_counter()
    sim = Simulator(g, txn.s, txn.r, txn.val, cfg)
    error = ""
    try:
        sim.run()
    except EventBudgetExhausted:
        # the row keeps the counters so far
        error = "event_budget_exhausted"
    elapsed = time.perf_counter() - started
    # the virtual sink n+1 holds what was delivered
    delivered = sim.states[g.n + 1].excess
    return TxnResult(
        txn_id,
        txn.s,
        txn.r,
        txn.val,
        feasible,
        delivered,
        not error and delivered == txn.val,
        sim.simulated_time,
        elapsed,
        sim.messages_sent,
        sim.relabels,
        error,
    )


def run_bench(
    g: ChannelGraph,
    txns: list[Transaction],
    master_seed: int = 0,
    latency: LatencyModel | None = None,
    with_wallclock: bool = False,
) -> ExperimentReport:
    latency = latency or LatencyModel.constant(1)
    rows = [run_txn(g, i, t, master_seed, latency) for i, t in enumerate(txns)]
    return ExperimentReport(rows, with_wallclock=with_wallclock)
