"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/report.py

Runs run.py once per workload and for each of seeds 1-10 untraced, then once
per workload traced (on seed 1), each in its own process and one at a time,
for the run length that BENCHMARK.json gives.
Prints Markdown tables: every end-to-end metric with its median, quartiles
and quartile spread as a share of the median; the attempted and failed
counts; and the traced per-layer table.  The tracing overhead is the
untraced run's payments_per_s over the traced run's, on the same seed.  Raw
results go to perfbench/out/report.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small", "split-jitter", "drain")
SEEDS = range(1, 11)
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}", file=sys.stderr)
    return result


def spread_table(runs: list[dict]) -> list[str]:
    lines = [
        "| metric | unit | median | Q1 | Q3 | spread (IQR/median) |",
        "|---|---|---|---|---|---|",
    ]
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        lines.append(
            f"| `{name}` | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
            f"{(q3 - q1) / med:.3f} |"
        )
    return lines


def layer_table(traced: dict, untraced: dict) -> list[str]:
    lines = ["| layer metric | unit | p50 | max |", "|---|---|---|---|"]
    metrics = traced["metrics"]
    for name in sorted(k[: -len(".p50")] for k in metrics if k.endswith(".p50")):
        p50, top = metrics[name + ".p50"], metrics[name + ".max"]
        lines.append(f"| `{name}` | {p50['unit']} | {p50['value']:.4g} | {top['value']:.4g} |")
    traced_pps = metrics["trace.payments_per_s"]["value"]
    untraced_pps = untraced["metrics"]["payments_per_s"]["value"]
    lines.append(f"| `trace.payments_per_s` | payments/s | {traced_pps:.4g} | |")
    lines.append(
        f"\nTracing overhead: the untraced run of the same seed made {untraced_pps:.4g} "
        f"payments/s, {untraced_pps / traced_pps:.3f}x the traced run's {traced_pps:.4g}."
    )
    return lines


def main() -> int:
    raw = {}
    for w in WORKLOADS:
        untraced = [run_once(w, seed, 0) for seed in SEEDS]
        traced = run_once(w, SEEDS[0], 1)
        raw[w] = {"untraced": untraced, "traced": traced}
        attempted = [r["attempted"] for r in untraced]
        failed = [r["failed"] for r in untraced]
        print(f"\n### `{w}`: seeds {SEEDS[0]}-{SEEDS[-1]}, {SECONDS} s per run\n")
        print(f"Payments attempted per run {min(attempted)}-{max(attempted)}, "
              f"failed {sum(failed)} of {sum(attempted)}; "
              f"every run correct: {all(r['correct'] for r in untraced)}.\n")
        print("\n".join(spread_table(untraced)))
        print(f"\nTraced run, seed {SEEDS[0]} (per payment):\n")
        print("\n".join(layer_table(traced, untraced[0])))
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "report.json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
