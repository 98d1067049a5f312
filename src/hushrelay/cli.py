"""Command-line front end: generate networks, route payments, run benchmarks.

Exit codes: 0 success, 1 routing failure (delivered < requested), 2 usage
error, 3 I/O error.  The HUSHRELAY_SEED environment variable supplies the
seed when --seed is not given.  Hardware-bound wall-clock output is opt-in
(--wallclock); everything else is byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from random import Random

from . import __version__
from .bench import run_bench
from .decompose import decompose
from .graph import PcnError
from .netfile import ParseError, load_network, load_workload, save_network
from .report import reconstruct, run_report
from .sim import EventBudgetExhausted, LatencyModel, SimConfig, Simulator
from .topology import (
    BAConfig,
    WorkloadConfig,
    generate_ba,
    generate_workload,
)

EXIT_OK = 0
EXIT_ROUTING_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


def _env_seed() -> int:
    raw = os.environ.get("HUSHRELAY_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"HUSHRELAY_SEED must be an integer, got {raw!r}") from None


def _seed(args) -> int:
    return args.seed if args.seed is not None else _env_seed()


def _latency(args) -> LatencyModel:
    try:
        return LatencyModel.parse(args.latency)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_seed_range(spec: str) -> range:
    """'<lo>..<hi>', both ends included, or one seed."""
    lo_txt, dots, hi_txt = spec.partition("..")
    try:
        lo = int(lo_txt)
        hi = int(hi_txt) if dots else lo
    except ValueError:
        raise UsageError(f"bad seed or seed range {spec!r}") from None
    if hi < lo:
        raise UsageError(f"empty seed range {spec!r}")
    return range(lo, hi + 1)  # lazy: a huge sweep must not allocate its seeds


def _ba_config(args, seed: int) -> BAConfig:
    return BAConfig(
        n=args.nodes,
        m_attach=args.attach,
        cap_range=(args.cap_min, args.cap_max),
        seed=seed,
    )


def cmd_gen(args) -> int:
    g = generate_ba(_ba_config(args, _seed(args)))
    save_network(g, args.out)
    print(f"wrote {args.out}: {g.n} nodes, {g.channel_count} channels")
    return EXIT_OK


def cmd_route(args) -> int:
    g = load_network(args.network)
    seed = _seed(args)
    cfg = SimConfig(seed=seed, latency=_latency(args))
    trace_fh = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        sim = Simulator(g, args.source, args.sink, args.amount, cfg, trace=trace_fh)
        outcome = sim.run()
    except EventBudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ROUTING_FAILURE
    finally:
        if trace_fh:
            trace_fh.close()
    print(f"delivered {outcome.delivered} of {args.amount} (returned {outcome.returned})")
    print("paths:")
    for path, width in decompose(outcome.flow):
        print(f"  {'-'.join(map(str, path))} : {width}")
    print(
        f"messages {outcome.messages_sent}  relabels {outcome.relabels}  "
        f"simulated_ttr {outcome.simulated_time}"
    )
    if args.report_demo and outcome.delivered > 0:
        run = run_report(outcome.flow, rng=Random(seed))
        rec = reconstruct(
            args.source, args.sink, run.source_packets, run.k_sink, run.filler_set
        )
        status = "ok" if rec.flow == outcome.flow else "MISMATCH"
        print(
            f"flow report: {len(run.source_packets)} packets x "
            f"{len(run.source_packets[0])} bytes, depth {run.depth}, "
            f"reconstruction {status}"
        )
    return EXIT_OK if outcome.delivered == args.amount else EXIT_ROUTING_FAILURE


def _bench_graph(args, seed: int):
    if args.network:
        return load_network(args.network)
    if args.nodes is None:
        raise UsageError("bench needs --network or --nodes")
    return generate_ba(_ba_config(args, seed))


def _bench_workload(args, g, seed: int):
    if args.workload:
        return load_workload(args.workload, g.n)
    return generate_workload(
        g,
        WorkloadConfig(
            txn_count=args.txns, val_range=(args.val_min, args.val_max), seed=seed
        ),
    )


_SWEEP_COLUMNS = [
    "seed",
    "txn_count",
    "errors",
    "successes",
    "success_ratio",
    "feasible_ratio",
    "mean_simulated_ttr",
    "mean_messages",
]


def cmd_bench(args) -> int:
    if args.seeds:
        seeds = _parse_seed_range(args.seeds)
    else:
        seed = _seed(args)
        seeds = range(seed, seed + 1)
    # more than one seed; len() overflows on a range of 2**63 seeds or more
    sweep = bool(seeds[1:])
    if sweep and args.format == "json":
        raise UsageError("a seed sweep writes CSV only; drop --format json")
    latency = _latency(args)
    # a sweep keeps one aggregate row per seed, not the seed's whole report
    rows: list[list] = []
    for seed in seeds:
        g = _bench_graph(args, seed)
        txns = _bench_workload(args, g, seed)
        report = run_bench(
            g,
            txns,
            master_seed=seed,
            latency=latency,
            with_wallclock=args.wallclock,
        )
        agg = report.aggregate
        rows.append(
            [
                seed,
                agg["txn_count"],
                agg["errors"],
                agg["successes"],
                f"{agg['success_ratio']:.6f}",
                f"{agg['feasible_ratio']:.6f}",
                f"{agg.get('mean_simulated_ttr', 0):.3f}",
                f"{agg.get('mean_messages', 0):.3f}",
            ]
        )
        print(f"seed {seed}:")
        for line in report.summary_lines():
            print(f"  {line}")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            if sweep:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(_SWEEP_COLUMNS)
                writer.writerows(rows)
            elif args.format == "json":
                fh.write(report.to_json())
                fh.write("\n")
            else:
                report.write_csv(fh)
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hushrelay",
        description="Payment-channel-network routing via distributed push-relabel.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scale-free channel network file")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--attach", type=int, default=2, help="edges per new node")
    gen.add_argument("--cap-min", type=int, default=20)
    gen.add_argument("--cap-max", type=int, default=100)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    route = sub.add_parser("route", help="route one payment and print the split")
    route.add_argument("--network", required=True)
    route.add_argument("--source", type=int, required=True)
    route.add_argument("--sink", type=int, required=True)
    route.add_argument("--amount", type=int, required=True)
    route.add_argument("--seed", type=int, default=None)
    route.add_argument("--latency", default="const:1", help="const:<d> or uniform:<lo>:<hi>")
    route.add_argument("--trace", default=None, help="write a delivery trace to this file")
    route.add_argument(
        "--report-demo",
        action="store_true",
        help="run the encrypted flow-report round trip and verify it",
    )
    route.set_defaults(func=cmd_route)

    bench = sub.add_parser("bench", help="run a transaction workload against the oracle")
    bench.add_argument("--network", default=None)
    bench.add_argument("--nodes", type=int, default=None)
    bench.add_argument("--attach", type=int, default=2)
    bench.add_argument("--cap-min", type=int, default=20)
    bench.add_argument("--cap-max", type=int, default=100)
    bench.add_argument("--workload", default=None)
    bench.add_argument("--txns", type=int, default=2000)
    bench.add_argument("--val-min", type=int, default=10)
    bench.add_argument("--val-max", type=int, default=80)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--seeds", default=None, help="seed sweep, e.g. 1..5")
    bench.add_argument("--latency", default="const:1")
    bench.add_argument("--out", default=None)
    bench.add_argument("--format", choices=["csv", "json"], default="csv")
    bench.add_argument(
        "--wallclock",
        action="store_true",
        help="fill hardware-bound wall-clock columns (breaks byte determinism)",
    )
    bench.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # InvalidConfig, ZeroValue, SameSourceSink and NodeOutOfRange are ValueErrors
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, PcnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
