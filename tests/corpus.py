"""Differential corpus: random routing instances checked against independent max-flows.

    PYTHONPATH=src python -m tests.corpus --seed 1 --count 10000

Instance i of seed S is drawn from its own generator, so `instance(S, i)`
rebuilds it alone, whatever the count.  Each is a BA graph or a uniform
random graph (n 4-300, log-uniform, so small networks dominate; m_attach
1-3; capacities drawn from 0, so some channel directions have none, and a
random graph may leave nodes with no path to the receiver), a sender, a
receiver, a value at or below max-flow or up to 40 above it, and one of
LATENCIES.  Every run is inside the per-event invariant oracle
(`tests.oracles.invariants_checked`), which checks each handled node after
every event.

An instance is wrong when run() delivers anything but min(value, max-flow)
by `maxflow_augmenting` (and by scipy's maximum_flow, when scipy imports),
returns anything but the rest, or when a run driven by step() gives another
trace or outcome.  A delivery is also wrong when `decompose`'s paths do not
sum to it, or when `reconstruct` of the flow report, sealed with a
generator seeded by the instance's sim_seed, does not give back the flow;
neither check feeds the digest.  It is an error when routing, decomposing
or the report raises.  The output counts instances, wrong ones, errors and
runs with a later epoch, totals the messages of the instances whose value
is at most max-flow and, apart, of those whose value exceeds it, and gives
one sha256 over every instance's trace and outcome.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import random
import sys
from dataclasses import dataclass, field

from hushrelay.decompose import decompose
from hushrelay.graph import ChannelGraph
from hushrelay.oracle import maxflow_augmenting
from hushrelay.report import reconstruct, run_report
from hushrelay.sim import LatencyModel, SimConfig, Simulator
from hushrelay.topology import BAConfig, generate_ba

from .oracles import invariants_checked, scipy_max_flow, step

LATENCIES = ("const:1", "const:3", "uniform:1:3", "uniform:1:10", "uniform:1:100")


@dataclass
class Instance:
    index: int
    graph: ChannelGraph
    s: int
    r: int
    value: int
    max_flow: int
    latency: str
    sim_seed: int


def random_graph(n: int, m_attach: int, cap_hi: int, rng: random.Random) -> ChannelGraph:
    """About m_attach * n channels between uniform random node pairs; may be disconnected."""
    g = ChannelGraph(n)
    for _ in range(m_attach * n):
        u, v = rng.sample(range(n), 2)
        if v not in g.cap[u]:
            g.open_channel(u, v, rng.randint(0, cap_hi), rng.randint(0, cap_hi))
    return g


def instance(seed: int, index: int) -> Instance:
    rng = random.Random(f"corpus/{seed}/{index}")
    n = round(math.exp(rng.uniform(math.log(4), math.log(300))))
    m_attach = rng.randint(1, 3)
    cap_hi = rng.choice((3, 10, 100))
    if rng.random() < 0.5:
        g = generate_ba(BAConfig(n, m_attach, (0, cap_hi), rng.getrandbits(32)))
    else:
        g = random_graph(n, m_attach, cap_hi, rng)
    s, r = rng.sample(range(n), 2)
    max_flow = maxflow_augmenting(g, s, r).max_value
    if max_flow and rng.random() < 0.5:
        value = rng.randint(1, max_flow)
    else:
        value = max_flow + rng.randint(1, 40)
    return Instance(index, g, s, r, value, max_flow, rng.choice(LATENCIES), rng.getrandbits(32))


def route(inst: Instance, stepped: bool):
    """run()'s outcome and trace text; with `stepped`, driven by step() to the end first."""
    cfg = SimConfig(seed=inst.sim_seed, latency=LatencyModel.parse(inst.latency))
    buf = io.StringIO()
    sim = Simulator(inst.graph, inst.s, inst.r, inst.value, cfg, trace=buf)
    with invariants_checked(inst.graph):
        while stepped and step(sim):
            pass
        return sim.run(), buf.getvalue()


def flow_pipeline(inst: Instance, out) -> list[str]:
    """What is wrong with a delivery's path split and its flow report round trip."""
    if not out.delivered:
        return []
    problems = []
    if sum(width for _, width in decompose(out.flow)) != out.delivered:
        problems.append("paths do not sum to the delivered value")
    rr = run_report(out.flow, rng=random.Random(inst.sim_seed))
    if reconstruct(inst.s, inst.r, rr.source_packets, rr.k_sink, rr.filler_set).flow != out.flow:
        problems.append("the flow report rebuilds another flow")
    return problems


@dataclass
class Tally:
    instances: int = 0
    wrong: int = 0
    errors: int = 0
    later_epochs: int = 0
    feasible_messages: int = 0  # summed over instances whose value is at most max-flow
    infeasible_messages: int = 0  # summed over instances whose value exceeds max-flow
    scipy_checked: bool = False
    failures: list[str] = field(default_factory=list)
    digest: str = ""


def run_corpus(seed: int, count: int) -> Tally:
    tally = Tally()
    try:
        scipy_max_flow(ChannelGraph(2), 0, 1)
        tally.scipy_checked = True
    except ImportError:
        pass
    digest = hashlib.sha256()
    for index in range(count):
        inst = instance(seed, index)
        tally.instances += 1
        what = f"instance {index}: n={inst.graph.n} {inst.s}->{inst.r} value {inst.value} {inst.latency}"
        try:
            out, trace = route(inst, stepped=False)
            stepped_out, stepped_trace = route(inst, stepped=True)
            problems = flow_pipeline(inst, out)
        except Exception as exc:  # every failure is counted, and the corpus goes on
            tally.errors += 1
            tally.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        expected = min(inst.value, inst.max_flow)
        if tally.scipy_checked and scipy_max_flow(inst.graph, inst.s, inst.r) != inst.max_flow:
            problems.append("oracles disagree")
        if (out.delivered, out.returned) != (expected, inst.value - expected):
            problems.append(f"delivered {out.delivered}, returned {out.returned}, expected {expected}")
        if (stepped_out, stepped_trace) != (out, trace):
            problems.append("step() differs from run()")
        if problems:
            tally.wrong += 1
            tally.failures.append(f"{what}: {'; '.join(problems)}")
        tally.later_epochs += out.global_relabels > 0
        if inst.value > inst.max_flow:
            tally.infeasible_messages += out.messages_sent
        else:
            tally.feasible_messages += out.messages_sent
        digest.update(trace.encode())
        digest.update(
            repr((
                out.delivered, out.returned, out.messages_sent, out.relabels,
                out.simulated_time, out.global_relabels, out.informed_relays,
                sorted(out.flow.positive_edges().items()),
            )).encode()
        )
    tally.digest = digest.hexdigest()
    return tally


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=1000)
    args = ap.parse_args(argv)
    tally = run_corpus(args.seed, args.count)
    for line in tally.failures[:20]:
        print(line)
    print(
        f"instances {tally.instances}  wrong {tally.wrong}  errors {tally.errors}  "
        f"later_epochs {tally.later_epochs}  feasible_messages {tally.feasible_messages}  "
        f"infeasible_messages {tally.infeasible_messages}  "
        f"scipy {'on' if tally.scipy_checked else 'off'}"
    )
    print(f"digest {tally.digest}")
    return 1 if tally.wrong or tally.errors else 0


if __name__ == "__main__":
    sys.exit(main())
