"""Smoke test of the benchmark driver, perfbench/run.py, on the current package.

The driver reads program API that the rest of the suite need not keep:
`FlowAssignment.positive_edges`, `ChannelGraph.channels()`,
`Simulator.outcome()`, `Simulator.events_dispatched` and
`ReportRun.position_lengths`, among others.  A change that drops or renames
one fails here instead of in a benchmark run.  Each workload routes only its
first five payments at seed 1, through the driver's own rounds and checker.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run_py():
    # run.py imports its sibling modules (checker, maxflow, ...) by bare name,
    # and its dataclasses look their module up in sys.modules
    name = "perfbench_run_smoke"
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("name", ["small", "split-jitter", "drain"])
def test_first_payments_run_and_pass_the_checker(run_py, name):
    w = run_py.WORKLOADS[name]
    setup = run_py.SetupTimer(w, 1)
    inputs = run_py.set_up(w, setup)
    inputs.txns = inputs.txns[:5]
    for trace in (True, False):
        run = run_py.Run(w, inputs, setup, seconds=0)
        tracer = run.loop(trace)  # one round: every payment, checked
        assert (run.attempted, run.failed) == (5, 0)
        metrics = run_py.per_layer(run, tracer) if trace else run_py.end_to_end(run)
        assert metrics
