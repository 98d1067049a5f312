"""Property tests over randomized graphs, flows and schedules."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hushrelay.decompose import cancel_cycles, decompose
from hushrelay.netfile import dumps_network, loads_network
from hushrelay.oracle import maxflow_augmenting
from hushrelay.sim import LatencyModel, SimConfig, Simulator
from hushrelay.topology import BAConfig, generate_ba

from .conftest import escrows, reversed_flow
from .oracles import (
    apply_flow,
    check_node_invariants,
    feasible_flow_sequential,
    invariants_checked,
    scipy_max_flow,
    validate_flow,
)


ba_configs = st.builds(
    BAConfig,
    n=st.integers(3, 30),
    m_attach=st.just(2),
    cap_range=st.tuples(st.integers(0, 10), st.integers(10, 60)),
    seed=st.integers(0, 2**32 - 1),
)


def random_instance(cfg: BAConfig, pick: int, val: int):
    g = generate_ba(cfg)
    rng = random.Random(pick)
    s = rng.randrange(g.n)
    r = rng.randrange(g.n - 1)
    if r >= s:
        r += 1
    return g, s, r, val


@given(ba_configs)
@settings(max_examples=40, deadline=None)
def test_network_format_round_trip(cfg):
    g = generate_ba(cfg)
    text = dumps_network(g)
    assert loads_network(text) == g
    assert dumps_network(loads_network(text)) == text


@given(ba_configs, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_oracle_flow_satisfies_all_constraints(cfg, pick):
    g, s, r, _ = random_instance(cfg, pick, 0)
    res = maxflow_augmenting(g, s, r)
    validate_flow(res.flow, g)
    assert res.flow.value == res.max_value
    for (v, w), a in res.flow.positive_edges().items():
        assert g.cap[v].get(w, 0) - a >= 0


def test_oracle_and_routing_match_scipy_maximum_flow():
    pytest.importorskip("scipy.sparse.csgraph")

    @given(ba_configs, st.integers(0, 10**6), st.integers(1, 120))
    @settings(max_examples=40, deadline=None)
    def check(cfg, pick, val):
        g, s, r, _ = random_instance(cfg, pick, val)
        expected = scipy_max_flow(g, s, r)
        assert maxflow_augmenting(g, s, r).max_value == expected
        out = Simulator(g, s, r, val, SimConfig(seed=pick)).run()
        assert out.delivered == min(val, expected)

    check()


def test_infeasible_payments_deliver_max_flow_under_jitter():
    # values above max-flow drive relabel work past the epoch trigger, so
    # global relabeling epochs run while pushes are reordered by jittered
    # latency
    pytest.importorskip("scipy.sparse.csgraph")
    epochs = []

    @given(
        st.builds(
            BAConfig,
            n=st.integers(3, 40),
            m_attach=st.just(2),
            cap_range=st.tuples(st.integers(0, 10), st.integers(10, 60)),
            seed=st.integers(0, 2**32 - 1),
        ),
        st.integers(0, 10**6),
        st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def check(cfg, pick, extra):
        g, s, r, _ = random_instance(cfg, pick, 0)
        expected = maxflow_augmenting(g, s, r).max_value
        assert scipy_max_flow(g, s, r) == expected
        cfg_sim = SimConfig(seed=pick, latency=LatencyModel(1, 10))
        with invariants_checked(g):
            out = Simulator(g, s, r, expected + extra, cfg_sim).run()
        assert out.delivered == expected
        assert out.returned == extra
        epochs.append(out.global_relabels)

    check()
    assert any(epochs)


@given(ba_configs, st.integers(0, 10**6), st.integers(0, 120))
@settings(max_examples=40, deadline=None)
def test_apply_flow_conserves_escrow_and_inverts(cfg, pick, val):
    g, s, r, _ = random_instance(cfg, pick, val)
    f = feasible_flow_sequential(g, s, r, val)
    g2 = apply_flow(g, f)
    assert escrows(g2) == escrows(g)
    assert apply_flow(g2, reversed_flow(f)) == g


@given(ba_configs, st.integers(0, 10**6), st.integers(1, 120))
@settings(max_examples=40, deadline=None)
def test_routing_matches_oracle_and_keeps_invariants(cfg, pick, val):
    g, s, r, _ = random_instance(cfg, pick, val)
    sim = Simulator(g, s, r, val, SimConfig(seed=pick))
    with invariants_checked(g):
        out = sim.run()
    expected = min(val, maxflow_augmenting(g, s, r).max_value)
    assert out.delivered == expected
    assert out.delivered + out.returned == val
    validate_flow(out.flow, g)
    for st_ in sim.states.values():
        check_node_invariants(st_, g.n)


@given(ba_configs, st.integers(0, 10**6), st.integers(1, 120), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_outcome_is_schedule_independent(cfg, pick, val, latency_seed):
    g, s, r, _ = random_instance(cfg, pick, val)
    base = Simulator(g, s, r, val, SimConfig(seed=0)).run()
    jittered = Simulator(
        g, s, r, val,
        SimConfig(seed=latency_seed, latency=LatencyModel(1, 10)),
    ).run()
    assert jittered.delivered == base.delivered


@given(ba_configs, st.integers(0, 10**6), st.integers(1, 120))
@settings(max_examples=40, deadline=None)
def test_decomposition_covers_delivered_value(cfg, pick, val):
    g, s, r, _ = random_instance(cfg, pick, val)
    out = Simulator(g, s, r, val, SimConfig(seed=1)).run()
    paths = decompose(out.flow)
    assert sum(v for _, v in paths) == out.delivered
    assert len(paths) <= g.channel_count
    assert cancel_cycles(out.flow) is out.flow  # already acyclic
