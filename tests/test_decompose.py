import random
from collections import deque

import pytest

from hushrelay.decompose import cancel_cycles, decompose
from hushrelay.graph import FlowAssignment
from hushrelay.sim import SimConfig, Simulator
from hushrelay.topology import BAConfig, WorkloadConfig, generate_ba, generate_workload

from .conftest import A, B, C, R, S
from .oracles import add_flow, net_flow, validate_flow


def has_cycle(flow: FlowAssignment) -> bool:
    """Independent acyclicity check: peel zero-indegree nodes (Kahn)."""
    pos = flow.positive_edges()
    indeg: dict[int, int] = {}
    out: dict[int, list[int]] = {}
    for v, w in pos:
        indeg[w] = indeg.get(w, 0) + 1
        indeg.setdefault(v, 0)
        out.setdefault(v, []).append(w)
    queue = deque(v for v, d in indeg.items() if d == 0)
    removed = 0
    while queue:
        v = queue.popleft()
        removed += 1
        for w in out.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return removed != len(indeg)


def worked_flow() -> FlowAssignment:
    f = FlowAssignment(S, R)
    for v, w, a in [(S, A, 10), (A, C, 10), (S, B, 5), (B, C, 5), (C, R, 15)]:
        add_flow(f, v, w, a)
    return f


class TestDecompose:
    def test_worked_example_splits_into_two_paths(self):
        # widest-first: S-A-C-R bottlenecks at 10, then S-B-C-R at 5
        assert decompose(worked_flow()) == [
            ((S, A, C, R), 10),
            ((S, B, C, R), 5),
        ]

    def test_single_channel_flow_is_one_path(self):
        f = FlowAssignment(0, 1)
        add_flow(f, 0, 1, 7)
        assert decompose(f) == [((0, 1), 7)]

    def test_empty_flow_gives_no_paths(self):
        assert decompose(FlowAssignment(0, 1)) == []

    def test_tie_break_is_lexicographic(self):
        # two disjoint 2-hop paths of equal width: 0-1-3 sorts before 0-2-3
        f = FlowAssignment(0, 3)
        add_flow(f, 0, 1, 5)
        add_flow(f, 1, 3, 5)
        add_flow(f, 0, 2, 5)
        add_flow(f, 2, 3, 5)
        assert decompose(f) == [((0, 1, 3), 5), ((0, 2, 3), 5)]

    def test_circulation_rejected(self):
        # a 3-cycle hanging off the path; a FlowAssignment nets a pair's two
        # directions, so three edges is the shortest cycle it can hold
        f = FlowAssignment(0, 3)
        for v, w, a in [(0, 1, 5), (1, 3, 5), (1, 2, 3), (2, 4, 3), (4, 1, 3)]:
            add_flow(f, v, w, a)
        with pytest.raises(ValueError, match="not acyclic"):
            decompose(f)

    def test_path_values_sum_to_delivered_on_random_flows(self):
        rng = random.Random(31)
        for trial in range(60):
            g = generate_ba(BAConfig(n=rng.randint(5, 40), m_attach=2, seed=trial))
            (txn,) = generate_workload(g, WorkloadConfig(txn_count=1, seed=trial))
            out = Simulator(g, txn.s, txn.r, txn.val, SimConfig(seed=trial)).run()
            paths = decompose(out.flow)
            assert sum(v for _, v in paths) == out.delivered
            for path, width in paths:
                assert path[0] == txn.s and path[-1] == txn.r
                assert width > 0
                # every hop is a positive-flow edge wide enough for the term
                edges = list(zip(path, path[1:]))
                assert all(net_flow(out.flow, v, w) > 0 for v, w in edges)


class TestCancelCycles:
    def test_plain_cycle_vanishes(self):
        f = FlowAssignment(0, 3)
        add_flow(f, 0, 1, 5)
        add_flow(f, 1, 3, 5)
        add_flow(f, 1, 2, 3)
        add_flow(f, 2, 1, 3)  # 1->2->1 circulation
        canceled = cancel_cycles(f)
        assert canceled.positive_edges() == {(0, 1): 5, (1, 3): 5}
        assert canceled.value == f.value

    def test_cycle_through_longer_loop(self):
        f = FlowAssignment(0, 4)
        add_flow(f, 0, 4, 2)
        for v, w in [(1, 2), (2, 3), (3, 1)]:
            add_flow(f, v, w, 7)
        canceled = cancel_cycles(f)
        assert canceled.positive_edges() == {(0, 4): 2}

    def test_acyclic_flow_returned_unchanged(self):
        f = worked_flow()
        assert cancel_cycles(f) is f

    def test_partial_cancellation_keeps_net_path(self):
        # cycle shares an edge with the payment path; only circulation goes
        f = FlowAssignment(0, 2)
        add_flow(f, 0, 1, 4)
        add_flow(f, 1, 2, 4)
        add_flow(f, 1, 0, 0)  # stored zero pair; no effect
        add_flow(f, 2, 0, 0)
        canceled = cancel_cycles(f)
        assert canceled.value == 4

    def test_overlapping_cycles_all_removed(self):
        # two cycles sharing node 1 plus a through-path
        f = FlowAssignment(0, 4)
        add_flow(f, 0, 1, 2)
        add_flow(f, 1, 4, 2)
        add_flow(f, 1, 2, 3)
        add_flow(f, 2, 1, 3)
        add_flow(f, 1, 3, 5)
        add_flow(f, 3, 1, 5)
        canceled = cancel_cycles(f)
        assert not has_cycle(canceled)
        assert canceled.positive_edges() == {(0, 1): 2, (1, 4): 2}

    def test_raw_ledgers_cancel_to_acyclic_flows(self):
        # drain-heavy runs produce circulation in the raw ledgers; verify the
        # sweep against the independent acyclicity check on rebuilt ledgers
        from hushrelay.sim import Simulator

        rng = random.Random(7)
        cyclic_seen = 0
        for trial in range(40):
            n = rng.randint(8, 30)
            g = generate_ba(BAConfig(n=n, m_attach=2, cap_range=(5, 30), seed=trial))
            s = rng.randrange(n)
            r = rng.randrange(n - 1)
            if r >= s:
                r += 1
            sim = Simulator(g, s, r, rng.randint(30, 90), SimConfig(seed=trial))
            sim.run()
            raw = FlowAssignment(s, r)
            for ch in g.channels():
                st = sim.states.get(ch.u)  # a node no message reached has no flow
                f_uv = st.edge_flow[ch.v] if st else 0
                if f_uv:
                    add_flow(raw, ch.u, ch.v, f_uv)
            if has_cycle(raw):
                cyclic_seen += 1
            canceled = cancel_cycles(raw)
            assert not has_cycle(canceled)
            assert canceled.value == raw.value
            validate_flow(canceled, g)
        assert cyclic_seen > 0  # the corpus genuinely exercises cancellation
