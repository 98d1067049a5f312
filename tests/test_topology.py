import statistics
from collections import deque

import pytest

from hushrelay.topology import (
    BAConfig,
    InvalidConfig,
    Transaction,
    WorkloadConfig,
    generate_ba,
    generate_workload,
)


def _connected(g) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in g.cap[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


class TestGenerateBA:
    def test_edge_count_formula(self):
        # core K_m plus m edges per grown node: m(m-1)/2 + (n-m)m
        g = generate_ba(BAConfig(n=50, m_attach=2, seed=7))
        assert g.n == 50
        assert g.channel_count == 97

    def test_minimal_graph_is_complete_core(self):
        g = generate_ba(BAConfig(n=3, m_attach=2, seed=1))
        assert g.channel_count == 3  # triangle
        assert _connected(g)

    def test_tree_case_m1(self):
        g = generate_ba(BAConfig(n=30, m_attach=1, seed=5))
        assert g.channel_count == 29
        assert _connected(g)

    def test_same_seed_same_graph(self):
        a = generate_ba(BAConfig(n=60, m_attach=2, seed=11))
        b = generate_ba(BAConfig(n=60, m_attach=2, seed=11))
        assert a == b

    def test_different_seed_different_graph(self):
        a = generate_ba(BAConfig(n=60, m_attach=2, seed=11))
        b = generate_ba(BAConfig(n=60, m_attach=2, seed=12))
        assert a != b

    def test_capacities_within_range(self):
        g = generate_ba(BAConfig(n=40, m_attach=2, cap_range=(20, 100), seed=3))
        for ch in g.channels():
            assert 20 <= ch.cap_forward <= 100
            assert 20 <= ch.cap_backward <= 100

    def test_connected_across_seeds(self):
        for seed in range(10):
            assert _connected(generate_ba(BAConfig(n=100, m_attach=2, seed=seed)))

    def test_degree_distribution_is_heavy_tailed(self):
        # hubs emerge: max degree well above the median
        for seed in range(5):
            g = generate_ba(BAConfig(n=300, m_attach=2, seed=seed))
            degrees = [len(g.cap[v]) for v in range(g.n)]
            assert max(degrees) >= 3 * statistics.median(degrees)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InvalidConfig):
            generate_ba(BAConfig(n=1, m_attach=2, seed=0))

    def test_bad_cap_range_rejected(self):
        with pytest.raises(InvalidConfig):
            generate_ba(BAConfig(n=10, m_attach=2, cap_range=(5, 1), seed=0))


class TestGenerateWorkload:
    def test_defaults(self):
        g = generate_ba(BAConfig(n=30, m_attach=2, seed=0))
        txns = generate_workload(g, WorkloadConfig(seed=1))
        assert len(txns) == 2000
        assert all(10 <= t.val <= 80 for t in txns)
        assert all(t.s != t.r for t in txns)
        assert all(0 <= t.s < 30 and 0 <= t.r < 30 for t in txns)

    def test_zero_count_gives_empty_list(self):
        g = generate_ba(BAConfig(n=10, m_attach=2, seed=0))
        assert generate_workload(g, WorkloadConfig(txn_count=0, seed=1)) == []

    def test_seeded_determinism(self):
        g = generate_ba(BAConfig(n=30, m_attach=2, seed=0))
        a = generate_workload(g, WorkloadConfig(txn_count=50, seed=9))
        b = generate_workload(g, WorkloadConfig(txn_count=50, seed=9))
        assert a == b

    def test_tiny_graph_rejected(self):
        from hushrelay.graph import ChannelGraph

        with pytest.raises(InvalidConfig):
            generate_workload(ChannelGraph(1), WorkloadConfig(txn_count=1, seed=0))

    def test_zero_values_rejected(self):
        g = generate_ba(BAConfig(n=10, seed=0))
        with pytest.raises(InvalidConfig, match="bad value range"):
            generate_workload(g, WorkloadConfig(txn_count=5, val_range=(0, 4), seed=0))

    def test_transaction_is_value_like(self):
        assert Transaction(1, 2, 3) == Transaction(1, 2, 3)
