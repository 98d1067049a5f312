"""Nearest-rank percentiles and the tail percentile a sample supports.

Run with: python3 -m pytest perfbench
"""

import pytest

from percentile import nearest_rank, rank, tail_percentile


def test_nearest_rank_is_ceil_of_share():
    values = list(range(1, 31))  # 1..30
    # 0.95 * 30 = 28.5 -> rank 29; truncating int(0.95 * n) - 1 as an index gives the 28th
    assert nearest_rank(values, 95) == 29
    assert sorted(values)[int(0.95 * len(values)) - 1] == 28
    assert nearest_rank(values, 50) == 15
    assert nearest_rank(values, 100) == 30
    assert nearest_rank(values, 0.1) == 1


def test_nearest_rank_when_share_is_whole():
    assert nearest_rank(list(range(1, 21)), 95) == 19
    assert nearest_rank(list(range(1, 11)), 50) == 5


def test_rank_uses_exact_arithmetic():
    # 99.9 * 1000 / 100 is 999.0000000000001 in floating point
    assert rank(99.9, 1000) == 999
    assert rank(99.9, 1001) == 1000


def test_nearest_rank_ignores_input_order():
    assert nearest_rank([5, 1, 4, 2, 3], 60) == 3


@pytest.mark.parametrize("pct", [0, -1, 100.5])
def test_rejects_bad_percentile(pct):
    with pytest.raises(ValueError):
        nearest_rank([1, 2], pct)


def test_rejects_empty_sample():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


@pytest.mark.parametrize(
    "n, pct",
    [(39, None), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_beyond(n, pct):
    assert tail_percentile(n) == pct
    if pct is not None:
        assert n - rank(pct, n) >= 10
