"""Scale-free network generation and transaction workloads.

Graphs grow by preferential attachment from a complete core of m_attach
nodes, so every graph is connected and the edge count is exactly
m(m-1)/2 + (n-m)*m for m = m_attach.  Each channel direction gets an
independent uniform capacity draw.  All generation is reproducible from the
seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .graph import ChannelGraph, Funds, NodeId


class InvalidConfig(ValueError):
    pass


@dataclass(frozen=True)
class BAConfig:
    n: int
    m_attach: int = 2
    cap_range: tuple[Funds, Funds] = (20, 100)
    seed: int = 0

    def validate(self) -> None:
        if self.m_attach < 1:
            raise InvalidConfig(f"m_attach must be >= 1, got {self.m_attach}")
        if self.n < self.m_attach + 1:
            raise InvalidConfig(
                f"need n >= m_attach + 1, got n={self.n}, m_attach={self.m_attach}"
            )
        lo, hi = self.cap_range
        if not 0 <= lo <= hi:
            raise InvalidConfig(f"bad capacity range {self.cap_range}")


@dataclass(frozen=True)
class WorkloadConfig:
    txn_count: int = 2000
    val_range: tuple[Funds, Funds] = (10, 80)
    seed: int = 0

    def validate(self) -> None:
        if self.txn_count < 0:
            raise InvalidConfig(f"txn_count must be >= 0, got {self.txn_count}")
        lo, hi = self.val_range
        if not 1 <= lo <= hi:
            raise InvalidConfig(f"bad value range {self.val_range}")


class Transaction(NamedTuple):
    # a named tuple builds in half the time of a frozen dataclass; building
    # them was about a third of generate_workload's time
    s: NodeId
    r: NodeId
    val: Funds


def generate_ba(cfg: BAConfig) -> ChannelGraph:
    """Preferential-attachment channel graph, deterministic per seed."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    # randrange(lo, stop) is what randint(lo, hi) calls: the same capacity
    # draws, one call fewer each
    lo, stop = cfg.cap_range[0], cfg.cap_range[1] + 1
    g = ChannelGraph(cfg.n)
    m = cfg.m_attach
    # one endpoint entry per edge end; sampling from it is degree-weighted
    repeated: list[int] = []
    # complete core
    for u in range(m):
        for v in range(u + 1, m):
            g.open_channel(u, v, rng.randrange(lo, stop), rng.randrange(lo, stop))
            repeated.append(u)
            repeated.append(v)
    for new in range(m, cfg.n):
        targets: set[int] = set()
        while len(targets) < m:
            if repeated:
                targets.add(rng.choice(repeated))
            else:
                targets.add(rng.randrange(new))
        for t in sorted(targets):
            g.open_channel(new, t, rng.randrange(lo, stop), rng.randrange(lo, stop))
        repeated.extend(targets)
        repeated.extend([new] * m)
    return g


def generate_workload(g: ChannelGraph, cfg: WorkloadConfig) -> list[Transaction]:
    """Uniform random (s, r, val) transactions, deterministic per seed."""
    cfg.validate()
    if g.n < 2:
        raise InvalidConfig("workload needs a graph with at least 2 nodes")
    rng = random.Random(cfg.seed)
    lo, hi = cfg.val_range
    txns = []
    for _ in range(cfg.txn_count):
        s = rng.randrange(g.n)
        r = rng.randrange(g.n - 1)
        if r >= s:
            r += 1
        txns.append(Transaction(s, r, rng.randint(lo, hi)))
    return txns
