"""Sequential ground-truth flow solver.

A shortest-augmenting-path max-flow used as the trust anchor, and the
feasibility check built on it.  Correctness, not speed, is the contract
here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import ChannelGraph, FlowAssignment, Funds, NodeId


@dataclass
class OracleResult:
    max_value: Funds
    flow: FlowAssignment


def maxflow_augmenting(
    g: ChannelGraph, s: NodeId, r: NodeId, stop_at: Funds | None = None
) -> OracleResult:
    """Exact maximum s->r flow via shortest augmenting paths.

    Deterministic given adjacency order.  If stop_at is given, augmentation
    halts once the flow reaches it (the reported value is then
    min(stop_at, true max)); feasibility checks use this to stay cheap.
    """
    if s == r:
        raise ValueError("source and sink must differ")
    flow: dict[tuple[int, int], int] = {}
    cap = g.cap
    total = 0
    while stop_at is None or total < stop_at:
        # BFS over residual edges for a shortest path
        parent: dict[int, int] = {s: s}
        queue = deque([s])
        while queue and r not in parent:
            v = queue.popleft()
            for w, c in cap[v].items():
                if w not in parent and c - flow.get((v, w), 0) > 0:
                    parent[w] = v
                    queue.append(w)
        if r not in parent:
            break
        path = [r]
        while path[-1] != s:
            path.append(parent[path[-1]])
        path.reverse()
        bottleneck = min(
            cap[v][w] - flow.get((v, w), 0) for v, w in zip(path, path[1:])
        )
        if stop_at is not None:
            bottleneck = min(bottleneck, stop_at - total)
        for v, w in zip(path, path[1:]):
            flow[(v, w)] = flow.get((v, w), 0) + bottleneck
            flow[(w, v)] = flow.get((w, v), 0) - bottleneck
        total += bottleneck
    fa = FlowAssignment(s, r)
    for (v, w), a in flow.items():
        if a > 0:
            fa.add(v, w, a)
    return OracleResult(total, fa)


def is_feasible(g: ChannelGraph, s: NodeId, r: NodeId, val: Funds) -> bool:
    """True iff val units can be routed from s to r."""
    return maxflow_augmenting(g, s, r, stop_at=val).max_value >= val
