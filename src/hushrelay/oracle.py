"""Sequential ground-truth flow solver.

A shortest-augmenting-path max-flow (Edmonds-Karp) used as the trust
anchor, and the feasibility check built on it.  Each shortest augmenting
path is found by a breadth-first search from both ends of the residual
graph.  Correctness, not speed, is the contract here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ChannelGraph, FlowAssignment, Funds, NodeId

Flow = dict[tuple[NodeId, NodeId], Funds]


@dataclass
class OracleResult:
    max_value: Funds
    flow: FlowAssignment


def _shortest_path(
    cap: list[dict[NodeId, Funds]], flow: Flow, s: NodeId, r: NodeId
) -> list[NodeId] | None:
    """A shortest s->r path over residual edges, or None if r is cut off.

    A BFS from s over c(v, w) - f(v, w) and one from r over the capacity
    into each node, c(w, v) - f(w, v), expand one whole level at a time,
    the smaller frontier first, and stop at the first node both reached.
    """
    reached = ({s: s}, {r: r})  # per side: node -> neighbour it was reached from
    frontiers = [[s], [r]]
    while frontiers[0] and frontiers[1]:
        side = len(frontiers[0]) > len(frontiers[1])
        mine, theirs = reached[side], reached[not side]
        grown = []
        for v in frontiers[side]:
            for w in cap[v]:
                a, b = (w, v) if side else (v, w)
                if w not in mine and cap[a][b] - flow.get((a, b), 0) > 0:
                    mine[w] = v
                    if w in theirs:
                        return _walk(reached[0], w, s)[::-1] + _walk(reached[1], w, r)[1:]
                    grown.append(w)
        frontiers[side] = grown
    return None


def _walk(reached_from: dict[NodeId, NodeId], v: NodeId, end: NodeId) -> list[NodeId]:
    path = [v]
    while path[-1] != end:
        path.append(reached_from[path[-1]])
    return path


def _augment(g: ChannelGraph, s: NodeId, r: NodeId, stop_at: Funds | None) -> tuple[Funds, Flow]:
    """Augment along shortest paths; returns the value and f(v, w), kept antisymmetric."""
    if s == r:
        raise ValueError("source and sink must differ")
    flow: Flow = {}
    cap = g.cap
    total = 0
    while stop_at is None or total < stop_at:
        path = _shortest_path(cap, flow, s, r)
        if path is None:
            break
        bottleneck = min(
            cap[v][w] - flow.get((v, w), 0) for v, w in zip(path, path[1:])
        )
        if stop_at is not None:
            bottleneck = min(bottleneck, stop_at - total)
        for v, w in zip(path, path[1:]):
            flow[(v, w)] = flow.get((v, w), 0) + bottleneck
            flow[(w, v)] = flow.get((w, v), 0) - bottleneck
        total += bottleneck
    return total, flow


def maxflow_augmenting(
    g: ChannelGraph, s: NodeId, r: NodeId, stop_at: Funds | None = None
) -> OracleResult:
    """Exact maximum s->r flow via shortest augmenting paths.

    Deterministic given adjacency order.  If stop_at is given, augmentation
    halts once the flow reaches it (the reported value is then
    min(stop_at, true max)).
    """
    total, flow = _augment(g, s, r, stop_at)
    fa = FlowAssignment(s, r)
    for (v, w), a in flow.items():
        if a > 0:
            fa.out.setdefault(v, {})[w] = a
    return OracleResult(total, fa)


def is_feasible(g: ChannelGraph, s: NodeId, r: NodeId, val: Funds) -> bool:
    """True iff val units can be routed from s to r."""
    return _augment(g, s, r, val)[0] >= val
