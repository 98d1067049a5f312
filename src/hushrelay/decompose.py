"""Splitting an edge flow into path-level payments.

Cycles carry no payment.  `cancel_cycles` removes them once, when
`protocol.extract_outcome` assembles a routing outcome; every later stage
takes that acyclic flow as given.  `decompose` extracts source->sink paths
widest-first: each round takes the maximum-bottleneck path, breaking ties
toward the lexicographically smallest node sequence, and subtracts its
bottleneck.  Every round saturates at least one edge, so a flow over m
edges splits into at most m paths whose values sum to the delivered
amount.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .graph import FlowAssignment, Funds, NodeId

Path = tuple[NodeId, ...]


def cancel_cycles(flow: FlowAssignment) -> FlowAssignment:
    """Remove all directed flow cycles; value and validity are unchanged.

    One depth-first sweep with in-place cancellation: a back-edge closes a
    cycle, the cycle minimum is subtracted immediately (killing at least one
    edge for good), the search resumes from the cycle's entry node, and
    fully explored nodes are never revisited.
    """
    pos = {v: dict(targets) for v, targets in flow.out.items()}
    changed = False
    black: set[NodeId] = set()
    empty: dict[NodeId, Funds] = {}
    for start in sorted(pos):
        if start in black:
            continue
        stack = [start]
        index = {start: 0}
        iters = {start: iter(sorted(pos.get(start, ())))}
        while stack:
            v = stack[-1]
            advanced = False
            for w in iters[v]:
                if w in black or pos.get(v, empty).get(w, 0) <= 0:
                    continue  # fully explored, or edge died under a cancellation
                at = index.get(w)
                if at is not None:
                    # back-edge: cancel the cycle w .. v -> w
                    cyc = stack[at:] + [w]
                    edges = list(zip(cyc, cyc[1:]))
                    delta = min(pos[x][y] for x, y in edges)
                    for x, y in edges:
                        left = pos[x][y] - delta
                        if left:
                            pos[x][y] = left
                        else:
                            del pos[x][y]
                            if not pos[x]:
                                del pos[x]
                    changed = True
                    # abort exploration above w and re-scan it afresh
                    for popped in stack[at + 1 :]:
                        del index[popped]
                        del iters[popped]
                    del stack[at + 1 :]
                    iters[w] = iter(sorted(pos.get(w, ())))
                else:
                    stack.append(w)
                    index[w] = len(stack) - 1
                    iters[w] = iter(sorted(pos.get(w, ())))
                advanced = True
                break
            if not advanced:
                black.add(v)
                del index[v]
                del iters[v]
                stack.pop()
    if not changed:
        return flow
    canceled = FlowAssignment(flow.source, flow.sink)
    canceled.out = pos
    return canceled


def _widest_path(
    pos: dict[NodeId, dict[NodeId, Funds]], s: NodeId, r: NodeId
) -> tuple[Path, Funds] | None:
    """Maximum-bottleneck s->r path; ties broken toward the smaller node sequence."""
    heap: list[tuple[Funds, Path]] = [(0, (s,))]  # (-bottleneck, path)
    best: set[NodeId] = set()
    while heap:
        neg_b, path = heappop(heap)
        v = path[-1]
        if v == r:
            return path, -neg_b
        if v in best:
            continue
        best.add(v)
        for w, a in pos.get(v, {}).items():
            if w not in best:
                width = a if neg_b == 0 else min(a, -neg_b)
                heappush(heap, (-width, path + (w,)))
    return None


def decompose(flow: FlowAssignment) -> list[tuple[Path, Funds]]:
    """Split an acyclic flow into (path, value) terms summing to flow.value.

    Raises ValueError unless the flow splits exactly into simple
    source->sink paths: when no path is left before the value is reached,
    or when edges are left over once it is (circulation, or flow that no
    source->sink path carries).
    """
    pos = {v: dict(targets) for v, targets in flow.out.items()}
    target = flow.value
    paths: list[tuple[Path, Funds]] = []
    extracted = 0
    while extracted < target:
        found = _widest_path(pos, flow.source, flow.sink)
        if found is None:
            raise ValueError(
                f"flow decomposition exhausted at {extracted} of {target}"
            )
        path, width = found
        for v, w in zip(path, path[1:]):
            pos[v][w] -= width
            if pos[v][w] == 0:
                del pos[v][w]
        paths.append((path, width))
        extracted += width
    left = sorted((v, w) for v, targets in pos.items() for w in targets)
    if left:
        raise ValueError(
            f"flow is not acyclic or not conserved: edges {left} left over after the paths"
        )
    return paths
