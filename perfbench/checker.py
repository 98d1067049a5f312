"""Checks on each payment, computed apart from the program under test.

The maximum flow comes from scipy (maxflow.py); everything else is derived
from plain dicts of directed capacities and flows, so no check reuses the
program's own flow types, cycle cancelling, decomposition or report code.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

Edge = tuple[int, int]

# flow-report wire format: 1-byte layer tag, 16-byte nonce, 256-byte sealed block
UNIT_LEN = 1 + 16 + 256


class CheckFailed(Exception):
    """A payment's output contradicts the independent computation."""


@dataclass
class Payment:
    """Everything one payment produced, as plain data."""

    s: int
    r: int
    value: int
    max_flow: int
    feasible: bool
    delivered: int
    returned: int
    flow: dict[Edge, int]  # positive edges of the outcome flow
    paths: list[tuple[tuple[int, ...], int]]
    packet_lengths: list[int]  # every packet run_report emitted
    reconstructed: dict[Edge, int]  # positive edges of the source's rebuilt flow


def check_amounts(p: Payment) -> None:
    expected = min(p.value, p.max_flow)
    if p.delivered != expected:
        raise CheckFailed(f"delivered {p.delivered}, expected min({p.value}, {p.max_flow})")
    if p.feasible != (p.max_flow >= p.value):
        raise CheckFailed(f"is_feasible={p.feasible} but max-flow {p.max_flow} vs value {p.value}")
    if p.delivered + p.returned != p.value:
        raise CheckFailed(f"delivered {p.delivered} + returned {p.returned} != value {p.value}")


def topological_order(flow: dict[Edge, int]) -> list[int]:
    """Kahn's algorithm over the flow's edges; raises if they hold a cycle."""
    out: dict[int, list[int]] = defaultdict(list)
    indeg: dict[int, int] = defaultdict(int)
    for u, v in flow:
        out[u].append(v)
        indeg[v] += 1
        indeg.setdefault(u, 0)
    ready = deque(sorted(v for v, d in indeg.items() if d == 0))
    order = []
    while ready:
        v = ready.popleft()
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) != len(indeg):
        raise CheckFailed(f"flow has a cycle through {len(indeg) - len(order)} nodes")
    return order


def check_flow(caps: dict[Edge, int], p: Payment) -> list[int]:
    """Capacity, conservation and acyclicity; returns a topological order."""
    net: dict[int, int] = defaultdict(int)
    for (u, v), a in p.flow.items():
        if a <= 0:
            raise CheckFailed(f"non-positive flow {a} on {(u, v)}")
        if a > caps.get((u, v), 0):
            raise CheckFailed(f"flow {a} on {(u, v)} exceeds capacity {caps.get((u, v), 0)}")
        net[u] -= a
        net[v] += a
    # the ends are checked even when the flow never reaches them, so an empty
    # flow cannot stand in for a non-zero delivery
    for v in net.keys() | {p.s, p.r}:
        x = net.get(v, 0)
        want = p.delivered if v == p.r else -p.delivered if v == p.s else 0
        if x != want:
            raise CheckFailed(f"conservation broken at node {v}: net inflow {x}, want {want}")
    return topological_order(p.flow)


def longest_path(flow: dict[Edge, int], order: list[int], s: int, r: int) -> int:
    """Edges on the longest s->r path of an acyclic flow; 0 when r is unreached."""
    out: dict[int, list[int]] = defaultdict(list)
    for u, v in flow:
        out[u].append(v)
    dist = {s: 0}
    for v in order:
        if v in dist:
            for w in out[v]:
                dist[w] = max(dist.get(w, 0), dist[v] + 1)
    return dist.get(r, 0)


def check_paths(p: Payment) -> None:
    """Paths run s->r over flow edges and sum to the flow, edge by edge."""
    carried: dict[Edge, int] = defaultdict(int)
    for path, amount in p.paths:
        if len(path) < 2 or path[0] != p.s or path[-1] != p.r:
            raise CheckFailed(f"path {path} does not run from {p.s} to {p.r}")
        if len(set(path)) != len(path):
            raise CheckFailed(f"path {path} repeats a node")
        if amount <= 0:
            raise CheckFailed(f"path {path} carries non-positive {amount}")
        for edge in zip(path, path[1:]):
            if edge not in p.flow:
                raise CheckFailed(f"path {path} uses {edge}, which carries no flow")
            carried[edge] += amount
    if dict(carried) != p.flow:
        bad = sorted(e for e in p.flow.keys() | carried.keys() if carried.get(e) != p.flow.get(e))
        raise CheckFailed(f"paths do not sum to the flow on {len(bad)} edges, first {bad[0]}")


def check_packets(p: Payment, depth: int) -> None:
    """Every packet is depth units; every flow edge is reported at least once."""
    for length in p.packet_lengths:
        if length != depth * UNIT_LEN:
            raise CheckFailed(f"packet of {length} bytes, expected {depth} x {UNIT_LEN}")
    if len(p.packet_lengths) < len(p.flow):
        raise CheckFailed(f"{len(p.packet_lengths)} packets for {len(p.flow)} flow edges")


def check_payment(caps: dict[Edge, int], p: Payment) -> int:
    """Run every check on one payment; returns the longest flow path in edges."""
    check_amounts(p)
    order = check_flow(caps, p)
    check_paths(p)
    depth = longest_path(p.flow, order, p.s, p.r)
    check_packets(p, depth)
    if p.reconstructed != p.flow:
        raise CheckFailed("the source's reconstructed flow differs from the outcome flow")
    return depth


def check_values(workload_name: str, values: list[int], max_flows: list[int], drains: bool) -> None:
    """Workload-level property: every value within max-flow, or every value above it."""
    for i, (val, mf) in enumerate(zip(values, max_flows)):
        if drains and val <= mf:
            raise CheckFailed(f"{workload_name} payment {i}: value {val} does not exceed max-flow {mf}")
        if not drains and val > mf:
            raise CheckFailed(f"{workload_name} payment {i}: value {val} exceeds max-flow {mf}")
