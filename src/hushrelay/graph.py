"""Payment channel network graph model and flow bookkeeping.

A channel is a bilateral escrow between two accounts with one capacity per
direction; the graph stores each direction once, at the node it leaves.
Capacities and flows are non-negative integers so all flow identities are
exact.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

Funds = int
NodeId = int
ChannelId = tuple[int, int]

# ChannelGraph(n) allocates per-node state up front, so n is bounded
MAX_NODES = 1 << 20


class PcnError(Exception):
    """Base class for graph-level errors."""


class SelfLoop(PcnError):
    pass


class DuplicateChannel(PcnError):
    pass


class NegativeCapacity(PcnError):
    pass


class Channel(NamedTuple):
    """One payment channel.  Endpoints are normalized so u < v.

    cap_forward funds the u->v direction, cap_backward the v->u direction.
    Their sum is the escrowed total and is conserved by any flow update.
    """

    u: NodeId
    v: NodeId
    cap_forward: Funds
    cap_backward: Funds

    @property
    def id(self) -> ChannelId:
        return (self.u, self.v)


class ChannelGraph:
    """Bidirected capacitated graph of accounts and payment channels.

    Stored once, as each node's directed capacities: cap[v][w] = c(v, w)
    for every channel neighbor w, so a channel is the pair of entries
    cap[v][w] and cap[w][v].  At most one channel per unordered node pair;
    non-edges answer with capacity 0.  Mutation happens only through
    open_channel, and readers never write to cap.
    """

    def __init__(self, n: int):
        if not 0 <= n <= MAX_NODES:
            raise ValueError(f"node count must be in 0..{MAX_NODES}, got {n}")
        self.n = n
        self.cap: list[dict[NodeId, Funds]] = [{} for _ in range(n)]
        self.channel_count = 0

    # -- queries ---------------------------------------------------------

    def channels(self) -> Iterator[Channel]:
        """Each channel once, sorted by endpoint pair."""
        cap = self.cap
        for u in range(self.n):
            for v in sorted(cap[u]):
                if v > u:
                    yield Channel(u, v, cap[u][v], cap[v][u])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelGraph):
            return NotImplemented
        return self.n == other.n and self.cap == other.cap

    def __repr__(self) -> str:
        return f"ChannelGraph(n={self.n}, channels={self.channel_count})"

    # -- mutation --------------------------------------------------------

    def open_channel(self, u: NodeId, v: NodeId, cap_uv: Funds, cap_vu: Funds) -> ChannelId:
        """Insert a channel with capacity cap_uv for u->v and cap_vu for v->u."""
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            bad = v if 0 <= u < n else u
            raise PcnError(f"node {bad} out of range 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"channel endpoints must differ, got {u}")
        if cap_uv < 0 or cap_vu < 0:
            raise NegativeCapacity(f"capacities must be >= 0, got {cap_uv}, {cap_vu}")
        cid = (u, v) if u < v else (v, u)
        cap = self.cap
        out = cap[u]
        if v in out:
            raise DuplicateChannel(f"channel {cid} already open")
        out[v] = cap_uv
        cap[v][u] = cap_vu
        self.channel_count += 1
        return cid


class FlowAssignment:
    """Integer edge flow, stored as each node's positive outflows.

    out[v][w] = f(v, w) > 0, with at most one direction per pair and no
    empty rows.  Every stage fills and reads these successor dicts in
    place.  `value` is the net flow into the sink.
    """

    def __init__(self, source: NodeId, sink: NodeId):
        self.source = source
        self.sink = sink
        self.out: dict[NodeId, dict[NodeId, Funds]] = {}

    def positive_edges(self) -> dict[tuple[NodeId, NodeId], Funds]:
        return {(v, w): a for v, row in self.out.items() for w, a in row.items()}

    @property
    def value(self) -> Funds:
        """Net flow into the sink."""
        sink = self.sink
        inflow = sum(row.get(sink, 0) for row in self.out.values())
        return inflow - sum(self.out.get(sink, {}).values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowAssignment):
            return NotImplemented
        return (self.source, self.sink, self.out) == (other.source, other.sink, other.out)

    def __repr__(self) -> str:
        return f"FlowAssignment({self.source}->{self.sink}, value={self.value}, out={self.out})"
