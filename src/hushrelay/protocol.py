"""Distributed push-relabel routing as per-node state machines.

Each node owns its label, excess, per-edge flow ledger and a cache of
neighbor labels, and reacts to six message kinds: PushRequest, Accept,
Nak, LabelUpdate, SinkDistance and CutOff.  Handlers touch only the
receiving node's state and return outbound messages, so any dispatcher that
delivers messages to one node at a time (single-threaded or sharded) yields
the same behavior.

Key rules:
  - a push is applied optimistically at the sender and rolled back exactly
    on Nak;
  - the receiver accepts iff its label is strictly below the label carried
    in the request, unless the current epoch's SinkDistance wave missed it
    and it heard that wave from the sender, whose label is at most n: the
    sender may still reach r, and the receiver must stay cut off from it;
  - at most one push is in flight per directed edge, and a node never
    relabels while it has any push in flight (so a request always carries
    the sender's current label);
  - labels and label caches only ever increase (stale updates are
    discarded); caches are fed by Accept/Nak payloads and LabelUpdate,
    SinkDistance and CutOff broadcasts;
  - every payment starts from a valid labeling: each real node's label, and
    its cache of each neighbor's, is that node's hop distance to r in the
    public channel graph.  Residual channels are a subset of the public
    ones, so no residual edge drops more than one label.  Where balances
    make the residual distance longer, ordinary relabels repair the labels;
  - routing runs in numbered epochs.  Epoch 1 runs on those labels with no
    wave.  Each later epoch starts with a breadth-first SinkDistance wave
    from r that lifts every node it reaches to its hop distance to r over
    residual channels (under jittered latency, the length of the path the
    wave first arrived along).  Once that wave has died out, a CutOff wave
    from s lifts the nodes it did not reach, and from which s can be
    reached, to n+2 plus their hop distance to the feeder, so undeliverable
    excess drains back without climbing one relabel at a time.

Routing an amount val attaches a virtual source feeding s exactly val and a
virtual sink absorbing at most val from r.  Both are passive: they accept
pushes but never originate any.  Undeliverable excess climbs labels until it
drains back to the virtual source, so termination leaves every real node
with zero excess.  A real node's state is built when it is first looked up,
which in a run is when a message other than a LabelUpdate reaches it.  Its
first labels come from a breadth-first search from r that completes the
levels below its own and no more: a node one level past the last complete
level has a channel into it, so that node, and each neighbor of it the
search has not reached, is labeled from its own channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .graph import ChannelGraph, Funds, NodeId


class ProtocolError(Exception):
    """Invariant breach or malformed event; signals a bug, not a routing failure."""


class SameSourceSink(ValueError):
    pass


class ZeroValue(ValueError):
    pass


class UnknownNeighbor(ProtocolError):
    pass


class UnknownRequestId(ProtocolError):
    pass


class NotTerminated(ProtocolError):
    pass


@dataclass(slots=True)
class PushRequest:
    sender: NodeId
    request_id: int
    amount: Funds
    sender_label: int


@dataclass(slots=True)
class Accept:
    sender: NodeId  # the responder
    request_id: int
    amount: Funds
    responder_label: int


@dataclass(slots=True)
class Nak:
    sender: NodeId  # the responder
    request_id: int
    amount: Funds
    responder_label: int


@dataclass(slots=True)
class LabelUpdate:
    sender: NodeId
    new_label: int


@dataclass(slots=True)
class SinkDistance:
    sender: NodeId
    label: int  # the sender's hop distance to r
    epoch: int


@dataclass(slots=True)
class CutOff:
    sender: NodeId
    label: int  # n+2 plus the sender's hop distance to the feeder
    epoch: int


Message = PushRequest | Accept | Nak | LabelUpdate | SinkDistance | CutOff
Outbound = tuple[NodeId, Message]


@dataclass(slots=True)
class NodeState:
    """One protocol participant; mutated only by its owning dispatcher."""

    id: NodeId
    label: int = 0
    excess: Funds = 0
    # local ledger f(v, w) per neighbor, and static directed capacities
    # (the graph's own dict, except at s and r); the ledger's key order
    # (sorted channel neighbors, then the virtual peer) is the order in
    # which pushes are offered
    edge_flow: dict[NodeId, Funds] = field(default_factory=dict)
    cap: dict[NodeId, Funds] = field(default_factory=dict)
    neighbor_labels: dict[NodeId, int] = field(default_factory=dict)
    # neighbor -> (request id, amount) of the one push in flight to it
    pending: dict[NodeId, tuple[int, Funds]] = field(default_factory=dict)
    # sorted real channel neighbors; virtual peer excluded from broadcasts
    channel_neighbors: list[NodeId] = field(default_factory=list)
    next_request: int = 0
    wake_scheduled: bool = False
    # last epoch whose SinkDistance wave reached this node (0: none yet)
    reached: int = 0
    # last epoch whose CutOff wave lifted this node
    cut_off: int = 0
    # neighbors whose wave of epoch heard_epoch arrived while this node was
    # not reached in that epoch (it refuses their pushes); emptied when it
    # is reached
    heard: list[NodeId] | tuple = ()
    heard_epoch: int = 0
    # accepts pushes, never originates one: a virtual endpoint
    passive: bool = False
    # real nodes in the network: under valid labels, a node labeled above n
    # cannot reach r
    n: int = 0


class NodeStates(dict):
    """Node states by id; a real node's is built from the graph the first time it is looked up.

    Iteration and `len` see only the states built so far.  In a run, only
    the dispatch indexes: it builds the endpoints and the nodes reached by a
    message other than a LabelUpdate, which only goes into `heard` (merged
    by a later build).  `sim.RoutingOutcome.informed_relays` counts both.  Indexing
    a node never reached raises that count; `get`, `in` and `label` build nothing.
    The first-label search from r completes one level fewer than the deepest
    node looked up: a label past its complete levels comes from the node's
    own channels and is never stored.
    """

    def __init__(self, g: ChannelGraph, r: NodeId):
        super().__init__()
        self._cap = g.cap
        # a search from r: nodes within _depth hops are labeled, _frontier at _depth
        self._labels = [g.n + 3] * g.n
        self._labels[r] = 0
        self._frontier, self._depth = [r], 0
        self.heard: dict[NodeId, dict[NodeId, int]] = {}

    def _expand(self) -> None:
        """Complete the search's next level: label every node at _depth + 1."""
        labels, cap = self._labels, self._cap
        missed = len(labels) + 3
        depth = self._depth = self._depth + 1
        reached = []
        for w in self._frontier:
            for u in cap[w]:
                if labels[u] == missed:
                    labels[u] = depth
                    reached.append(u)
        self._frontier = reached

    def label(self, v: NodeId) -> int:
        """Real node v's first label: its hop distance to r over the public channels.

        Every node within _depth hops of r is labeled, so a node not labeled
        yet with a channel to one at _depth is at _depth + 1: its own
        channels show that, and the search goes no further.  Otherwise the
        search completes one more level and looks again.  A node with no
        channel path to r takes n+3, one above the feeder: its channels lead
        only to nodes that cannot reach r either, so any common label keeps
        the labeling valid, and a source among them returns the whole value
        at once.
        """
        labels = self._labels
        while labels[v] > self._depth:
            depth = self._depth
            for u in self._cap[v]:
                if labels[u] == depth:
                    return depth + 1
            if not self._frontier:
                break
            self._expand()
        return labels[v]

    def hear(self, v: NodeId, m: LabelUpdate) -> None:
        """on_label_update for a node not built: keep each sender's highest label, build nothing."""
        if m.sender not in self._cap[v]:
            raise UnknownNeighbor(f"node {v} got a label update from non-neighbor {m.sender}")
        heard = self.heard.setdefault(v, {})
        if m.new_label > heard.get(m.sender, 0):
            heard[m.sender] = m.new_label

    def __missing__(self, v: NodeId) -> NodeState:
        """Build v's state, with its label and its cache of each neighbor's.

        A neighbor the search has not labeled is one level above v, except
        when v is itself one level past the search's complete levels: then a
        neighbor with a channel into the last complete level is at v's level.
        Checking that reads one channel row per such neighbor.
        """
        labels = self._labels
        if not 0 <= v < len(labels):
            raise KeyError(v)
        label = labels[v]
        if label > self._depth:
            label = self.label(v)
        cap = self._cap[v]
        nbrs = sorted(cap)
        depth = self._depth
        if label == depth + 1:
            # v is one level past the search: a neighbor not labeled is at
            # v's level if it has a channel into level depth, else one above
            caps = self._cap
            cache = {}
            for w in nbrs:
                lw = labels[w]
                if lw > depth:
                    lw = label + 1
                    for u in caps[w]:
                        if labels[u] == depth:
                            lw = label
                            break
                cache[w] = lw
        else:
            far = label + 1  # the level of a neighbor the search has not labeled yet
            cache = {w: labels[w] if labels[w] < far else far for w in nbrs}
        heard = self.heard.pop(v, None)
        if heard:
            for w, lbl in heard.items():
                if lbl > cache[w]:
                    cache[w] = lbl
        st = self[v] = NodeState(
            id=v,
            label=label,
            edge_flow=dict.fromkeys(nbrs, 0),
            cap=cap,
            neighbor_labels=cache,
            channel_neighbors=nbrs,
            n=len(labels),
        )
        return st


def init_instance(g: ChannelGraph, s: NodeId, r: NodeId, val: Funds) -> NodeStates:
    """Per-node states for routing val from s to r; only the four endpoints' are built here.

    Every real node starts at its hop distance to r (`NodeStates.label`), and
    so does its cache of each neighbor's label; building s completes the
    search's levels below d(s, r) and no more.  Virtual endpoints take ids
    n and n+1; their edges exist only in the node states, never in the
    channel graph.  The virtual source starts at label n+2 with the full
    amount already pushed to s; every node starts with zero excess.
    """
    if s == r:
        raise SameSourceSink(f"source and sink must differ, got {s}")
    if val <= 0:
        raise ZeroValue(f"routed value must be > 0, got {val}")
    for v in (s, r):
        if not 0 <= v < g.n:
            raise ValueError(f"node {v} out of range 0..{g.n - 1}")
    sp, rp = g.n, g.n + 1
    states = NodeStates(g, r)

    # s and r gain a virtual peer, so they get copies of the graph's dicts
    src, snk = states[s], states[r]
    src.cap = {**g.cap[s], sp: 0}
    src.edge_flow[sp] = -val
    src.neighbor_labels[sp] = g.n + 2
    src.excess = val
    snk.cap = {**g.cap[r], rp: val}
    snk.edge_flow[rp] = 0
    snk.neighbor_labels[rp] = 0

    states[sp] = NodeState(
        id=sp,
        label=g.n + 2,
        edge_flow={s: val},
        cap={s: val},
        neighbor_labels={s: src.label},
        passive=True,
    )
    states[rp] = NodeState(
        id=rp,
        label=0,
        edge_flow={r: 0},
        cap={r: 0},
        neighbor_labels={r: 0},
        passive=True,
    )
    return states


def relabel(v: NodeState) -> LabelUpdate:
    """Raise v's label to one above its lowest residual neighbor.

    Precondition (caller-checked): v has excess and every residual neighbor's
    cached label is >= d(v).  Broadcast the new label to all neighbors.
    """
    lowest = None
    cap = v.cap
    flow = v.edge_flow
    for w, lbl in v.neighbor_labels.items():
        if cap[w] - flow[w] > 0 and (lowest is None or lbl < lowest):
            lowest = lbl
    if lowest is None:
        raise ProtocolError(f"node {v.id} has excess but no residual neighbor")
    v.label = lowest + 1
    return LabelUpdate(v.id, v.label)


def on_activate(v: NodeState) -> Sequence[Outbound]:
    """Push excess to eligible neighbors; relabel when none remain.

    Eligible: positive residual, cached label below ours, no push already in
    flight on that edge.  With pushes in flight we do not relabel; the
    replies re-activate us.
    """
    excess = v.excess
    if excess <= 0 or v.passive:
        return ()
    out: list[Outbound] = []
    label = v.label
    cache = v.neighbor_labels
    flow = v.edge_flow
    cap = v.cap
    pending = v.pending
    vid = v.id
    for w in flow:
        if cache[w] >= label or w in pending:
            continue
        res = cap[w] - flow[w]
        if res <= 0:
            continue
        delta = excess if excess < res else res
        flow[w] += delta
        excess -= delta
        # ids only need to be unique per sender: replies return to it
        rid = v.next_request
        v.next_request += 1
        pending[w] = (rid, delta)
        out.append((w, PushRequest(vid, rid, delta, label)))
        if excess == 0:
            break
    v.excess = excess
    if excess > 0 and not pending:
        update = relabel(v)
        for w in v.channel_neighbors:
            out.append((w, update))
    return out


def on_push_request(v: NodeState, m: PushRequest) -> Sequence[Outbound]:
    """Accept the push iff our label is below the sender's; otherwise Nak.

    Acceptance applies the inflow to the local ledger.  Either reply carries
    our current label so the sender can repair its cache.  A node the
    current epoch's wave did not reach refuses pushes from the neighbors it
    heard that wave from while their label is at most n: accepting would
    give it residual capacity toward a node that can still reach r, and a
    neighbor already lifted past the feeder by the cut-off wave would then
    sit on an open path to r.  Its Nak reports at least the sender's label,
    so the sender stops offering until it climbs above that.
    """
    sender = m.sender
    flow = v.edge_flow
    current = flow.get(sender)
    if current is None:
        raise UnknownNeighbor(f"node {v.id} got a push from non-neighbor {sender}")
    amount = m.amount
    if amount <= 0:
        raise ProtocolError(f"push of non-positive amount {amount}")
    label = v.label
    if v.heard and m.sender_label <= v.n and sender in v.heard:
        if label < m.sender_label:
            label = m.sender_label
    elif label < m.sender_label:
        flow[sender] = current - amount
        v.excess += amount
        return ((sender, Accept(v.id, m.request_id, amount, label)),)
    return ((sender, Nak(v.id, m.request_id, amount, label)),)


def on_reply(v: NodeState, m: Accept | Nak) -> Sequence[Outbound]:
    """Settle the one push in flight to the responder: commit on Accept, roll back exactly on Nak.

    A reply that does not name that push's request id and amount (a stale
    duplicate, a forgery, one from a node we pushed nothing to) is fatal.
    """
    w = m.sender
    if v.pending.pop(w, None) != (m.request_id, m.amount):
        raise UnknownRequestId(f"node {v.id} has no push {m.request_id} of {m.amount} to {w} in flight")
    if type(m) is Nak:
        v.edge_flow[w] -= m.amount
        v.excess += m.amount
    cache = v.neighbor_labels
    if m.responder_label > cache[w]:
        cache[w] = m.responder_label
    return ()


def on_label_update(v: NodeState, m: LabelUpdate) -> None:
    """Monotone cache update; stale (lower) values are discarded."""
    cache = v.neighbor_labels
    current = cache.get(m.sender)
    if current is None:
        raise UnknownNeighbor(f"node {v.id} got a label update from non-neighbor {m.sender}")
    if m.new_label > current:
        cache[m.sender] = m.new_label


def _has_residual(v: NodeState, w: NodeId) -> bool:
    """True iff we have residual capacity toward w once our in-flight push to w is rolled back."""
    pushed = v.pending.get(w)
    return v.cap[w] - v.edge_flow[w] + (pushed[1] if pushed else 0) > 0


def on_sink_distance(v: NodeState, m: SinkDistance) -> Sequence[Outbound]:
    """Feed the label cache; adopt and forward the epoch's first wave over a residual edge.

    The first SinkDistance of an epoch from a neighbor we have residual
    capacity toward (our own in-flight push to it counted as rolled back)
    makes us one hop further from r than it.  Labels never decrease, so a
    node already above that keeps its label.  We forward the hop distance,
    which never exceeds our label, to every channel neighbor.  A wave we do
    not adopt is remembered by sender until we are reached: those neighbors
    can reach r and we cannot.
    """
    w = m.sender
    cache = v.neighbor_labels
    current = cache.get(w)
    if current is None:
        raise UnknownNeighbor(f"node {v.id} got a sink distance from non-neighbor {w}")
    if m.label > current:
        cache[w] = m.label
    epoch = m.epoch
    if v.reached >= epoch:
        return ()
    # the plain check first: the call only matters with a push in flight to w
    if v.cap[w] - v.edge_flow[w] <= 0 and not _has_residual(v, w):
        if v.heard_epoch != epoch:
            v.heard_epoch = epoch
            v.heard = [w]
        else:
            v.heard.append(w)
        return ()
    v.reached = epoch
    if v.heard:
        v.heard = ()
    hops = m.label + 1
    if hops > v.label:
        v.label = hops
    wave = SinkDistance(v.id, hops, epoch)
    return [(u, wave) for u in v.channel_neighbors]


def on_cut_off(v: NodeState, m: CutOff) -> Sequence[Outbound]:
    """Feed the label cache; take and forward the epoch's first cut-off over a residual edge.

    The wave starts at s (as if sent by the feeder at label n+2) once the
    epoch's SinkDistance wave has died out.  Only a node that wave did not
    reach, and that has no residual capacity toward any neighbor it heard
    the wave from, takes the sender's level + 1; every other node only
    updates its cache.  Levels stay at most 2n+2 on n real nodes.
    """
    w = m.sender
    cache = v.neighbor_labels
    current = cache.get(w)
    if current is None:
        raise UnknownNeighbor(f"node {v.id} got a cut-off from non-neighbor {w}")
    if m.label > current:
        cache[w] = m.label
    epoch = m.epoch
    if v.cut_off >= epoch or v.reached >= epoch or v.cap[w] - v.edge_flow[w] <= 0:
        return ()
    if v.heard_epoch == epoch:
        for u in v.heard:
            if _has_residual(v, u):
                return ()
    v.cut_off = epoch
    level = m.label + 1
    if level > v.label:
        v.label = level
    wave = CutOff(v.id, level, epoch)
    return [(u, wave) for u in v.channel_neighbors]


def check_node_invariants(v: NodeState, n: int) -> None:
    """Per-node safety checks: non-negative excess, capacity bound, label bound."""
    if v.excess < 0:
        raise ProtocolError(f"node {v.id} has negative excess {v.excess}")
    if v.label > 2 * (n + 2):
        raise ProtocolError(f"node {v.id} label {v.label} exceeds bound {2 * (n + 2)}")
    for w, f in v.edge_flow.items():
        if f > v.cap[w]:
            raise ProtocolError(f"flow f({v.id},{w})={f} exceeds capacity {v.cap[w]}")

