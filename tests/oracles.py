"""Test-only oracles: a second max-flow route, scipy's max-flow, the min-cut certificate check, a flow check, hop distances, netted flow updates, balance shifts, per-event node invariants, single-event stepping and quiescence."""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Iterator

from hushrelay import protocol
from hushrelay.graph import ChannelGraph, FlowAssignment, Funds, NodeId
from hushrelay.protocol import NodeState, ProtocolError, PushRequest
from hushrelay.sim import Simulator


class CapacityViolation(Exception):
    """A flow exceeds a directed capacity or breaks conservation."""


def net_flow(f: FlowAssignment, v: NodeId, w: NodeId) -> Funds:
    """f(v, w), antisymmetric: f(w, v) = -f(v, w)."""
    out = f.out
    return out.get(v, {}).get(w, 0) - out.get(w, {}).get(v, 0)


def add_flow(f: FlowAssignment, v: NodeId, w: NodeId, amount: Funds) -> None:
    """Add amount to f(v, w), netted against the pair's other direction.

    Keeps f's invariant: at most one direction per pair and no empty rows.
    """
    if v == w:
        raise ValueError("flow on a self-loop is meaningless")
    net = net_flow(f, v, w) + amount
    out = f.out
    for x, y in ((v, w), (w, v)):
        row = out.get(x, {})
        row.pop(y, None)
        if not row:
            out.pop(x, None)
    if net > 0:
        out.setdefault(v, {})[w] = net
    elif net < 0:
        out.setdefault(w, {})[v] = -net


def feasible_flow_sequential(g: ChannelGraph, s: NodeId, r: NodeId, val: Funds) -> FlowAssignment:
    """Route up to val units s->r with a sequential FIFO push-relabel.

    Dummy endpoints cap the routed amount: a virtual source feeds s exactly
    val and a virtual sink absorbs at most val from r.  The virtual source
    starts at label n+2, everything else at 0, matching the distributed
    variant.  Delivers min(val, maxflow); the remainder drains back to the
    virtual source.  Returns a flow over the real edges only.
    """
    if val < 0:
        raise ValueError("value must be >= 0")
    n = g.n
    sp, rp = n, n + 1  # virtual source / virtual sink
    adj: list[list[int]] = [sorted(g.cap[v]) for v in range(n)] + [[s], [r]]
    adj[s] = adj[s] + [sp]
    adj[r] = adj[r] + [rp]
    cap: dict[tuple[int, int], int] = {}
    for ch in g.channels():
        cap[(ch.u, ch.v)] = ch.cap_forward
        cap[(ch.v, ch.u)] = ch.cap_backward
    cap[(sp, s)] = val
    cap[(r, rp)] = val

    flow: dict[tuple[int, int], int] = {}
    label = [0] * (n + 2)
    label[sp] = n + 2
    excess = [0] * (n + 2)
    if val == 0:
        return FlowAssignment(s, r)
    flow[(sp, s)] = val
    flow[(s, sp)] = -val
    excess[s] = val

    active = deque([s])
    queued = [False] * (n + 2)
    queued[s] = True
    while active:
        v = active.popleft()
        queued[v] = False
        while excess[v] > 0:
            pushed = False
            for w in adj[v]:
                if label[w] >= label[v]:
                    continue
                res = cap.get((v, w), 0) - flow.get((v, w), 0)
                if res <= 0:
                    continue
                delta = min(excess[v], res)
                flow[(v, w)] = flow.get((v, w), 0) + delta
                flow[(w, v)] = flow.get((w, v), 0) - delta
                excess[v] -= delta
                excess[w] += delta
                pushed = True
                if w not in (sp, rp) and not queued[w]:
                    active.append(w)
                    queued[w] = True
                if excess[v] == 0:
                    break
            if excess[v] == 0:
                break
            if not pushed:
                # relabel to one above the lowest residual neighbor, then
                # yield the discharge slot (FIFO)
                label[v] = 1 + min(
                    label[w]
                    for w in adj[v]
                    if cap.get((v, w), 0) - flow.get((v, w), 0) > 0
                )
                if not queued[v]:
                    active.append(v)
                    queued[v] = True
                break

    fa = FlowAssignment(s, r)
    for (v, w), a in flow.items():
        if a > 0 and v < n and w < n:
            add_flow(fa, v, w, a)
    return fa


def scipy_max_flow(g: ChannelGraph, s: NodeId, r: NodeId) -> Funds:
    """Max-flow value from scipy.sparse.csgraph, an oracle sharing no code with this package.

    Raises ImportError when numpy or scipy is missing.
    """
    import numpy as np
    from scipy import sparse
    from scipy.sparse import csgraph

    arcs = np.array(
        [
            arc
            for ch in g.channels()
            for arc in ((ch.u, ch.v, ch.cap_forward), (ch.v, ch.u, ch.cap_backward))
            if arc[2] > 0
        ],
        dtype=np.int32,
    ).reshape(-1, 3)
    matrix = sparse.csr_array((arcs[:, 2], (arcs[:, 0], arcs[:, 1])), shape=(g.n, g.n))
    return int(csgraph.maximum_flow(matrix, s, r).flow_value)


def residual_hops(g: ChannelGraph, flow: FlowAssignment, s: NodeId) -> dict[NodeId, int]:
    """Hop distance from s along residual edges, by a one-sided BFS; unreachable nodes are absent."""
    hops = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w, c in g.cap[v].items():
            if w not in hops and c - net_flow(flow, v, w) > 0:
                hops[w] = hops[v] + 1
                queue.append(w)
    return hops


def residual_reachable(g: ChannelGraph, flow: FlowAssignment, s: NodeId) -> set[NodeId]:
    """Nodes reachable from s along residual edges; the min-cut certificate check."""
    return set(residual_hops(g, flow, s))


def validate_flow(flow: FlowAssignment, g: ChannelGraph) -> None:
    """Check flow's capacity and conservation against g; raise CapacityViolation otherwise."""
    net: dict[NodeId, Funds] = {}
    for (v, w), a in flow.positive_edges().items():
        c = g.cap[v].get(w, 0)
        if a > c:
            raise CapacityViolation(f"f({v},{w})={a} exceeds c={c}")
        net[v] = net.get(v, 0) - a
        net[w] = net.get(w, 0) + a
    bad = {v: a for v, a in sorted(net.items()) if a and v not in (flow.source, flow.sink)}
    if bad:
        raise CapacityViolation(f"conservation broken: net inflow {bad}")


def check_node_invariants(v: NodeState, n: int) -> None:
    """Per-node safety checks: non-negative excess, capacity bound, label bound."""
    if v.excess < 0:
        raise ProtocolError(f"node {v.id} has negative excess {v.excess}")
    if v.label > 2 * (n + 2):
        raise ProtocolError(f"node {v.id} label {v.label} exceeds bound {2 * (n + 2)}")
    for w, f in v.edge_flow.items():
        if f > v.cap[w]:
            raise ProtocolError(f"flow f({v.id},{w})={f} exceeds capacity {v.cap[w]}")


def check_lifted_pushes(v: NodeState, out, inflow: set[NodeId]) -> None:
    """A lifted node's pushes go only over the edges in inflow, whose ledgers were negative before it pushed."""
    for w, m in out:
        if type(m) is PushRequest and w not in inflow:
            raise ProtocolError(f"lifted node {v.id} pushed to {w}, which had sent it no flow")


def check_final_delivery(v: NodeState, g: ChannelGraph, finals: dict) -> None:
    """Once every channel into r is saturated, and they carry less than val, r's ledger on them never changes again.

    That is when the simulator starts the next epoch at once: delivery is
    final.  Only r has the virtual sink (n+1) as a peer; other nodes pass.
    `finals` maps id(r's state) to the state and its ledger at the first
    check that found delivery final.
    """
    rp = g.n + 1
    if rp not in v.edge_flow:
        return
    ledger = {w: v.edge_flow[w] for w in v.channel_neighbors}
    seen = finals.get(id(v))
    if seen is not None:
        if seen[1] != ledger:
            raise ProtocolError(f"sink {v.id}'s ledger moved after delivery was final: {seen[1]} -> {ledger}")
    elif sum(g.cap[w][v.id] for w in ledger) < v.cap[rp] and all(
        g.cap[w][v.id] + f == 0 for w, f in ledger.items()
    ):
        finals[id(v)] = (v, ledger)


HANDLERS = (
    "on_activate",
    "on_push_request",
    "on_reply",
    "on_label_update",
    "on_sink_distance",
    "on_cut_off",
)


@contextmanager
def invariants_checked(g: ChannelGraph) -> Iterator[None]:
    """Inside the block, every protocol handler checks the node it handled, on the network g.

    The six `protocol.on_*` handlers are wrapped on the module, so every
    event of a run started or stepped inside the block is checked: the
    simulator reads its handlers off the module each time it dispatches.
    An activation of a node the cut-off wave lifted, and no later
    SinkDistance wave reached, also checks that it pushed only back along
    its inflow.  Once r's delivery is final, no handler may move r's
    ledger on its channels (`check_final_delivery`).
    """
    n = g.n
    saved = {name: getattr(protocol, name) for name in HANDLERS}
    finals: dict = {}  # holds each final r's state, so its id stays unique

    def checked(handler):
        def call(v: NodeState, *args):
            out = handler(v, *args)
            check_node_invariants(v, n)
            check_final_delivery(v, g, finals)
            return out

        return call

    def checked_activate(handler):
        def call(v: NodeState):
            lifted = v.cut_off > v.reached
            if lifted:
                inflow = {w for w, f in v.edge_flow.items() if f < 0}
            out = handler(v)
            check_node_invariants(v, n)
            check_final_delivery(v, g, finals)
            if lifted:
                check_lifted_pushes(v, out, inflow)
            return out

        return call

    for name, handler in saved.items():
        setattr(protocol, name, (checked_activate if name == "on_activate" else checked)(handler))
    try:
        yield
    finally:
        for name, handler in saved.items():
            setattr(protocol, name, handler)


def active(st: NodeState) -> bool:
    """A node holding excess that it will push on; a virtual endpoint never is."""
    return st.excess > 0 and not st.passive


def step(sim: Simulator) -> bool:
    """Deliver one event of sim; False when its queue is empty."""
    return sim._dispatch(1) == 1


def quiescent(sim: Simulator) -> bool:
    """True iff nothing is queued, no push is unsettled and no real node is active.

    Walks only the states built so far: a node never reached holds nothing.
    """
    if any(sim._slots):  # the event ring: deliveries and activations still due
        return False
    return not any(st.pending or active(st) for st in sim.states.values())


def public_hops(g: ChannelGraph, r: NodeId) -> dict[NodeId, int]:
    """Hop distance to r over every channel, whatever its capacities; nodes with no path are absent."""
    hops = {r: 0}
    frontier = deque([r])
    while frontier:
        w = frontier.popleft()
        for v in g.cap[w]:
            if v not in hops:
                hops[v] = hops[w] + 1
                frontier.append(v)
    return hops


def apply_flow(g: ChannelGraph, f: FlowAssignment) -> ChannelGraph:
    """Return a new graph with per-direction capacities shifted by f.

    The per-channel escrow total is unchanged.  Raises CapacityViolation if
    any f(v, w) exceeds c(v, w).
    """
    out = ChannelGraph(g.n)
    for ch in g.channels():
        shift = net_flow(f, ch.u, ch.v)
        new_fwd = ch.cap_forward - shift
        new_bwd = ch.cap_backward + shift
        if new_fwd < 0 or new_bwd < 0:
            raise CapacityViolation(
                f"flow {shift} on channel {ch.id} violates capacity "
                f"({ch.cap_forward}, {ch.cap_backward})"
            )
        out.open_channel(ch.u, ch.v, new_fwd, new_bwd)
    return out
