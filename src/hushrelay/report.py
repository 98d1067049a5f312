"""Privacy-preserving back-propagation of a computed flow to the source.

After routing terminates, flow facts travel from the sink back along the
flow edges.  Every flow-carrying edge holds a fresh 256-bit key known to its
two endpoints.  The sink seals each predecessor fact (predecessor id, edge
flow, edge key) under its own master key and pads the packet with random
filler; each relay prepends one more sealed fact — encrypted under the key
it shares with the node it received the packet from — and drops one filler
unit, so packet length never changes in transit.  Only the source, given the
sink's master key and the filler set out of band, can peel the layers: each
decrypted fact carries the key for the next one.

Wire layout per unit: [1-byte layer tag][16-byte nonce][256-byte ciphertext]
(ciphertext = 240-byte plaintext + 16-byte auth tag).  The layout fixes the
sealing scheme: every fact is sealed with AES-256-GCM under a 256-bit key,
and no other scheme can be chosen.  A packet is depth
units long, where depth is the longest flow path; equal-depth instances are
therefore byte-length-identical at every relay position.
"""

from __future__ import annotations

import secrets
import struct
from dataclasses import dataclass, field
from random import Random

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .decompose import Path, decompose
from .graph import FlowAssignment, Funds, NodeId


class AuthFailure(Exception):
    """Ciphertext failed authentication."""


class InconsistentFlow(Exception):
    """Reported facts contradict flow conservation; some relay lied."""


class FactOverflow(ValueError):
    """A flow amount or node id does not fit the 64-bit fields of a fact."""


KEY_LEN = 32
NONCE_LEN = 16
BLOCK_LEN = 256
TAG_LAYER = 0x01
UNIT_LEN = 1 + NONCE_LEN + BLOCK_LEN
_PLAINTEXT_LEN = BLOCK_LEN - 16
_FACT = struct.Struct(">QQ32s")
_FACT_LIMIT = 1 << 64


def _rand_bytes(rng: Random | None, n: int) -> bytes:
    if rng is None:
        return secrets.token_bytes(n)
    return rng.randbytes(n)


@dataclass(frozen=True)
class ReportPacket:
    data: bytes

    def __post_init__(self):
        if len(self.data) % UNIT_LEN != 0 or not self.data:
            raise ValueError(f"packet length {len(self.data)} is not a unit multiple")

    def units(self) -> list[bytes]:
        return [self.data[i : i + UNIT_LEN] for i in range(0, len(self.data), UNIT_LEN)]

    def __len__(self) -> int:
        return len(self.data)


def _seal_unit(key: bytes, fact: tuple[NodeId, Funds, bytes], rng: Random | None) -> bytes:
    """One unit sealing the fact (predecessor, edge flow, edge key) under key."""
    try:
        plaintext = _FACT.pack(*fact).ljust(_PLAINTEXT_LEN, b"\x00")
    except struct.error:
        raise FactOverflow(f"fact {fact[:2]} does not fit 64-bit fields") from None
    nonce = _rand_bytes(rng, NONCE_LEN)
    return bytes([TAG_LAYER]) + nonce + AESGCM(key).encrypt(nonce, plaintext, None)


def open_unit(key: bytes, unit: bytes) -> tuple[NodeId, Funds, bytes]:
    """The fact (predecessor, edge flow, edge key) that key sealed in unit.

    Raises AuthFailure for any other key, and for a filler unit.
    """
    try:
        plaintext = AESGCM(key).decrypt(unit[1 : 1 + NONCE_LEN], unit[1 + NONCE_LEN :], None)
    except InvalidTag as exc:
        raise AuthFailure("layer failed authentication") from exc
    return _FACT.unpack_from(plaintext)


def _filler_unit(rng: Random | None) -> bytes:
    return bytes([TAG_LAYER]) + _rand_bytes(rng, UNIT_LEN - 1)


def build_report(
    inbound: list[tuple[NodeId, Funds, bytes]],
    k_sink: bytes,
    depth: int,
    rng: Random | None = None,
) -> tuple[dict[NodeId, ReportPacket], list[bytes]]:
    """Sink-side packets, one per flow-carrying predecessor edge.

    inbound lists (predecessor, edge flow, edge key) for every positive
    inbound edge.  Each packet is one sealed fact plus depth-1 filler units;
    the returned filler list is what the source must receive out of band.
    """
    packets: dict[NodeId, ReportPacket] = {}
    fillers: list[bytes] = []
    for fact in inbound:
        unit = _seal_unit(k_sink, fact, rng)
        pad = [_filler_unit(rng) for _ in range(depth - 1)]
        fillers.extend(pad)
        packets[fact[0]] = ReportPacket(unit + b"".join(pad))
    return packets, fillers


def relay_report(
    inbound_packet: ReportPacket,
    encrypt_key: bytes,
    fact: tuple[NodeId, Funds, bytes],
    rng: Random | None = None,
) -> ReportPacket:
    """Relay-side packet: one predecessor fact sealed over the inbound packet.

    encrypt_key is the edge key shared with the node the packet arrived
    from; prepending one unit and dropping one trailing filler keeps the
    length schedule fixed.
    """
    return ReportPacket(_seal_unit(encrypt_key, fact, rng) + inbound_packet.data[:-UNIT_LEN])


@dataclass
class ReconstructedFlow:
    flow: FlowAssignment
    paths: list[tuple[Path, Funds]]


@dataclass
class ReportRun:
    """A full sink-to-source propagation over a terminated routing's flow."""

    source_packets: list[ReportPacket]
    k_sink: bytes
    filler_set: list[bytes]
    depth: int
    edge_keys: dict[tuple[NodeId, NodeId], bytes]
    # (relay position from sink, packet length) per emitted packet
    position_lengths: list[tuple[int, int]] = field(default_factory=list)


def _sink_first(flow: FlowAssignment) -> tuple[list[NodeId], dict[NodeId, list[NodeId]]]:
    """Order a non-empty flow's nodes sink-first, in reverse topological order.

    Also returns each node's predecessors, in ascending order.  Raises
    ValueError unless every flow node drains into the sink along the flow:
    nodes on a cycle, or behind flow leaving the sink, never become ready
    and are missed by the order.
    """
    out, sink = flow.out, flow.sink
    preds: dict[NodeId, list[NodeId]] = {}
    for u in sorted(out):
        for v in out[u]:
            preds.setdefault(v, []).append(u)
    order: list[NodeId] = []
    unprocessed_out = {v: len(ws) for v, ws in out.items()}
    ready = [] if sink in out else [sink]
    while ready:
        ready.sort()
        v = ready.pop(0)
        order.append(v)
        for u in preds.get(v, ()):
            unprocessed_out[u] -= 1
            if unprocessed_out[u] == 0:
                ready.append(u)
    missed = (preds.keys() | out.keys()) - set(order)
    if missed:
        raise ValueError(
            f"flow does not drain into sink {sink}: nodes {sorted(missed)} are not ordered"
        )
    return order, preds


def run_report(
    flow: FlowAssignment,
    rng: Random | None = None,
) -> ReportRun:
    """Propagate a terminated routing's acyclic flow from sink back to source.

    Fresh per-edge keys are drawn for every positive-flow edge.  Every
    inbound packet at a relay is forwarded onward and every predecessor
    edge is reported at least once, so the source ends up with every flow
    fact; chains sharing a suffix produce duplicates that the source
    discards.  An amount or node id outside 0..2**64-1 raises FactOverflow
    before anything is sealed; a flow node that does not drain into the
    sink along the flow (a cycle, for one) raises ValueError.
    """
    source, sink, out = flow.source, flow.sink, flow.out
    for u, targets in out.items():
        for v, a in targets.items():
            if min(u, v, a) < 0 or max(u, v, a) >= _FACT_LIMIT:
                raise FactOverflow(f"flow {a} on edge ({u}, {v}) does not fit a 64-bit report fact")
    k_sink = _rand_bytes(rng, KEY_LEN)
    edge_keys = {(u, v): _rand_bytes(rng, KEY_LEN) for u in sorted(out) for v in sorted(out[u])}
    if not out:
        return ReportRun([], k_sink, [], 0, edge_keys)
    order, preds = _sink_first(flow)

    # longest flow path in edges; fixes the uniform packet length schedule
    longest: dict[NodeId, int] = {}
    for v in order:
        longest[v] = 0 if v == sink else 1 + max(longest[w] for w in out[v])
    depth = longest[source]
    run = ReportRun([], k_sink, [], depth, edge_keys)

    # inbox: packets en route to a node, tagged with the key of the edge
    # they traveled over and their hop position
    inbox: dict[NodeId, list[tuple[ReportPacket, bytes, int]]] = {v: [] for v in order}
    sink_facts = [(u, out[u][sink], edge_keys[(u, sink)]) for u in preds[sink]]
    packets, fillers = build_report(sink_facts, k_sink, depth, rng)
    run.filler_set.extend(fillers)
    for pred, pkt in packets.items():
        run.position_lengths.append((0, len(pkt)))
        inbox[pred].append((pkt, edge_keys[(pred, sink)], 1))

    for v in order:
        if v in (sink, source):
            continue
        items = inbox[v]
        facts = [(u, out[u][v], edge_keys[(u, v)]) for u in preds.get(v, ())]
        if not facts or not items:
            raise InconsistentFlow(f"relay {v} forwards flow it never received")
        # pair inbound packets with predecessors; extras on either side reuse
        # the last item on the other so nothing is dropped
        for i in range(max(len(items), len(facts))):
            pkt, key, position = items[min(i, len(items) - 1)]
            fact = facts[min(i, len(facts) - 1)]
            pred = fact[0]
            relayed = relay_report(pkt, key, fact, rng)
            run.position_lengths.append((position, len(relayed)))
            inbox[pred].append((relayed, edge_keys[(pred, v)], position + 1))

    run.source_packets = [pkt for pkt, _, _ in inbox[source]]
    return run


def reconstruct(
    source: NodeId,
    sink: NodeId,
    packets: list[ReportPacket],
    k_sink: bytes,
    filler_set: list[bytes],
) -> ReconstructedFlow:
    """Peel every packet layer by layer and rebuild the flow and its paths.

    Facts are deduplicated and kept as reported; a pair's two directions
    are not netted, which would hide a forged 2-cycle.  InconsistentFlow
    is raised for an edge reported with two different values, for a fact
    set whose nodes do not all drain into the sink along it (a cycle, for
    one), and for one that `decompose` cannot split exactly into
    source->sink paths (broken conservation).  Honest relays report only
    edges of the acyclic flow.  Decryption starts from the sink-sealed
    unit (the last non-filler unit) and walks left, each fact yielding the
    key for the next unit.
    """
    fillers = set(filler_set)
    flow = FlowAssignment(source, sink)
    for pkt in packets:
        units = pkt.units()
        while units and units[-1] in fillers:
            units.pop()
        key = k_sink
        node = sink
        for unit in reversed(units):
            pred, amount, next_key = open_unit(key, unit)
            edge = (pred, node)
            if amount <= 0:
                raise InconsistentFlow(f"non-positive flow {amount} reported on {edge}")
            targets = flow.out.setdefault(pred, {})
            if targets.get(node, amount) != amount:
                raise InconsistentFlow(
                    f"edge {edge} reported twice with {targets[node]} and {amount}"
                )
            targets[node] = amount
            key = next_key
            node = pred
    try:
        _sink_first(flow)
    except ValueError as exc:
        raise InconsistentFlow(f"reported facts are not acyclic: {exc}") from None
    try:
        paths = decompose(flow)
    except ValueError as exc:
        raise InconsistentFlow(f"reported facts are not conserved: {exc}") from None
    return ReconstructedFlow(flow, paths)
