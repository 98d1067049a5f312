"""Line-oriented text formats for channel networks and payment workloads.

A network file is a `pcn <n>` header followed by one
`chan <u> <v> <cap_uv> <cap_vu>` line per channel.  A workload file holds
one `txn <s> <r> <val>` line per payment.  Fields are integers and `#`
starts a comment.  Network serialization is canonical (channels sorted by
endpoint pair), so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import os

from .graph import ChannelGraph
from .graph import MAX_NODES as MAX_NODES  # the header's bound, checked by ChannelGraph
from .topology import Transaction


class ParseError(Exception):
    """Malformed input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _content(raw: str) -> str:
    """A line without its comment and surrounding whitespace."""
    return raw.split("#", 1)[0].strip()


def _int_field(line_no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"bad {what} {token!r}") from None


def loads_network(text: str) -> ChannelGraph:
    lines = enumerate(text.splitlines(), start=1)
    g: ChannelGraph | None = None
    for line_no, raw in lines:
        line = _content(raw)
        if line:
            fields = line.split()
            if len(fields) != 2 or fields[0] != "pcn":
                raise ParseError(line_no, f"expected 'pcn <n>' header, got {line!r}")
            n = _int_field(line_no, fields[1], "node count")
            try:
                g = ChannelGraph(n)
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            break
    if g is None:
        raise ParseError(1, "empty network file")
    open_channel = g.open_channel
    for line_no, raw in lines:
        line = _content(raw)
        if not line:
            continue
        fields = line.split()
        if fields[0] != "chan":
            raise ParseError(line_no, f"expected 'chan' record, got {fields[0]!r}")
        if len(fields) != 5:
            raise ParseError(line_no, f"expected 'chan <u> <v> <cap_uv> <cap_vu>', got {line!r}")
        try:
            u, v, cap_uv, cap_vu = int(fields[1]), int(fields[2]), int(fields[3]), int(fields[4])
        except ValueError:
            # parse again field by field, which raises naming the first bad one
            u, v, cap_uv, cap_vu = (
                _int_field(line_no, token, what)
                for token, what in zip(fields[1:], ("node id", "node id", "capacity", "capacity"))
            )
        try:
            open_channel(u, v, cap_uv, cap_vu)
        except Exception as exc:
            raise ParseError(line_no, str(exc)) from None
    return g


def dumps_network(g: ChannelGraph) -> str:
    lines = [f"pcn {g.n}"]
    cap = g.cap
    for u, out in enumerate(cap):
        for v in sorted(out):
            if v > u:
                lines.append(f"chan {u} {v} {out[v]} {cap[v][u]}")
    return "\n".join(lines) + "\n"


def load_network(path: str | os.PathLike) -> ChannelGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_network(fh.read())


def save_network(g: ChannelGraph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_network(g))


def loads_workload(text: str, n: int) -> list[Transaction]:
    """Parse a workload for a network of n nodes; node ids must lie in 0..n-1."""
    txns: list[Transaction] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _content(raw)
        if not line:
            continue
        fields = line.split()
        if fields[0] != "txn" or len(fields) != 4:
            raise ParseError(line_no, f"expected 'txn <s> <r> <val>', got {line!r}")
        s = _int_field(line_no, fields[1], "node id")
        r = _int_field(line_no, fields[2], "node id")
        val = _int_field(line_no, fields[3], "value")
        for v in (s, r):
            if not 0 <= v < n:
                raise ParseError(line_no, f"node {v} out of range 0..{n - 1}")
        if s == r:
            raise ParseError(line_no, f"source and sink must differ, got {s}")
        if val <= 0:
            raise ParseError(line_no, f"value must be > 0, got {val}")
        txns.append(Transaction(s, r, val))
    return txns


def load_workload(path: str | os.PathLike, n: int) -> list[Transaction]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_workload(fh.read(), n)
