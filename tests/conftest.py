from random import Random

import pytest

from hushrelay import report
from hushrelay.graph import ChannelGraph, FlowAssignment, Funds, NodeId
from hushrelay.protocol import NodeStates, init_instance
from hushrelay.report import ReportPacket, ReportRun

from .oracles import add_flow

# Worked five-node example used throughout: S=0, A=1, B=2, C=3, R=4.
# Max flow S->R is 20, limited by the C->R channel.
S, A, B, C, R = range(5)


def five_node_graph() -> ChannelGraph:
    g = ChannelGraph(5)
    g.open_channel(S, A, 10, 0)
    g.open_channel(S, B, 10, 0)
    g.open_channel(A, C, 10, 0)
    g.open_channel(B, C, 15, 0)
    g.open_channel(C, R, 20, 0)
    return g


@pytest.fixture
def example_graph() -> ChannelGraph:
    return five_node_graph()


def zero_labeled(g: ChannelGraph, s: NodeId, r: NodeId, val: Funds) -> NodeStates:
    """init_instance's states, every real node's built, with all real labels and their caches at 0.

    Handler tests derive their expectations by hand from these labels; a run
    starts from hop distances to r instead.
    """
    states = init_instance(g, s, r, val)
    for v in range(g.n):
        st = states[v]
        st.label = 0
        for w in st.channel_neighbors:
            st.neighbor_labels[w] = 0
    states[g.n].neighbor_labels[s] = 0
    return states


def escrows(g: ChannelGraph) -> dict[tuple[int, int], int]:
    """Each channel's escrowed total, both directions summed; any flow conserves it."""
    return {ch.id: ch.cap_forward + ch.cap_backward for ch in g.channels()}


def reversed_flow(f: FlowAssignment) -> FlowAssignment:
    """The same edge amounts sent the other way; apply_flow of it undoes f."""
    back = FlowAssignment(f.sink, f.source)
    for (v, w), a in f.positive_edges().items():
        add_flow(back, w, v, a)
    return back


def run_report_observed(
    flow: FlowAssignment, rng: Random
) -> tuple[ReportRun, dict[int, list[ReportPacket]]]:
    """run_report's result and the packets each relay received, relays in first-seen order.

    Observed by wrapping report.relay_report: a relay wraps every packet it
    received under the key of the edge (relay, sender) it arrived over, and
    may wrap one packet more than once.
    """
    seen: list[tuple[bytes, ReportPacket]] = []
    relay_report = report.relay_report

    def observe(pkt, key, *args):
        seen.append((key, pkt))
        return relay_report(pkt, key, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "relay_report", observe)
        run = report.run_report(flow, rng=rng)
    relay_of = {key: edge[0] for edge, key in run.edge_keys.items()}
    inbound: dict[int, dict[int, ReportPacket]] = {}
    for key, pkt in seen:
        inbound.setdefault(relay_of[key], {})[id(pkt)] = pkt
    return run, {relay: list(pkts.values()) for relay, pkts in inbound.items()}
