import pytest

from hushrelay.graph import ChannelGraph, FlowAssignment

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


def escrows(g: ChannelGraph) -> dict[tuple[int, int], int]:
    """Each channel's escrowed total, both directions summed; any flow conserves it."""
    return {ch.id: ch.cap_forward + ch.cap_backward for ch in g.channels()}


def reversed_flow(f: FlowAssignment) -> FlowAssignment:
    """The same edge amounts sent the other way; apply_flow of it undoes f."""
    back = FlowAssignment(f.sink, f.source)
    for (v, w), a in f.positive_edges().items():
        back.add(w, v, a)
    return back
