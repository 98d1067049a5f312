import pytest

from hushrelay.graph import ChannelGraph
from hushrelay.netfile import (
    MAX_NODES,
    ParseError,
    dumps_network,
    load_network,
    loads_network,
    loads_workload,
    save_network,
)
from hushrelay.topology import Transaction

from .conftest import five_node_graph

EXAMPLE = """\
# five nodes, five channels
pcn 5
chan 0 1 10 0
chan 0 2 10 0
chan 1 3 10 0
chan 2 3 15 0   # the middle hop
chan 3 4 20 0
"""


def test_parse_example_network():
    g = loads_network(EXAMPLE)
    assert g.n == 5
    assert g.channel_count == 5
    assert g.cap[3].get(4, 0) == 20
    assert g == five_node_graph()


def test_round_trip_is_identity():
    g = loads_network(EXAMPLE)
    text = dumps_network(g)
    g2 = loads_network(text)
    assert g2 == g
    assert dumps_network(g2) == text


def test_dump_is_canonical_whatever_the_opening_order():
    g = ChannelGraph(5)
    for u, v, c_uv, c_vu in [(4, 3, 0, 20), (3, 2, 0, 15), (0, 2, 10, 0), (1, 0, 0, 10), (1, 3, 10, 0)]:
        g.open_channel(u, v, c_uv, c_vu)
    assert dumps_network(g).splitlines()[1:] == [
        line.split("#")[0].strip() for line in EXAMPLE.splitlines()[2:]
    ]


def test_file_round_trip(tmp_path):
    path = tmp_path / "net.pcn"
    save_network(five_node_graph(), path)
    assert load_network(path) == five_node_graph()


def test_empty_channel_list_is_valid():
    g = loads_network("pcn 4\n")
    assert g.n == 4
    assert g.channel_count == 0


def test_malformed_capacity_reports_line():
    bad = "pcn 3\nchan 0 1 5 5\nchan 1 2 x 5\n"
    with pytest.raises(ParseError) as exc:
        loads_network(bad)
    assert exc.value.line_no == 3


def test_missing_header_rejected():
    with pytest.raises(ParseError):
        loads_network("chan 0 1 5 5\n")


def test_wrong_field_count_rejected():
    with pytest.raises(ParseError) as exc:
        loads_network("pcn 2\nchan 0 1 5\n")
    assert exc.value.line_no == 2


def test_comment_and_blank_lines_between_channels_accepted():
    text = "pcn 3\nchan 0 1 5 5\n\n# a note\n   \nchan 1 2 3 4\n"
    g = loads_network(text)
    assert g.channel_count == 2 and g.cap[2][1] == 4
    # skipped lines still count toward the line number
    with pytest.raises(ParseError) as exc:
        loads_network(text + "chan 0 2 x 1\n")
    assert exc.value.line_no == 7


def test_record_other_than_chan_reports_line():
    with pytest.raises(ParseError, match="expected 'chan' record, got 'txn'") as exc:
        loads_network("pcn 3\nchan 0 1 5 5\ntxn 1 2 5 5\n")
    assert exc.value.line_no == 3


def test_duplicate_channel_reports_line():
    bad = "pcn 3\nchan 0 1 5 5\nchan 1 0 5 5\n"
    with pytest.raises(ParseError) as exc:
        loads_network(bad)
    assert exc.value.line_no == 3


def test_out_of_range_node_rejected():
    with pytest.raises(ParseError):
        loads_network("pcn 2\nchan 0 5 1 1\n")


@pytest.mark.parametrize("n", [-1, MAX_NODES + 1, 99999999999])
def test_node_count_outside_bound_rejected_on_header_line(n):
    # rejected before any per-node state is allocated
    with pytest.raises(ParseError, match=f"line 2: node count must be in 0..{MAX_NODES}, got {n}$"):
        loads_network(f"# too many\npcn {n}\nchan 0 1 5 5\n")


def test_empty_file_rejected():
    with pytest.raises(ParseError):
        loads_network("# nothing here\n")


def test_workload_round_trip():
    text = "# two payments\ntxn 0 3 15\ntxn 2 1 40   # the second\n"
    assert loads_workload(text, 4) == [Transaction(0, 3, 15), Transaction(2, 1, 40)]


def test_workload_rejects_same_endpoints():
    with pytest.raises(ParseError):
        loads_workload("txn 1 1 5\n", 4)


@pytest.mark.parametrize("text", ["txn 0 4 5\n", "txn -1 2 5\n"])
def test_workload_rejects_node_ids_outside_the_network(text):
    with pytest.raises(ParseError, match="line 1: node -?[0-9]+ out of range 0..3"):
        loads_workload(text, 4)


@pytest.mark.parametrize("val", ["0", "-3"])
def test_workload_rejects_non_positive_values(val):
    with pytest.raises(ParseError, match=f"line 2: value must be > 0, got {val}"):
        loads_workload(f"txn 0 1 5\ntxn 0 1 {val}\n", 4)


@pytest.mark.parametrize("row", ["tx 0 1 5", "txn 0 1", "txn 0 1 5 6"])
def test_workload_rejects_wrong_keyword_or_field_count(row):
    with pytest.raises(ParseError, match="expected 'txn <s> <r> <val>'") as exc:
        loads_workload(f"txn 0 1 5\n{row}\n", 4)
    assert exc.value.line_no == 2
