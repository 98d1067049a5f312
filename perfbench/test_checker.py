"""The checker accepts a correct payment and rejects every kind of tampering.

Run with: python3 -m pytest perfbench
"""

import dataclasses
import random

import pytest

import checker
import maxflow
from checker import UNIT_LEN, CheckFailed, Payment, check_payment, check_values

# five nodes, 0 pays 4; directed capacities
CAPS = {
    (0, 1): 10, (1, 0): 10,
    (0, 2): 5, (2, 0): 5,
    (1, 2): 3, (2, 1): 3,
    (1, 3): 10, (3, 1): 5,
    (2, 3): 10, (3, 2): 5,
    (3, 4): 20, (4, 3): 0,
}
FLOW = {(0, 1): 7, (0, 2): 5, (1, 3): 7, (2, 3): 5, (3, 4): 12}


def good(**changes) -> Payment:
    p = Payment(
        s=0,
        r=4,
        value=12,
        max_flow=15,
        feasible=True,
        delivered=12,
        returned=0,
        flow=dict(FLOW),
        paths=[((0, 1, 3, 4), 7), ((0, 2, 3, 4), 5)],
        packet_lengths=[3 * UNIT_LEN] * 6,
        reconstructed=dict(FLOW),
    )
    return dataclasses.replace(p, **changes)


def test_accepts_correct_payment_and_returns_depth():
    assert check_payment(CAPS, good()) == 3


def test_accepts_partial_delivery_of_infeasible_payment():
    p = good(value=20, feasible=False, delivered=15, returned=5,
             flow={**FLOW, (0, 1): 10, (1, 3): 10, (3, 4): 15},
             paths=[((0, 1, 3, 4), 10), ((0, 2, 3, 4), 5)],
             reconstructed={**FLOW, (0, 1): 10, (1, 3): 10, (3, 4): 15})
    assert check_payment(CAPS, p) == 3


def test_scipy_max_flow_matches_hand_computed_cut():
    # min cut {0} | {1,2,3,4}: 0->1 (10) + 0->2 (5), so one node on the sender's side
    assert maxflow.solve(maxflow.capacity_matrix(5, CAPS), 0, 4) == (15, 1)
    # the child process gives the same answer
    assert maxflow.max_flows(5, CAPS, [(0, 4), (4, 0)]) == [(15, 1), (0, 1)]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"delivered": 11, "returned": 1}, "delivered 11"),
        ({"max_flow": 11}, "delivered 12, expected"),
        ({"feasible": False}, "is_feasible"),
        ({"returned": 1}, "returned"),
    ],
)
def test_rejects_tampered_amounts(changes, message):
    with pytest.raises(CheckFailed, match=message):
        check_payment(CAPS, good(**changes))


def test_rejects_flow_over_capacity():
    flow = {**FLOW, (0, 2): 6, (2, 3): 6, (3, 4): 13}
    with pytest.raises(CheckFailed, match="exceeds capacity"):
        check_payment(CAPS, good(flow=flow, reconstructed=flow))


def test_rejects_flow_on_a_non_channel():
    flow = {**FLOW, (0, 3): 1, (3, 4): 13}
    with pytest.raises(CheckFailed, match="exceeds capacity 0"):
        check_payment(CAPS, good(flow=flow))


def test_rejects_broken_conservation():
    flow = {**FLOW, (1, 3): 6}
    with pytest.raises(CheckFailed, match="conservation broken at node 1"):
        check_payment(CAPS, good(flow=flow, reconstructed=flow))


def test_rejects_empty_flow_claiming_a_delivery():
    p = good(flow={}, paths=[], packet_lengths=[], reconstructed={})
    with pytest.raises(CheckFailed, match="conservation broken at node (0|4)"):
        check_payment(CAPS, p)


def test_rejects_a_cycle_even_when_conserved():
    # 1 -> 2 -> 3 -> 1 carries one unit of circulation
    flow = {**FLOW, (1, 2): 1, (2, 3): 6, (3, 1): 1}
    with pytest.raises(CheckFailed, match="cycle"):
        check_payment(CAPS, good(flow=flow, reconstructed=flow))


@pytest.mark.parametrize(
    "paths, message",
    [
        ([((0, 1, 3, 4), 6), ((0, 2, 3, 4), 5)], "do not sum"),
        ([((0, 1, 3, 4), 7), ((0, 2, 3, 4), 5), ((0, 2, 3, 4), 1)], "do not sum"),
        ([((0, 1, 3, 4), 7)], "do not sum"),
        ([((0, 1, 2, 3, 4), 7), ((0, 2, 3, 4), 5)], "carries no flow"),
        ([((1, 3, 4), 7), ((0, 2, 3, 4), 5)], "does not run from 0 to 4"),
        ([((0, 1, 3), 7), ((0, 2, 3, 4), 5)], "does not run from 0 to 4"),
        ([((0, 1, 3, 1, 3, 4), 7), ((0, 2, 3, 4), 5)], "repeats a node"),
        ([((0, 1, 3, 4), 7), ((0, 2, 3, 4), 5), ((0, 1, 3, 4), 0)], "non-positive"),
    ],
)
def test_rejects_tampered_paths(paths, message):
    with pytest.raises(CheckFailed, match=message):
        check_payment(CAPS, good(paths=paths))


@pytest.mark.parametrize(
    "lengths, message",
    [
        ([3 * UNIT_LEN] * 5 + [3 * UNIT_LEN + 1], "expected 3 x 273"),
        ([2 * UNIT_LEN] * 6, "expected 3 x 273"),
        ([4 * UNIT_LEN] * 6, "expected 3 x 273"),
        ([3 * UNIT_LEN] * 4, "4 packets for 5 flow edges"),
    ],
)
def test_rejects_tampered_packets(lengths, message):
    with pytest.raises(CheckFailed, match=message):
        check_payment(CAPS, good(packet_lengths=lengths))


def test_depth_is_the_longest_path_not_the_shortest():
    # add a detour 0 -> 1 -> 2 -> 3 so the longest path has four edges
    flow = {(0, 1): 8, (0, 2): 4, (1, 3): 7, (1, 2): 1, (2, 3): 5, (3, 4): 12}
    paths = [((0, 1, 3, 4), 7), ((0, 2, 3, 4), 4), ((0, 1, 2, 3, 4), 1)]
    p = good(flow=flow, paths=paths, reconstructed=flow, packet_lengths=[4 * UNIT_LEN] * 6)
    assert check_payment(CAPS, p) == 4
    with pytest.raises(CheckFailed, match="expected 4 x 273"):
        check_payment(CAPS, dataclasses.replace(p, packet_lengths=[3 * UNIT_LEN] * 6))


def test_rejects_tampered_reconstruction():
    with pytest.raises(CheckFailed, match="reconstructed"):
        check_payment(CAPS, good(reconstructed={**FLOW, (3, 4): 11}))
    with pytest.raises(CheckFailed, match="reconstructed"):
        check_payment(CAPS, good(reconstructed={k: v for k, v in FLOW.items() if k != (0, 2)}))


def test_workload_values_against_max_flow():
    check_values("small", [10, 15], [15, 15], drains=False)
    check_values("drain", [16, 40], [15, 15], drains=True)
    with pytest.raises(CheckFailed, match="exceeds max-flow"):
        check_values("small", [10, 16], [15, 15], drains=False)
    with pytest.raises(CheckFailed, match="does not exceed"):
        check_values("drain", [16, 15], [15, 15], drains=True)


@pytest.mark.parametrize("latency", ["const:1", "uniform:1:10"])
@pytest.mark.parametrize("over", [False, True])
def test_real_payments_pass(latency, over):
    import run
    from hushrelay.sim import LatencyModel
    from hushrelay.topology import BAConfig, generate_ba

    g = generate_ba(BAConfig(40, 2, (20, 100), seed=3))
    caps = run._directed_caps(g)
    matrix = maxflow.capacity_matrix(g.n, caps)
    rng = random.Random(4)
    for _ in range(5):
        s, r = rng.sample(range(g.n), 2)
        mf, _ = maxflow.solve(matrix, s, r)
        value = mf + rng.randint(1, 5) if over else rng.randint(1, mf)
        t = run.Txn(s, r, value, mf, rng.getrandbits(32))
        done = run.pay(g, t, LatencyModel.parse(latency), run._no_span, False)
        assert run.check(caps, t, done) >= 1
