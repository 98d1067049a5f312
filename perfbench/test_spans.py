"""Self times of nested spans.

Run with: python3 -m pytest perfbench
"""

import pytest

from spans import Tracer


def test_self_times_add_up_to_the_root():
    t = Tracer()
    with t.span("payment", 7):
        with t.span("a"):
            pass
        with t.span("b"):
            with t.span("c"):
                pass
    own = t.self_by_payment()[7]
    root = t.spans[0]
    assert set(own) == {"payment", "a", "b", "c"}
    assert sum(own.values()) == pytest.approx(root.end - root.start, abs=1e-9)
    assert all(s.payment == 7 for s in t.spans)
    assert t.spans[3].parent == 2
