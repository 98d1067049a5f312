"""A fixed probe of the host's speed, to scale wall times by.

On a shared host one and the same payment's wall time moves by a quarter
within seconds, and whole runs land in faster or slower spells that last
minutes.  The probe is a Dijkstra search over a fixed random graph: plain
Python dicts, tuples and heapq, like the program's event loop, but the
benchmark's own code, so no change to the program changes it.  run.py times
it after every payment and scales each wall time by REF_MS over the probe's
median in that run.  The times then read as on a host where the probe takes
REF_MS, and a run in a slow spell no longer reads as a slower program.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

# a round figure near the probe's median on the 2-core x86 KVM guest that the
# reference figures in README.md come from
REF_MS = 4.0
NODES = 2000
DEGREE = 4


class HostSpeed:
    def __init__(self) -> None:
        rng = random.Random(0)
        self.adj = [
            [(rng.randrange(NODES), rng.randint(1, 9)) for _ in range(DEGREE)]
            for _ in range(NODES)
        ]
        self.times: list[float] = []  # seconds per probe

    def _search(self) -> int:
        dist = {0: 0}
        heap = [(0, 0)]
        done = set()
        while heap:
            d, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            for w, c in self.adj[v]:
                if d + c < dist.get(w, 1 << 30):
                    dist[w] = d + c
                    heapq.heappush(heap, (d + c, w))
        return len(done)

    def sample(self) -> None:
        started = time.perf_counter()
        self._search()
        self.times.append(time.perf_counter() - started)

    def scale(self) -> float:
        """Multiply a wall time by this to read it at the reference speed."""
        return REF_MS / (statistics.median(self.times) * 1000)
