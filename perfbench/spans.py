"""In-memory spans recorded around calls into the program's public functions."""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    payment: int | None


class Tracer:
    """Records nested spans; nothing is written until the caller asks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, payment: int | None = None):
        parent = self._open[-1] if self._open else None
        if payment is None and parent is not None:
            payment = self.spans[parent].payment
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, payment)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def self_by_payment(self) -> dict[int, dict[str, float]]:
        """payment id -> span name -> summed self time (seconds)."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, own in zip(self.spans, self.self_times()):
            if s.payment is not None:
                out[s.payment][s.name] += own
        return out

    def dump(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, payment."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                payment = "" if s.payment is None else s.payment
                fh.write(f"{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{parent}\t{payment}\n")
