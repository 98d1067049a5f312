"""Deterministic discrete-event dispatcher for the routing protocol.

Events are delivered in (time, insertion-sequence) order, so identical
inputs and configuration replay bit-identically.  Message latency comes
from a seeded latency model; node activations are local continuations and
run at the current timestamp.  Each run starts with the sink's
SinkDistance wave; the source holds its excess until the wave reaches it,
or until the wave dies out if no residual path to the sink exists.

Global relabeling: the dispatcher counts the wave messages in flight, so it
sees for free when a wave dies out (a deployment would pay one echo per
wave message).  When an epoch's SinkDistance wave dies out, the source
starts that epoch's CutOff wave.  After 2n relabels since the last epoch
began, and only once both waves of that epoch are gone, the sink starts the
next epoch's SinkDistance wave.

The dispatcher is single-threaded; handlers only touch the addressed node,
so a sharded dispatcher preserving per-node serial execution and per-edge
FIFO delivery would observe the same outcomes.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import IO

from .graph import ChannelGraph, Funds, NodeId
from . import protocol
from .protocol import (
    Accept,
    CutOff,
    LabelUpdate,
    Nak,
    PushRequest,
    RoutingOutcome,
    SinkDistance,
)


class EventBudgetExhausted(Exception):
    """The event cap was hit before quiescence; carries the partial simulator."""

    def __init__(self, sim: "Simulator"):
        super().__init__(
            f"no quiescence after {sim.events_dispatched} events "
            f"(delivered so far: {sim.states[sim._rp].excess})"
        )
        self.sim = sim


@dataclass(frozen=True)
class LatencyModel:
    """Per-message delay: constant, or uniform integer draws from a seeded RNG."""

    kind: str
    lo: int
    hi: int

    @staticmethod
    def constant(d: int) -> "LatencyModel":
        if d <= 0:
            raise ValueError("delay must be > 0")
        return LatencyModel("constant", d, d)

    @staticmethod
    def uniform(lo: int, hi: int) -> "LatencyModel":
        if lo <= 0 or hi < lo:
            raise ValueError("need 0 < lo <= hi")
        return LatencyModel("uniform", lo, hi)

    @staticmethod
    def parse(spec: str) -> "LatencyModel":
        """Parse 'const:<d>' or 'uniform:<lo>:<hi>'."""
        parts = spec.split(":")
        try:
            if parts[0] in ("const", "constant") and len(parts) == 2:
                return LatencyModel.constant(int(parts[1]))
            if parts[0] == "uniform" and len(parts) == 3:
                return LatencyModel.uniform(int(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ValueError(f"bad latency spec {spec!r}: {exc}") from None
        raise ValueError(f"bad latency spec {spec!r}; use const:<d> or uniform:<lo>:<hi>")

    def sample(self, rng: random.Random) -> int:
        if self.kind == "constant":
            return self.lo
        return rng.randint(self.lo, self.hi)


@dataclass
class SimConfig:
    """Simulation knobs.  Identical config + inputs give identical runs."""

    seed: int = 0
    latency: LatencyModel = field(default_factory=lambda: LatencyModel.constant(1))
    max_events: int | None = None  # default: 50 * (n+2)^2 * (m+2)
    check_invariants: bool = False


_EVENT_NAMES = {
    PushRequest: "push_request",
    Accept: "accept",
    Nak: "nak",
    LabelUpdate: "label_update",
    SinkDistance: "sink_distance",
    CutOff: "cut_off",
}


class Simulator:
    """One routing instance driven by a deterministic event queue."""

    def __init__(
        self,
        g: ChannelGraph,
        s: NodeId,
        r: NodeId,
        val: Funds,
        cfg: SimConfig | None = None,
        trace: IO[str] | None = None,
    ):
        self.cfg = cfg or SimConfig()
        self.graph = g
        self.source, self.sink, self.value = s, r, val
        self._sp, self._rp = g.n, g.n + 1
        self.states = protocol.init_instance(g, s, r, val)
        self._rng = random.Random(self.cfg.seed)
        self._trace = trace
        self.now = 0
        self.simulated_time = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.events_dispatched = 0
        self._seq = 0
        # heap entries: (time, seq, to, sender, message).  Node activations
        # are same-timestamp continuations and always order after the
        # timestamp's message deliveries, so they live in a plain FIFO.
        self._queue: list[tuple[int, int, int, int, object]] = []
        self._wakes: deque[int] = deque()
        self._states_by_id = [self.states[v] for v in range(g.n + 2)]
        latency = self.cfg.latency
        self._const_delay = latency.lo if latency.kind == "constant" else None
        self.max_events = (
            self.cfg.max_events
            if self.cfg.max_events is not None
            else 50 * (g.n + 2) ** 2 * (g.channel_count + 2)
        )
        # s starts pushing once the wave from r reaches it (see _dispatch)
        self._source_held = True
        self.epoch = 0
        self._relabels_since = 0
        self._waves = 0  # wave messages in flight
        self._cut_off_running = False
        self._start_epoch(0)

    # -- global relabeling -------------------------------------------------

    def _send_wave(self, frm: NodeId, out, now: int) -> None:
        latency, rng = self.cfg.latency, self._rng
        for dest, m in out:
            self._seq += 1
            heappush(self._queue, (now + latency.sample(rng), self._seq, dest, frm, m))
        self.messages_sent += len(out)
        self._waves += len(out)

    def _start_epoch(self, now: int) -> None:
        """r starts the next epoch's SinkDistance wave."""
        self.epoch += 1
        self._relabels_since = 0
        sink = self.states[self.sink]
        sink.reached = self.epoch
        wave = SinkDistance(self.sink, 0, self.epoch)
        self._send_wave(self.sink, [(w, wave) for w in sink.channel_neighbors], now)
        if not self._waves:
            self._wave_died(now)

    def _wave_died(self, now: int) -> None:
        """The last message of the running wave was delivered and spawned none."""
        if not self._cut_off_running:
            # the SinkDistance wave is gone: release s if it never arrived,
            # and let s start the CutOff wave as if the feeder sent it
            held, self._source_held = self._source_held, False
            src = self.states[self.source]
            label = src.label
            out = protocol.on_cut_off(src, CutOff(self._sp, self.graph.n + 2, self.epoch))
            if (held or src.label != label) and src.excess > 0 and not src.wake_scheduled:
                src.wake_scheduled = True
                self._wakes.append(self.source)
            self._send_wave(self.source, out, now)
            if self._waves:
                self._cut_off_running = True
                return
        self._cut_off_running = False
        if self._relabels_since >= 2 * self.graph.n:
            self._start_epoch(now)

    def _between(self, step, now: int, seq: int, held: bool, waves: int, relabels: int):
        """Run a wave step from inside _dispatch, which keeps this state in locals."""
        self._seq, self._source_held, self._waves, self._relabels_since = seq, held, waves, relabels
        step(now)
        return self._seq, self._source_held, self._waves, self._relabels_since

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, limit: int) -> int:
        """Deliver up to `limit` events; returns the number delivered.

        The one and only dispatch loop; run() and step() both use it.  Local
        bindings matter here: this loop runs millions of times per routing
        on drain-heavy instances.  Per timestamp, message deliveries run in
        scheduling order first, then node activations in FIFO order, which
        is exactly the (time, sequence) order a single queue would give.
        """
        queue = self._queue
        wakes = self._wakes
        states = self._states_by_id
        seq = self._seq
        const_delay = self._const_delay
        rng_draw = self._rng.randint
        lat_lo, lat_hi = self.cfg.latency.lo, self.cfg.latency.hi
        check = self.cfg.check_invariants
        trace = self._trace
        n = self.graph.n
        bound = 2 * (n + 2)
        trigger = 2 * n
        on_activate = protocol.on_activate
        on_push_request = protocol.on_push_request
        on_label_update = protocol.on_label_update
        on_reply = protocol.on_reply
        on_sink_distance = protocol.on_sink_distance
        on_cut_off = protocol.on_cut_off
        source = self.source
        held = self._source_held
        waves = self._waves
        relabels = self._relabels_since
        done = 0
        sent = 0
        delivered = 0
        now = self.now
        last_delivery = self.simulated_time
        while done < limit:
            if wakes and not (queue and queue[0][0] == now):
                # trailing activations of the current timestamp
                done += 1
                to = wakes.popleft()
                st = states[to]
                st.wake_scheduled = False
                label_before = st.label
                out = on_activate(st)
                if st.label != label_before:
                    if st.label > bound:
                        raise protocol.ProtocolError(
                            f"node {to} label {st.label} exceeds bound {bound}"
                        )
                    if not st.wake_scheduled:
                        st.wake_scheduled = True
                        wakes.append(to)
                    relabels += 1
                    if relabels >= trigger and not waves:
                        seq, held, waves, relabels = self._between(
                            self._start_epoch, now, seq, held, waves, relabels
                        )
            elif queue:
                done += 1
                t, _, to, frm, msg = heappop(queue)
                now = t
                last_delivery = t
                delivered += 1
                st = states[to]
                if trace is not None:
                    self._trace_line(t, frm, to, msg)
                kind = type(msg)
                # the SinkDistance wave first: on feasible payments it is nearly all
                if kind is SinkDistance:
                    out = on_sink_distance(st, msg)
                    if out:
                        waves += len(out) - 1
                        if to == source:
                            held = False  # the first wave reached s
                    else:
                        waves -= 1
                        if not waves:
                            seq, held, waves, relabels = self._between(
                                self._wave_died, now, seq, held, waves, relabels
                            )
                elif kind is PushRequest:
                    out = on_push_request(st, msg)
                elif kind is LabelUpdate:
                    on_label_update(st, msg)
                    out = ()
                elif kind is CutOff:
                    out = on_cut_off(st, msg)
                    waves += len(out) - 1
                    if not waves:
                        seq, held, waves, relabels = self._between(
                            self._wave_died, now, seq, held, waves, relabels
                        )
                else:
                    on_reply(st, msg)
                    out = ()
                if (
                    st.excess > 0
                    and not st.passive
                    and not st.wake_scheduled
                    and not (held and to == source)
                ):
                    st.wake_scheduled = True
                    wakes.append(to)
            else:
                break
            for dest, m in out:
                seq += 1
                delay = const_delay if const_delay is not None else rng_draw(lat_lo, lat_hi)
                heappush(queue, (now + delay, seq, dest, to, m))
                sent += 1
            if check:
                protocol.check_node_invariants(st, n)
        self._source_held = held
        self._waves = waves
        self._relabels_since = relabels
        self.now = now
        self.simulated_time = last_delivery
        self._seq = seq
        self.events_dispatched += done
        self.messages_sent += sent
        self.messages_delivered += delivered
        return done

    def step(self) -> bool:
        """Deliver one event; False when the queue is empty."""
        return self._dispatch(1) == 1

    def _trace_line(self, t: int, frm: NodeId, to: NodeId, msg: object) -> None:
        amount = getattr(msg, "amount", 0)
        self._trace.write(
            f"t={t} {_EVENT_NAMES[type(msg)]} {frm} {to} δ={amount} "
            f"d_from={self.states[frm].label} d_to={self.states[to].label}\n"
        )

    def quiescent(self) -> bool:
        """True iff nothing is queued, no push is unsettled and no real node is active."""
        if self._queue or self._wakes:
            return False
        for st in self.states.values():
            if st.pending:
                return False
            if st.active:
                return False
        return True

    def outcome(self, terminated: bool = True) -> RoutingOutcome:
        return protocol.extract_outcome(
            self.states,
            self.graph,
            self.source,
            self.sink,
            self.value,
            messages_sent=self.messages_sent,
            simulated_time=self.simulated_time,
            terminated=terminated,
            global_relabels=self.epoch - 1,
        )

    def run(self) -> RoutingOutcome:
        """Dispatch events until quiescence; raise EventBudgetExhausted on a hang."""
        self._dispatch(self.max_events + 1 - self.events_dispatched)
        if self._queue or self._wakes or self._source_held:
            raise EventBudgetExhausted(self)
        if not self.quiescent():
            raise protocol.NotTerminated("queue drained but instance is not quiescent")
        if self.messages_delivered != self.messages_sent:
            raise protocol.ProtocolError(
                f"{self.messages_sent} messages sent but {self.messages_delivered} delivered"
            )
        return self.outcome()


def run(
    g: ChannelGraph,
    s: NodeId,
    r: NodeId,
    val: Funds,
    cfg: SimConfig | None = None,
    trace: IO[str] | None = None,
) -> RoutingOutcome:
    """Route val from s to r under cfg and return the outcome."""
    return Simulator(g, s, r, val, cfg, trace).run()
