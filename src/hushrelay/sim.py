"""Deterministic discrete-event dispatcher for the routing protocol.

Every delay is a whole number of ticks in [lo, hi] with 1 <= lo, so the
event queue is a calendar queue: a ring of hi + 1 FIFO slots, one per tick
modulo the ring length.  A send appends the message to the slot of its
delivery tick; a node activation is a local continuation and appends to the
current tick's slot, which already holds every delivery for that tick.  So
events run in (time, insertion-sequence) order, and identical inputs and
configuration replay bit-identically.  Message latency comes from a seeded
latency model.  Each run starts in epoch 1, with no wave: every node starts
at its hop distance to the sink in the public channel graph, and the
source's activation is queued at tick 0.

Global relabeling follows the global-update frequency rule of Cherkassky
and Goldberg's hi_pr: a relabel of node v counts RELABEL_WORK + deg(v) work.
The next epoch is due once the count reaches 6n + m, m the channel count
(half hi_pr's 2(6n + m)), from the later of the start of the last epoch and
the last relabel at which the virtual sink's absorbed amount had grown since
the relabel before: a payment whose sink keeps gaining makes progress and
pays for no wave.  The sink also sees one cut for itself: when val is above
its inbound capacity and an Accept saturates the last channel into it,
delivery is final, and the next epoch is due at that event, whatever the
work count; no later sink gain defers it.  One check, after every event,
starts every epoch: no wave is in flight and the next epoch is due.  The
sink then sends the epoch's SinkDistance wave, or none once delivery is
final, as no node can reach it.  The dispatcher counts the wave messages in
flight, so it sees for free when a wave dies out (a deployment would pay one
echo per wave message).  When an epoch's SinkDistance wave dies out, or in
its place when the sink sends none, the source starts that epoch's CutOff
wave.

The dispatcher is single-threaded; handlers only touch the addressed node,
so a sharded dispatcher preserving per-node serial execution and per-edge
FIFO delivery would observe the same outcomes.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import IO

from .decompose import cancel_cycles
from .graph import ChannelGraph, FlowAssignment, Funds, NodeId
from . import protocol
from .protocol import (
    Accept,
    CutOff,
    LabelUpdate,
    Message,
    Nak,
    Outbound,
    PushRequest,
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


# the event ring holds MAX_DELAY + 1 slots at most
MAX_DELAY = 1000

# work a relabel costs besides scanning its node's channels (hi_pr's BETA)
RELABEL_WORK = 12


@dataclass(frozen=True)
class LatencyModel:
    """Per-message delay: lo when lo == hi, else a uniform integer draw from [lo, hi].

    Simulator._dispatch draws each delay inline, from the run's seeded RNG.
    """

    lo: int
    hi: int

    def __post_init__(self):
        # the event ring needs every delay >= 1 and holds hi + 1 slots
        if not 0 < self.lo <= self.hi <= MAX_DELAY:
            raise ValueError(f"need 0 < lo <= hi <= MAX_DELAY ({MAX_DELAY})")

    @staticmethod
    def constant(d: int) -> "LatencyModel":
        return LatencyModel(d, d)

    @staticmethod
    def parse(spec: str) -> "LatencyModel":
        """Parse 'const:<d>' or 'uniform:<lo>:<hi>'."""
        parts = spec.split(":")
        try:
            if parts[0] == "const" and len(parts) == 2:
                return LatencyModel.constant(int(parts[1]))
            if parts[0] == "uniform" and len(parts) == 3:
                return LatencyModel(int(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ValueError(f"bad latency spec {spec!r}: {exc}") from None
        raise ValueError(f"bad latency spec {spec!r}; use const:<d> or uniform:<lo>:<hi>")


@dataclass
class SimConfig:
    """Simulation knobs.  Identical config + inputs give identical runs."""

    seed: int = 0
    latency: LatencyModel = field(default_factory=lambda: LatencyModel.constant(1))


@dataclass(slots=True)
class RoutingOutcome:
    delivered: Funds
    returned: Funds
    flow: FlowAssignment
    messages_sent: int
    relabels: int
    simulated_time: int
    # epochs started after the first, each by a SinkDistance wave, or by a
    # CutOff wave alone once delivery is final
    global_relabels: int
    # real nodes other than s and r that received any message: the states built
    # beyond the four endpoints, plus the nodes that only heard a LabelUpdate
    informed_relays: int


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
        self.simulated_time = 0
        self.messages_delivered = 0
        self.events_dispatched = 0
        # the event ring: tick t's events, in order, sit in _slots[t % len];
        # an entry is (to, message), or (to, None) for an activation of `to`
        self._slots: list[deque[tuple[NodeId, Message | None]]] = [
            deque() for _ in range(self.cfg.latency.hi + 1)
        ]
        # the event budget: run() raises EventBudgetExhausted past it
        self.max_events = 50 * (g.n + 2) ** 2 * (g.channel_count + 2)
        self.relabels = 0  # every relabel of the run, counted where it happens
        self._work = 0  # RELABEL_WORK + deg(v) per relabel of v; drives the epochs
        # epoch 1 runs on the topology labels, with no wave
        self.epoch = 1
        # relabel work from the later of the last epoch's start and the last
        # relabel after a sink gain to the next epoch: 6n + m, half hi_pr's
        # 2(6n + m), since work while r gains does not count
        self._epoch_work = 6 * g.n + g.channel_count
        self._epoch_due = self._epoch_work
        # what the virtual sink had absorbed at the last relabel
        self._absorbed = 0
        # r's inbound capacity, the sum of c(w, r) over its channels
        self._in_cap = sum(g.cap[w][r] for w in g.cap[r])
        # _waves: wave messages in flight
        self.messages_sent = self._waves = 0
        # s is active from the start: its activation is the first event
        self.states[s].wake_scheduled = True
        self._slots[0].append((s, None))

    # -- global relabeling -------------------------------------------------

    def _delivery_final(self) -> bool:
        """r holds all it can ever receive, and that is less than val.

        r's net inflow over its channels is what it holds plus what it has
        passed to the virtual sink.  No channel carries more than its
        capacity, so that sum reaches in-cap(r) only when every channel into
        r is saturated.  Then no push can reach r again, because r never
        pushes back: its label never passes 1, one above the virtual
        sink's and no higher than any real node's, and the virtual sink
        always has room below val.
        """
        sink = self.states[self.sink]
        return sink.excess + sink.edge_flow[self._rp] == self._in_cap < self.value

    def _start_epoch(self) -> list[Outbound]:
        """r starts the next epoch; returns the messages of its first wave.

        Once delivery is final no node can reach r, so r sends no wave and
        the epoch goes straight to its CutOff wave.  (Sent, the wave would
        reach a node whose push to r is still unanswered: counting that push
        as rolled back, the node would take the wave and pass it on.)
        """
        self.epoch += 1
        sink = self.states[self.sink]
        sink.reached = self.epoch
        if self._delivery_final():
            return self._cut_off_wave()
        wave = SinkDistance(self.sink, 0, self.epoch)
        return [(w, wave) for w in sink.channel_neighbors]

    def _cut_off_wave(self) -> list[Outbound]:
        """s starts the epoch's CutOff wave as if the feeder sent it; returns its messages.

        s takes the level itself, and wakes if that lifted it with excess
        left.
        """
        src = self.states[self.source]
        label = src.label
        out = protocol.on_cut_off(src, CutOff(self._sp, self.graph.n + 2, self.epoch))
        if src.label != label and src.excess > 0 and not src.wake_scheduled:
            src.wake_scheduled = True
            # _dispatch keeps simulated_time at the current tick
            self._slots[self.simulated_time % len(self._slots)].append((self.source, None))
        return out

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, limit: int) -> int:
        """Deliver up to `limit` events; returns the number delivered.

        The one and only dispatch loop, which run() drives; once a run has
        started it is the only code that sends a message.
        Local bindings matter here: this loop runs once per event, and a
        `drain` payment sends about 0.4k messages, the desk-scale workload's
        feasible payments 40 and its infeasible ones about 0.3k at the
        median.  Events run from the current tick's slot in FIFO order.
        When it is empty, the next non-empty slot within the ring is the
        next tick with an event; when every slot is empty, nothing is left
        to run.  Time advances only there, and is recorded at once so that
        _cut_off_wave wakes the source in the current slot.  The epoch
        trigger runs after each event's handler, which only moves its
        inputs; a relabeled node's wake is queued before it, a message
        receiver's after it.
        """
        slots = self._slots
        size = len(slots)
        states = self.states
        sent = self.messages_sent
        lat_lo, lat_hi = self.cfg.latency.lo, self.cfg.latency.hi
        const_delay = lat_lo if lat_lo == lat_hi else None
        # randint(lat_lo, lat_hi)'s own steps, inline: the same bits from the
        # same stream, without its call and argument checks per message
        span = lat_hi - lat_lo + 1
        bits = span.bit_length()
        getrandbits = self._rng.getrandbits
        trace = self._trace
        bound = 2 * (self.graph.n + 2)
        # read off the module at each call, so a test oracle can wrap the handlers
        on_activate = protocol.on_activate
        on_push_request = protocol.on_push_request
        on_label_update = protocol.on_label_update
        on_reply = protocol.on_reply
        on_sink_distance = protocol.on_sink_distance
        on_cut_off = protocol.on_cut_off
        waves = self._waves
        relabels = self.relabels
        work = self._work
        due = self._epoch_due
        sink = states[self.sink]
        absorber = states[self._rp]
        absorbed = self._absorbed
        done = 0
        delivered = 0
        now = self.simulated_time
        slot = slots[now % size]
        while done < limit:
            if not slot:
                for ahead in range(1, size):
                    if slots[(now + ahead) % size]:
                        break
                else:
                    break
                now += ahead
                self.simulated_time = now
                slot = slots[now % size]
            done += 1
            to, msg = slot.popleft()
            if msg is None:
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
                        slot.append((to, None))
                    relabels += 1
                    work += RELABEL_WORK + len(st.channel_neighbors)
                    if absorber.excess > absorbed:
                        # r gained since the last relabel: the count restarts here
                        absorbed = absorber.excess
                        due = work + self._epoch_work
            else:
                delivered += 1
                if trace is not None:
                    self._trace_line(now, to, msg)
                kind = type(msg)
                if kind is LabelUpdate:
                    st = states.get(to)
                    if st is None:  # a node not built only records what it heard
                        states.hear(to, msg)
                        continue
                    on_label_update(st, msg)
                    out = ()
                else:
                    st = states[to]
                    if kind is SinkDistance or kind is CutOff:
                        if kind is SinkDistance:
                            out = on_sink_distance(st, msg)
                        else:
                            out = on_cut_off(st, msg)
                        waves += len(out) - 1
                        if not waves and kind is SinkDistance:
                            out = self._cut_off_wave()
                            waves = len(out)
                    elif kind is PushRequest:
                        out = on_push_request(st, msg)
                        if st is sink and self._delivery_final():
                            # an Accept saturated the last channel into r (no
                            # push reaches r after it): the next epoch is due
                            # now, and no later sink gain defers it
                            absorbed = self._in_cap
                            due = work
                    else:
                        on_reply(st, msg)
                        out = ()
            if work >= due and not waves:
                # the new epoch's first wave goes out before this event's messages
                due = work + self._epoch_work
                wave = self._start_epoch()
                waves = len(wave)
                out = [*wave, *out]
            if msg is not None and st.excess > 0 and not st.passive and not st.wake_scheduled:
                st.wake_scheduled = True
                slot.append((to, None))
            sent += len(out)  # each (dest, message) pair is an event entry as it is
            if const_delay is not None:
                slots[(now + const_delay) % size].extend(out)
            else:
                for event in out:
                    draw = getrandbits(bits)
                    while draw >= span:
                        draw = getrandbits(bits)
                    slots[(now + lat_lo + draw) % size].append(event)
        self._waves = waves
        self.relabels = relabels
        self._work = work
        self._epoch_due = due
        self._absorbed = absorbed
        self.events_dispatched += done
        self.messages_sent = sent
        self.messages_delivered += delivered
        return done

    def _trace_line(self, t: int, to: NodeId, msg: Message) -> None:
        st = self.states.get(to)  # tracing builds no state
        self._trace.write(
            f"t={t} {_EVENT_NAMES[type(msg)]} {msg.sender} {to} δ={getattr(msg, 'amount', 0)} "
            f"d_from={self.states[msg.sender].label} "
            f"d_to={st.label if st is not None else self.states.label(to)}\n"
        )

    def outcome(self) -> RoutingOutcome:
        """Check the termination contract and assemble the routing outcome.

        The contract: no push in flight, zero excess everywhere except the
        virtual endpoints, delivered plus returned equal to the routed value,
        and mirrored per-edge ledgers.  It reads only the states built so
        far and builds none: a node never looked up holds no flow.  The
        reported flow is the netted ledger with circulation removed: excess
        bouncing between nodes can leave zero-payment cycles in the raw
        ledgers, and the canonical routing result is the acyclic flow those
        ledgers imply.  This is the pipeline's one cycle-cancel pass:
        decomposition and the flow report take the acyclic flow as given and
        reject circulation.
        """
        states, n = self.states, self.graph.n
        sp, rp = self._sp, self._rp
        for v, st in states.items():
            if st.pending:
                raise protocol.NotTerminated(f"node {v} still has in-flight pushes")
            if v not in (sp, rp) and st.excess != 0:
                raise protocol.ProtocolError(f"terminal excess {st.excess} at node {v}")
        delivered = states[rp].excess
        returned = states[sp].excess
        if delivered + returned != self.value:
            raise protocol.ProtocolError(
                f"delivered {delivered} + returned {returned} != routed value {self.value}"
            )
        flow = FlowAssignment(self.source, self.sink)
        # a zero entry is checked from its mirror, unless both are zero
        for v in sorted(v for v in states if v < n):
            for w, f_vw in states[v].edge_flow.items():
                if f_vw == 0 or w >= n:
                    continue
                mirror = states.get(w)
                mirrored = mirror.edge_flow[v] if mirror is not None else 0
                if f_vw != -mirrored:
                    raise protocol.ProtocolError(
                        f"ledger mismatch on channel {(min(v, w), max(v, w))}: "
                        f"{f_vw} vs {-mirrored}"
                    )
                if f_vw > 0:
                    flow.out.setdefault(v, {})[w] = f_vw
        return RoutingOutcome(
            delivered=delivered,
            returned=returned,
            flow=cancel_cycles(flow),
            messages_sent=self.messages_sent,
            relabels=self.relabels,
            simulated_time=self.simulated_time,
            global_relabels=self.epoch - 1,
            # every built state but s, r and the virtual endpoints received a message
            informed_relays=len(states) - 4 + len(states.heard),
        )

    def run(self) -> RoutingOutcome:
        """Dispatch events until quiescence; raise EventBudgetExhausted on a hang."""
        self._dispatch(self.max_events + 1 - self.events_dispatched)
        if any(self._slots):
            raise EventBudgetExhausted(self)
        if self.messages_delivered != self.messages_sent:
            raise protocol.ProtocolError(
                f"{self.messages_sent} messages sent but {self.messages_delivered} delivered"
            )
        # outcome() rejects an unsettled push and excess at any real node
        return self.outcome()
