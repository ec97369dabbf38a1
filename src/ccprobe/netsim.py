"""Deterministic discrete-event network simulator.

Two endpoints (a page-serving sender and the probe session) exchange
segments over a symmetric, lossless, infinitely fast link: every segment
arrives exactly rtt/2 after it was sent, in FIFO order. Time is a virtual
integer-microsecond clock advanced only by the event queue, so a given
scenario always produces a bit-identical trace. A segment is the
``TraceEvent`` the prober logs (see ``wire``); it carries no MSS option,
so ``SimWorld`` builds the server's one ``Sender`` with its MSS capped at
the probe script's, and hands it to the endpoint.

The queue holds one ``(when, dest, segments)`` entry per delivered batch
that drew any answer. An endpoint takes an entry whole, in one
``handle_segment`` call, and all it sends in answer shares one due time
and goes out as the next entry. No timer fires between its parts: a
timer fires only when it is strictly earlier than the next arrival, the
timer deadline that let the batch run was already at or past its time,
and one set while it is handled is at least ``now + rto_min``. So
delivery order is exactly that of one entry per segment.

``sim_init`` queues the prober's SYN as the first entry. One loop in
``run_to_completion`` takes every arrival and timer fire, and it alone
ends a run: at the prober's close, at quiescence or at the event cap.
The cap bounds every run: each prober batch records at least one event,
and each timer fire either sends a segment, which the prober records
unless the finite ambient-drop set swallows it, or finds nothing to send
and leaves the timer disarmed.

Each endpoint's ``handle_segment`` is its one arrival path, a loop over
the batch that tests the common arrival first; the server's branches on
each segment's ``kind`` and hands the ACK numbers of the batch to the
sender's ``on_ack`` in one call. Its one ``phase`` runs listen ->
syn_rcvd -> established -> serving -> closed (see
``HttpServerEndpoint``). The sender alone holds the retransmission timer:
only the page arms it, and a close disarms it, so the loop reads the
sender's ``rto_deadline`` and nothing else.

An optional ambient-drop list (server ip_ids swallowed by the link)
exists for robustness testing only; the default link never loses data.
"""

import enum
from collections import deque
from dataclasses import dataclass, field

from .errors import ConfigurationError, InternalError
from .prober import EVENT_CAP, ProbeSession, ProbeScript
from .sender import Sender, SenderConfig, Variant
from .traceio import TraceEvent

US_PER_MS = 1000  # times are integer virtual microseconds

SERVER = "server"
PROBER = "prober"


class TerminationReason(enum.Enum):
    PROBER_CLOSED = "ProberClosed"
    QUIESCENT = "Quiescent"
    TRACE_OVERFLOW = "TraceOverflow"


@dataclass(frozen=True)
class Scenario:
    """One probe to simulate: the server's variant and window, the path and the prober's script."""
    variant: Variant
    rtt_ms: int = 100
    page_bytes: int = 3000
    sender_config: SenderConfig = field(default_factory=SenderConfig)
    probe_script: ProbeScript = field(default_factory=ProbeScript)
    ambient_drops: frozenset = frozenset()  # server ip_ids lost in the link

    def __post_init__(self):
        if self.rtt_ms <= 0:
            raise ConfigurationError("rtt must be positive")
        if self.page_bytes < (self.probe_script.ack_limit_packet + 1) * self.probe_script.mss:
            raise ConfigurationError(
                "page too small: the probe script could never be satisfied"
            )


class HttpServerEndpoint:
    """Minimal page server: handshake, then one response per connection.

    The HTTP layer is a stub. Any nonempty request triggers the whole
    page; request and response bytes are opaque. The congestion sender is
    built with the world and handed in, and the SYN+ACK draws its ip_id
    from the same per-connection counter the sender uses. Each segment the
    server sends is stamped ``rx`` with its arrival time, the sender's
    ``one_way_us`` after it leaves.

    ``phase`` runs listen -> syn_rcvd -> established -> serving, and a RST
    or FIN in any phase makes it ``closed``, which answers nothing and
    disarms the sender's timer. Only the page arms that timer, so
    ``on_timer`` is the sender's ``on_rto``, and a fire with no timer armed
    raises ``InternalError`` in any phase. The
    server opens one connection: only ``listen`` takes a SYN, and any
    later SYN is ignored, so the page is never replaced or served twice.

    Once established, the server collects the ACK numbers of a batch and
    hands them to ``Sender.on_ack`` in one call, in order. Any other
    arrival first hands over the ACKs before it, so a RST or FIN still
    ends the batch where it stands.
    """

    def __init__(self, sender: Sender, page_bytes: int):
        self.sender = sender
        self.page_bytes = page_bytes
        self.phase = "listen"

    def on_timer(self, now: int) -> list[TraceEvent]:
        return self.sender.on_rto(now)

    def handle_segment(self, segments: list[TraceEvent], now: int) -> list[TraceEvent]:
        """Take in one delivered batch, in order; return every answer to it."""
        out, acks, sender, phase = [], [], self.sender, self.phase
        acking = phase == "established" or phase == "serving"
        for seg in segments:
            kind = seg.kind
            # The common arrival first: an ACK once established, held for
            # the sender until the batch or a run of ACKs ends.
            if acking and kind == "ack":
                acks.append(seg.ack)
                continue
            if acks:
                out += sender.on_ack(acks, now)
                acks = []
            if phase == "closed" or kind == "rst" or kind == "fin":
                phase, sender.rto_deadline = "closed", None
                break
            elif kind == "syn":
                if phase == "listen":  # one connection: a later SYN is ignored
                    sender.ip_id_counter = 1  # the SYN+ACK takes the first ip_id
                    out.append(TraceEvent(now + sender.one_way_us, "rx", "synack", 0, 0, 0, 1))
                    phase = "syn_rcvd"
            elif kind == "data":
                if phase == "established":  # the request; other payloads are ignored
                    phase = "serving"
                    sender.rcv_nxt, sender.app_limit = seg.seq + seg.len, self.page_bytes
                    out += sender.pump_transmissions(now)
            elif kind == "ack" and phase == "syn_rcvd":
                phase, acking = "established", True
        if acks:
            out += sender.on_ack(acks, now)
        self.phase = phase
        return out


class SimWorld:
    """Event queue, virtual clock, and the two endpoints of one scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.clock = 0
        self.one_way_us = scenario.rtt_ms * US_PER_MS // 2
        config, script = scenario.sender_config, scenario.probe_script
        config = SenderConfig(min(config.mss, script.mss), config.initial_cwnd)
        sender = Sender(config, scenario.variant, self.one_way_us)
        self.server = HttpServerEndpoint(sender, scenario.page_bytes)
        self.prober = ProbeSession(script)
        # (when, dest, segments) entries, the probe's SYN (sent at t=0)
        # first; each holds all the answers to one delivered batch. Every
        # segment takes one_way_us and the clock never runs back, so entries
        # are queued in delivery order: a FIFO is the event queue. No timer
        # fires between the parts of an entry (see the module docstring).
        self._queue: deque[tuple[int, str, list[TraceEvent]]] = deque(
            [(self.one_way_us, SERVER, self.prober.start(0))]
        )


def sim_init(scenario: Scenario) -> SimWorld:
    """Build a scenario's world, its opening SYN queued."""
    return SimWorld(scenario)


def run_to_completion(world: SimWorld):
    """Drain the world; returns (observed trace, TerminationReason).

    A prober batch that fills the trace to EVENT_CAP events ends the run,
    and the session's trace is cut to that many. The cap outranks the
    close, as in ``classify_trace``.
    """
    queue, server, prober = world._queue, world.server, world.prober
    sender = server.sender
    to_prober, to_server, trace = prober.handle_segment, server.handle_segment, prober.trace
    one_way = world.one_way_us
    drops = world.scenario.ambient_drops
    while True:
        # The next event: the queue head, or the server's timer if earlier.
        timer = sender.rto_deadline
        if queue and (timer is None or queue[0][0] <= timer):
            when, dest, segments = queue.popleft()
        elif timer is not None:
            when, dest, segments = timer, SERVER, None
        else:
            reason = (
                TerminationReason.PROBER_CLOSED
                if prober.phase == "closed"
                else TerminationReason.QUIESCENT
            )
            break
        if when < world.clock:
            raise InternalError("event before the clock")
        world.clock = when
        if dest == PROBER:
            out, dest = to_prober(segments, when), SERVER
            if len(trace) >= EVENT_CAP:
                del trace[EVENT_CAP:]
                reason = TerminationReason.TRACE_OVERFLOW
                break
        else:
            out = server.on_timer(when) if segments is None else to_server(segments, when)
            dest = PROBER
            if drops:
                out = [s for s in out if s.ip_id not in drops]
        if out:
            queue.append((when + one_way, dest, out))
    return list(trace), reason
