"""Deterministic discrete-event network simulator: the world, the link and the loop.

Two endpoints, the server (one ``sender.Sender``: handshake, page and
variant) and the probe session, exchange segments over a symmetric,
lossless, infinitely fast link: every segment arrives exactly rtt/2 after
it was sent, in FIFO order. The tests lose a segment at its endpoint's
output instead, through ``conftest.lose``. Time is a virtual
integer-microsecond clock advanced only by the event queue, so a given
scenario always produces a bit-identical trace. A segment is the
``TraceEvent`` the prober logs (see ``wire``); it carries no MSS option,
so ``SimWorld`` builds the server with its MSS capped at the probe
script's.

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
and each timer fire either sends a segment, which the prober records, or
finds nothing to send and leaves the timer disarmed.

Each endpoint's ``handle_segment`` is its one arrival path, a loop over
the batch that tests the common arrival first; after the handshake the
server's hands each batch whole to its ``on_ack``. The server alone holds
a timer, the retransmission timer: only the page arms it, and a close
disarms it, so the loop reads the server's ``rto_deadline`` and nothing
else, and a fire goes to its ``on_timer``.
"""

import enum
from collections import deque
from dataclasses import dataclass, field

from .errors import ConfigurationError, InternalError
from .prober import ProbeSession, ProbeScript
from .sender import Sender, SenderConfig, Variant
from .traceio import TraceEvent

US_PER_MS = 1000  # times are integer virtual microseconds
EVENT_CAP = 10_000  # a run ends once its trace holds this many events

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

    def __post_init__(self):
        for name, kind in (
            ("variant", Variant), ("sender_config", SenderConfig), ("probe_script", ProbeScript)
        ):
            if not isinstance(getattr(self, name), kind):
                raise ConfigurationError(f"{name} must be a {kind.__name__}")
        for name in ("rtt_ms", "page_bytes"):
            if type(getattr(self, name)) is not int:
                raise ConfigurationError(f"{name} must be an integer")
        if self.rtt_ms <= 0:
            raise ConfigurationError("rtt must be positive")
        if self.page_bytes < self.probe_script.ack_limit_packet * self.probe_script.mss:
            raise ConfigurationError(
                "page too small: the probe script could never be satisfied"
            )


# The server endpoint is the ``Sender`` itself; the benchmark's tracer
# patches its ``handle_segment`` and ``on_timer`` under this second name.
HttpServerEndpoint = Sender


class SimWorld:
    """Event queue, virtual clock, and the two endpoints of one scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.clock = 0
        self.one_way_us = scenario.rtt_ms * US_PER_MS // 2
        config, script = scenario.sender_config, scenario.probe_script
        config = SenderConfig(min(config.mss, script.mss), config.initial_cwnd)
        self.server = Sender(config, scenario.variant, self.one_way_us, scenario.page_bytes)
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
    close, as in ``classifier.extract_features``.
    """
    queue, server, prober = world._queue, world.server, world.prober
    to_prober, to_server, trace = prober.handle_segment, server.handle_segment, prober.trace
    one_way = world.one_way_us
    while True:
        # The next event: the queue head, or the server's timer if earlier.
        timer = server.rto_deadline
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
        if out:
            queue.append((when + one_way, dest, out))
    return list(trace), reason
