"""Deterministic discrete-event network simulator.

Two endpoints (a page-serving sender and the probe session) exchange
segments over a symmetric, lossless, infinitely fast link: every segment
arrives exactly rtt/2 after it was sent, in FIFO order. Time is a virtual
integer-microsecond clock advanced only by the event queue, so a given
scenario always produces a bit-identical trace.

An optional ambient-drop list (server ip_ids swallowed by the link)
exists for robustness testing only; the default link never loses data.
"""

import enum
from collections import deque
from dataclasses import dataclass, field, replace

from .errors import ConfigurationError, InternalError
from .prober import ProbeSession, ProbeScript
from .sender import Sender, SenderConfig, Variant
from .wire import US_PER_MS, Flag, Segment

DEFAULT_RUN_DEADLINE_MS = 30_000

SERVER = "server"
PROBER = "prober"


class TerminationReason(enum.Enum):
    PROBER_CLOSED = "ProberClosed"
    QUIESCENT = "Quiescent"
    DEADLINE_EXCEEDED = "DeadlineExceeded"


@dataclass(frozen=True)
class Scenario:
    variant: Variant
    rtt_ms: int = 100
    page_bytes: int = 3000
    sender_config: SenderConfig = field(default_factory=SenderConfig)
    probe_script: ProbeScript = field(default_factory=ProbeScript)
    run_deadline_ms: int = DEFAULT_RUN_DEADLINE_MS
    ambient_drops: frozenset = frozenset()  # server ip_ids lost in the link

    def validate(self) -> None:
        self.sender_config.validate()
        self.probe_script.validate()
        if self.rtt_ms <= 0:
            raise ConfigurationError("rtt must be positive")
        if self.page_bytes < (self.probe_script.ack_limit_packet + 1) * self.probe_script.mss:
            raise ConfigurationError(
                "page too small: the probe script could never be satisfied"
            )
        if self.run_deadline_ms <= 10 * self.rtt_ms:
            raise ConfigurationError("run deadline must exceed 10 round trips")


class HttpServerEndpoint:
    """Minimal page server: handshake, then one response per connection.

    The HTTP layer is a stub. Any nonempty request triggers the whole
    page; request and response bytes are opaque. The congestion sender is
    created at SYN time with the negotiated MSS, and the SYN+ACK draws its
    ip_id from the same per-connection counter the sender uses.
    """

    def __init__(self, config: SenderConfig, variant: Variant, page_bytes: int):
        self.base_config = config
        self.variant = variant
        self.page_bytes = page_bytes
        self.phase = "listen"  # listen -> syn_rcvd -> established
        self.sender = None
        self.halted = False
        self.request_seen = False

    @property
    def rto_deadline(self):
        if self.halted or self.sender is None:
            return None
        return self.sender.rto_deadline

    def on_timer(self, now: int) -> list[Segment]:
        if self.halted or self.sender is None:
            return []
        return self.sender.on_rto(now)

    def handle_segment(self, seg: Segment, now: int) -> list[Segment]:
        if self.halted:
            return []
        if seg.flags & (Flag.RST | Flag.FIN):
            self.halted = True
            return []
        if seg.flags & Flag.SYN:
            offered = seg.mss_option or self.base_config.mss
            negotiated = replace(
                self.base_config, mss=min(self.base_config.mss, offered)
            )
            self.sender = Sender(negotiated, self.variant)
            self.phase = "syn_rcvd"
            return [
                Segment(0, 0, 0, Flag.SYN | Flag.ACK, self.sender.next_ip_id(), negotiated.mss)
            ]
        if seg.len > 0:
            if self.phase != "established" or self.request_seen:
                # Payload before the handshake completes (or a second
                # request) is ignored.
                return []
            self.request_seen = True
            self.sender.rcv_nxt = seg.end
            self.sender.enqueue_app_data(self.page_bytes)
            return self.sender.pump_transmissions(now)
        if seg.flags & Flag.ACK:
            if self.phase == "syn_rcvd":
                self.phase = "established"
                return []
            if self.phase == "established":
                return self.sender.on_ack(seg.ack, now)
        return []


class SimWorld:
    """Event queue, virtual clock, and the two endpoints of one scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.clock = 0
        self.one_way_us = scenario.rtt_ms * US_PER_MS // 2
        self.deadline_us = scenario.run_deadline_ms * US_PER_MS
        self.server = HttpServerEndpoint(
            scenario.sender_config, scenario.variant, scenario.page_bytes
        )
        self.prober = ProbeSession(scenario.probe_script)
        # (when, kind, segment), the probe's opening at t=0 first. Every
        # segment takes one_way_us and the clock never runs back, so segments
        # are queued in delivery order: a FIFO is the event queue.
        self._queue: deque[tuple[int, str, Segment | None]] = deque(
            [(0, "start", None)]
        )

    def dispatch(self, segments: list[Segment], now: int, origin: str) -> None:
        dest = PROBER if origin == SERVER else SERVER
        when = now + self.one_way_us
        for seg in segments:
            if origin == SERVER and seg.ip_id in self.scenario.ambient_drops:
                continue
            self._queue.append((when, dest, seg))


def sim_init(scenario: Scenario) -> SimWorld:
    """Validate a scenario and build its world (one pending event at t=0)."""
    scenario.validate()
    return SimWorld(scenario)


def run_to_completion(world: SimWorld):
    """Drain the world; returns (observed trace, TerminationReason)."""
    queue = world._queue
    while True:
        deadline = world.server.rto_deadline
        next_time = queue[0][0] if queue else None
        if next_time is None and deadline is None:
            reason = (
                TerminationReason.PROBER_CLOSED
                if world.prober.phase == "closed"
                else TerminationReason.QUIESCENT
            )
            break
        if deadline is not None and (next_time is None or deadline < next_time):
            if deadline > world.deadline_us:
                reason = TerminationReason.DEADLINE_EXCEEDED
                break
            if deadline < world.clock:
                raise InternalError("timer deadline in the past")
            world.clock = deadline
            world.dispatch(world.server.on_timer(deadline), deadline, SERVER)
            continue
        when, kind, seg = queue.popleft()
        if when > world.deadline_us:
            reason = TerminationReason.DEADLINE_EXCEEDED
            break
        if when < world.clock:
            raise InternalError("event queue regressed in time")
        world.clock = when
        if kind == "start":
            world.dispatch(world.prober.start(when), when, PROBER)
        elif kind == SERVER:
            world.dispatch(world.server.handle_segment(seg, when), when, SERVER)
        else:
            world.dispatch(world.prober.handle_segment(seg, when), when, PROBER)
    return list(world.prober.trace), reason
