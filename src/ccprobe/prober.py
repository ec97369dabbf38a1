"""Active prober: a scripted TCP receiver that provokes loss recovery.

The prober opens a connection with a small advertised MSS, requests a
page, and pretends to lose the first arrival of selected packet numbers
by simply not acknowledging them (the bytes are recorded but withheld
from the cumulative ACK until they arrive again). Every out-of-order
arrival is answered with an immediate duplicate ACK, so a fast-retransmit
sender sees the classic triple-dupACK burst. Once the cumulative ACK
covers the scripted packet limit the prober emits a final ACK and closes.
"""

import enum
from dataclasses import dataclass

from .errors import ConfigurationError
from .traceio import TraceEvent
from .wire import Flag, Segment, covered_indices

DEFAULT_EVENT_CAP = 10_000
DEFAULT_REQUEST_BYTES = 100

CLOSE_RESET = "reset"
CLOSE_FIN = "fin"


class ProbeOutcome(enum.Enum):
    COMPLETED = "Completed"
    HANDSHAKE_TIMEOUT = "HandshakeTimeout"
    STALLED_SENDER = "StalledSender"
    TRACE_OVERFLOW = "TraceOverflow"


@dataclass(frozen=True)
class ProbeScript:
    mss: int = 100
    drop_packets: frozenset = frozenset({13, 16})
    ack_limit_packet: int = 25
    dupack_per_arrival: bool = True
    close_mode: str = CLOSE_RESET

    def validate(self) -> None:
        if self.mss <= 0:
            raise ConfigurationError("script mss must be positive")
        if any(index < 1 for index in self.drop_packets):
            raise ConfigurationError("drop packet numbers are 1-based")
        if self.drop_packets and self.ack_limit_packet <= max(self.drop_packets):
            raise ConfigurationError(
                "ack_limit_packet must lie beyond every dropped packet"
            )
        if self.ack_limit_packet < 1:
            raise ConfigurationError("ack_limit_packet must be at least 1")
        if self.close_mode not in (CLOSE_RESET, CLOSE_FIN):
            raise ConfigurationError(f"unknown close_mode: {self.close_mode!r}")


class RangeSet:
    """Union of disjoint byte ranges [start, end); adjacent ranges merge."""

    def __init__(self):
        self._spans: list[tuple[int, int]] = []

    def add(self, start: int, end: int) -> None:
        if end <= start:
            return
        spans = []
        for s, e in self._spans:
            if e < start or s > end:  # touching counts as mergeable
                spans.append((s, e))
            else:
                start = min(start, s)
                end = max(end, e)
        spans.append((start, end))
        spans.sort()
        self._spans = spans

    def overlaps(self, start: int, end: int) -> bool:
        return any(s < end and start < e for s, e in self._spans)

    def contiguous_from(self, origin: int) -> int:
        for s, e in self._spans:
            if s <= origin < e:
                return e
        return origin


def _segment_kind(seg: Segment) -> str:
    flags = seg.flags
    if flags & Flag.SYN:
        return "synack" if flags & Flag.ACK else "syn"
    if flags & Flag.RST:
        return "rst"
    if flags & Flag.FIN:
        return "fin"
    if seg.len > 0:
        return "data"
    return "ack"


class ProbeSession:
    """State of one probe connection, including its observed trace."""

    def __init__(
        self,
        script: ProbeScript,
        *,
        request_bytes: int = DEFAULT_REQUEST_BYTES,
        event_cap: int = DEFAULT_EVENT_CAP,
    ):
        script.validate()
        if request_bytes <= 0:
            raise ConfigurationError("request must be nonempty")
        if event_cap < 1:
            raise ConfigurationError("event cap must be positive")
        self.script = script
        self.request_bytes = request_bytes
        self.event_cap = event_cap

        self.phase = "idle"  # idle -> syn_sent -> established -> closed
        self.rcv_nxt = 0
        self.delivered = RangeSet()
        self.seen = RangeSet()
        self.pending_drops = set(script.drop_packets)  # pretend-loss, one-shot
        self.dupacks_sent = 0
        self.snd_off = 0
        self.ip_id_counter = 0
        self.overflowed = False
        self.anomalies: list[str] = []
        self.trace: list[TraceEvent] = []
        self._seen_ip_ids: set[int] = set()

    @property
    def outcome(self) -> ProbeOutcome:
        """How the probe ended, judged from the session's own state."""
        if self.overflowed:
            return ProbeOutcome.TRACE_OVERFLOW
        if self.phase == "closed":
            return ProbeOutcome.COMPLETED
        if self.phase in ("idle", "syn_sent"):
            return ProbeOutcome.HANDSHAKE_TIMEOUT
        return ProbeOutcome.STALLED_SENDER

    # -- recording ------------------------------------------------------

    def _record(self, direction: str, seg: Segment, now: int) -> None:
        if len(self.trace) >= self.event_cap:
            self.overflowed = True
            return
        self.trace.append(
            TraceEvent(
                t_us=now,
                dir=direction,
                kind=_segment_kind(seg),
                seq=seg.seq,
                len=seg.len,
                ack=seg.ack,
                ip_id=seg.ip_id,
            )
        )

    def _next_ip_id(self) -> int:
        self.ip_id_counter += 1
        return self.ip_id_counter

    def _make(self, flags: int, *, length: int = 0, mss_option=None) -> Segment:
        return Segment(
            seq=self.snd_off,
            len=length,
            ack=self.rcv_nxt,
            flags=flags,
            ip_id=self._next_ip_id(),
            mss_option=mss_option,
        )

    # -- protocol -------------------------------------------------------

    def start(self, now: int) -> list[Segment]:
        """Open the probe: send a SYN advertising the script's MSS."""
        if self.phase != "idle":
            return []
        syn = self._make(Flag.SYN, mss_option=self.script.mss)
        self.phase = "syn_sent"
        self._record("tx", syn, now)
        return [syn]

    def handle_segment(self, seg: Segment, now: int) -> list[Segment]:
        self._record("rx", seg, now)
        if self.overflowed or self.phase == "closed":
            return []  # record-only; the probe no longer answers

        if _segment_kind(seg) == "synack" and self.phase == "syn_sent":
            self.phase = "established"
            handshake_ack = self._make(Flag.ACK)
            request = self._make(Flag.ACK, length=self.request_bytes)
            self.snd_off = self.request_bytes
            self._record("tx", handshake_ack, now)
            self._record("tx", request, now)
            return [handshake_ack, request]

        if seg.len > 0 and self.phase == "established":
            return self._on_data(seg, now)
        return []

    def _on_data(self, seg: Segment, now: int) -> list[Segment]:
        if seg.ip_id in self._seen_ip_ids and self.seen.overlaps(seg.seq, seg.end):
            self.anomalies.append(f"duplicate delivery of ip_id {seg.ip_id}")
        self._seen_ip_ids.add(seg.ip_id)
        self.seen.add(seg.seq, seg.end)

        to_drop = [
            index
            for index in covered_indices(seg.seq, seg.len, self.script.mss)
            if index in self.pending_drops
        ]
        if to_drop:
            # Pretend loss: record the arrival, acknowledge nothing. The
            # drop is one-shot; a retransmitted copy will be honored.
            self.pending_drops.difference_update(to_drop)
            return []

        out = []
        previous = self.rcv_nxt
        self.delivered.add(seg.seq, seg.end)
        self.rcv_nxt = self.delivered.contiguous_from(0)
        if self.rcv_nxt > previous:
            ack = self._make(Flag.ACK)
            out.append(ack)
            self._record("tx", ack, now)
            if self.rcv_nxt >= self.script.ack_limit_packet * self.script.mss:
                out.append(self._close(now))
        elif seg.end > self.rcv_nxt and self.script.dupack_per_arrival:
            dup = self._make(Flag.ACK)
            out.append(dup)
            self.dupacks_sent += 1
            self._record("tx", dup, now)
        # Arrivals entirely below rcv_nxt are recorded and stay silent.
        return out

    def _close(self, now: int) -> Segment:
        flags = Flag.RST if self.script.close_mode == CLOSE_RESET else Flag.FIN
        closer = self._make(flags)
        self.phase = "closed"
        self._record("tx", closer, now)
        return closer
