"""Active prober: a scripted TCP receiver that provokes loss recovery.

The prober opens a connection with a small advertised MSS, requests a
page, and pretends to lose the first arrival of selected packet numbers
by simply not acknowledging them (the bytes are recorded but withheld
from the cumulative ACK until they arrive again). Every out-of-order
arrival is answered with an immediate duplicate ACK, so a fast-retransmit
sender sees the classic triple-dupACK burst. Once the cumulative ACK
covers the scripted packet limit the prober emits a final ACK and closes.

The session records at most EVENT_CAP events; past that it sets
``overflowed`` and answers nothing more. How a probe ended is not kept
here: ``classifier.classify_trace`` reads it off the trace alone.
"""

from bisect import insort
from dataclasses import dataclass

from .errors import ConfigurationError
from .traceio import TraceEvent
from .wire import Flag, Segment, covered_indices

EVENT_CAP = 10_000
REQUEST_BYTES = 100  # the opaque request; any nonempty payload fetches the page


@dataclass(frozen=True)
class ProbeScript:
    mss: int = 100
    drop_packets: frozenset = frozenset({13, 16})
    ack_limit_packet: int = 25

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

    def __init__(self, script: ProbeScript):
        script.validate()
        self.script = script

        self.phase = "idle"  # idle -> syn_sent -> established -> closed
        self.rcv_nxt = 0  # every byte below it has arrived
        self._above: list[tuple[int, int]] = []  # sorted spans past rcv_nxt
        self.pending_drops = set(script.drop_packets)  # pretend-loss, one-shot
        self.dupacks_sent = 0
        self.snd_off = 0
        self.ip_id_counter = 0
        self.overflowed = False
        self.trace: list[TraceEvent] = []

    # -- recording ------------------------------------------------------

    def _record(self, now: int, direction: str, kind: str, seg: Segment) -> None:
        if len(self.trace) >= EVENT_CAP:
            self.overflowed = True
            return
        self.trace.append(
            TraceEvent(now, direction, kind, seg.seq, seg.len, seg.ack, seg.ip_id)
        )

    def _send(self, now: int, kind: str, flags: int, length: int = 0, mss_option=None) -> Segment:
        """Build the next outgoing segment and record it as a ``kind`` event."""
        self.ip_id_counter += 1
        seg = Segment(self.snd_off, length, self.rcv_nxt, flags, self.ip_id_counter, mss_option)
        self._record(now, "tx", kind, seg)
        return seg

    # -- protocol -------------------------------------------------------

    def start(self, now: int) -> list[Segment]:
        """Open the probe: send a SYN advertising the script's MSS."""
        if self.phase != "idle":
            return []
        self.phase = "syn_sent"
        return [self._send(now, "syn", Flag.SYN, mss_option=self.script.mss)]

    def handle_segment(self, seg: Segment, now: int) -> list[Segment]:
        kind = _segment_kind(seg)
        self._record(now, "rx", kind, seg)
        if self.overflowed or self.phase == "closed":
            return []  # record-only; the probe no longer answers

        if kind == "synack" and self.phase == "syn_sent":
            self.phase = "established"
            handshake_ack = self._send(now, "ack", Flag.ACK)
            request = self._send(now, "data", Flag.ACK, REQUEST_BYTES)
            self.snd_off = REQUEST_BYTES
            return [handshake_ack, request]

        if seg.len > 0 and self.phase == "established":
            return self._on_data(seg, now)
        return []

    def _on_data(self, seg: Segment, now: int) -> list[Segment]:
        to_drop = self.pending_drops.intersection(
            covered_indices(seg.seq, seg.len, self.script.mss)
        )
        if to_drop:
            # Pretend loss: record the arrival, acknowledge nothing. The
            # drop is one-shot; a retransmitted copy will be honored.
            self.pending_drops -= to_drop
            return []

        previous = self.rcv_nxt
        self._reassemble(seg.seq, seg.end)
        advanced = self.rcv_nxt > previous
        if not advanced and seg.end <= self.rcv_nxt:
            return []  # arrivals entirely below rcv_nxt stay silent
        ack = self._send(now, "ack", Flag.ACK)  # a new cumulative ACK, or a duplicate
        if not advanced:
            self.dupacks_sent += 1
        elif self.rcv_nxt >= self.script.ack_limit_packet * self.script.mss:
            return [ack, self._close(now)]
        return [ack]

    def _reassemble(self, start: int, end: int) -> None:
        """Take in the bytes [start, end): store them, or advance rcv_nxt
        through them and every stored span that overlaps or touches them."""
        spans = self._above
        if start > self.rcv_nxt:
            insort(spans, (start, end))
            return
        joined = 0
        for span_start, span_end in spans:
            if span_start > end:
                break
            end = max(end, span_end)
            joined += 1
        del spans[:joined]
        self.rcv_nxt = max(self.rcv_nxt, end)

    def _close(self, now: int) -> Segment:
        # Always a reset, as TBIT closes its probe connections.
        self.phase = "closed"
        return self._send(now, "rst", Flag.RST)
