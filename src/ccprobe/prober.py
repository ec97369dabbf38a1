"""Active prober: a scripted TCP receiver that provokes loss recovery.

The prober opens a connection, requests a page, and pretends to lose the
first arrival of selected packet numbers by simply not acknowledging them
(the bytes are recorded but withheld from the cumulative ACK until they
arrive again). Its SYN carries no MSS option: the simulator caps the
server's MSS at the script's, as that option would. Every out-of-order
arrival is answered with an immediate duplicate ACK, so a fast-retransmit
sender sees the classic triple-dupACK burst. Once the cumulative ACK
covers the scripted packet limit the prober emits a final ACK and closes.

``start`` sends the SYN. ``handle_segment`` is the one arrival path: a
loop over a whole delivered batch that appends every arrival to the trace
as it is (the server's ``rx`` record, stamped with its arrival time),
takes in data while the probe runs (the common arrival, tested first),
answers the SYN+ACK with an ACK and the request, and sends the closing
reset. Each ``tx`` record is built once, appended to the trace and sent.
The close point and the first byte of the lowest pending drop are
session state, the latter moved only when a drop is spent: data that
ends at or below it skips the drop check with one comparison. A copy
wholly below ``rcv_nxt`` stays silent at once. The bytes held above
``rcv_nxt`` are coalesced spans: data that starts at the top span's end
extends it in place, and ``_reassemble`` runs only for data that opens a
span or reaches ``rcv_nxt``. The session does not count its events:
``netsim.run_to_completion`` ends the run once the trace reaches the
event cap and cuts it to the cap. How a probe ended is not kept here:
``classifier.classify_trace`` reads it off the trace alone.
"""

from bisect import bisect_left
from dataclasses import dataclass
from math import inf

from .errors import ConfigurationError
from .traceio import TraceEvent

REQUEST_BYTES = 100  # the opaque request; any nonempty payload fetches the page
_allocate = object.__new__  # looked up once, not per record built by slot stores


@dataclass(frozen=True)
class ProbeScript:
    """The prober's MSS, the packets it refuses once, and the packet it closes after."""
    mss: int = 100
    drop_packets: frozenset = frozenset({13, 16})
    ack_limit_packet: int = 25

    def __post_init__(self):
        if type(self.mss) is not int:
            raise ConfigurationError("script mss must be an integer")
        if self.mss <= 0:
            raise ConfigurationError("script mss must be positive")
        if any(type(index) is not int for index in self.drop_packets):
            raise ConfigurationError("drop_packets must be integers")
        if type(self.ack_limit_packet) is not int:
            raise ConfigurationError("ack_limit_packet must be an integer")
        if any(index < 1 for index in self.drop_packets):
            raise ConfigurationError("drop packet numbers are 1-based")
        if self.drop_packets and self.ack_limit_packet <= max(self.drop_packets):
            raise ConfigurationError(
                "ack_limit_packet must lie beyond every dropped packet"
            )
        if self.ack_limit_packet < 1:
            raise ConfigurationError("ack_limit_packet must be at least 1")


class ProbeSession:
    """State of one probe connection, including its observed trace."""

    def __init__(self, script: ProbeScript):
        self.script = script
        self.phase = "idle"  # idle -> syn_sent -> established -> closed
        self.rcv_nxt = 0  # every byte below it has arrived
        self._above: list[tuple[int, int]] = []  # sorted, coalesced spans past rcv_nxt
        self.pending_drops = set(script.drop_packets)  # pretend-loss, one-shot
        drops, mss = script.drop_packets, script.mss
        self._drop_from = (min(drops) - 1) * mss if drops else inf  # the lowest drop's first byte
        self._close_at = script.ack_limit_packet * mss
        self.dupacks_sent = 0
        self.snd_off = 0
        self.ip_id_counter = 0
        self.trace: list[TraceEvent] = []

    def start(self, now: int) -> list[TraceEvent]:
        """Open the probe: send the SYN."""
        if self.phase != "idle":
            return []
        self.phase = "syn_sent"
        self.ip_id_counter = 1
        syn = TraceEvent(now, "tx", "syn", 0, 0, 0, 1)
        self.trace.append(syn)
        return [syn]

    def handle_segment(self, segments: list[TraceEvent], now: int) -> list[TraceEvent]:
        """Take in one delivered batch, in order; return every answer to it.
        The connection state lives in locals across the batch."""
        out, above = [], self._above
        record, pending, mss = self.trace.append, self.pending_drops, self.script.mss
        drop_from, close_at = self._drop_from, self._close_at
        rcv_nxt, ip_id, snd_off = self.rcv_nxt, self.ip_id_counter, self.snd_off
        dupacks, phase = self.dupacks_sent, self.phase
        established = phase == "established"
        for seg in segments:
            record(seg)
            start, length = seg.seq, seg.len
            if established and length:
                # The common arrival first: data while the probe runs.
                end = start + length
                if end > drop_from:  # past the first byte of the lowest drop
                    to_drop = pending.intersection(range(start // mss + 1, (end - 1) // mss + 2))
                    if to_drop:
                        # Pretend loss: no ACK. The drop is one-shot: a later copy is honored.
                        pending -= to_drop
                        self._drop_from = drop_from = (min(pending) - 1) * mss if pending else inf
                        continue
                previous = rcv_nxt
                if end <= previous:
                    continue  # arrivals entirely below rcv_nxt stay silent
                if start <= previous and not above:
                    rcv_nxt = end  # in order, nothing stored past it
                elif above and start == above[-1][1]:
                    above[-1] = (above[-1][0], end)  # extends the top span
                else:
                    rcv_nxt = self._reassemble(previous, start, end)
                # A new cumulative ACK, or a duplicate.
                ip_id += 1
                # Slot stores in this frame skip type.__call__ and the __init__ frame.
                ack = _allocate(TraceEvent)
                ack.t_us, ack.dir, ack.kind = now, "tx", "ack"
                ack.seq, ack.len, ack.ack = snd_off, 0, rcv_nxt
                ack.ip_id = ip_id
                record(ack)
                out.append(ack)
                if rcv_nxt == previous:
                    dupacks += 1
                    continue
                if rcv_nxt < close_at:
                    continue
                # Close with a reset, as TBIT closes its probe connections.
                phase, established, sends = "closed", False, (("rst", 0),)
            elif seg.kind == "synack" and phase == "syn_sent":
                # ACK the answer to our SYN and send the request; any
                # payload the SYN+ACK carries is ignored.
                phase, established = "established", True
                sends = (("ack", 0), ("data", REQUEST_BYTES))
            else:
                continue  # every other arrival is only recorded
            for kind, length in sends:
                ip_id += 1
                sent = TraceEvent(now, "tx", kind, snd_off, length, rcv_nxt, ip_id)
                record(sent)
                out.append(sent)
                snd_off += length
        self.rcv_nxt, self.ip_id_counter, self.snd_off = rcv_nxt, ip_id, snd_off
        self.dupacks_sent, self.phase = dupacks, phase
        return out

    def _reassemble(self, rcv_nxt: int, start: int, end: int) -> int:
        """Join [start, end) with the stored spans it overlaps or touches; return
        ``rcv_nxt`` advanced through the join if it reaches it, else store it."""
        spans = self._above
        first = last = bisect_left(spans, (start,))
        if first and spans[first - 1][1] >= start:
            first = last = first - 1
            start = spans[first][0]
        while last < len(spans) and spans[last][0] <= end:
            end = max(end, spans[last][1])
            last += 1
        if start > rcv_nxt:
            spans[first:last] = [(start, end)]
            return rcv_nxt
        del spans[:last]  # every span starts above rcv_nxt, so first == 0
        return max(rcv_nxt, end)
