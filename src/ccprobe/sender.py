"""The simulated page server: handshake, page and TCP sender in one object.

Five congestion-control behaviors sit behind one event-driven sender:

* ``TAHOE``            -- go-back fast retransmit: the window collapses to one
                          segment and ``snd_nxt`` is pulled back, so data past
                          the loss is sent again.
* ``RENO``             -- fast retransmit plus fast recovery: the window halves,
                          additional duplicate ACKs inflate the usable window,
                          and any new ACK ends recovery.
* ``NEWRENO``          -- Reno, except partial ACKs retransmit the next hole
                          and keep the sender in recovery until the entire
                          pre-loss window is acknowledged.
* ``NO_FAST_RETRANSMIT`` -- duplicate ACKs are counted but never acted on;
                          loss is repaired only by the retransmission timer.
* ``RENO_PLUS``        -- on the third duplicate ACK the window is left alone
                          and the sender go-back bursts from ``snd_una``,
                          re-sending data it already sent.

The sender is a pure state machine: time enters as an explicit argument,
segments leave as return values, and nothing here touches a clock or a
socket. Each segment is the ``rx`` record the prober will log, stamped
with its arrival time: the send time plus the link's fixed one-way delay,
which the simulator hands to the sender. Each call computes that time
once, so all it sends shares one ``t_us`` object.

``handle_segment`` is the server's one arrival path, for a whole
delivered batch. Its ``phase`` runs listen -> syn_rcvd -> established ->
closed: a SYN draws the SYN+ACK, the connection's ip_id 1, and from its
ACK on each batch, or the rest of the handshake's, goes to ``on_ack``.
There the request, a nonempty payload (the HTTP layer is a stub), sets
``rcv_nxt`` past itself and ``app_limit``, the end of the data to send,
to the page. One connection: a later SYN or payload is ignored, so the
page is never replaced or served twice. A RST or FIN in any phase makes
it ``closed``, which answers nothing and disarms the timer. Only the page
arms that timer, and ``on_timer``, the simulator's timer entry, is
``on_rto``: a fire with no timer armed raises ``InternalError``, as does
an ACK beyond the data sent.

``on_ack`` walks the records of one delivered batch once, its state in
locals across the batch: the third duplicate's loss response and
NewReno's partial ACK are branches on those locals, and the state is
written back once, at the end. A repair branch only notes the segment to
re-send. After each record one send block sends that repair, then the
window's data up to its edge, capped at ``app_limit``. It applies Karn's
RTT-sample rule once per byte range and cuts the range into segments, so
every byte sent, fresh or repeated, goes through it. ``pump_transmissions``
is ``on_ack`` of an empty batch: it sends what the window allows. ``on_rto``
sends through it too: once the window is one segment and ``snd_nxt`` is
back at ``snd_una``, the window's edge is the head.
All times are integer virtual microseconds; cwnd/ssthresh are raw byte
counts (deliberately not rounded to segment multiples).
"""

import enum
from dataclasses import dataclass

from .errors import ConfigurationError, InternalError
from .traceio import TraceEvent


class Variant(enum.Enum):
    TAHOE = "Tahoe"
    RENO = "Reno"
    NEWRENO = "NewReno"
    NO_FAST_RETRANSMIT = "NoFastRetransmit"
    RENO_PLUS = "RenoPlus"


DUPACK_THRESHOLD = 3  # duplicate ACKs that signal a loss (RFC 5681)
INITIAL_SSTHRESH = 65535  # bytes
# Retransmission timer bounds after RFC 6298 section 2: 1 s before the
# first RTT sample and as the floor; a cap, if any, of at least 60 s.
RTO_INITIAL_US = 1_000_000
RTO_MIN_US = 1_000_000
RTO_MAX_US = 64_000_000
_STALE_ACK = (TraceEvent(0, "tx", "ack", 0, 0, -1, 0),)  # below any snd_una


@dataclass(frozen=True)
class SenderConfig:
    """The server's segment size and initial window, in segments."""
    mss: int = 1460
    initial_cwnd: int = 2  # segments

    def __post_init__(self):
        if self.mss <= 0:
            raise ConfigurationError("mss must be positive")
        if self.initial_cwnd < 1:
            raise ConfigurationError("initial_cwnd must be at least 1 segment")


class Sender:
    """The server of one connection: it answers the handshake and sends the page."""

    def __init__(self, config: SenderConfig, variant: Variant, one_way_us: int, page_bytes: int):
        self.variant = variant
        self.mss = config.mss
        self.one_way_us = one_way_us  # link delay: a segment's t_us is its arrival
        self.page_bytes = page_bytes
        self.phase = "listen"

        self.snd_una = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0  # the peer's stream, acked on every segment we emit
        self.app_limit = 0  # end of the data to send: the page, once requested
        self.cwnd = config.initial_cwnd * config.mss
        self.ssthresh = INITIAL_SSTHRESH
        self.dupacks = 0
        self.in_fast_recovery = False
        self.recover = 0  # high-water mark of the last loss response (RFC 6582)

        self.rto_current = RTO_INITIAL_US
        self.rto_deadline = None
        self.srtt = None
        self.rttvar = None

        self.ip_id_counter = 0

        self._max_sent = 0  # high water of seq+len ever emitted
        self._rtt_probe = None  # (start, end, emitted_at); Karn-tracked segment

    def handle_segment(self, segments: list[TraceEvent], now: int) -> list[TraceEvent]:
        """Take in one delivered batch, in order; return every answer to it.

        From the ACK of the SYN+ACK on, the batch, or the rest of the
        handshake's, goes to ``on_ack`` whole."""
        phase = self.phase
        if phase == "established":
            return self.on_ack(segments, now)
        out = []
        for i, seg in enumerate(segments):
            kind = seg.kind
            if phase == "closed" or kind == "rst" or kind == "fin":
                phase = "closed"  # the timer is armed only once established
                break
            if kind == "syn":
                if phase == "listen":  # one connection: a later SYN is ignored
                    self.ip_id_counter = 1  # the SYN+ACK takes the first ip_id
                    out.append(TraceEvent(now + self.one_way_us, "rx", "synack", 0, 0, 0, 1))
                    phase = "syn_rcvd"
            elif kind == "ack" and phase == "syn_rcvd":
                self.phase, rest = "established", segments[i + 1:]
                return out + self.on_ack(rest, now) if rest else out
        self.phase = phase
        return out

    def on_timer(self, now: int) -> list[TraceEvent]:
        # A method, not a second name for on_rto: the benchmark's tracer
        # counts timer fires here and times on_rto as a sender span.
        return self.on_rto(now)

    def pump_transmissions(self, now: int) -> list[TraceEvent]:
        """Send whatever the window and ``app_limit`` allow."""
        return self.on_ack((), now)

    def on_ack(self, segments: list[TraceEvent], now: int) -> list[TraceEvent]:
        """Take one delivered batch once established, in order; return every
        segment sent in answer. An ACK beyond the data sent raises
        ``InternalError``, the state left as the records before it left it."""
        mss, app_limit, rcv_nxt, variant = self.mss, self.app_limit, self.rcv_nxt, self.variant
        snd_una, snd_nxt, cwnd, ssthresh = self.snd_una, self.snd_nxt, self.cwnd, self.ssthresh
        dupacks, in_recovery, recover = self.dupacks, self.in_fast_recovery, self.recover
        rto_deadline = self.rto_deadline
        max_sent, probe, ip_id = self._max_sent, self._rtt_probe, self.ip_id_counter
        out, t_us, rto_at, beyond = [], now + self.one_way_us, now + self.rto_current, None
        repair = -1  # where a one-segment repair starts, if one is due
        for seg in segments or _STALE_ACK:  # an empty batch: one stale ACK, to send the window
            kind, ack = seg.kind, seg.ack
            if kind != "ack":
                if kind == "data" and not rcv_nxt:  # the request; its end marks it seen
                    rcv_nxt, app_limit = seg.seq + seg.len, self.page_bytes
                elif kind == "rst" or kind == "fin":
                    self.phase, rto_deadline = "closed", None
                    break
                ack = -1  # a SYN or a payload passes the send block as a stale ACK
            if ack > snd_una:
                if ack > max_sent:
                    beyond = ack
                    break
                if probe is not None and ack >= probe[1]:
                    self.update_rtt(now - probe[2])
                    probe, rto_at = None, now + self.rto_current
                # The common case first: a new ACK outside recovery.
                if not in_recovery:
                    # Slow start adds one segment per new ACK, congestion
                    # avoidance mss * mss / cwnd bytes.
                    cwnd += mss if cwnd < ssthresh else mss * mss // cwnd
                elif variant is Variant.NEWRENO and ack < recover:
                    # Partial ACK: repair the next hole, deflate by the amount
                    # acknowledged, stay in recovery.
                    repair = ack
                    cwnd = max(cwnd - (ack - snd_una), 0) + mss
                else:
                    in_recovery, cwnd = False, ssthresh
                snd_una, dupacks = ack, 0
                if snd_nxt < ack:
                    # The peer acknowledged data we forgot about after a go-back.
                    snd_nxt = ack
                rto_deadline = rto_at if snd_nxt > ack else None
            elif ack == snd_una and snd_nxt > ack:
                dupacks += 1
                if dupacks != DUPACK_THRESHOLD or variant is Variant.NO_FAST_RETRANSMIT:
                    pass  # below the threshold, or a variant that never acts on it
                elif variant is Variant.TAHOE:
                    # Collapse to one segment and go back: the send below
                    # re-sends the head from snd_una.
                    ssthresh, cwnd, dupacks = max((snd_nxt - snd_una) // 2, 2 * mss), mss, 0
                    snd_nxt = snd_una
                elif not in_recovery and snd_una >= recover:
                    # The Reno family. The guard keeps a stale dupACK burst
                    # for data below the last recovery point from firing again.
                    ssthresh = max((snd_nxt - snd_una) // 2, 2 * mss)
                    in_recovery, recover = True, snd_nxt
                    if variant is Variant.RENO_PLUS:
                        # Window left alone; the send below goes back to
                        # snd_una inside the inflated window (go-back burst).
                        snd_nxt = snd_una
                    else:
                        repair, cwnd = snd_una, ssthresh + DUPACK_THRESHOLD * mss
            # Else stale, or a duplicate with nothing in flight: each call
            # ends with the window sent, so nothing is sent for it. The send
            # block: the repair, then the window's data. Only the Reno family
            # enters fast recovery, where each dupACK inflates it by one mss.
            limit = snd_una + (cwnd + dupacks * mss if in_recovery else cwnd)
            if limit > app_limit:
                limit = app_limit
            while True:
                if repair >= 0:
                    seq, end, repair = repair, min(repair + mss, app_limit), -1
                elif snd_nxt < limit:
                    # The timer is armed whenever data is in flight.
                    if rto_deadline is None:
                        rto_deadline = rto_at
                    seq, end, snd_nxt = snd_nxt, limit, limit
                else:
                    break
                # Karn's rule, once for the range [seq, end): the segments
                # that start below max_sent are re-sent and poison a timed
                # segment they overlap; the first fresh one is timed if
                # nothing is.
                fresh = seq
                if seq < max_sent:
                    # Fresh data begins with the first segment at or past max_sent.
                    fresh = min(end, max_sent + (seq - max_sent) % mss)
                    if probe is not None and seq < probe[1] and probe[0] < fresh:
                        probe = None
                if fresh < end and probe is None:
                    probe = (fresh, min(fresh + mss, end), now)
                if end > max_sent:
                    max_sent = end
                # The range as rx data records of one mss and a rest.
                while seq + mss < end:
                    ip_id += 1
                    out.append(TraceEvent(t_us, "rx", "data", seq, mss, rcv_nxt, ip_id))
                    seq += mss
                ip_id += 1
                out.append(TraceEvent(t_us, "rx", "data", seq, end - seq, rcv_nxt, ip_id))
        self.snd_una, self.snd_nxt, self.cwnd, self.ssthresh = snd_una, snd_nxt, cwnd, ssthresh
        self.dupacks, self.in_fast_recovery, self.recover = dupacks, in_recovery, recover
        self.rto_deadline, self.rcv_nxt, self.app_limit = rto_deadline, rcv_nxt, app_limit
        self._max_sent, self._rtt_probe, self.ip_id_counter = max_sent, probe, ip_id
        if beyond is not None:
            raise InternalError(f"ack {beyond} beyond sent data {max_sent}")
        return out

    def on_rto(self, now: int) -> list[TraceEvent]:
        """Retransmission timer expiry: collapse to one segment, back the
        timer off and go back to ``snd_una``; the window's send then
        re-sends the head and re-arms the timer at the backed-off RTO
        (RFC 6298 section 5.4-5.6)."""
        if self.rto_deadline is None:
            raise InternalError("on_rto called with no armed timer")
        self.ssthresh = max((self.snd_nxt - self.snd_una) // 2, 2 * self.mss)
        self.cwnd, self.in_fast_recovery, self.dupacks = self.mss, False, 0
        self.snd_nxt, self.rto_deadline = self.snd_una, None
        self.rto_current = min(2 * self.rto_current, RTO_MAX_US)
        return self.pump_transmissions(now)

    def update_rtt(self, sample_us: int) -> None:
        """Fold one round-trip sample into srtt/rttvar and recompute the RTO."""
        if sample_us <= 0:
            return
        srtt, rttvar = self.srtt, self.rttvar
        if srtt is None:
            srtt, rttvar = float(sample_us), sample_us / 2.0
        else:
            rttvar = 0.75 * rttvar + 0.25 * abs(srtt - sample_us)
            srtt = 0.875 * srtt + 0.125 * sample_us
        self.srtt, self.rttvar = srtt, rttvar
        rto = int(srtt + 4.0 * rttvar)
        self.rto_current = RTO_MIN_US if rto < RTO_MIN_US else RTO_MAX_US if rto > RTO_MAX_US else rto

