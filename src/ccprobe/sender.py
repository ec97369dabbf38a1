"""Server-side TCP sender state machines.

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
socket. Each segment is the ``rx`` ``data`` record the prober will log,
stamped with its arrival time: the send time plus the link's fixed
one-way delay, which the simulator hands to the sender. Each call computes
that time once, so all it sends shares one ``t_us`` object. Every byte
range sent, fresh or repeated, goes through one function, ``_send``: it
applies Karn's RTT-sample rule once for the range and cuts the range into
segments.

``on_ack`` takes the ACK numbers of one delivered batch in one call, its
state in locals across the batch: the third duplicate's loss response and
NewReno's partial ACK are branches on those locals, and the state is
written back once, at the end. It and ``pump_transmissions`` send up to
one limit, ``_send_limit``: the window's edge, capped at the queued data.
All times are integer virtual microseconds; cwnd/ssthresh are raw byte
counts (deliberately not rounded to segment multiples).
"""

import enum
from dataclasses import dataclass

from .errors import ConfigurationError, InternalError, ProtocolError
from .traceio import TraceEvent


class Variant(enum.Enum):
    TAHOE = "Tahoe"
    RENO = "Reno"
    NEWRENO = "NewReno"
    NO_FAST_RETRANSMIT = "NoFastRetransmit"
    RENO_PLUS = "RenoPlus"

    @classmethod
    def parse(cls, name: str) -> "Variant":
        for variant in cls:
            if variant.value.lower() == name.lower():
                return variant
        raise ConfigurationError(f"unknown variant: {name!r}")


DUPACK_THRESHOLD = 3  # duplicate ACKs that signal a loss (RFC 5681)
INITIAL_SSTHRESH = 65535  # bytes
# Retransmission timer bounds after RFC 6298 section 2: 1 s before the
# first RTT sample and as the floor; a cap, if any, of at least 60 s.
RTO_INITIAL_US = 1_000_000
RTO_MIN_US = 1_000_000
RTO_MAX_US = 64_000_000


@dataclass(frozen=True)
class SenderConfig:
    mss: int = 1460
    initial_cwnd: int = 2  # segments

    def __post_init__(self):
        if self.mss <= 0:
            raise ConfigurationError("mss must be positive")
        if self.initial_cwnd < 1:
            raise ConfigurationError("initial_cwnd must be at least 1 segment")


class Sender:
    """One direction of a TCP connection: the side that sends the page."""

    def __init__(self, config: SenderConfig, variant: Variant, one_way_us: int):
        self.variant = variant
        self.mss = config.mss
        self.one_way_us = one_way_us  # link delay: a segment's t_us is its arrival

        self.snd_una = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0  # the peer's stream, acked on every segment we emit
        self.app_limit = 0  # end of queued application data
        self.cwnd = config.initial_cwnd * config.mss
        self.ssthresh = INITIAL_SSTHRESH
        self.dupacks = 0
        self.in_fast_recovery = False
        self.recover = None  # high-water mark of the last loss response

        self.rto_current = RTO_INITIAL_US
        self.rto_deadline = None
        self.srtt = None
        self.rttvar = None

        self.ip_id_counter = 0

        self._max_sent = 0  # high water of seq+len ever emitted
        self._rtt_probe = None  # (start, end, emitted_at); Karn-tracked segment

    @property
    def flight(self) -> int:
        return self.snd_nxt - self.snd_una

    def enqueue_app_data(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("cannot enqueue a negative byte count")
        self.app_limit += nbytes

    def pump_transmissions(self, now: int) -> list[TraceEvent]:
        """Send whatever the window and the application queue allow."""
        # Only the Reno family enters fast recovery, where each duplicate
        # ACK inflates the usable window by one mss.
        window = self.cwnd + self.dupacks * self.mss if self.in_fast_recovery else self.cwnd
        snd_nxt, limit = self.snd_nxt, _send_limit(self.snd_una, window, self.app_limit)
        if snd_nxt >= limit:
            # The timer is armed whenever data is in flight, so it stands.
            return []
        self.snd_nxt = limit
        if self.rto_deadline is None:
            self.rto_deadline = now + self.rto_current
        out = []
        self.ip_id_counter, self._max_sent, self._rtt_probe = _send(
            out, snd_nxt, limit, self.mss, now, now + self.one_way_us, self.rcv_nxt,
            self.ip_id_counter, self._max_sent, self._rtt_probe,
        )
        return out

    def on_ack(self, acks: list[int], now: int) -> list[TraceEvent]:
        """Take the ACK numbers of one delivered batch, in order; return
        every segment sent in answer. An ACK beyond the data sent raises
        ``ProtocolError``, the state left as the ACKs before it left it."""
        mss, app_limit, rcv_nxt, variant = self.mss, self.app_limit, self.rcv_nxt, self.variant
        snd_una, snd_nxt, cwnd, ssthresh = self.snd_una, self.snd_nxt, self.cwnd, self.ssthresh
        dupacks, in_recovery, recover = self.dupacks, self.in_fast_recovery, self.recover
        rto_deadline = self.rto_deadline
        max_sent, probe, ip_id = self._max_sent, self._rtt_probe, self.ip_id_counter
        out, t_us, rto_at, beyond = [], now + self.one_way_us, now + self.rto_current, None
        for ack in acks:
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
                    ip_id, max_sent, probe = _send(
                        out, ack, min(ack + mss, app_limit), mss, now, t_us, rcv_nxt,
                        ip_id, max_sent, probe,
                    )
                    cwnd = max(cwnd - (ack - snd_una), 0) + mss
                else:
                    in_recovery, cwnd = False, ssthresh
                snd_una, dupacks = ack, 0
                if snd_nxt < ack:
                    # The peer acknowledged data we forgot about after a go-back.
                    snd_nxt = ack
                rto_deadline = rto_at if snd_nxt > ack else None
            elif ack < snd_una or snd_nxt <= snd_una:
                continue  # stale, or a duplicate with nothing in flight
            else:
                dupacks += 1
                if dupacks != DUPACK_THRESHOLD or variant is Variant.NO_FAST_RETRANSMIT:
                    pass  # below the threshold, or a variant that never acts on it
                elif variant is Variant.TAHOE:
                    # Collapse to one segment and go back: the send below
                    # re-sends the head from snd_una.
                    ssthresh, cwnd, dupacks = max((snd_nxt - snd_una) // 2, 2 * mss), mss, 0
                    snd_nxt = snd_una
                elif not in_recovery and (recover is None or snd_una >= recover):
                    # The Reno family. The guard keeps a stale dupACK burst
                    # for data below the last recovery point from firing again.
                    ssthresh = max((snd_nxt - snd_una) // 2, 2 * mss)
                    in_recovery, recover = True, snd_nxt
                    if variant is Variant.RENO_PLUS:
                        # Window left alone; the send below goes back to
                        # snd_una inside the inflated window (go-back burst).
                        snd_nxt = snd_una
                    else:
                        ip_id, max_sent, probe = _send(
                            out, snd_una, min(snd_una + mss, app_limit), mss, now, t_us, rcv_nxt,
                            ip_id, max_sent, probe,
                        )
                        cwnd = ssthresh + DUPACK_THRESHOLD * mss
            # Send what the window now allows, as pump_transmissions does.
            limit = _send_limit(snd_una, cwnd + dupacks * mss if in_recovery else cwnd, app_limit)
            if snd_nxt < limit:
                if rto_deadline is None:
                    rto_deadline = rto_at
                ip_id, max_sent, probe = _send(
                    out, snd_nxt, limit, mss, now, t_us, rcv_nxt, ip_id, max_sent, probe
                )
                snd_nxt = limit
        self.snd_una, self.snd_nxt, self.cwnd, self.ssthresh = snd_una, snd_nxt, cwnd, ssthresh
        self.dupacks, self.in_fast_recovery, self.recover = dupacks, in_recovery, recover
        self.rto_deadline = rto_deadline
        self._max_sent, self._rtt_probe, self.ip_id_counter = max_sent, probe, ip_id
        if beyond is not None:
            raise ProtocolError(f"ack {beyond} beyond sent data {max_sent}")
        return out

    def on_rto(self, now: int) -> list[TraceEvent]:
        """Retransmission timer expiry: collapse to one segment and go back."""
        if self.rto_deadline is None:
            raise InternalError("on_rto called with no armed timer")
        snd_una, mss, out = self.snd_una, self.mss, []
        self.ssthresh = max(self.flight // 2, 2 * mss)
        self.cwnd, self.in_fast_recovery, self.dupacks = mss, False, 0
        self.snd_nxt = min(snd_una + mss, self.app_limit)
        if self.snd_nxt > snd_una:
            self.ip_id_counter, self._max_sent, self._rtt_probe = _send(
                out, snd_una, self.snd_nxt, mss, now, now + self.one_way_us, self.rcv_nxt,
                self.ip_id_counter, self._max_sent, self._rtt_probe,
            )
        self.rto_current = min(2 * self.rto_current, RTO_MAX_US)
        self.rto_deadline = now + self.rto_current if self.snd_nxt > snd_una else None
        return out

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


def _send_limit(snd_una: int, window: int, app_limit: int) -> int:
    """The send rule: the window's edge, capped at the queued data."""
    limit = snd_una + window
    return limit if limit < app_limit else app_limit


def _send(out: list, seq: int, end: int, mss: int, now: int, t_us: int, ack: int,
          ip_id: int, max_sent: int, probe) -> tuple:
    """Send [seq, end), end > seq, at ``now``: append it to ``out`` as ``rx``
    ``data`` records of one mss and a rest, stamped ``t_us`` and numbered on
    from ``ip_id``; return the new ``(ip_id, max_sent, probe)``. Karn's rule,
    once for the range: the segments that start below ``max_sent`` are
    re-sent and poison a timed segment they overlap; the first fresh one is
    timed if nothing is."""
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
    while seq + mss < end:
        ip_id += 1
        out.append(TraceEvent(t_us, "rx", "data", seq, mss, ack, ip_id))
        seq += mss
    ip_id += 1
    out.append(TraceEvent(t_us, "rx", "data", seq, end - seq, ack, ip_id))
    return ip_id, max_sent, probe
