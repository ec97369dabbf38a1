"""Sender state machine tests.

The numeric expectations here were worked out by hand from the variant
rules before the implementation existed (window arithmetic in raw bytes,
per-ACK slow-start growth of one mss, threshold of three duplicate ACKs)
and are frozen; the round-table test checks the sender against a separate
brute-force oracle rather than against itself.
"""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccprobe import (
    ConfigurationError,
    InternalError,
    ProbeScript,
    Scenario,
    SenderConfig,
    Variant,
    run_to_completion,
    sim_init,
)
from ccprobe import netsim
from ccprobe.sender import DUPACK_THRESHOLD, RTO_INITIAL_US, RTO_MAX_US, RTO_MIN_US, Sender
from ccprobe.traceio import TraceEvent

from conftest import PAGE, acks, trace_text

MSS = 100
CFG = SenderConfig(mss=MSS)
US_PER_MS = 1000
RTT_US = 100 * US_PER_MS
ONE_WAY_US = RTT_US // 2  # the link delay the simulator would hand the sender


def make_sender(variant=Variant.RENO, page=3000, config=CFG) -> Sender:
    sender = Sender(config, variant, ONE_WAY_US, page)
    sender.app_limit += page
    return sender


def usable_window(sender: Sender) -> int:
    """The window ``pump_transmissions`` fills: cwnd, plus one mss per
    duplicate ACK while in fast recovery (only the Reno family enters it)."""
    if sender.in_fast_recovery:
        return sender.cwnd + sender.dupacks * sender.mss
    return sender.cwnd


def slow_start_round_oracle(page: int, mss: int, initial_cwnd: int, ssthresh: int) -> list[int]:
    """Brute-force per-round byte totals for a lossless transfer.

    Each round sends one full window, then every segment's ACK grows cwnd
    (one mss below ssthresh, mss*mss/cwnd above). Independent of the
    sender implementation on purpose. Byte totals, not segment counts:
    once cwnd leaves mss alignment the sender may split a round's bytes
    into short pieces, but the per-round volume is the window either way.
    """
    cwnd = initial_cwnd * mss
    una = 0
    rounds = []
    while una < page:
        take = min(cwnd, page - una)
        rounds.append(take)
        for _ in range((take + mss - 1) // mss):
            cwnd += mss if cwnd < ssthresh else (mss * mss) // cwnd
        una += take
    return rounds


class RoundDriver:
    """ACK-clock a sender one round trip at a time, no losses."""

    def __init__(self, sender: Sender):
        self.sender = sender
        self.now = 0
        self.counts: list[int] = []
        self.bytes: list[int] = []

    def run(self) -> "RoundDriver":
        emitted = self.sender.pump_transmissions(self.now)
        self._check_invariants()
        while emitted:
            self.counts.append(len(emitted))
            self.bytes.append(sum(seg.len for seg in emitted))
            self.now += RTT_US
            fresh = []
            for seg in emitted:
                fresh += self.sender.on_ack(acks(seg.seq + seg.len), self.now)
                self._check_invariants()
            emitted = fresh
        return self

    def _check_invariants(self):
        s = self.sender
        assert s.snd_una <= s.snd_nxt <= s.app_limit
        assert s.cwnd >= s.mss
        assert s.snd_nxt - s.snd_una <= usable_window(s)


# -- initialization ------------------------------------------------------


def test_init_defaults():
    sender = Sender(CFG, Variant.RENO, ONE_WAY_US, PAGE)
    assert (sender.phase, sender.page_bytes, sender.app_limit) == ("listen", PAGE, 0)  # not yet requested
    assert sender.cwnd == 200
    assert sender.snd_una == 0
    assert sender.snd_nxt == 0
    assert sender.ssthresh == 65535
    assert sender.dupacks == 0
    assert not sender.in_fast_recovery
    assert sender.recover == 0  # the initial send sequence number (RFC 6582)
    assert sender.rto_deadline is None


def test_init_variant_independent():
    reno = Sender(CFG, Variant.RENO, ONE_WAY_US, PAGE)
    tahoe = Sender(CFG, Variant.TAHOE, ONE_WAY_US, PAGE)
    fields = ("snd_una", "snd_nxt", "cwnd", "ssthresh", "dupacks")
    assert [getattr(reno, f) for f in fields] == [getattr(tahoe, f) for f in fields]
    assert reno.variant is not tahoe.variant


def test_init_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        Sender(SenderConfig(mss=0), Variant.RENO, ONE_WAY_US, PAGE)
    with pytest.raises(ConfigurationError):
        Sender(SenderConfig(initial_cwnd=0), Variant.RENO, ONE_WAY_US, PAGE)


# -- pump --------------------------------------------------------------


def test_short_final_segment():
    # 250 bytes at mss=100 segments as 100, 100, 50.
    sender = Sender(SenderConfig(mss=100, initial_cwnd=4), Variant.RENO, ONE_WAY_US, 250)
    sender.app_limit += 250
    lengths = [seg.len for seg in sender.pump_transmissions(0)]
    assert lengths == [100, 100, 50]


def test_pump_initial_window_of_two():
    sender = make_sender()
    segs = sender.pump_transmissions(0)
    assert [(s.seq, s.len) for s in segs] == [(0, 100), (100, 100)]
    assert sender.snd_nxt == 200
    assert sender.rto_deadline == sender.rto_current  # armed at t=0


def test_pump_nothing_when_window_full():
    sender = make_sender()
    sender.pump_transmissions(0)
    assert sender.pump_transmissions(0) == []


def test_pump_inflated_window_exactly_full():
    # Reno in recovery: cwnd 400 + 5 dup inflation = 900 usable, and
    # snd_nxt - snd_una is already 900, so nothing moves.
    sender = make_sender(Variant.RENO)
    sender.snd_una = 1200
    sender.snd_nxt = 2100
    sender.cwnd = 400
    sender.dupacks = 5
    sender.in_fast_recovery = True
    assert usable_window(sender) == 900
    assert sender.pump_transmissions(0) == []


# -- duplicate-ACK responses ---------------------------------------------


def prime_loss(sender: Sender, una: int, nxt: int, cwnd: int):
    """Put a sender mid-transfer with a full window outstanding."""
    sender.snd_una = una
    sender.snd_nxt = nxt
    sender._max_sent = nxt
    sender.cwnd = cwnd


def test_reno_third_dupack_halves_and_retransmits():
    sender = make_sender(Variant.RENO, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    assert sender.on_ack(acks(1200), 0) == []
    assert sender.on_ack(acks(1200), 0) == []
    segs = sender.on_ack(acks(1200), 0)
    assert [(s.seq, s.len) for s in segs] == [(1200, 100)]
    assert sender.ssthresh == 400  # half of the 800 in flight
    assert sender.cwnd == 700  # ssthresh + 3 mss
    assert sender.in_fast_recovery
    assert sender.recover == 2000


def test_reno_new_ack_exits_recovery_at_ssthresh():
    sender = make_sender(Variant.RENO, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(3):
        sender.on_ack(acks(1200), 0)
    sender.on_ack(acks(2000), RTT_US)
    assert not sender.in_fast_recovery
    assert sender.cwnd == 400
    assert sender.dupacks == 0


def test_reno_no_second_loss_response_below_recover():
    # Duplicate ACKs for data below the last recovery point must not
    # retrigger fast retransmit after recovery ends.
    sender = make_sender(Variant.RENO, page=3000)
    prime_loss(sender, una=1200, nxt=2600, cwnd=1400)
    for _ in range(3):
        sender.on_ack(acks(1200), 0)
    assert sender.recover == 2600
    sender.on_ack(acks(1500), RTT_US)  # new ACK ends recovery
    assert not sender.in_fast_recovery
    for _ in range(5):
        segs = sender.on_ack(acks(1500), RTT_US)
        assert all(seg.seq >= sender.snd_una + 100 or seg.seq >= 2600 for seg in segs)
        assert not sender.in_fast_recovery


def test_newreno_partial_ack_repairs_next_hole():
    sender = make_sender(Variant.NEWRENO, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(3):
        sender.on_ack(acks(1200), 0)
    assert sender.recover == 2000
    sender.cwnd = 1000
    segs = sender.on_ack(acks(1600), RTT_US)  # partial: below recover
    assert (1600, 100) in [(s.seq, s.len) for s in segs]
    assert sender.in_fast_recovery
    # deflate by the 400 bytes acked, add back one mss
    assert sender.cwnd == 1000 - 400 + 100


def test_newreno_full_ack_exits_recovery():
    sender = make_sender(Variant.NEWRENO, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(3):
        sender.on_ack(acks(1200), 0)
    sender.on_ack(acks(2000), RTT_US)
    assert not sender.in_fast_recovery
    assert sender.cwnd == sender.ssthresh == 400


def test_tahoe_collapses_and_goes_back():
    sender = make_sender(Variant.TAHOE, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(2):
        sender.on_ack(acks(1200), 0)
    segs = sender.on_ack(acks(1200), 0)
    assert [(s.seq, s.len) for s in segs] == [(1200, 100)]
    assert sender.cwnd == 100
    assert sender.ssthresh == 400
    assert sender.snd_nxt == 1300  # pulled back to just past the repair
    assert sender.dupacks == 0  # reset, so a fresh burst can refire


def test_tahoe_dupack_burst_refires():
    sender = make_sender(Variant.TAHOE, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    retransmissions = []
    for _ in range(9):
        retransmissions += [s for s in sender.on_ack(acks(1200), 0) if s.seq == 1200]
    assert len(retransmissions) == 3  # one per completed threshold cycle


def test_no_fast_retransmit_ignores_dupacks():
    sender = make_sender(Variant.NO_FAST_RETRANSMIT, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(10):
        assert sender.on_ack(acks(1200), 0) == []
    assert sender.dupacks == 10
    assert sender.cwnd == 800  # untouched


def test_renoplus_goback_burst_keeps_cwnd():
    sender = make_sender(Variant.RENO_PLUS, page=3000)
    prime_loss(sender, una=1200, nxt=2600, cwnd=1400)
    sender.on_ack(acks(1200), 0)
    sender.on_ack(acks(1200), 0)
    segs = sender.on_ack(acks(1200), 0)
    # Go-back burst: re-sends from snd_una within the inflated window,
    # running past the old snd_nxt into fresh data.
    assert segs[0].seq == 1200
    seqs = [s.seq for s in segs]
    assert seqs == list(range(1200, 1200 + len(segs) * 100, 100))
    assert sender.cwnd == 1400  # unchanged
    assert sender.ssthresh == 700
    assert sender.in_fast_recovery
    assert max(s.seq + s.len for s in segs) > 2600  # beyond the loss window


def test_ack_regression_ignored_not_fatal():
    sender = make_sender()
    sender.pump_transmissions(0)
    sender.on_ack(acks(200), RTT_US)
    state = (sender.snd_nxt, sender.cwnd, sender.dupacks, sender.rto_deadline)
    assert sender.on_ack(acks(100), RTT_US) == []
    assert sender.snd_una == 200
    assert (sender.snd_nxt, sender.cwnd, sender.dupacks, sender.rto_deadline) == state


def test_ack_beyond_app_limit_rejected():
    sender = make_sender(page=500)
    sender.pump_transmissions(0)
    with pytest.raises(InternalError, match="^ack 600 beyond sent data 200$"):
        sender.on_ack(acks(600), RTT_US)


def test_ack_beyond_sent_data_rejected_within_the_queue():
    # Bytes 0-200 are sent of 3,000 queued: an ACK of 2,500 acknowledges
    # bytes never sent. It is refused, and nothing moves: no segment is
    # sent and no RTT sample is taken.
    sender = make_sender(Variant.RENO, page=3000)
    sender.pump_transmissions(0)
    before = dict(vars(sender))
    with pytest.raises(InternalError, match="^ack 2500 beyond sent data 200$"):
        sender.on_ack(acks(2500), 100_000)
    assert vars(sender) == before
    assert sender.srtt is None


def test_ack_beyond_app_limit_mid_batch_is_named():
    # The error names the offending ACK, and the sender is left as the
    # ACKs before it left it: 100 was taken, 200 after it never was.
    sender, expected = make_sender(page=500), make_sender(page=500)
    for each in (sender, expected):
        each.pump_transmissions(0)
    expected.on_ack(acks(100), RTT_US)
    with pytest.raises(InternalError, match="^ack 600 beyond sent data 400$"):
        sender.on_ack(acks(100, 600, 200), RTT_US)
    assert vars(sender) == vars(expected)
    assert sender.snd_una == 100


# -- retransmission timer --------------------------------------------------


def test_rto_halves_in_raw_bytes():
    # 1500 bytes in flight: ssthresh lands on 750, not an mss multiple.
    sender = make_sender(page=1500)
    sender.cwnd = 1500
    sender.pump_transmissions(0)
    deadline = sender.rto_deadline
    assert deadline == 1_000_000
    segs = sender.on_rto(deadline)
    assert [(s.seq, s.len) for s in segs] == [(0, 100)]
    assert sender.ssthresh == 750
    assert sender.cwnd == 100
    assert sender.snd_nxt == 100
    assert sender.rto_current == 2_000_000


def test_rto_ssthresh_floor_two_segments():
    sender = make_sender(page=100)
    sender.pump_transmissions(0)
    sender.on_rto(sender.rto_deadline)
    assert sender.ssthresh == 200


def test_rto_backoff_doubles_and_caps():
    sender = make_sender(page=1500)
    sender.cwnd = 1500
    sender.pump_transmissions(0)
    sender.on_rto(sender.rto_deadline)
    sender.on_rto(sender.rto_deadline)
    assert sender.rto_current == 4_000_000
    for _ in range(10):
        sender.on_rto(sender.rto_deadline)
    assert sender.rto_current == RTO_MAX_US


def test_rto_unarmed_is_internal_error():
    sender = make_sender()
    with pytest.raises(InternalError):
        sender.on_rto(0)


def test_rto_clears_recovery_state():
    sender = make_sender(Variant.RENO, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(3):
        sender.on_ack(acks(1200), 0)
    sender.rto_deadline = 1_000_000
    sender.on_rto(1_000_000)
    assert not sender.in_fast_recovery
    assert sender.dupacks == 0
    assert sender.cwnd == 100


# -- RTT estimation --------------------------------------------------------


def test_first_rtt_sample_clamps_to_floor():
    sender = Sender(CFG, Variant.RENO, ONE_WAY_US, PAGE)
    sender.update_rtt(100_000)
    assert sender.srtt == 100_000.0
    assert sender.rttvar == 50_000.0
    assert sender.rto_current == 1_000_000  # 300ms raw, clamped up


def test_second_identical_sample_shrinks_variance():
    sender = Sender(CFG, Variant.RENO, ONE_WAY_US, PAGE)
    sender.update_rtt(100_000)
    sender.update_rtt(100_000)
    assert sender.srtt == 100_000.0
    assert sender.rttvar == 37_500.0


def test_nonpositive_sample_ignored():
    sender = Sender(CFG, Variant.RENO, ONE_WAY_US, PAGE)
    sender.update_rtt(0)
    sender.update_rtt(-5)
    assert sender.srtt is None
    assert sender.rto_current == RTO_INITIAL_US


# RFC 6298 section 2: alpha = 1/8, beta = 1/4 and K = 4. The RTO is kept in
# whole microseconds (truncated), raised to RTO_MIN_US and capped at RTO_MAX_US.
ALPHA, BETA, K = 1 / 8, 1 / 4, 4


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(min_value=-3, max_value=0),
            st.integers(min_value=1, max_value=2_000),
            st.integers(min_value=1, max_value=40_000_000),
        ),
        max_size=40,
    )
)
@example([0, -5, 100_000, 0, 100_000])  # only positive samples are taken
@example([1, 300_000, 1, 1, 1])  # raised to the floor
@example([30_000_000, 1, 40_000_000, 40_000_000])  # capped
def test_rtt_estimate_follows_rfc_6298(samples):
    sender = Sender(CFG, Variant.RENO, ONE_WAY_US, PAGE)
    srtt = rttvar = None
    rto = RTO_INITIAL_US
    for r in samples:
        sender.update_rtt(r)
        if r > 0:
            if srtt is None:
                srtt, rttvar = r, r / 2
            else:
                rttvar = (1 - BETA) * rttvar + BETA * abs(srtt - r)
                srtt = (1 - ALPHA) * srtt + ALPHA * r
            rto = min(max(int(srtt + K * rttvar), RTO_MIN_US), RTO_MAX_US)
        assert (sender.srtt, sender.rttvar, sender.rto_current) == (srtt, rttvar, rto)


def test_karn_sample_taken_through_ack_clock():
    # A full no-loss round trip produces a sample equal to the ACK delay.
    sender = make_sender(page=200)
    segs = sender.pump_transmissions(0)
    sender.on_ack(acks(segs[0].seq + segs[0].len), 80_000)
    assert sender.srtt == 80_000.0


def test_retransmission_poisons_rtt_probe():
    sender = make_sender(page=1500)
    sender.cwnd = 1500
    sender.pump_transmissions(0)
    sender.on_rto(sender.rto_deadline)  # re-emits the timed head segment
    sender.on_ack(acks(100), 5_000_000)
    assert sender.srtt is None  # ambiguous sample never taken


# -- growth ----------------------------------------------------------------


def test_slow_start_adds_one_mss_per_ack():
    sender = make_sender(page=3000)
    sender.pump_transmissions(0)
    sender.on_ack(acks(100), RTT_US)
    assert sender.cwnd == 300


def test_congestion_avoidance_grows_subLinearly():
    sender = make_sender(page=3000)
    sender.ssthresh = 200  # force avoidance immediately
    sender.pump_transmissions(0)
    sender.on_ack(acks(100), RTT_US)
    assert sender.cwnd == 200 + (100 * 100) // 200


def test_round_table_matches_brute_force_oracle():
    for page in (3000, 1000, 250, 5000):
        expected = slow_start_round_oracle(page, MSS, 2, 65535)
        sender = make_sender(Variant.NEWRENO, page=page)
        assert RoundDriver(sender).run().bytes == expected


def test_round_table_default_page_is_2_4_8_16():
    assert slow_start_round_oracle(3000, 100, 2, 65535) == [200, 400, 800, 1600]
    sender = make_sender(Variant.RENO)
    driver = RoundDriver(sender).run()
    assert driver.counts == [2, 4, 8, 16]
    assert driver.bytes == [200, 400, 800, 1600]


def test_round_table_caps_at_ssthresh():
    # ssthresh 400 bytes: doubling stops once the window hits the cap.
    # Exact per-round volumes past the cap depend on how avoidance growth
    # interleaves with per-ACK pumping, so only the shape is asserted.
    sender = make_sender(Variant.RENO)
    sender.ssthresh = 400
    driver = RoundDriver(sender).run()
    assert driver.bytes[:2] == [200, 400]  # doubling up to the cap
    assert all(volume < 800 for volume in driver.bytes[2:])  # never doubles again
    assert sum(driver.bytes) == 3000


# -- invariants under arbitrary event sequences -----------------------------


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    steps=st.lists(st.sampled_from(["new_ack", "dup_ack", "rto", "pump"]), max_size=60),
)
def test_state_invariants_hold_for_any_event_order(variant, steps):
    sender = make_sender(variant, page=3000)
    now = 0
    last_ip_id = 0

    def check(segs, flight_before):
        nonlocal last_ip_id
        for seg in segs:
            assert seg.ip_id == last_ip_id + 1  # strictly increasing, no gaps
            last_ip_id = seg.ip_id
        assert sender.snd_una <= sender.snd_nxt <= sender.app_limit
        assert sender.cwnd >= sender.mss
        assert sender.ssthresh >= 2 * sender.mss or sender.ssthresh == 65535
        # Flight never grows past the window. It may transiently exceed a
        # window that just shrank (recovery exit deflates cwnd under data
        # inflation put in flight), but emission alone never overshoots.
        assert sender.snd_nxt - sender.snd_una <= max(usable_window(sender), flight_before)

    def check_loss(before_ssthresh, flight_before):
        # A loss response never raises the threshold beyond half the data
        # that was actually in flight when it fired.
        assert sender.ssthresh <= max(before_ssthresh, flight_before // 2)

    check(sender.pump_transmissions(now), 0)
    for step in steps:
        now += 10_000
        flight = sender.snd_nxt - sender.snd_una
        before = sender.ssthresh
        if step == "new_ack":
            if sender.snd_nxt > sender.snd_una:
                check(sender.on_ack(acks(sender.snd_una + 100), now), flight)
        elif step == "dup_ack":
            if sender.snd_nxt > sender.snd_una:
                check(sender.on_ack(acks(sender.snd_una), now), flight)
                check_loss(before, flight)
        elif step == "rto":
            if sender.rto_deadline is not None:
                check(sender.on_rto(max(now, sender.rto_deadline)), flight)
                check_loss(before, flight)
        else:
            check(sender.pump_transmissions(now), flight)


def test_deterministic_replay():
    def run():
        sender = make_sender(Variant.NEWRENO, page=3000)
        out = list(sender.pump_transmissions(0))
        for ack, now in [(100, 1), (200, 2), (200, 3), (200, 4), (200, 5), (400, 6)]:
            out += sender.on_ack(acks(ack), now)
        return [(s.seq, s.len, s.ip_id, s.ack) for s in out]

    assert run() == run()


# -- the batch sender against a per-ACK, per-segment reference -----------------
# The sender takes a whole ACK batch in one call and sends a byte range in one
# call, applying Karn's rule once for it. The reference below is what it
# replaced, kept here whole so that it shares no code with the sender beyond
# the window and RTT arithmetic of ``Sender``: each ACK taken in its own call,
# the loss response, the head retransmission and the timer in helpers of
# their own, and each segment emitted on its own, poisoning an overlapping
# timed segment when it starts below the high-water mark, or else starting
# timing if nothing is timed.


def reference_emit(sender: Sender, seq: int, length: int, now: int) -> TraceEvent:
    if seq < sender._max_sent:
        if sender._rtt_probe is not None:
            start, end, _ = sender._rtt_probe
            if seq < end and start < seq + length:
                sender._rtt_probe = None
    elif sender._rtt_probe is None:
        sender._rtt_probe = (seq, seq + length, now)
    if seq + length > sender._max_sent:
        sender._max_sent = seq + length
    sender.ip_id_counter += 1
    return TraceEvent(
        now + sender.one_way_us, "rx", "data", seq, length, sender.rcv_nxt, sender.ip_id_counter
    )


def reference_on_ack(sender: "PerSegmentSender", ack: int, now: int) -> list[TraceEvent]:
    """One ACK, as the sender took it before it took batches."""
    snd_una = sender.snd_una
    if ack > sender._max_sent:
        raise InternalError(f"ack {ack} beyond sent data {sender._max_sent}")
    if ack <= snd_una:
        if ack < snd_una or sender.snd_nxt <= snd_una:
            return []  # stale, or a duplicate with nothing in flight
        sender.dupacks += 1
        out = []
        if sender.dupacks == DUPACK_THRESHOLD and sender.may_enter_loss_response():
            out = sender.loss_response(now)
        return out + sender.pump_transmissions(now)
    probe = sender._rtt_probe
    if probe is not None and ack >= probe[1]:
        sender._rtt_probe = None
        sender.update_rtt(now - probe[2])
    sender.snd_una = ack
    if sender.snd_nxt < ack:
        sender.snd_nxt = ack
    sender.dupacks = 0
    cwnd, mss, repair = sender.cwnd, sender.mss, []
    if not sender.in_fast_recovery:
        sender.cwnd = cwnd + mss if cwnd < sender.ssthresh else cwnd + mss * mss // cwnd
    elif sender.variant is Variant.NEWRENO and ack < sender.recover:
        repair = sender.retransmit_head(now)
        sender.cwnd = max(cwnd - (ack - snd_una), 0) + mss
    else:
        sender.in_fast_recovery = False
        sender.cwnd = sender.ssthresh
    sender.rto_deadline = now + sender.rto_current if sender.snd_nxt > ack else None
    return repair + sender.pump_transmissions(now)


class PerSegmentSender(Sender):
    """The sender with per-ACK calls, per-segment emission and the loss
    response, head retransmission and timer in helpers of their own."""

    def on_ack(self, segments: list[TraceEvent], now: int) -> list[TraceEvent]:
        # Each ACK in a call of its own; the request and a close as the
        # endpoint took them in its own loop, the request through a pump.
        out = []
        for seg in segments:
            if seg.kind == "ack":
                out += reference_on_ack(self, seg.ack, now)
            elif seg.kind in ("rst", "fin"):
                self.phase, self.rto_deadline = "closed", None
                break
            elif seg.kind == "data" and self.app_limit == 0:
                self.rcv_nxt, self.app_limit = seg.seq + seg.len, self.page_bytes
                out += self.pump_transmissions(now)
        return out

    def pump_transmissions(self, now: int) -> list[TraceEvent]:
        out = []
        mss, snd_nxt = self.mss, self.snd_nxt
        limit = min(self.app_limit, self.snd_una + usable_window(self))
        while snd_nxt < limit:
            end = snd_nxt + mss if snd_nxt + mss < limit else limit
            out.append(reference_emit(self, snd_nxt, end - snd_nxt, now))
            snd_nxt = end
        self.snd_nxt = snd_nxt
        if self.rto_deadline is None and snd_nxt > self.snd_una:
            self.rto_deadline = now + self.rto_current
        return out

    def on_rto(self, now: int) -> list[TraceEvent]:
        if self.rto_deadline is None:
            raise InternalError("on_rto called with no armed timer")
        self.ssthresh = max((self.snd_nxt - self.snd_una) // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.in_fast_recovery = False
        self.dupacks = 0
        self.snd_nxt = self.snd_una
        out = []
        if self.snd_una < self.app_limit:
            out = self.retransmit_head(now)
            self.snd_nxt = out[0].seq + out[0].len
        self.rto_current = min(2 * self.rto_current, RTO_MAX_US)
        self.rto_deadline = now + self.rto_current if self.snd_nxt > self.snd_una else None
        return out

    def retransmit_head(self, now: int) -> list[TraceEvent]:
        seq = self.snd_una
        return [reference_emit(self, seq, min(self.mss, self.app_limit - seq), now)]

    def may_enter_loss_response(self) -> bool:
        if self.variant is Variant.NO_FAST_RETRANSMIT:
            return False
        if self.variant is Variant.TAHOE:
            return True
        # Reno-family re-entry guard: a stale dupACK burst for data below the
        # previous recovery point must not trigger a second fast retransmit.
        if self.in_fast_recovery:
            return False
        return self.snd_una >= self.recover

    def loss_response(self, now: int) -> list[TraceEvent]:
        self.ssthresh = max((self.snd_nxt - self.snd_una) // 2, 2 * self.mss)
        if self.variant is Variant.TAHOE:
            self.cwnd = self.mss
            out = self.retransmit_head(now)
            self.snd_nxt = out[0].seq + out[0].len
            self.dupacks = 0
            return out
        if self.variant is Variant.RENO_PLUS:
            # Window left alone; the caller's pump re-sends forward from
            # snd_una inside the inflated window (go-back burst).
            self.in_fast_recovery = True
            self.recover = self.snd_nxt
            self.snd_nxt = self.snd_una
            return []
        out = self.retransmit_head(now)
        self.cwnd = self.ssthresh + DUPACK_THRESHOLD * self.mss
        self.in_fast_recovery = True
        self.recover = self.snd_nxt
        return out


def karn_state(sender: Sender) -> tuple:
    return (
        sender._rtt_probe, sender._max_sent, sender.srtt, sender.rto_current,
        sender.rto_deadline, sender.snd_nxt, sender.ip_id_counter,
    )


def sender_state(sender: Sender) -> dict:
    """Every field of the sender proper, whatever class it is."""
    return {name: value for name, value in vars(sender).items() if name != "twin"}


class ShadowedSender(Sender):
    """The sender under test. Each outside call is repeated on a
    ``PerSegmentSender`` twin, and the two must agree after it, on what
    they sent and on every field."""

    def __init__(self, config: SenderConfig, variant: Variant, one_way_us: int, page_bytes: int):
        super().__init__(config, variant, one_way_us, page_bytes)
        self.twin = PerSegmentSender(config, variant, one_way_us, page_bytes)

    def _checked(self, name: str, *args) -> list[TraceEvent]:
        twin = self.twin
        if twin is None:
            # A nested call, such as on_rto's own pump: checked with its caller.
            return getattr(Sender, name)(self, *args)
        # The handshake sets these, and the twin never sees it: its phase
        # and the SYN+ACK's ip_id. The request reaches both through on_ack.
        twin.phase, twin.ip_id_counter = self.phase, self.ip_id_counter
        self.twin = None
        try:
            out = getattr(Sender, name)(self, *args)
        finally:
            self.twin = twin
        assert out == getattr(PerSegmentSender, name)(twin, *args)
        assert sender_state(self) == sender_state(twin)
        return out

    def on_ack(self, segments, now):
        return self._checked("on_ack", segments, now)

    def pump_transmissions(self, now):
        return self._checked("pump_transmissions", now)

    def on_rto(self, now):
        return self._checked("on_rto", now)


def run_shadowed(scenario: Scenario) -> list:
    with patch.object(netsim, "Sender", ShadowedSender):
        world = sim_init(scenario)
        trace, _ = run_to_completion(world)
    assert isinstance(world.server, ShadowedSender)
    return trace


def go_back_page(variant, packets, ack_limit, rtt_ms=50, cwnd=2) -> Scenario:
    return Scenario(
        variant=variant,
        rtt_ms=rtt_ms,
        page_bytes=packets * 100,
        sender_config=SenderConfig(initial_cwnd=cwnd),
        probe_script=ProbeScript(ack_limit_packet=ack_limit),
    )


@st.composite
def emitter_scenarios(draw) -> Scenario:
    ack_limit = draw(st.integers(min_value=2, max_value=60))
    drops = draw(st.frozensets(st.integers(min_value=1, max_value=ack_limit - 1), max_size=3))
    return Scenario(
        variant=draw(st.sampled_from(list(Variant))),
        rtt_ms=draw(st.sampled_from([10, 50, 100, 300, 600])),
        page_bytes=ack_limit * 100 + draw(st.integers(min_value=100, max_value=3000)),
        sender_config=SenderConfig(initial_cwnd=draw(st.integers(min_value=1, max_value=4))),
        probe_script=ProbeScript(drop_packets=drops, ack_limit_packet=ack_limit),
    )


@settings(max_examples=150, deadline=None)
@given(emitter_scenarios())
# Go-back pumps from below the high-water mark that run on into fresh data;
# on the long pages congestion avoidance leaves the mark off the mss grid,
# so one re-sent segment straddles it.
@example(go_back_page(Variant.TAHOE, 30, 25))
@example(go_back_page(Variant.RENO_PLUS, 30, 25))
@example(go_back_page(Variant.TAHOE, 300, 250, cwnd=4))
@example(go_back_page(Variant.RENO_PLUS, 300, 250, cwnd=4))
@example(go_back_page(Variant.NEWRENO, 300, 250, rtt_ms=10, cwnd=1))
def test_range_emitter_matches_per_segment_karn_reference(scenario):
    run_shadowed(scenario)


# -- a batch against the same ACKs one call each ----------------------------------
# The batch keeps the sender's state in locals and writes it back once, at
# its end. Fed the same ACKs one per call, the sender loads and stores its
# state around each, so a field left out of the write-back, or a local that a
# branch fails to update for the ACKs behind it, shows up as a different
# trace or state. The first property drives the sender by hand through states
# a probe never reaches, such as a new ACK behind the third duplicate in one
# batch, and also holds the batch to the per-ACK reference there; the second
# runs whole probes.

ACK_STEPS = st.sampled_from([0, 0, 0, 50, 100, 100, 200, -100])  # 0: a duplicate


def answer(sender: Sender, segments: list[TraceEvent], now: int):
    """What ``sender.on_ack`` returns, or the text of the ``InternalError`` it raises."""
    try:
        return sender.on_ack(segments, now)
    except InternalError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    cwnd=st.integers(min_value=1, max_value=4),
    ops=st.lists(st.one_of(st.just("rto"), st.lists(ACK_STEPS, min_size=1, max_size=12)), max_size=20),
)
# Each branch of the loss response and of recovery, reached by hand. Four
# segments out, the first one timed: three duplicates of 0 fire the loss
# response, whose re-sent head poisons the timed segment. NewReno takes the
# ACK of 100 behind them as partial and repairs 100; Reno leaves recovery on
# it, and three more duplicates of 100, below recover (400), must not fire
# again.
@example(variant=Variant.TAHOE, cwnd=4, ops=[[0, 0, 0]])  # collapse, re-send 0
@example(variant=Variant.NEWRENO, cwnd=4, ops=[[0, 0, 0, 100]])
@example(variant=Variant.RENO, cwnd=4, ops=[[0, 0, 0, 100, 0, 0, 0]])
# Two segments out, an ACK of 100 opens the window to 400, and three
# duplicates of 100 follow.
@example(variant=Variant.RENO_PLUS, cwnd=2, ops=[[100, 0, 0, 0]])  # go-back burst 100-700
@example(variant=Variant.NO_FAST_RETRANSMIT, cwnd=2, ops=[[100, 0, 0, 0]])  # third ignored
# The timer re-sends 0-100; the ACK of 100 then goes back over 100-300.
@example(variant=Variant.RENO, cwnd=4, ops=["rto", [100]])
# An ACK of 200 with 0-100 sent is refused; the duplicates of 0 then fire.
@example(variant=Variant.RENO, cwnd=1, ops=[[200], [0, 0, 0]])
def test_any_ack_batch_matches_the_same_acks_one_call_each(variant, cwnd, ops):
    config = SenderConfig(mss=MSS, initial_cwnd=cwnd)
    batched = make_sender(variant, config=config)
    split = SplitSender(config, variant, ONE_WAY_US, PAGE)
    reference = PerSegmentSender(config, variant, ONE_WAY_US, PAGE)
    for each in (split, reference):
        each.app_limit += batched.app_limit
    now, ack = 0, 0
    out = batched.pump_transmissions(now)
    assert out == split.pump_transmissions(now) == reference.pump_transmissions(now)
    for op in ops:
        now += 10_000
        if op == "rto":
            if batched.rto_deadline is not None:
                now = max(now, batched.rto_deadline)
                out = batched.on_rto(now)
                assert out == split.on_rto(now) == reference.on_rto(now)
            continue
        numbers = []
        for step in op:
            ack = min(max(ack + step, 0), batched.app_limit)
            numbers.append(ack)
        # An ACK beyond the data sent raises the same error in all three and
        # leaves them equal; the peer then acknowledges on from snd_una.
        batch = acks(*numbers)
        out = answer(batched, batch, now)
        assert out == answer(split, batch, now) == answer(reference, batch, now)
        assert vars(batched) == vars(split) == vars(reference)
        if isinstance(out, str):
            ack = batched.snd_una


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    cwnd=st.integers(min_value=1, max_value=4),
    batches=st.lists(st.lists(ACK_STEPS, min_size=1, max_size=12), max_size=10),
)
# Everything sent and acknowledged: a duplicate finds nothing in flight.
@example(variant=Variant.RENO, cwnd=4, batches=[[100, 100, 100, 100, 100, 100]])
# In recovery, its window inflated: an ACK below the hole is stale.
@example(variant=Variant.RENO, cwnd=4, batches=[[100, 0, 0, 0]])
@example(variant=Variant.NEWRENO, cwnd=4, batches=[[100, 0, 0, 0, 100]])
# After a go-back that the peer's ACKs overtook.
@example(variant=Variant.RENO_PLUS, cwnd=2, batches=[[100, 0, 0, 0, 200]])
def test_stale_ack_and_idle_duplicate_send_nothing_and_change_nothing(variant, cwnd, batches):
    # The send block runs after every ACK, also a stale one (below
    # snd_una) or a duplicate with nothing in flight. Each call ends with
    # the window sent, so those two must send nothing and leave every field
    # as it was.
    sender = make_sender(variant, page=600, config=SenderConfig(mss=MSS, initial_cwnd=cwnd))
    sender.pump_transmissions(0)
    now, ack = 0, 0
    for batch in batches:
        now += 10_000
        numbers = []
        for step in batch:
            ack = min(max(ack + step, 0), sender._max_sent)
            numbers.append(ack)
        sender.on_ack(acks(*numbers), now)
    idle = sender.snd_nxt <= sender.snd_una
    edges = [sender.snd_una] if idle else []
    edges += [sender.snd_una - 1, 0] if sender.snd_una > 0 else []
    for edge in edges:
        before = dict(vars(sender))
        assert sender.on_ack(acks(edge), now + 10_000) == []
        assert vars(sender) == before
    assert sender.pump_transmissions(now + 10_000) == []


class SplitSender(Sender):
    """The sender fed each record of a batch in a call of its own, up to a close."""

    def on_ack(self, segments: list[TraceEvent], now: int) -> list[TraceEvent]:
        out = []
        for batch in [[seg] for seg in segments] or [[]]:  # an empty batch sends the window
            if self.phase == "closed":
                break
            out += Sender.on_ack(self, batch, now)
        return out


def run_with_sender(sender_class, scenario: Scenario) -> tuple:
    with patch.object(netsim, "Sender", sender_class):
        world = sim_init(scenario)
        trace, reason = run_to_completion(world)
    assert type(world.server) is sender_class
    return trace_text(trace), reason, world.clock, sender_state(world.server)


@st.composite
def split_scenarios(draw) -> Scenario:
    ack_limit = draw(st.integers(min_value=1, max_value=299))
    drops = draw(st.frozensets(st.integers(min_value=1, max_value=ack_limit), max_size=3))
    return Scenario(
        variant=draw(st.sampled_from(list(Variant))),
        rtt_ms=draw(st.integers(min_value=1, max_value=800)),
        page_bytes=draw(st.integers(min_value=(ack_limit + 1) * 100, max_value=30_000)),
        sender_config=SenderConfig(initial_cwnd=draw(st.integers(min_value=1, max_value=4))),
        probe_script=ProbeScript(
            drop_packets=frozenset(index for index in drops if index < ack_limit),
            ack_limit_packet=ack_limit,
        ),
    )


@settings(max_examples=100, deadline=None)
@given(split_scenarios())
@example(go_back_page(Variant.TAHOE, 300, 250, cwnd=4))
@example(go_back_page(Variant.RENO, 300, 250, rtt_ms=10, cwnd=1))
@example(go_back_page(Variant.NEWRENO, 300, 250, rtt_ms=10, cwnd=1))
@example(go_back_page(Variant.NO_FAST_RETRANSMIT, 300, 250, cwnd=4))
@example(go_back_page(Variant.RENO_PLUS, 300, 250, cwnd=4))
def test_batch_matches_the_same_acks_one_call_each(scenario):
    assert run_with_sender(Sender, scenario) == run_with_sender(SplitSender, scenario)


@pytest.mark.parametrize(
    "una, probe, expected_probe",
    [
        (0, None, (300, 400, 7)),  # nothing timed: time the first fresh segment
        (0, (0, 100, 1), (300, 400, 7)),  # the re-sent head poisons the timed one
        (0, (200, 250, 1), (300, 400, 7)),  # so does the segment straddling the mark
        (100, (0, 100, 1), (0, 100, 1)),  # a timed segment below the range stands
    ],
    ids=["untimed", "head-timed", "straddler-timed", "below-range-timed"],
)
def test_go_back_range_across_the_high_water_mark(una, probe, expected_probe):
    # Five segments from una with max_sent at 250: those that start below
    # it are re-sent, the last straddling it, and 300 starts the fresh data.
    results = []
    for cls in (Sender, PerSegmentSender):
        sender = cls(CFG, Variant.TAHOE, ONE_WAY_US, PAGE)
        sender.app_limit += 3000
        sender.snd_una = sender.snd_nxt = una
        sender.cwnd, sender._max_sent, sender._rtt_probe = 500, 250, probe
        out = sender.pump_transmissions(7)
        assert [(seg.seq, seg.len) for seg in out] == [(s, 100) for s in range(una, una + 500, 100)]
        results.append((out, karn_state(sender)))
    assert results[0] == results[1]
    assert results[0][1][:2] == (expected_probe, una + 500)


@pytest.mark.parametrize(
    "rtt_ms, page, cwnd, drops, ack_limit, repair_seq, arrivals",
    [
        # The third dupACK for 3 brings a go-back burst [200, 900) at 1.4 s:
        # 200-600 are re-sent and 600, the first fresh segment, is timed. 600
        # is packet 7 and dropped, so it yields no sample: the RTO stays at
        # 1.2 s (3 x the 400 ms sample of the first flight), armed by the
        # ACK of 600 at 1.8 s, and 7 is repaired at 3.2 s. Timing the burst's
        # head, a re-sent segment, would take a second sample from that ACK,
        # cut the RTO to 1.0 s and repair 7 at 3.0 s.
        (400, 1100, 2, {3, 7}, 10, 600, [1_600_000, 3_200_000]),
        # A go-back burst re-sends the timed segment behind its head. Karn's
        # rule drops that sample; poisoning only a timed head would keep it,
        # take a 568 ms (two round trip) sample from its ACK, and repair 7 at
        # 2,449.5 ms instead of 2,420 ms.
        (284, 3440, 3, {2, 7, 14}, 26, 600, [1_136_000, 2_420_000]),
    ],
    ids=["fresh-segment-timed", "re-sent-timed-segment-poisoned"],
)
def test_go_back_burst_keeps_karns_rule_end_to_end(
    rtt_ms, page, cwnd, drops, ack_limit, repair_seq, arrivals
):
    # RenoPlus runs where a go-back burst runs on into fresh data: the repair
    # of a scripted drop lands when the RTO that Karn's rule leaves says.
    trace, _ = run_to_completion(sim_init(Scenario(
        variant=Variant.RENO_PLUS,
        rtt_ms=rtt_ms,
        page_bytes=page,
        sender_config=SenderConfig(initial_cwnd=cwnd),
        probe_script=ProbeScript(drop_packets=frozenset(drops), ack_limit_packet=ack_limit),
    )))
    data = [ev.t_us for ev in trace if ev.dir == "rx" and ev.kind == "data" and ev.seq == repair_seq]
    assert data == arrivals
