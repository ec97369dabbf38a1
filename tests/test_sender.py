"""Sender state machine tests.

The numeric expectations here were worked out by hand from the variant
rules before the implementation existed (window arithmetic in raw bytes,
per-ACK slow-start growth of one mss, threshold of three duplicate ACKs)
and are frozen; the round-table test checks the sender against a separate
brute-force oracle rather than against itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccprobe import ConfigurationError, InternalError, ProtocolError, SenderConfig, Variant
from ccprobe.sender import Sender

MSS = 100
CFG = SenderConfig(mss=MSS)
US_PER_MS = 1000
RTT_US = 100 * US_PER_MS


def make_sender(variant=Variant.RENO, page=3000, config=CFG) -> Sender:
    sender = Sender(config, variant)
    sender.enqueue_app_data(page)
    return sender


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
                fresh += self.sender.on_ack(seg.seq + seg.len, self.now)
                self._check_invariants()
            emitted = fresh
        return self

    def _check_invariants(self):
        s = self.sender
        assert s.snd_una <= s.snd_nxt <= s.app_limit
        assert s.cwnd >= s.mss
        assert s.flight <= s.effective_window()


# -- initialization ------------------------------------------------------


def test_init_defaults():
    sender = Sender(CFG, Variant.RENO)
    assert sender.cwnd == 200
    assert sender.snd_una == 0
    assert sender.snd_nxt == 0
    assert sender.ssthresh == 65535
    assert sender.dupacks == 0
    assert not sender.in_fast_recovery
    assert sender.rto_deadline is None


def test_init_variant_independent():
    reno = Sender(CFG, Variant.RENO)
    tahoe = Sender(CFG, Variant.TAHOE)
    fields = ("snd_una", "snd_nxt", "cwnd", "ssthresh", "dupacks")
    assert [getattr(reno, f) for f in fields] == [getattr(tahoe, f) for f in fields]
    assert reno.variant is not tahoe.variant


def test_init_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        Sender(SenderConfig(mss=0), Variant.RENO)
    with pytest.raises(ConfigurationError):
        Sender(SenderConfig(initial_cwnd=0), Variant.RENO)
    with pytest.raises(ConfigurationError):
        Sender(SenderConfig(rto_min_us=2_000_000, rto_initial_us=1_000_000), Variant.RENO)


def test_variant_parse():
    assert Variant.parse("newreno") is Variant.NEWRENO
    assert Variant.parse("NoFastRetransmit") is Variant.NO_FAST_RETRANSMIT
    with pytest.raises(ConfigurationError):
        Variant.parse("bogus")


# -- enqueue and pump ----------------------------------------------------


def test_enqueue_accumulates_and_rejects_negative():
    sender = Sender(CFG, Variant.RENO)
    sender.enqueue_app_data(3000)
    assert sender.app_limit == 3000
    sender.enqueue_app_data(0)
    assert sender.app_limit == 3000
    with pytest.raises(ValueError):
        sender.enqueue_app_data(-1)


def test_short_final_segment():
    # 250 bytes at mss=100 segments as 100, 100, 50.
    sender = Sender(SenderConfig(mss=100, initial_cwnd=4), Variant.RENO)
    sender.enqueue_app_data(250)
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
    assert sender.effective_window() == 900
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
    assert sender.on_ack(1200, 0) == []
    assert sender.on_ack(1200, 0) == []
    segs = sender.on_ack(1200, 0)
    assert [(s.seq, s.len) for s in segs] == [(1200, 100)]
    assert sender.ssthresh == 400  # half of the 800 in flight
    assert sender.cwnd == 700  # ssthresh + 3 mss
    assert sender.in_fast_recovery
    assert sender.recover == 2000


def test_reno_new_ack_exits_recovery_at_ssthresh():
    sender = make_sender(Variant.RENO, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(3):
        sender.on_ack(1200, 0)
    sender.on_ack(2000, RTT_US)
    assert not sender.in_fast_recovery
    assert sender.cwnd == 400
    assert sender.dupacks == 0


def test_reno_no_second_loss_response_below_recover():
    # Duplicate ACKs for data below the last recovery point must not
    # retrigger fast retransmit after recovery ends.
    sender = make_sender(Variant.RENO, page=3000)
    prime_loss(sender, una=1200, nxt=2600, cwnd=1400)
    for _ in range(3):
        sender.on_ack(1200, 0)
    assert sender.recover == 2600
    sender.on_ack(1500, RTT_US)  # new ACK ends recovery
    assert not sender.in_fast_recovery
    for _ in range(5):
        segs = sender.on_ack(1500, RTT_US)
        assert all(seg.seq >= sender.snd_una + 100 or seg.seq >= 2600 for seg in segs)
        assert not sender.in_fast_recovery


def test_newreno_partial_ack_repairs_next_hole():
    sender = make_sender(Variant.NEWRENO, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(3):
        sender.on_ack(1200, 0)
    assert sender.recover == 2000
    sender.cwnd = 1000
    segs = sender.on_ack(1600, RTT_US)  # partial: below recover
    assert (1600, 100) in [(s.seq, s.len) for s in segs]
    assert sender.in_fast_recovery
    # deflate by the 400 bytes acked, add back one mss
    assert sender.cwnd == 1000 - 400 + 100


def test_newreno_full_ack_exits_recovery():
    sender = make_sender(Variant.NEWRENO, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(3):
        sender.on_ack(1200, 0)
    sender.on_ack(2000, RTT_US)
    assert not sender.in_fast_recovery
    assert sender.cwnd == sender.ssthresh == 400


def test_tahoe_collapses_and_goes_back():
    sender = make_sender(Variant.TAHOE, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(2):
        sender.on_ack(1200, 0)
    segs = sender.on_ack(1200, 0)
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
        retransmissions += [s for s in sender.on_ack(1200, 0) if s.seq == 1200]
    assert len(retransmissions) == 3  # one per completed threshold cycle


def test_no_fast_retransmit_ignores_dupacks():
    sender = make_sender(Variant.NO_FAST_RETRANSMIT, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(10):
        assert sender.on_ack(1200, 0) == []
    assert sender.dupacks == 10
    assert sender.cwnd == 800  # untouched


def test_renoplus_goback_burst_keeps_cwnd():
    sender = make_sender(Variant.RENO_PLUS, page=3000)
    prime_loss(sender, una=1200, nxt=2600, cwnd=1400)
    sender.on_ack(1200, 0)
    sender.on_ack(1200, 0)
    segs = sender.on_ack(1200, 0)
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
    sender.on_ack(200, RTT_US)
    state = (sender.snd_nxt, sender.cwnd, sender.dupacks, sender.rto_deadline)
    assert sender.on_ack(100, RTT_US) == []
    assert sender.snd_una == 200
    assert (sender.snd_nxt, sender.cwnd, sender.dupacks, sender.rto_deadline) == state


def test_ack_beyond_app_limit_rejected():
    sender = make_sender(page=500)
    sender.pump_transmissions(0)
    with pytest.raises(ProtocolError):
        sender.on_ack(600, RTT_US)


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
    assert sender.rto_current == CFG.rto_max_us


def test_rto_unarmed_is_internal_error():
    sender = make_sender()
    with pytest.raises(InternalError):
        sender.on_rto(0)


def test_rto_clears_recovery_state():
    sender = make_sender(Variant.RENO, page=2000)
    prime_loss(sender, una=1200, nxt=2000, cwnd=800)
    for _ in range(3):
        sender.on_ack(1200, 0)
    sender.rto_deadline = 1_000_000
    sender.on_rto(1_000_000)
    assert not sender.in_fast_recovery
    assert sender.dupacks == 0
    assert sender.cwnd == 100


# -- RTT estimation --------------------------------------------------------


def test_first_rtt_sample_clamps_to_floor():
    sender = Sender(CFG, Variant.RENO)
    sender.update_rtt(100_000)
    assert sender.srtt == 100_000.0
    assert sender.rttvar == 50_000.0
    assert sender.rto_current == 1_000_000  # 300ms raw, clamped up


def test_second_identical_sample_shrinks_variance():
    sender = Sender(CFG, Variant.RENO)
    sender.update_rtt(100_000)
    sender.update_rtt(100_000)
    assert sender.srtt == 100_000.0
    assert sender.rttvar == 37_500.0


def test_nonpositive_sample_ignored():
    sender = Sender(CFG, Variant.RENO)
    sender.update_rtt(0)
    sender.update_rtt(-5)
    assert sender.srtt is None
    assert sender.rto_current == CFG.rto_initial_us


def test_karn_sample_taken_through_ack_clock():
    # A full no-loss round trip produces a sample equal to the ACK delay.
    sender = make_sender(page=200)
    segs = sender.pump_transmissions(0)
    sender.on_ack(segs[0].end, 80_000)
    assert sender.srtt == 80_000.0


def test_retransmission_poisons_rtt_probe():
    sender = make_sender(page=1500)
    sender.cwnd = 1500
    sender.pump_transmissions(0)
    sender.on_rto(sender.rto_deadline)  # re-emits the timed head segment
    sender.on_ack(100, 5_000_000)
    assert sender.srtt is None  # ambiguous sample never taken


# -- growth ----------------------------------------------------------------


def test_slow_start_adds_one_mss_per_ack():
    sender = make_sender(page=3000)
    sender.pump_transmissions(0)
    sender.on_ack(100, RTT_US)
    assert sender.cwnd == 300


def test_congestion_avoidance_grows_subLinearly():
    sender = make_sender(page=3000)
    sender.ssthresh = 200  # force avoidance immediately
    sender.pump_transmissions(0)
    sender.on_ack(100, RTT_US)
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
    sender = make_sender(Variant.RENO, config=SenderConfig(mss=100, initial_ssthresh=400))
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
        assert sender.flight <= max(sender.effective_window(), flight_before)

    def check_loss(before_ssthresh, flight_before):
        # A loss response never raises the threshold beyond half the data
        # that was actually in flight when it fired.
        assert sender.ssthresh <= max(before_ssthresh, flight_before // 2)

    check(sender.pump_transmissions(now), 0)
    for step in steps:
        now += 10_000
        flight = sender.flight
        before = sender.ssthresh
        if step == "new_ack":
            if sender.snd_nxt > sender.snd_una:
                check(sender.on_ack(sender.snd_una + 100, now), flight)
        elif step == "dup_ack":
            if sender.snd_nxt > sender.snd_una:
                check(sender.on_ack(sender.snd_una, now), flight)
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
            out += sender.on_ack(ack, now)
        return [(s.seq, s.len, s.ip_id, s.ack) for s in out]

    assert run() == run()
