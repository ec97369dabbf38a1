"""Probe session tests: scripted receiver behavior over synthetic arrivals.

Segments are hand-built here; offsets follow the 1-based packet numbering
where packet k covers bytes [(k-1)*mss, k*mss) at mss=100.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccprobe import ConfigurationError, ProbeScript, classify_trace
from ccprobe.prober import EVENT_CAP, ProbeSession
from ccprobe.wire import Flag, Segment

MSS = 100


def data_segment(index: int, ip_id: int, mss: int = MSS, length: int = None) -> Segment:
    return Segment(
        seq=(index - 1) * mss,
        len=length if length is not None else mss,
        ack=0,
        flags=Flag.ACK,
        ip_id=ip_id,
    )


def synack(mss_option: int = MSS) -> Segment:
    return Segment(
        seq=0,
        len=0,
        ack=0,
        flags=Flag.SYN | Flag.ACK,
        ip_id=1,
        mss_option=mss_option,
    )


def established_session(script: ProbeScript = None) -> ProbeSession:
    session = ProbeSession(script or ProbeScript())
    session.start(0)
    session.handle_segment(synack(), 0)
    return session


def replay(script: ProbeScript, arrivals=()) -> ProbeSession:
    """Start a session and feed it a canned arrival schedule, 1 us apart."""
    session = ProbeSession(script)
    session.start(0)
    for now, seg in enumerate(arrivals, start=1):
        session.handle_segment(seg, now)
    return session


# -- script validation -----------------------------------------------------


def test_script_defaults():
    script = ProbeScript()
    assert script.mss == 100
    assert script.drop_packets == frozenset({13, 16})
    assert script.ack_limit_packet == 25


def test_script_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        ProbeScript(mss=0).validate()
    with pytest.raises(ConfigurationError):
        ProbeScript(drop_packets=frozenset({0})).validate()
    with pytest.raises(ConfigurationError):
        ProbeScript(drop_packets=frozenset({13, 16}), ack_limit_packet=16).validate()


# -- reassembly ----------------------------------------------------------------


def raw_data(seq: int, length: int, ip_id: int = 2) -> Segment:
    return Segment(seq=seq, len=length, ack=0, flags=Flag.ACK, ip_id=ip_id)


def test_reassembly_merges_stored_spans_into_the_ack_point():
    session = established_session(ProbeScript(drop_packets=frozenset()))

    def acks(seq, length):
        return [seg.ack for seg in session.handle_segment(raw_data(seq, length), 1)]

    assert acks(0, 100) == [100]
    assert acks(200, 100) == [100]  # stored above the hole: a dupACK
    assert acks(400, 50) == [100]
    assert acks(300, 100) == [100]  # fills the gap between two stored spans
    assert acks(600, 50) == [100]
    assert acks(100, 510) == [650]  # jumps over [200, 450) and joins [600, 650)
    assert acks(700, 50) == [650]
    assert acks(650, 50) == [750]  # touches rcv_nxt and the stored [700, 750)
    assert acks(50, 100) == []  # a stale copy below rcv_nxt stays silent
    assert session.rcv_nxt == 750
    assert [ev.dir for ev in session.trace].count("rx") == 10  # every arrival recorded


# -- handshake ---------------------------------------------------------------


def test_handshake_sends_syn_with_script_mss():
    session = ProbeSession(ProbeScript())
    out = session.start(0)
    assert len(out) == 1
    assert out[0].flags & Flag.SYN
    assert out[0].mss_option == 100
    first = session.trace[0]
    assert (first.t_us, first.dir, first.kind) == (0, "tx", "syn")


def test_handshake_mss_pass_through():
    session = ProbeSession(ProbeScript(mss=1460, drop_packets=frozenset(), ack_limit_packet=25))
    out = session.start(0)
    assert out[0].mss_option == 1460


def test_synack_triggers_ack_and_request():
    session = ProbeSession(ProbeScript())
    session.start(0)
    out = session.handle_segment(synack(), 100)
    assert len(out) == 2
    handshake_ack, request = out
    assert handshake_ack.len == 0
    assert request.len == 100  # default opaque request
    assert session.phase == "established"
    kinds = [(ev.dir, ev.kind) for ev in session.trace]
    assert kinds == [("tx", "syn"), ("rx", "synack"), ("tx", "ack"), ("tx", "data")]


# -- data handling ------------------------------------------------------------


def test_in_order_arrivals_ack_cumulatively():
    session = established_session()
    acks = []
    for index in range(1, 6):
        out = session.handle_segment(data_segment(index, ip_id=index + 1), index)
        acks += [seg.ack for seg in out]
    assert acks == [100, 200, 300, 400, 500]
    assert session.rcv_nxt == 500


def test_first_arrival_of_dropped_packet_gets_no_ack():
    session = established_session()
    for index in range(1, 13):
        session.handle_segment(data_segment(index, ip_id=index + 1), index)
    out = session.handle_segment(data_segment(13, ip_id=14), 13)
    assert out == []
    assert session.rcv_nxt == 1200
    # recorded on the wire even though it was not acknowledged
    assert session.trace[-1].seq == 1200
    assert 13 not in session.pending_drops  # the pretend loss is spent


def test_out_of_order_arrivals_send_one_dupack_each():
    session = established_session()
    for index in range(1, 13):
        session.handle_segment(data_segment(index, ip_id=index + 1), index)
    session.handle_segment(data_segment(13, ip_id=14), 13)  # dropped
    dup1 = session.handle_segment(data_segment(14, ip_id=15), 14)
    dup2 = session.handle_segment(data_segment(15, ip_id=16), 15)
    assert [seg.ack for seg in dup1 + dup2] == [1200, 1200]
    assert session.dupacks_sent == 2


def test_retransmission_is_honored_and_ack_jumps():
    # After 14, 15, 17, 18 arrive over the hole, the repaired 13 lifts the
    # cumulative point to 1500; the still-missing 16 holds it there.
    session = established_session()
    for index in range(1, 13):
        session.handle_segment(data_segment(index, ip_id=index + 1), index)
    session.handle_segment(data_segment(13, ip_id=14), 13)
    for offset, index in enumerate((14, 15, 17, 18)):
        session.handle_segment(data_segment(index, ip_id=15 + offset), 14 + offset)
    out = session.handle_segment(data_segment(13, ip_id=30), 20)
    assert [seg.ack for seg in out] == [1500]
    assert session.rcv_nxt == 1500


def test_second_drop_is_independent():
    session = established_session()
    for index in range(1, 13):
        session.handle_segment(data_segment(index, ip_id=index + 1), index)
    session.handle_segment(data_segment(13, ip_id=14), 13)
    out = session.handle_segment(data_segment(16, ip_id=15), 14)
    assert out == []  # swallowed silently: 16 is also scripted
    assert session.pending_drops == set()


def test_close_after_ack_limit_emits_single_reset():
    script = ProbeScript(drop_packets=frozenset())
    session = established_session(script)
    for index in range(1, 26):
        session.handle_segment(data_segment(index, ip_id=index + 1), index)
    assert session.phase == "closed"
    resets = [ev for ev in session.trace if ev.kind == "rst"]
    assert len(resets) == 1
    final_acks = [ev for ev in session.trace if ev.dir == "tx" and ev.kind == "ack"]
    assert final_acks[-1].ack == 2500
    # the reset is the last thing the prober ever transmits
    assert [ev.kind for ev in session.trace if ev.dir == "tx"][-1] == "rst"


def test_after_close_arrivals_are_recorded_only():
    script = ProbeScript(drop_packets=frozenset())
    session = established_session(script)
    for index in range(1, 26):
        session.handle_segment(data_segment(index, ip_id=index + 1), index)
    before = len(session.trace)
    out = session.handle_segment(data_segment(26, ip_id=40), 99)
    assert out == []
    assert len(session.trace) == before + 1
    assert session.trace[-1].dir == "rx"


def test_stale_arrival_below_ack_point_stays_silent():
    session = established_session()
    for index in range(1, 4):
        session.handle_segment(data_segment(index, ip_id=index + 1), index)
    out = session.handle_segment(data_segment(1, ip_id=9), 10)
    assert out == []
    assert session.rcv_nxt == 300


def test_duplicate_delivery_is_recorded_and_silent():
    session = established_session()
    session.handle_segment(data_segment(1, ip_id=2), 1)
    out = session.handle_segment(data_segment(1, ip_id=2), 2)
    assert out == []
    assert session.rcv_nxt == 100
    assert [(ev.t_us, ev.ip_id) for ev in session.trace if ev.dir == "rx"][-2:] == [
        (1, 2),
        (2, 2),
    ]


def test_event_cap_marks_overflow():
    # Each in-order arrival records itself and its ACK; the ack limit lies
    # past every arrival, so only the cap can end the recording.
    session = established_session(
        ProbeScript(drop_packets=frozenset(), ack_limit_packet=EVENT_CAP + 1)
    )
    answers = [
        session.handle_segment(data_segment(index, ip_id=index + 1), index)
        for index in range(1, EVENT_CAP + 1)
    ]
    assert session.overflowed
    assert len(session.trace) == EVENT_CAP
    assert answers[-1] == []  # past the cap the probe answers nothing
    assert session.phase == "established"


# -- how the probe ended, as classify_trace reads it off the trace -------------


def test_outcome_dead_server_is_handshake_timeout():
    session = replay(ProbeScript())
    assert [ev.kind for ev in session.trace] == ["syn"]
    assert classify_trace(session.trace, session.script).error == "Incomplete"


def test_outcome_stalled_sender():
    # Handshake completes, one packet arrives, then the hole at 13 never
    # fills because the replayed sender goes quiet.
    arrivals = [synack()] + [data_segment(i, ip_id=i + 1) for i in range(1, 13)]
    arrivals.append(data_segment(14, ip_id=15))
    session = replay(ProbeScript(), arrivals)
    assert session.phase == "established"
    assert classify_trace(session.trace, session.script).error == "Incomplete"


def test_outcome_completed():
    arrivals = [synack()] + [
        data_segment(i, ip_id=i + 1) for i in range(1, 26)
    ]
    session = replay(ProbeScript(drop_packets=frozenset()), arrivals)
    assert session.trace[-1].kind == "rst"
    report = classify_trace(session.trace, session.script)
    assert report.error is None
    assert report.label == "Unclassifiable"  # a closed run, but nothing was dropped


def test_outcome_overflow():
    # The prober closes at packet 25 and then only records; more than
    # EVENT_CAP arrivals fill the trace, and the cap outranks the close.
    arrivals = [synack()] + [data_segment(i, ip_id=i + 1) for i in range(1, EVENT_CAP + 1)]
    session = replay(ProbeScript(drop_packets=frozenset()), arrivals)
    assert session.phase == "closed"
    assert session.overflowed
    assert len(session.trace) == EVENT_CAP
    assert classify_trace(session.trace, session.script).error == "TraceOverflow"


# -- receiver properties -------------------------------------------------------


def contiguous_prefix(received: set[int]) -> int:
    """Brute force: the first byte offset not in ``received``."""
    end = 0
    while end in received:
        end += 1
    return end


@settings(max_examples=150, deadline=None)
@given(indices=st.lists(st.integers(min_value=1, max_value=30), max_size=60))
def test_acks_monotone_and_never_cover_unseen_bytes(indices):
    session = established_session()
    observed = set()
    last_ack = 0
    now = 0
    for ip_id, index in enumerate(indices, start=2):
        now += 1
        seg = data_segment(index, ip_id=ip_id)
        observed.update(range(seg.seq, seg.end))
        for out in session.handle_segment(seg, now):
            if out.flags & Flag.ACK and out.len == 0:
                assert out.ack >= last_ack  # cumulative ACK monotonicity
                last_ack = out.ack
                # never acknowledge a byte that has not arrived
                assert out.ack <= contiguous_prefix(observed)
        if session.phase == "closed":
            break


# Runt segments put arrivals off the mss grid: any offset, any length. A
# small byte range makes overlapping and exactly touching spans common.
unaligned_arrivals = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 12)), max_size=40
)


@settings(max_examples=200, deadline=None)
@given(unaligned_arrivals)
@example([(5, 5), (0, 5)])  # the gap fill ends exactly where a stored span starts
def test_ack_point_is_the_contiguous_prefix_of_unaligned_arrivals(arrivals):
    # No scripted drops, and an ack limit past every byte, so each arrival
    # is taken in and answered.
    session = established_session(
        ProbeScript(drop_packets=frozenset(), ack_limit_packet=100)
    )
    received = set()
    for now, (seq, length) in enumerate(arrivals, start=1):
        previous = session.rcv_nxt
        out = session.handle_segment(raw_data(seq, length, ip_id=now + 1), now)
        received.update(range(seq, seq + length))
        assert session.rcv_nxt == contiguous_prefix(received)
        if session.rcv_nxt > previous or seq + length > session.rcv_nxt:
            assert [seg.ack for seg in out] == [session.rcv_nxt]  # new ACK or dupACK
        else:
            assert out == []  # nothing new above the ack point
