"""Probe session tests: scripted receiver behavior over synthetic arrivals.

Arrivals are hand-built ``rx`` records; offsets follow the 1-based packet
numbering where packet k covers bytes [(k-1)*mss, k*mss) at mss=100. The
session appends each arrival to its trace as it is, so a test that reads
arrival times off the trace stamps its records with them.
"""

from bisect import insort
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccprobe import ConfigurationError, ProbeScript, classify_trace
from ccprobe.netsim import EVENT_CAP
from ccprobe.prober import REQUEST_BYTES, ProbeSession
from ccprobe.traceio import KINDS, TraceEvent

from conftest import outcome

MSS = 100


def data_segment(index: int, ip_id: int, mss: int = MSS, length: int = None, t_us: int = 0):
    length = length if length is not None else mss
    return TraceEvent(t_us, "rx", "data", (index - 1) * mss, length, 0, ip_id)


def synack() -> TraceEvent:
    return TraceEvent(0, "rx", "synack", 0, 0, 0, 1)


def established_session(script: ProbeScript = None) -> ProbeSession:
    session = ProbeSession(script or ProbeScript())
    session.start(0)
    session.handle_segment([synack()], 0)
    return session


def replay(script: ProbeScript, arrivals=()) -> ProbeSession:
    """Start a session and feed it a canned arrival schedule, 1 us apart,
    each record stamped with its arrival time."""
    session = ProbeSession(script)
    session.start(0)
    for now, seg in enumerate(arrivals, start=1):
        session.handle_segment([replace(seg, t_us=now)], now)
    return session


# -- script validation -----------------------------------------------------


def test_script_defaults():
    script = ProbeScript()
    assert script.mss == 100
    assert script.drop_packets == frozenset({13, 16})
    assert script.ack_limit_packet == 25


@pytest.mark.parametrize(
    "overrides",
    [
        {"mss": 0},
        {"mss": -100},
        {"drop_packets": frozenset({0})},
        {"drop_packets": frozenset({13, 16}), "ack_limit_packet": 16},
        {"drop_packets": frozenset(), "ack_limit_packet": 0},
    ],
    ids=["mss-0", "mss-negative", "drop-0", "ack-limit-at-drop", "ack-limit-0"],
)
def test_script_rejects_bad_values(overrides):
    # A script checks itself when built, so no probe or classifier ever
    # holds one that no probe could have run.
    with pytest.raises(ConfigurationError):
        ProbeScript(**overrides)


# -- reassembly ----------------------------------------------------------------


def raw_data(seq: int, length: int, ip_id: int = 2) -> TraceEvent:
    return TraceEvent(0, "rx", "data", seq, length, 0, ip_id)


def test_reassembly_merges_stored_spans_into_the_ack_point():
    session = established_session(ProbeScript(drop_packets=frozenset()))

    def acks(seq, length):
        return [seg.ack for seg in session.handle_segment([raw_data(seq, length)], 1)]

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


def test_held_data_stays_in_coalesced_spans():
    # Packets 1-25 in one batch: 13 and 16 are dropped, so 14-15 and 17-25
    # are held as one span each, not as one span per arrival.
    session = established_session()
    session.handle_segment([data_segment(k, ip_id=k + 1) for k in range(1, 26)], 1)
    assert session.rcv_nxt == 1200
    assert session._above == [(1300, 1500), (1600, 2500)]
    assert session.dupacks_sent == 11
    assert session.pending_drops == set()


# -- handshake ---------------------------------------------------------------


def test_handshake_sends_syn_as_its_first_trace_event():
    # The SYN carries no MSS option: the simulator gives the server the
    # script's MSS (see test_netsim.py's server MSS tests).
    session = ProbeSession(ProbeScript())
    out = session.start(0)
    assert out == [TraceEvent(0, "tx", "syn", 0, 0, 0, 1)]
    assert out[0] is session.trace[0]
    assert session.start(1) == [] and len(session.trace) == 1  # one SYN per session


def test_synack_triggers_ack_and_request():
    session = ProbeSession(ProbeScript())
    session.start(0)
    arrival = replace(synack(), t_us=100)
    out = session.handle_segment([arrival], 100)
    assert len(out) == 2
    handshake_ack, request = out
    assert handshake_ack.len == 0
    assert request.len == 100  # default opaque request
    assert session.phase == "established"
    kinds = [(ev.t_us, ev.dir, ev.kind) for ev in session.trace]
    assert kinds == [
        (0, "tx", "syn"), (100, "rx", "synack"), (100, "tx", "ack"), (100, "tx", "data"),
    ]
    # One record each: the arrival is logged as delivered, and each answer
    # is logged and sent as the same object.
    assert session.trace[1] is arrival
    assert all(sent is logged for sent, logged in zip(out, session.trace[2:]))


# -- data handling ------------------------------------------------------------


def test_in_order_arrivals_ack_cumulatively():
    session = established_session()
    acks = []
    for index in range(1, 6):
        arrival = data_segment(index, ip_id=index + 1, t_us=index)
        out = session.handle_segment([arrival], index)
        # The arrival is logged as delivered; its ACK is logged and sent as one record.
        assert session.trace[-2:] == [arrival, *out] and session.trace[-2] is arrival
        assert out[0] is session.trace[-1]
        acks += [seg.ack for seg in out]
    assert acks == [100, 200, 300, 400, 500]
    assert session.trace[-1] == TraceEvent(5, "tx", "ack", REQUEST_BYTES, 0, 500, 8)
    assert session.rcv_nxt == 500


def test_first_arrival_of_dropped_packet_gets_no_ack():
    session = established_session()
    for index in range(1, 13):
        session.handle_segment([data_segment(index, ip_id=index + 1)], index)
    out = session.handle_segment([data_segment(13, ip_id=14)], 13)
    assert out == []
    assert session.rcv_nxt == 1200
    # recorded on the wire even though it was not acknowledged
    assert session.trace[-1].seq == 1200
    assert 13 not in session.pending_drops  # the pretend loss is spent


def test_out_of_order_arrivals_send_one_dupack_each():
    session = established_session()
    for index in range(1, 13):
        session.handle_segment([data_segment(index, ip_id=index + 1)], index)
    session.handle_segment([data_segment(13, ip_id=14)], 13)  # dropped
    dup1 = session.handle_segment([data_segment(14, ip_id=15)], 14)
    dup2 = session.handle_segment([data_segment(15, ip_id=16)], 15)
    assert [seg.ack for seg in dup1 + dup2] == [1200, 1200]
    assert session.dupacks_sent == 2


def test_retransmission_is_honored_and_ack_jumps():
    # After 14, 15, 17, 18 arrive over the hole, the repaired 13 lifts the
    # cumulative point to 1500; the still-missing 16 holds it there.
    session = established_session()
    for index in range(1, 13):
        session.handle_segment([data_segment(index, ip_id=index + 1)], index)
    session.handle_segment([data_segment(13, ip_id=14)], 13)
    for offset, index in enumerate((14, 15, 17, 18)):
        session.handle_segment([data_segment(index, ip_id=15 + offset)], 14 + offset)
    out = session.handle_segment([data_segment(13, ip_id=30)], 20)
    assert [seg.ack for seg in out] == [1500]
    assert session.rcv_nxt == 1500


def test_second_drop_is_independent():
    session = established_session()
    for index in range(1, 13):
        session.handle_segment([data_segment(index, ip_id=index + 1)], index)
    session.handle_segment([data_segment(13, ip_id=14)], 13)
    out = session.handle_segment([data_segment(16, ip_id=15)], 14)
    assert out == []  # swallowed silently: 16 is also scripted
    assert session.pending_drops == set()


def test_close_after_ack_limit_emits_single_reset():
    script = ProbeScript(drop_packets=frozenset())
    session = established_session(script)
    for index in range(1, 26):
        session.handle_segment([data_segment(index, ip_id=index + 1)], index)
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
        session.handle_segment([data_segment(index, ip_id=index + 1)], index)
    before = len(session.trace)
    out = session.handle_segment([data_segment(26, ip_id=40)], 99)
    assert out == []
    assert len(session.trace) == before + 1
    assert session.trace[-1].dir == "rx"


def test_stale_arrival_below_ack_point_stays_silent():
    session = established_session()
    for index in range(1, 4):
        session.handle_segment([data_segment(index, ip_id=index + 1)], index)
    out = session.handle_segment([data_segment(1, ip_id=9)], 10)
    assert out == []
    assert session.rcv_nxt == 300


def test_copy_wholly_below_ack_point_skips_reassembly(monkeypatch):
    # A go-back copy (Tahoe's and RenoPlus's) of bytes below rcv_nxt stores
    # nothing and moves nothing, so it never reaches the span join, whether
    # or not a span is held above rcv_nxt.
    calls = []
    reassemble = ProbeSession._reassemble

    def counted(self, *args):
        calls.append(args)
        return reassemble(self, *args)

    monkeypatch.setattr(ProbeSession, "_reassemble", counted)
    session = established_session()
    session.handle_segment(in_order(12), 1)
    copies = in_order(12) + [data_segment(5, ip_id=20, length=50)]
    assert session.handle_segment(copies, 2) == []
    # Packet 13 is dropped and packet 14 opens a span: one join.
    session.handle_segment([data_segment(13, ip_id=14), data_segment(14, ip_id=15)], 3)
    assert len(calls) == 1
    assert session.handle_segment(copies, 4) == []
    assert len(calls) == 1
    assert (session.rcv_nxt, session._above) == (1200, [(1300, 1400)])


def test_duplicate_delivery_is_recorded_and_silent():
    session = established_session()
    session.handle_segment([data_segment(1, ip_id=2, t_us=1)], 1)
    out = session.handle_segment([data_segment(1, ip_id=2, t_us=2)], 2)
    assert out == []
    assert session.rcv_nxt == 100
    assert [(ev.t_us, ev.ip_id) for ev in session.trace if ev.dir == "rx"][-2:] == [
        (1, 2),
        (2, 2),
    ]


def test_session_records_past_the_event_cap():
    # The session records without counting: past EVENT_CAP events it still
    # records every arrival and answers it. Only the run loop ends a run at
    # the cap (see the capped-run tests in test_netsim.py).
    session = established_session(
        ProbeScript(drop_packets=frozenset(), ack_limit_packet=EVENT_CAP + 1)
    )
    answers = [
        session.handle_segment([data_segment(index, ip_id=index + 1)], index)
        for index in range(1, EVENT_CAP + 1)
    ]
    assert len(session.trace) == 4 + 2 * EVENT_CAP  # the handshake, then rx + ack each
    assert [seg.ack for seg in answers[-1]] == [EVENT_CAP * MSS]
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
    # Packets 1-25 arrive, then the repairs of the refused 13 and 16 take
    # the cumulative ACK to 25: the prober closes, and the trace of its
    # two one-round repairs gets a label.
    arrivals = [synack()] + [data_segment(i, ip_id=i + 1) for i in range(1, 26)]
    arrivals += [data_segment(13, ip_id=27), data_segment(16, ip_id=28)]
    session = replay(ProbeScript(), arrivals)
    assert session.phase == "closed"
    assert session.trace[-1].kind == "rst"
    report = classify_trace(session.trace, session.script)
    assert (report.label, report.error) == ("NewReno", None)


def test_outcome_overflow():
    # The prober closes at packet 25 and then only records; EVENT_CAP
    # arrivals fill the trace past the cap, and the cap outranks the close,
    # both on the whole trace and on its first EVENT_CAP events, which are
    # what a run keeps.
    arrivals = [synack()] + [data_segment(i, ip_id=i + 1) for i in range(1, EVENT_CAP + 1)]
    session = replay(ProbeScript(drop_packets=frozenset()), arrivals)
    assert session.phase == "closed"
    assert len(session.trace) > EVENT_CAP
    for trace in (session.trace, session.trace[:EVENT_CAP]):
        assert classify_trace(trace, session.script).error == "TraceOverflow"


# -- receiver properties -------------------------------------------------------


def coalesced(spans: list) -> list:
    """Sorted spans with every overlapping or touching pair joined."""
    out = []
    for start, end in sorted(spans):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


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
        observed.update(range(seg.seq, seg.seq + seg.len))
        for out in session.handle_segment([seg], now):
            if out.kind == "ack":
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
        out = session.handle_segment([raw_data(seq, length, ip_id=now + 1)], now)
        received.update(range(seq, seq + length))
        assert session.rcv_nxt == contiguous_prefix(received)
        # The bytes held above the ack point, as coalesced spans.
        assert session._above == coalesced([(b, b + 1) for b in received if b > session.rcv_nxt])
        if session.rcv_nxt > previous or seq + length > session.rcv_nxt:
            assert [seg.ack for seg in out] == [session.rcv_nxt]  # new ACK or dupACK
        else:
            assert out == []  # nothing new above the ack point


# -- the one arrival loop against the helper-path session it replaced -----------
# ReferenceProbeSession keeps the session's arrival handling as it was when
# plain data was handled inline and every other arrival went through
# helpers that recorded it, answered the SYN+ACK and closed with a reset.
# Neither session counts its events: the run loop alone applies the cap.
# Its drop check and its reassembly are its own, so it shares no code with
# the session beyond the script and the starting state: every arrival is
# checked against the packets it touches, and every out-of-order arrival
# stores a span of its own, joined to the ack point only when reached.


def covered_indices(seq: int, length: int, mss: int) -> range:
    """1-based packet numbers a payload [seq, seq+length) touches."""
    if length <= 0:
        return range(0)
    return range(seq // mss + 1, (seq + length - 1) // mss + 2)


class ReferenceProbeSession(ProbeSession):
    def __init__(self, script):
        super().__init__(script)
        self.spans = []  # one per stored arrival, sorted; they may overlap

    def _send(self, now, kind, length=0):
        self.ip_id_counter += 1
        sent = TraceEvent(now, "tx", kind, self.snd_off, length, self.rcv_nxt, self.ip_id_counter)
        self.trace.append(sent)
        return sent

    def start(self, now):
        if self.phase != "idle":
            return []
        self.phase = "syn_sent"
        return [self._send(now, "syn")]

    def handle_segment(self, segments, now):
        trace, out, above = self.trace, [], self.spans
        record, pending, mss = trace.append, self.pending_drops, self.script.mss
        close_at = self.script.ack_limit_packet * mss
        rcv_nxt, ip_id, snd_off = self.rcv_nxt, self.ip_id_counter, self.snd_off
        dupacks, established = self.dupacks_sent, self.phase == "established"
        for seg in segments:
            start, length = seg.seq, seg.len
            if established and seg.kind == "data" and length:
                record(seg)
            else:
                self.rcv_nxt, self.ip_id_counter = rcv_nxt, ip_id
                answers = self._arrive(seg, now)
                ip_id, snd_off = self.ip_id_counter, self.snd_off
                established = self.phase == "established"
                if answers is not None:
                    out += answers
                    continue
            end = start + length
            if pending:
                to_drop = pending.intersection(covered_indices(start, length, mss))
                if to_drop:
                    pending -= to_drop
                    continue
            previous = rcv_nxt
            if start <= previous < end and not above:
                rcv_nxt = end
            else:
                rcv_nxt = self.reassemble(previous, start, end)
            if rcv_nxt == previous and end <= rcv_nxt:
                continue
            ip_id += 1
            ack = TraceEvent(now, "tx", "ack", snd_off, 0, rcv_nxt, ip_id)
            record(ack)
            out.append(ack)
            if rcv_nxt == previous:
                dupacks += 1
            elif rcv_nxt >= close_at:
                self.rcv_nxt, self.ip_id_counter, self.phase = rcv_nxt, ip_id, "closed"
                out.append(self._send(now, "rst"))
                ip_id, established = self.ip_id_counter, False
        self.rcv_nxt, self.ip_id_counter, self.dupacks_sent = rcv_nxt, ip_id, dupacks
        return out

    def reassemble(self, rcv_nxt, start, end):
        spans = self.spans
        if start > rcv_nxt:
            insort(spans, (start, end))
            return rcv_nxt
        joined = 0
        for span_start, span_end in spans:
            if span_start > end:
                break
            end = max(end, span_end)
            joined += 1
        del spans[:joined]
        return max(rcv_nxt, end)

    def _arrive(self, seg, now):
        kind = seg.kind
        self.trace.append(seg)
        if self.phase == "closed":
            return []
        if kind == "synack" and self.phase == "syn_sent":
            self.phase = "established"
            handshake_ack = self._send(now, "ack")
            request = self._send(now, "data", REQUEST_BYTES)
            self.snd_off = REQUEST_BYTES
            return [handshake_ack, request]
        if not seg.len or self.phase != "established":
            return []
        return None


SMALL_SCRIPT = ProbeScript(drop_packets=frozenset({2, 3}), ack_limit_packet=4)
# Three drops: spending the lowest leaves two, so the next lowest sets where
# the drop check starts.
THREE_DROPS = ProbeScript(drop_packets=frozenset({2, 4, 5}), ack_limit_packet=6)


def any_kind(common: list) -> st.SearchStrategy:
    """Mostly one of the ``common`` kinds, and now and then any."""
    return st.integers(0, 9).flatmap(
        lambda roll: st.sampled_from(sorted(KINDS) if roll == 0 else common)
    )


@st.composite
def arrivals(draw, script: ProbeScript) -> TraceEvent:
    """Any kind, and any length with it; offsets on and next to packet
    starts up to just past the ack limit, so the drops, their repairs and
    the close all come up. The session logs each as it is, whatever its
    time and direction."""
    mss = script.mss
    kind = draw(any_kind(["data", "data", "data", "synack"]))
    index = draw(st.integers(min_value=1, max_value=script.ack_limit_packet + 2))
    seq = max(0, (index - 1) * mss + draw(st.sampled_from([0, 0, 0, -1, 1, mss // 2])))
    return TraceEvent(
        draw(st.integers(min_value=0, max_value=50)),
        "rx",
        kind,
        seq,
        draw(st.one_of(st.just(mss), st.integers(min_value=0, max_value=300))),
        draw(st.integers(min_value=0, max_value=200)),
        draw(st.integers(min_value=1, max_value=50)),
    )


def probe_ops(script: ProbeScript) -> st.SearchStrategy:
    batches = st.lists(arrivals(script), min_size=1, max_size=8)
    return st.lists(st.one_of(st.just("start"), batches), max_size=16)


SCRIPTS = st.shared(st.sampled_from([ProbeScript(), SMALL_SCRIPT, THREE_DROPS]), key="script")


def in_order(packets, first=1) -> list:
    return [data_segment(index, ip_id=index + 1) for index in range(first, packets + 1)]


def synack_data(seq: int) -> TraceEvent:
    return TraceEvent(0, "rx", "synack", seq, 100, 0, 1)


@settings(max_examples=200, deadline=None)
@given(script=SCRIPTS, ops=SCRIPTS.flatmap(probe_ops))
# Drops, a dupACK, the repair that closes, and an arrival after the close.
@example(SMALL_SCRIPT, ["start", [synack()], in_order(4), in_order(3, first=2), in_order(1)])
@example(ProbeScript(drop_packets=frozenset()), ["start", [synack()], in_order(25)])
@example(THREE_DROPS, ["start", [synack()], in_order(6), in_order(5, first=2)])
# A go-back copy of bytes below rcv_nxt while packet 14 is held above it.
@example(ProbeScript(), ["start", [synack()], in_order(14), in_order(5)])
# The second drop comes a batch after the first: the drop bound carries over.
@example(
    ProbeScript(),
    ["start", [synack()], in_order(13), in_order(17, first=14), in_order(25, first=13)],
)
# A SYN+ACK carrying data: before the SYN, as the handshake, while the
# probe runs and after the close.
@example(
    SMALL_SCRIPT,
    [
        [synack_data(0)], "start", [synack_data(0)], in_order(4),
        [synack_data(400)], in_order(3, first=2), [synack_data(500)],
    ],
)
def test_arrival_loop_matches_helper_path_reference(script, ops):
    session, reference = ProbeSession(script), ReferenceProbeSession(script)
    for now, op in enumerate(ops):
        got, expected = (
            outcome(probe.start, now) if op == "start" else outcome(probe.handle_segment, op, now)
            for probe in (session, reference)
        )
        assert got == expected
        assert session.trace == reference.trace
        state = ("phase", "rcv_nxt", "dupacks_sent", "pending_drops")
        assert [getattr(session, name) for name in state] == [
            getattr(reference, name) for name in state
        ]
        assert session._above == coalesced(reference.spans)
        if got[0] == "raised":
            break
