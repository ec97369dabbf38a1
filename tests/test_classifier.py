"""Classifier tests: feature extraction, the decision table, and labels.

Expected feature vectors for the default scenario were worked out by hand
from the scripted-loss timeline (first drop repaired in one rtt by fast
retransmit, and so on) and frozen before implementation:

    variant           retx13   retx16   unnec17  extra  count
    Tahoe             fast     fast     yes      no     6
    Reno              fast     timeout  no       no     2
    NewReno           fast     fast     no       no     2
    NoFastRetransmit  timeout  fast     yes      no     3
    RenoPlus          fast     fast     yes      yes    14

The two "yes" unnec17 rows never reach that branch of the decision table;
retx13=timeout and the extra-retransmission flag take precedence.
"""

import dataclasses
import inspect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccprobe import (
    ProbeScript,
    SenderConfig,
    TerminationReason,
    Variant,
    classifier,
    classify_trace,
)
from ccprobe.classifier import (
    ERROR_INCOMPLETE,
    ERROR_REORDERING,
    ERROR_TRACE_OVERFLOW,
    ERROR_UNEXPECTED_LOSS,
    LABEL_UNCLASSIFIABLE,
    RETX_FAST,
    RETX_NONE,
    RETX_TIMEOUT,
    TIMEOUT_RTTS,
    ClassificationReport,
    FeatureVector,
    RetxEvent,
    classify,
    detect_reordering,
    detect_retransmissions,
    estimate_rtt,
    extract_features,
)
from ccprobe.prober import EVENT_CAP
from ccprobe.sender import Sender
from ccprobe.traceio import TraceEvent

from conftest import delivered_union, run_scenario

MS = 1000
SCRIPT = ProbeScript()


def rx(t_ms, seq, ip_id, length=100) -> TraceEvent:
    return TraceEvent(
        t_us=t_ms * MS, dir="rx", kind="data", seq=seq, len=length, ack=0, ip_id=ip_id
    )


HANDSHAKE = [
    TraceEvent(t_us=0, dir="tx", kind="syn", seq=0, len=0, ack=0, ip_id=1),
    TraceEvent(t_us=100 * MS, dir="rx", kind="synack", seq=0, len=0, ack=1, ip_id=1),
]


def closed(trace) -> list[TraceEvent]:
    """The trace plus the prober's closing rst, so that it may get a label."""
    return trace + [TraceEvent(trace[-1].t_us, "tx", "rst", 50, 0, 0, 99)]


def label_of(run) -> str:
    report = classify_trace(run.trace, run.scenario.probe_script)
    assert report.error is None, report.error
    return report.label


# -- rtt estimation ------------------------------------------------------------


def test_rtt_from_handshake(default_runs):
    for run in default_runs.values():
        assert estimate_rtt(run.trace) == 100 * MS


def test_rtt_none_without_any_exchange():
    assert estimate_rtt([]) is None


def test_closed_trace_without_handshake_is_incomplete(default_runs):
    # The prober only closes once its SYN drew a SYN+ACK, so a closed trace
    # without the handshake is hand-made; it has no round trip to go by.
    trace = [
        ev
        for ev in default_runs[Variant.NEWRENO].trace
        if ev.kind not in ("syn", "synack")
    ]
    assert trace[-1].kind == "rst"
    assert estimate_rtt(trace) is None
    assert classify_trace(trace, SCRIPT).error == ERROR_INCOMPLETE


# -- retransmission detection --------------------------------------------------

EXPECTED_RETX = {
    Variant.TAHOE: [(13, "fast", 600)] * 4 + [(16, "fast", 700), (17, "fast", 700)],
    Variant.RENO: [(13, "fast", 600), (16, "timeout", 1700)],
    Variant.NEWRENO: [(13, "fast", 600), (16, "fast", 700)],
    Variant.NO_FAST_RETRANSMIT: [
        (13, "timeout", 1500),
        (16, "fast", 1600),
        (17, "fast", 1600),
    ],
    Variant.RENO_PLUS: [(index, "fast", 600) for index in range(13, 27)],
}


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_detected_retransmissions_match_timeline(default_runs, variant):
    trace = default_runs[variant].trace
    retxs = detect_retransmissions(trace, estimate_rtt(trace), mss=100)
    assert [(r.index, r.kind, r.t_us // MS) for r in retxs] == EXPECTED_RETX[variant]


def test_retransmission_points_back_into_trace(default_runs):
    trace = default_runs[Variant.NEWRENO].trace
    retx = detect_retransmissions(trace, 100 * MS, mss=100)[0]
    ev = trace[retx.event_index]
    assert (ev.dir, ev.kind, ev.seq) == ("rx", "data", 1200)


@pytest.mark.parametrize("rtt_us", [2, 100 * MS, 798 * MS])
def test_timeout_threshold_is_one_and_a_half_round_trips(rtt_us):
    # A repair after exactly 1.5 round trips of silence is still fast; one
    # microsecond more and it is the timer's.
    limit = rtt_us * 3 // 2
    for gap, kind in ((limit, RETX_FAST), (limit + 1, RETX_TIMEOUT)):
        trace = HANDSHAKE + [rx(200, 0, 2), rx(300, 100, 3)]
        trace.append(TraceEvent(300 * MS + gap, "rx", "data", 0, 100, 0, 4))
        assert [r.kind for r in detect_retransmissions(trace, rtt_us, mss=100)] == [kind]


# RTT 1-799 ms in 7 ms steps, two pages, initial cwnd 1-4, every variant.
GROUND_TRUTH_GRID = [
    (variant, rtt_ms, page_bytes, ack_limit, cwnd)
    for variant in Variant
    for rtt_ms in range(1, 800, 7)
    for page_bytes, ack_limit in ((3000, 25), (5000, 40))
    for cwnd in range(1, 5)
]


def test_first_repairs_are_timeout_exactly_when_the_timer_sent_them(monkeypatch):
    # Ground truth from the sender itself: the ip_ids its retransmission
    # timer emitted. The trace-only attribution must agree with it on the
    # first repair of both scripted holes in every run of the grid.
    timer_ip_ids = set()
    on_rto = Sender.on_rto

    def recording_on_rto(sender, now):
        out = on_rto(sender, now)
        timer_ip_ids.update(seg.ip_id for seg in out)
        return out

    monkeypatch.setattr(Sender, "on_rto", recording_on_rto)
    assert len(GROUND_TRUTH_GRID) == 4600
    misread = []
    for variant, rtt_ms, page_bytes, ack_limit, cwnd in GROUND_TRUTH_GRID:
        timer_ip_ids.clear()
        run = run_scenario(
            variant,
            rtt_ms=rtt_ms,
            page_bytes=page_bytes,
            sender_config=SenderConfig(initial_cwnd=cwnd),
            probe_script=ProbeScript(ack_limit_packet=ack_limit),
        )
        retxs = detect_retransmissions(run.trace, estimate_rtt(run.trace), mss=100)
        for hole in sorted(SCRIPT.drop_packets):
            first = next(r for r in retxs if r.index == hole)
            by_timer = run.trace[first.event_index].ip_id in timer_ip_ids
            if (first.kind == RETX_TIMEOUT) != by_timer:
                misread.append((variant.value, rtt_ms, page_bytes, cwnd, hole))
    assert misread == []


# -- path integrity --------------------------------------------------------------


def test_reordering_flagged_when_ip_ids_run_backwards():
    # ip_id 3 is skipped and arrives later: the path reordered at the skip.
    trace = HANDSHAKE + [rx(200, 0, 2), rx(300, 200, 4), rx(300, 100, 3)]
    assert detect_reordering(trace) == 3


def test_no_reordering_in_default_runs(default_runs):
    for run in default_runs.values():
        assert detect_reordering(run.trace) is None


def test_retransmission_is_not_reordering():
    # A re-sent copy carries the next ip_id and starts below the bytes seen.
    trace = HANDSHAKE + [rx(200, 0, 2), rx(300, 100, 3), rx(400, 0, 4)]
    assert detect_reordering(trace) is None
    assert [r.index for r in detect_retransmissions(trace, 100 * MS, mss=100)] == [1]
    # One that skips an ip_id is a loss on the path, not a reordering.
    trace = HANDSHAKE + [rx(200, 0, 2), rx(300, 100, 3), rx(400, 0, 5)]
    assert detect_reordering(trace) is None
    assert classify_trace(closed(trace), SCRIPT).error == ERROR_UNEXPECTED_LOSS


@pytest.mark.parametrize(
    "arrivals, error, at",
    [
        # ip_id 3 never arrives.
        ([rx(200, 0, 2), rx(300, 200, 4), rx(400, 300, 5)], ERROR_UNEXPECTED_LOSS, 3),
        # ip_id 3 arrives after ip_id 4.
        ([rx(200, 0, 2), rx(300, 200, 4), rx(400, 100, 3)], ERROR_REORDERING, 3),
        # The next ip_id, but bytes [100, 200) were never seen.
        ([rx(200, 0, 2), rx(300, 200, 3), rx(400, 300, 4)], ERROR_UNEXPECTED_LOSS, 3),
        # A backward step: ip_id 2 again where 4 was due.
        ([rx(200, 0, 2), rx(300, 100, 3), rx(400, 0, 2)], ERROR_REORDERING, 4),
        # A repeated ip_id.
        ([rx(200, 0, 2), rx(300, 100, 3), rx(400, 200, 3)], ERROR_REORDERING, 4),
        # The first data arrival skips the ip_id after the SYN+ACK's.
        ([rx(200, 0, 3), rx(300, 100, 4)], ERROR_UNEXPECTED_LOSS, 2),
    ],
    ids=["skip", "late-fill", "byte-gap", "backward-step", "repeat", "first-skip"],
)
def test_path_break_is_an_error_row_naming_it(arrivals, error, at):
    report = classify_trace(closed(HANDSHAKE + arrivals), SCRIPT)
    assert (report.label, report.error) == (None, error)
    assert report.features == FeatureVector()
    assert [index for index, _ in report.evidence] == [at]
    assert detect_reordering(HANDSHAKE + arrivals) == (at if error == ERROR_REORDERING else None)


def test_retransmissions_before_the_break_are_kept():
    # The scan stops at the byte gap: the repair before it is reported, the
    # one after it is not.
    trace = HANDSHAKE + [rx(200, 0, 2), rx(300, 0, 3), rx(400, 200, 4), rx(500, 0, 5)]
    assert [r.event_index for r in detect_retransmissions(trace, 100 * MS, mss=100)] == [3]


def test_lost_segment_arrives_as_unexpected_loss():
    # The default NewReno run with its 10th server segment lost on the path.
    run = run_scenario(Variant.NEWRENO, ambient_drops=frozenset({10}))
    report = classify_trace(run.trace, run.scenario.probe_script)
    assert report.error == ERROR_UNEXPECTED_LOSS
    (at, note), = report.evidence
    assert run.trace[at].ip_id == 11
    assert "due ip_id 10" in note


# One run per variant, rtt {10, 100, 200} ms and initial cwnd {1, 2, 4}, and
# one per server ip_id from 2 (the first data segment) to the clean run's last.
SINGLE_LOSS_CELLS = [
    (variant, rtt_ms, cwnd)
    for variant in Variant
    for rtt_ms in (10, 100, 200)
    for cwnd in (1, 2, 4)
]


def test_single_path_loss_grid_gives_no_wrong_label():
    runs, wrong, errors = 0, [], set()
    for variant, rtt_ms, cwnd in SINGLE_LOSS_CELLS:
        overrides = dict(rtt_ms=rtt_ms, sender_config=SenderConfig(initial_cwnd=cwnd))
        last = max(ev.ip_id for ev in run_scenario(variant, **overrides).trace if ev.dir == "rx")
        for ip_id in range(2, last + 1):
            run = run_scenario(variant, ambient_drops=frozenset({ip_id}), **overrides)
            report = classify_trace(run.trace, run.scenario.probe_script)
            runs += 1
            if report.error is not None:
                errors.add(report.error)
            elif report.label != variant.value:
                wrong.append((variant.value, rtt_ms, cwnd, ip_id, report.label))
    assert runs == 1581
    assert wrong == []
    assert errors == {ERROR_UNEXPECTED_LOSS}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(Variant)),
    st.integers(min_value=1, max_value=800),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_path_loss_gives_the_clean_label_or_an_error_row(variant, rtt_ms, cwnd, data):
    overrides = dict(rtt_ms=rtt_ms, sender_config=SenderConfig(initial_cwnd=cwnd))
    clean = run_scenario(variant, **overrides)
    last = max(ev.ip_id for ev in clean.trace if ev.dir == "rx")
    drops = data.draw(
        st.frozensets(st.integers(min_value=2, max_value=last), min_size=1, max_size=2)
    )
    run = run_scenario(variant, ambient_drops=drops, **overrides)
    report = classify_trace(run.trace, run.scenario.probe_script)
    if report.error is None:
        assert report.label == classify_trace(clean.trace, clean.scenario.probe_script).label


# -- decision table ------------------------------------------------------------


def features(**kw) -> FeatureVector:
    base = dict(rtt_est=100 * MS, retx13=RETX_FAST, retx16=RETX_FAST)
    base.update(kw)
    return FeatureVector(**base)


DECISION_ROWS = [
    (features(retx13=RETX_TIMEOUT), "NoFastRetransmit"),
    (features(retx13=RETX_NONE), LABEL_UNCLASSIFIABLE),
    (features(extra_retx_between_13_and_16=True), "RenoPlus"),
    (features(unnecessary_retx17=True), "Tahoe"),
    (features(retx16=RETX_TIMEOUT), "Reno"),
    (features(retransmission_count=2), "NewReno"),
    (features(retransmission_count=3), LABEL_UNCLASSIFIABLE),
    (features(retx16=RETX_NONE), LABEL_UNCLASSIFIABLE),
]


@pytest.mark.parametrize("vector,label", DECISION_ROWS)
def test_decision_table_row(vector, label):
    assert classify(vector) == label


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_reordering_outranks_every_label(default_runs, variant):
    # Swap the last two data arrivals of a labelled run: the first of them
    # now skips an ip_id that arrives next, so the path reordered there.
    trace = list(default_runs[variant].trace)
    first, second = [i for i, ev in enumerate(trace) if ev.kind == "data" and ev.dir == "rx"][-2:]
    trace[first], trace[second] = trace[second], trace[first]
    report = classify_trace(trace, SCRIPT)
    assert report.error == ERROR_REORDERING
    assert [index for index, _ in report.evidence] == [first]


@given(
    st.builds(
        FeatureVector,
        rtt_est=st.integers(min_value=1, max_value=10**7),
        retx13=st.sampled_from([RETX_NONE, RETX_FAST, RETX_TIMEOUT]),
        retx16=st.sampled_from([RETX_NONE, RETX_FAST, RETX_TIMEOUT]),
        unnecessary_retx17=st.booleans(),
        extra_retx_between_13_and_16=st.booleans(),
        retransmission_count=st.integers(min_value=0, max_value=50),
    )
)
def test_decision_table_is_total(vector):
    assert classify(vector) in {v.value for v in Variant} | {LABEL_UNCLASSIFIABLE}


# -- end to end ----------------------------------------------------------------


def test_default_runs_classify_as_themselves(default_runs):
    for variant, run in default_runs.items():
        assert label_of(run) == variant.value


def test_feature_vectors_match_frozen_table(default_runs):
    expected = {
        Variant.TAHOE: (RETX_FAST, RETX_FAST, True, False, 6),
        Variant.RENO: (RETX_FAST, RETX_TIMEOUT, False, False, 2),
        Variant.NEWRENO: (RETX_FAST, RETX_FAST, False, False, 2),
        Variant.NO_FAST_RETRANSMIT: (RETX_TIMEOUT, RETX_FAST, True, False, 3),
        Variant.RENO_PLUS: (RETX_FAST, RETX_FAST, True, True, 14),
    }
    for variant, run in default_runs.items():
        feats, _ = extract_features(run.trace, run.scenario.probe_script)
        got = (
            feats.retx13,
            feats.retx16,
            feats.unnecessary_retx17,
            feats.extra_retx_between_13_and_16,
            feats.retransmission_count,
        )
        assert got == expected[variant], variant.value


def test_evidence_names_the_extra_retransmissions(default_runs):
    run = default_runs[Variant.RENO_PLUS]
    report = classify_trace(run.trace, run.scenario.probe_script)
    notes = [note for _, note in report.evidence]
    assert "retransmission of packet 14 (fast)" in notes
    assert "retransmission of packet 15 (fast)" in notes


def test_evidence_indices_point_at_rx_data(default_runs):
    run = default_runs[Variant.TAHOE]
    report = classify_trace(run.trace, run.scenario.probe_script)
    assert report.evidence
    for index, _ in report.evidence:
        ev = run.trace[index]
        assert (ev.dir, ev.kind) == ("rx", "data")


def test_truncated_trace_is_incomplete(default_runs):
    trace = default_runs[Variant.NEWRENO].trace[:1]
    report = classify_trace(trace, SCRIPT)
    assert report.error == ERROR_INCOMPLETE
    assert report.label is None


@pytest.mark.parametrize(
    "unfinished",
    [
        lambda trace: trace[:1],  # the server never answered the SYN
        lambda trace: trace[:-1],  # all but the prober's closing rst
        lambda trace: trace[:-1] + [dataclasses.replace(trace[-1], dir="rx")],
    ],
    ids=["handshake-timeout", "stalled-sender", "peer-reset"],
)
def test_failed_probe_outcomes_short_circuit(default_runs, unfinished):
    # Only the prober's own rst or fin closes a trace; without it even
    # the NewReno exchange gets no label.
    trace = default_runs[Variant.NEWRENO].trace
    assert trace[-1].kind == "rst"
    report = classify_trace(unfinished(trace), SCRIPT)
    assert report.error == ERROR_INCOMPLETE
    assert report.features == FeatureVector()


def test_overflow_outcome_short_circuits(default_runs):
    # The closed NewReno trace, padded with ignored arrivals up to the cap:
    # one event short it keeps its label, at the cap it may not have one.
    trace = default_runs[Variant.NEWRENO].trace
    end = trace[-1].t_us
    padded = trace + [
        TraceEvent(end + i, "rx", "ack", 0, 0, 0, 0) for i in range(EVENT_CAP - len(trace))
    ]
    assert classify_trace(padded[:-1], SCRIPT).label == "NewReno"
    report = classify_trace(padded, SCRIPT)
    assert report.error == ERROR_TRACE_OVERFLOW
    assert report.features == FeatureVector()


REORDERED = [
    TraceEvent(t_us=0, dir="tx", kind="syn", seq=0, len=0, ack=0, ip_id=1),
    TraceEvent(t_us=100 * MS, dir="rx", kind="synack", seq=0, len=0, ack=1, ip_id=1),
    rx(200, 100, 3),
    rx(200, 0, 2),
    TraceEvent(t_us=200 * MS, dir="tx", kind="rst", seq=100, len=0, ack=0, ip_id=4),
]


def test_synthetic_reordering_yields_error():
    report = classify_trace(REORDERED, SCRIPT)
    assert report.error == ERROR_REORDERING
    assert [index for index, _ in report.evidence] == [2]


def test_synthetic_reordering_without_close_is_incomplete():
    report = classify_trace(REORDERED[:-1], SCRIPT)
    assert report.error == ERROR_INCOMPLETE
    assert report.evidence == []


# A 2,000-packet page acked up to packet 1,900 fills the event cap first.
OVERFLOWING = dict(
    rtt_ms=10, page_bytes=200_000, probe_script=ProbeScript(ack_limit_packet=1900)
)


@pytest.mark.parametrize(
    "variant, overrides",
    [
        pytest.param(variant, {"rtt_ms": rtt}, id=f"{variant.value}-{rtt}ms")
        for variant in Variant
        for rtt in (10, 200, 800)
    ]
    + [
        pytest.param(Variant.NEWRENO, OVERFLOWING, id="overflow"),
        pytest.param(Variant.NEWRENO, {"ambient_drops": frozenset({1})}, id="no-handshake"),
    ],
)
def test_trace_rule_agrees_with_session_state(variant, overrides):
    # The run's reason and the session's phase say how the run ended; the
    # report, built from the trace alone, must say the same.
    run = run_scenario(variant, **overrides)
    overflowed = run.reason is TerminationReason.TRACE_OVERFLOW
    report = classify_trace(run.trace, run.scenario.probe_script)
    assert (report.error == ERROR_TRACE_OVERFLOW) == overflowed
    if not overflowed:
        assert (report.error == ERROR_INCOMPLETE) == (run.world.prober.phase != "closed")


# -- timing invariance ---------------------------------------------------------


@pytest.mark.parametrize("rtt_ms", [10, 50, 200])
def test_labels_stable_across_round_trip_times(rtt_ms):
    for variant in Variant:
        assert label_of(run_scenario(variant, rtt_ms=rtt_ms)) == variant.value


def test_labels_at_half_second_round_trip_boundary():
    # At rtt=500ms the 1s floor on the retransmit timer is only 2x the
    # round trip, still past the 1.5x that reads silence as a timer expiry.
    for variant in Variant:
        assert label_of(run_scenario(variant, rtt_ms=500)) == variant.value


# -- report shape ----------------------------------------------------------------


def test_report_dict_has_exactly_one_outcome_key(default_runs):
    run = default_runs[Variant.NEWRENO]
    good = classify_trace(run.trace, run.scenario.probe_script).to_dict()
    assert "label" in good and "error" not in good
    bad = classify_trace([], SCRIPT).to_dict()
    assert "error" in bad and "label" not in bad


def test_report_dict_serializes_evidence_as_pairs(default_runs):
    run = default_runs[Variant.NEWRENO]
    payload = classify_trace(run.trace, run.scenario.probe_script).to_dict()
    assert payload["features"]["retx13"] == "fast"
    for item in payload["evidence"]:
        assert isinstance(item, list) and len(item) == 2
        assert isinstance(item[0], int) and isinstance(item[1], str)


# -- equivalence with the quadratic reference ----------------------------------
# The reference scans below compare every data arrival with every earlier
# one, as the classifier did before its high-water mark. On a trace whose
# path stayed intact the mark must reproduce them exactly: same
# retransmissions, same features and evidence. Any other trace must get an
# error row naming the reference's first break.


def first_index(seq: int, mss: int) -> int:
    """1-based packet number of the byte at offset ``seq``."""
    return seq // mss + 1


def overlap(a: TraceEvent, b: TraceEvent) -> bool:
    return a.seq < b.seq + b.len and b.seq < a.seq + a.len


def reference_retransmissions(trace, rtt_est, *, mss):
    out, seen, last_data_t = [], [], None
    for position, ev in enumerate(trace):
        if ev.dir != "rx" or ev.kind != "data":
            continue
        if any(overlap(prior, ev) and prior.ip_id < ev.ip_id for prior in seen):
            gap = ev.t_us - last_data_t if last_data_t is not None else 0
            kind = RETX_TIMEOUT if gap > TIMEOUT_RTTS * rtt_est else RETX_FAST
            out.append(RetxEvent(first_index(ev.seq, mss), ev.t_us, kind, position))
        seen.append(ev)
        last_data_t = ev.t_us
    return out


def reference_break(trace):
    """Trace index of the first data arrival that is not the k-th after the
    SYN+ACK carrying its ip_id + k, or that leaves a byte below it unseen."""
    synack_ip_id, seen = None, []
    for position, ev in enumerate(trace):
        if ev.dir == "rx" and ev.kind == "synack":
            synack_ip_id = ev.ip_id
        if ev.dir != "rx" or ev.kind != "data":
            continue
        seen.append(ev)
        due = None if synack_ip_id is None else synack_ip_id + len(seen)
        spans = delivered_union(seen)
        if ev.ip_id != due or len(spans) != 1 or spans[0][0] != 0:
            return position
    return None


def reference_report(trace, script) -> ClassificationReport | None:
    """The classifier's report built from the reference scans; None without
    an rtt or on a broken path."""
    rtt = estimate_rtt(trace)
    if rtt is None or reference_break(trace) is not None:
        return None
    drops = sorted(script.drop_packets)
    first_drop = drops[0] if drops else None
    last_drop = drops[-1] if drops else None
    follower = last_drop + 1 if last_drop is not None else None
    retxs = reference_retransmissions(trace, rtt, mss=script.mss)
    evidence = [
        (r.event_index, f"retransmission of packet {r.index} ({r.kind})") for r in retxs
    ]

    def first_retx(index):
        return next((r for r in retxs if r.index == index), None)

    feats = FeatureVector(rtt_est=rtt, retransmission_count=len(retxs))
    r13 = first_retx(first_drop) if first_drop is not None else None
    r16 = first_retx(last_drop) if last_drop is not None else None
    if r13 is not None:
        feats.retx13 = r13.kind
        if r16 is not None:
            feats.retx16 = r16.kind
            feats.extra_retx_between_13_and_16 = any(
                r.index not in (first_drop, last_drop)
                and r13.event_index < r.event_index < r16.event_index
                for r in retxs
            )
    if follower is not None:
        follower_end = follower * script.mss
        for r in retxs:
            if r.index == follower and any(
                ev.dir == "tx" and ev.kind == "ack" and ev.ack >= follower_end
                for ev in trace[: r.event_index]
            ):
                feats.unnecessary_retx17 = True
                evidence.append(
                    (r.event_index, f"packet {follower} arrived again after being ack-covered")
                )
                break
    return ClassificationReport(classify(feats), None, feats, evidence)


def test_touching_arrivals_do_not_overlap():
    # [0, 100) then [100, 200): no shared byte, so no repair; one byte lower
    # they overlap, and one byte higher they leave a gap on the path.
    touching = HANDSHAKE + [rx(200, 0, 2), rx(300, 100, 3)]
    assert detect_retransmissions(touching, 100 * MS, mss=100) == []
    overlapping = HANDSHAKE + [rx(200, 0, 2), rx(300, 99, 3)]
    assert [r.event_index for r in detect_retransmissions(overlapping, 100 * MS, mss=100)] == [3]
    apart = HANDSHAKE + [rx(200, 0, 2), rx(300, 101, 3)]
    report = classify_trace(closed(apart), SCRIPT)
    assert (report.error, report.evidence[0][0]) == (ERROR_UNEXPECTED_LOSS, 3)
    # Touching, but the later ip_id arrived first: the path reordered.
    assert detect_reordering(HANDSHAKE + [rx(200, 0, 3), rx(300, 100, 2)]) == 2


_seqs = st.one_of(
    st.sampled_from([1200, 1500, 1600]),  # packets 13, 16 and 17
    st.integers(min_value=0, max_value=29).map(lambda k: 100 * k),  # whole packets
    st.integers(min_value=0, max_value=2999),  # unaligned
    st.integers(min_value=0, max_value=300).map(lambda k: 10 * k),  # touching runts
)
_lens = st.one_of(
    st.just(100),
    st.integers(min_value=1, max_value=30),  # runts
    st.integers(min_value=1, max_value=300),
)
# In a broken trace: mostly rising ip_ids, with skips, repeats and
# backward steps mixed in.
_ip_id_steps = st.sampled_from([1, 1, 1, 2, 0, -1, -4])
_data = st.tuples(st.just("data"), _seqs, _lens, _ip_id_steps)
_acks = st.tuples(
    st.just("ack"),
    st.one_of(
        st.integers(min_value=0, max_value=30).map(lambda k: 100 * k),
        st.integers(min_value=0, max_value=3000),
    ),
)


@st.composite
def probe_traces(draw) -> list[TraceEvent]:
    trace = []
    t = 0
    opening = draw(st.sampled_from(["handshake", "handshake", "handshake", "request", "none"]))
    if opening == "handshake":
        t = draw(st.integers(min_value=1, max_value=300)) * MS
        trace += [
            TraceEvent(t_us=0, dir="tx", kind="syn", seq=0, len=0, ack=0, ip_id=1),
            TraceEvent(t_us=t, dir="rx", kind="synack", seq=0, len=0, ack=1, ip_id=1),
        ]
    elif opening == "request":
        trace.append(TraceEvent(t_us=0, dir="tx", kind="data", seq=0, len=50, ack=0, ip_id=1))
    # An intact trace: each data arrival carries the next ip_id and starts
    # at or below the end of the bytes seen so far.
    intact = draw(st.booleans())
    ip_id, high = 1, 0
    for item in draw(st.lists(st.one_of(_data, _data, _acks), min_size=10, max_size=80)):
        t += draw(st.sampled_from([0, 1, 50, 250, 900])) * MS
        if item[0] == "data":
            _, seq, length, step = item
            if intact:
                seq, step = min(seq, high), 1
            trace.append(rx(t // MS, seq, max(1, ip_id + step), length))
            ip_id = max(ip_id, ip_id + step)
            high = max(high, seq + length)
        else:
            trace.append(
                TraceEvent(t_us=t, dir="tx", kind="ack", seq=50, len=0, ack=item[1], ip_id=1)
            )
    return trace


_scripts = st.sampled_from(
    [
        SCRIPT,
        ProbeScript(drop_packets=frozenset({5})),
        ProbeScript(drop_packets=frozenset({3, 8})),
        ProbeScript(drop_packets=frozenset()),
    ]
)


def tx_ack(t_ms, ack) -> TraceEvent:
    return TraceEvent(t_us=t_ms * MS, dir="tx", kind="ack", seq=50, len=0, ack=ack, ip_id=1)


@settings(max_examples=250, deadline=None)
@given(probe_traces(), _scripts)
# Repairs of part of an earlier arrival's bytes.
@example(HANDSHAKE + [rx(200, 0, 2), rx(300, 0, 3, 50), rx(400, 60, 4, 10)], SCRIPT)
# Packet 17 repaired, then ack-covered: the covering ack comes too late.
@example(HANDSHAKE + [rx(200, 0, 2, 1700), rx(300, 1600, 3), tx_ack(300, 1700)], SCRIPT)
# The second drop repaired before the first.
@example(HANDSHAKE + [rx(200, 0, 2, 1700), rx(300, 1500, 3), rx(400, 1200, 4)], SCRIPT)
# A third packet retransmitted between the two repairs.
@example(
    HANDSHAKE + [rx(200, 0, 2, 1700), rx(300, 1200, 3), rx(310, 1300, 4), rx(320, 1500, 5)],
    SCRIPT,
)
# Each drop repaired twice, a third packet next to the later repair: only
# the first repair of each drop bounds the window.
@example(
    HANDSHAKE + [rx(200, 0, 2, 1700), rx(300, 1200, 3), rx(310, 1400, 4), rx(320, 1200, 5),
                 rx(330, 1500, 6)],
    SCRIPT,
)
@example(
    HANDSHAKE + [rx(200, 0, 2, 1700), rx(300, 1200, 3), rx(310, 1500, 4), rx(320, 1400, 5),
                 rx(330, 1500, 6)],
    SCRIPT,
)
# Packet 17 repeated both before and after the ack that covers it.
@example(
    HANDSHAKE + [rx(200, 0, 2, 1700), rx(300, 1600, 3), tx_ack(300, 1700), rx(400, 1600, 4)],
    SCRIPT,
)
# Packet 17 repeated with no ack covering it at all.
@example(HANDSHAKE + [rx(200, 0, 2, 1700), rx(300, 1600, 3), tx_ack(300, 1600)], SCRIPT)
# One arrival starting exactly at the end of the bytes seen touches them
# (fresh, no repair); one a byte below overlaps them (a repair); one past a
# gap breaks the path, and a later fill of the gap with the skipped ip_id
# makes that break a reordering.
@example(HANDSHAKE + [rx(200, 0, 2), rx(300, 100, 3)], SCRIPT)
@example(HANDSHAKE + [rx(200, 0, 2), rx(300, 99, 3)], SCRIPT)
@example(HANDSHAKE + [rx(200, 0, 2), rx(300, 200, 4), rx(400, 100, 3)], SCRIPT)
def test_coverage_index_matches_quadratic_reference(trace, script):
    expected = reference_report(trace, script)
    if expected is None:
        # No handshake or a broken path: an error row, naming the break.
        report = classify_trace(closed(trace), script)
        assert report.label is None
        if estimate_rtt(trace) is None:
            assert report.error == ERROR_INCOMPLETE
        else:
            assert report.error in (ERROR_REORDERING, ERROR_UNEXPECTED_LOSS)
            assert [index for index, _ in report.evidence] == [reference_break(trace)]
        return
    rtt = expected.features.rtt_est
    assert detect_retransmissions(trace, rtt, mss=script.mss) == reference_retransmissions(
        trace, rtt, mss=script.mss
    )
    assert detect_reordering(trace) is None
    assert extract_features(trace, script) == (expected.features, expected.evidence)


def test_features_come_from_one_coverage_pass(default_runs, monkeypatch):
    # Retransmissions and the path check are read off one pass over the
    # arrivals, and classify_trace adds no second one.
    calls = []
    coverage_pass = classifier._coverage_pass

    def counted(*args):
        calls.append(args)
        return coverage_pass(*args)

    monkeypatch.setattr(classifier, "_coverage_pass", counted)
    for variant, run in default_runs.items():
        script = run.scenario.probe_script
        calls.clear()
        features, _ = extract_features(run.trace, script)
        assert len(calls) == 1, variant
        calls.clear()
        assert classify_trace(run.trace, script).features == features
        assert len(calls) == 1, variant


@pytest.mark.parametrize(
    "name", ["classify_trace", "extract_features", "detect_retransmissions", "detect_reordering"]
)
def test_scans_stay_module_functions(name):
    # Benchmark tracing wraps each of these through the module's namespace.
    assert inspect.isfunction(vars(classifier)[name])


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_long_runt_trace_matches_quadratic_reference(variant):
    # A 300-packet page acked to packet 250: congestion avoidance emits
    # many runt segments, giving ~1.3k events of partial overlaps.
    run = run_scenario(
        variant, page_bytes=300 * 100, probe_script=ProbeScript(ack_limit_packet=250)
    )
    assert len(run.trace) > 1000
    script = run.scenario.probe_script
    assert classify_trace(run.trace, script) == reference_report(run.trace, script)
