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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccprobe import ProbeScript, Variant, classify_trace
from ccprobe.classifier import (
    ERROR_INCOMPLETE,
    ERROR_REORDERING,
    ERROR_TRACE_OVERFLOW,
    LABEL_UNCLASSIFIABLE,
    LABELS,
    RETX_FAST,
    RETX_NONE,
    RETX_TIMEOUT,
    ClassificationReport,
    ClassifierConfig,
    FeatureVector,
    IncompleteTrace,
    RetxEvent,
    classify,
    detect_reordering,
    detect_retransmissions,
    estimate_rtt,
    extract_features,
)
from ccprobe.prober import EVENT_CAP
from ccprobe.traceio import TraceEvent
from ccprobe.wire import first_index

from conftest import run_scenario

MS = 1000
SCRIPT = ProbeScript()


def rx(t_ms, seq, ip_id, length=100) -> TraceEvent:
    return TraceEvent(
        t_us=t_ms * MS, dir="rx", kind="data", seq=seq, len=length, ack=0, ip_id=ip_id
    )


def label_of(run) -> str:
    report = classify_trace(run.trace, run.scenario.probe_script)
    assert report.error is None, report.error
    return report.label


# -- rtt estimation ------------------------------------------------------------


def test_rtt_from_handshake(default_runs):
    for run in default_runs.values():
        assert estimate_rtt(run.trace) == 100 * MS


def test_rtt_falls_back_to_request_response(default_runs):
    trace = [
        ev
        for ev in default_runs[Variant.NEWRENO].trace
        if ev.kind not in ("syn", "synack")
    ]
    assert estimate_rtt(trace) == 100 * MS  # request at 100ms, first data at 200ms


def test_rtt_none_without_any_exchange():
    assert estimate_rtt([]) is None


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


def test_timeout_kind_follows_the_factor(default_runs):
    # The first repair lands 100ms after the previous arrival; with a
    # factor of 0.1 that gap reads as a timer expiry.
    trace = default_runs[Variant.NEWRENO].trace
    retxs = detect_retransmissions(trace, 100 * MS, mss=100, timeout_factor=0.1)
    assert retxs[0].kind == RETX_TIMEOUT


# -- reordering detection ------------------------------------------------------


def test_reordering_flagged_when_ip_ids_run_backwards():
    trace = [rx(200, 0, 2), rx(300, 200, 5), rx(300, 100, 4)]
    assert detect_reordering(trace) == 2


def test_no_reordering_in_default_runs(default_runs):
    for run in default_runs.values():
        assert detect_reordering(run.trace) is None


def test_retransmission_is_not_reordering():
    # A re-sent copy overlaps an earlier range; only fresh data counts.
    trace = [rx(200, 0, 2), rx(300, 100, 5), rx(400, 0, 4)]
    assert detect_reordering(trace) is None


# -- decision table ------------------------------------------------------------


def features(**kw) -> FeatureVector:
    base = dict(rtt_est=100 * MS, retx13=RETX_FAST, retx16=RETX_FAST)
    base.update(kw)
    return FeatureVector(**base)


DECISION_ROWS = [
    (features(reordering_detected=True), None, ERROR_REORDERING),
    (features(retx13=RETX_TIMEOUT), "NoFastRetransmit", None),
    (features(retx13=RETX_NONE), LABEL_UNCLASSIFIABLE, None),
    (features(extra_retx_between_13_and_16=True), "RenoPlus", None),
    (features(unnecessary_retx17=True), "Tahoe", None),
    (features(retx16=RETX_TIMEOUT), "Reno", None),
    (features(retransmission_count=2), "NewReno", None),
    (features(retransmission_count=3), LABEL_UNCLASSIFIABLE, None),
    (features(retx16=RETX_NONE), LABEL_UNCLASSIFIABLE, None),
]


@pytest.mark.parametrize("vector,label,error", DECISION_ROWS)
def test_decision_table_row(vector, label, error):
    report = classify(vector)
    assert (report.label, report.error) == (label, error)


def test_reordering_outranks_every_label():
    vector = features(retx13=RETX_TIMEOUT, reordering_detected=True)
    assert classify(vector).error == ERROR_REORDERING


@given(
    st.builds(
        FeatureVector,
        rtt_est=st.integers(min_value=1, max_value=10**7),
        retx13=st.sampled_from([RETX_NONE, RETX_FAST, RETX_TIMEOUT]),
        retx16=st.sampled_from([RETX_NONE, RETX_FAST, RETX_TIMEOUT]),
        unnecessary_retx17=st.booleans(),
        extra_retx_between_13_and_16=st.booleans(),
        reordering_detected=st.booleans(),
        retransmission_count=st.integers(min_value=0, max_value=50),
    )
)
def test_decision_table_is_total(vector):
    report = classify(vector)
    assert (report.label is None) != (report.error is None)
    if report.label is not None:
        assert report.label in LABELS + (LABEL_UNCLASSIFIABLE,)
    else:
        assert report.error == ERROR_REORDERING


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
    assert report.features.reordering_detected


def test_synthetic_reordering_without_close_is_incomplete():
    report = classify_trace(REORDERED[:-1], SCRIPT)
    assert report.error == ERROR_INCOMPLETE
    assert not report.features.reordering_detected


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
    # The session's own state says how the run ended; the report, built
    # from the trace alone, must say the same.
    run = run_scenario(variant, **overrides)
    prober = run.world.prober
    report = classify_trace(run.trace, run.scenario.probe_script)
    assert (report.error == ERROR_TRACE_OVERFLOW) == prober.overflowed
    if not prober.overflowed:
        assert (report.error == ERROR_INCOMPLETE) == (prober.phase != "closed")


def test_aggressive_timeout_factor_mislabels_newreno(default_runs):
    run = default_runs[Variant.NEWRENO]
    report = classify_trace(
        run.trace, run.scenario.probe_script, ClassifierConfig(timeout_factor=0.1)
    )
    assert report.label == "NoFastRetransmit"


# -- timing invariance ---------------------------------------------------------


@pytest.mark.parametrize("rtt_ms", [10, 50, 200])
def test_labels_stable_across_round_trip_times(rtt_ms):
    for variant in Variant:
        assert label_of(run_scenario(variant, rtt_ms=rtt_ms)) == variant.value


def test_labels_at_half_second_round_trip_boundary():
    # At rtt=500ms the 1s floor on the retransmit timer is only 2x the
    # round trip, under the 3x needed to read silence as a timer expiry,
    # so the timer-only variant presents like a go-back sender. The other
    # four keep their labels. Pinned as measured.
    expected = {
        Variant.TAHOE: "Tahoe",
        Variant.RENO: "Reno",
        Variant.NEWRENO: "NewReno",
        Variant.NO_FAST_RETRANSMIT: "Tahoe",
        Variant.RENO_PLUS: "RenoPlus",
    }
    for variant, label in expected.items():
        assert label_of(run_scenario(variant, rtt_ms=500)) == label


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
# one, as the classifier did before its coverage index. The index must
# reproduce them exactly: same retransmissions, same reordering index,
# same features and evidence.


def overlap(a: TraceEvent, b: TraceEvent) -> bool:
    return a.seq < b.seq + b.len and b.seq < a.seq + a.len


def reference_retransmissions(trace, rtt_est, *, mss, timeout_factor=3.0):
    out, seen, last_data_t = [], [], None
    for position, ev in enumerate(trace):
        if ev.dir != "rx" or ev.kind != "data":
            continue
        if any(overlap(prior, ev) and prior.ip_id < ev.ip_id for prior in seen):
            gap = ev.t_us - last_data_t if last_data_t is not None else 0
            kind = RETX_TIMEOUT if gap > timeout_factor * rtt_est else RETX_FAST
            out.append(RetxEvent(first_index(ev.seq, mss), ev.t_us, kind, position))
        seen.append(ev)
        last_data_t = ev.t_us
    return out


def reference_reordering(trace):
    max_ip_id, seen = None, []
    for position, ev in enumerate(trace):
        if ev.dir != "rx" or ev.kind != "data":
            continue
        if not any(overlap(prior, ev) for prior in seen):
            if max_ip_id is not None and ev.ip_id < max_ip_id:
                return position
            max_ip_id = ev.ip_id if max_ip_id is None else max(max_ip_id, ev.ip_id)
        seen.append(ev)
    return None


def reference_report(trace, script, timeout_factor=3.0) -> ClassificationReport | None:
    """The classifier's report built from the reference scans; None without an rtt."""
    rtt = estimate_rtt(trace)
    if rtt is None:
        return None
    drops = sorted(script.drop_packets)
    first_drop = drops[0] if drops else None
    last_drop = drops[-1] if drops else None
    follower = last_drop + 1 if last_drop is not None else None
    retxs = reference_retransmissions(
        trace, rtt, mss=script.mss, timeout_factor=timeout_factor
    )
    reorder_at = reference_reordering(trace)
    evidence = [
        (r.event_index, f"retransmission of packet {r.index} ({r.kind})") for r in retxs
    ]
    if reorder_at is not None:
        evidence.append((reorder_at, "ip_id order inconsistent with arrival order"))

    def first_retx(index):
        return next((r for r in retxs if r.index == index), None)

    feats = FeatureVector(
        rtt_est=rtt,
        reordering_detected=reorder_at is not None,
        retransmission_count=len(retxs),
    )
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
    report = classify(feats)
    report.evidence = evidence
    return report


def test_touching_arrivals_do_not_overlap():
    # [0, 100) then [100, 200): no shared byte, so neither a repair nor a
    # duplicate; the second one's lower ip_id therefore reads as reordering.
    assert detect_retransmissions([rx(200, 0, 1), rx(300, 100, 2)], 100 * MS, mss=100) == []
    assert detect_reordering([rx(200, 0, 5), rx(300, 100, 4)]) == 1
    assert detect_reordering([rx(200, 0, 5), rx(300, 99, 4)]) is None


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
# Mostly rising ip_ids, as the server stamps them, with repeats and
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
    opening = draw(st.sampled_from(["handshake", "handshake", "request", "none"]))
    if opening == "handshake":
        t = draw(st.integers(min_value=1, max_value=300)) * MS
        trace += [
            TraceEvent(t_us=0, dir="tx", kind="syn", seq=0, len=0, ack=0, ip_id=1),
            TraceEvent(t_us=t, dir="rx", kind="synack", seq=0, len=0, ack=1, ip_id=1),
        ]
    elif opening == "request":
        trace.append(TraceEvent(t_us=0, dir="tx", kind="data", seq=0, len=50, ack=0, ip_id=1))
    ip_id = 1
    for item in draw(st.lists(st.one_of(_data, _data, _acks), min_size=10, max_size=80)):
        t += draw(st.sampled_from([0, 1, 50, 250, 900])) * MS
        if item[0] == "data":
            _, seq, length, step = item
            trace.append(rx(t // MS, seq, max(1, ip_id + step), length))
            ip_id = max(ip_id, ip_id + step)
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


HANDSHAKE = [
    TraceEvent(t_us=0, dir="tx", kind="syn", seq=0, len=0, ack=0, ip_id=1),
    TraceEvent(t_us=100 * MS, dir="rx", kind="synack", seq=0, len=0, ack=1, ip_id=1),
]


def tx_ack(t_ms, ack) -> TraceEvent:
    return TraceEvent(t_us=t_ms * MS, dir="tx", kind="ack", seq=50, len=0, ack=ack, ip_id=1)


@settings(max_examples=250, deadline=None)
@given(probe_traces(), _scripts, st.sampled_from([0.5, 3.0]))
# A split span keeps its own lowest ip_id on both sides of the arrival.
@example(HANDSHAKE + [rx(200, 0, 1), rx(300, 0, 5, 50), rx(400, 60, 3, 10)], SCRIPT, 3.0)
# Packet 17 repaired, then ack-covered: the covering ack comes too late.
@example(HANDSHAKE + [rx(200, 1600, 2), rx(300, 1600, 3), tx_ack(300, 1700)], SCRIPT, 3.0)
def test_coverage_index_matches_quadratic_reference(trace, script, factor):
    rtt = estimate_rtt(trace) or 100 * MS
    assert detect_retransmissions(
        trace, rtt, mss=script.mss, timeout_factor=factor
    ) == reference_retransmissions(trace, rtt, mss=script.mss, timeout_factor=factor)
    assert detect_reordering(trace) == reference_reordering(trace)
    expected = reference_report(trace, script, factor)
    if expected is None:
        with pytest.raises(IncompleteTrace):
            extract_features(trace, script, ClassifierConfig(timeout_factor=factor))
        return
    feats, evidence = extract_features(trace, script, ClassifierConfig(timeout_factor=factor))
    assert (feats, evidence) == (expected.features, expected.evidence)


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
