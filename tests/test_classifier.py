"""Classifier tests: feature extraction, the decision table, and labels.

Expected feature vectors for the default scenario were worked out by hand
from the scripted-loss timeline (first drop repaired in one rtt by fast
retransmit, and so on) and frozen before implementation:

    variant           first    second   follower  extra  count
    Tahoe             fast     fast     yes       no     6
    Reno              fast     timeout  no        no     2
    NewReno           fast     fast     no        no     2
    NoFastRetransmit  timeout  fast     yes       no     3
    RenoPlus          fast     fast     yes       yes    14

The columns are ``first_drop_repair`` and ``second_drop_repair`` (packets
13 and 16), ``follower_repeated_after_ack`` (packet 17 arrived again
after an ACK covered it), ``extra_repair_between_drops`` and
``retransmission_count``. The two "yes" follower rows never reach that
branch of the decision table; a timer's first-drop repair and the
extra-repair flag take precedence.
"""

import dataclasses
import inspect
import math
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ccprobe import (
    ProbeScript,
    Scenario,
    SenderConfig,
    TerminationReason,
    Variant,
    classifier,
    classify_trace,
    netsim,
    run_to_completion,
    sim_init,
    traceio,
    wire,
)
from ccprobe.classifier import (
    ERROR_INCOMPLETE,
    ERROR_NOT_TWO_DROPS,
    ERROR_REORDERING,
    ERROR_SPURIOUS_TIMEOUT,
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
    extract_features,
    read_script,
)
from ccprobe.netsim import EVENT_CAP
from ccprobe.prober import ProbeSession
from ccprobe.sender import Sender
from ccprobe.traceio import TraceEvent

from conftest import delivered_union, run_scenario, trace_text, tx_acks
from grid import MAIN_GRID, MSS_GRID

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
        assert classify_trace(run.trace, SCRIPT).features.rtt_est == 100 * MS


def test_rtt_none_without_any_exchange():
    assert classifier._coverage_pass([], 100, math.inf) == (None, [], None, None)
    assert detect_retransmissions([], mss=100) == []


def test_closed_trace_without_handshake_is_incomplete(default_runs):
    # The prober only closes once its SYN drew a SYN+ACK, so a closed trace
    # without the handshake is hand-made; it has no round trip to go by.
    trace = [
        ev
        for ev in default_runs[Variant.NEWRENO].trace
        if ev.kind not in ("syn", "synack")
    ]
    assert trace[-1].kind == "rst"
    assert detect_retransmissions(trace, mss=100) == []  # no round trip to judge them by
    assert classify_trace(trace, SCRIPT).error == ERROR_INCOMPLETE


def synack_at_syn_time(trace, *, before) -> list[TraceEvent]:
    """The trace with its SYN+ACK moved to the SYN's ``t_us``, listed just
    after the SYN or just before it."""
    syn, synack = trace[:2]
    assert (syn.kind, synack.kind) == ("syn", "synack")
    moved = dataclasses.replace(synack, t_us=syn.t_us)
    return ([moved, syn] if before else [syn, moved]) + trace[2:]


@pytest.mark.parametrize("before", [False, True], ids=["listed-after", "listed-before"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_synack_not_later_than_its_syn_is_incomplete(default_runs, variant, before):
    # A readable trace whose SYN+ACK is not later than the SYN, or comes
    # before it, has no round trip: an error row, never a label judged
    # against a zero round trip.
    moved = synack_at_syn_time(default_runs[variant].trace, before=before)
    trace = traceio.read_trace(trace_text(moved))
    report = classify_trace(trace, SCRIPT)
    assert (report.label, report.error, report.evidence) == (None, ERROR_INCOMPLETE, [])


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
    retxs = detect_retransmissions(trace, mss=100)
    assert [(r.index, r.kind, r.t_us // MS) for r in retxs] == EXPECTED_RETX[variant]


def test_retransmission_points_back_into_trace(default_runs):
    trace = default_runs[Variant.NEWRENO].trace
    retx = detect_retransmissions(trace, mss=100)[0]
    ev = trace[retx.event_index]
    assert (ev.dir, ev.kind, ev.seq) == ("rx", "data", 1200)


@pytest.mark.parametrize("rtt_us", [2, 100 * MS, 798 * MS])
def test_timeout_threshold_is_one_and_a_half_round_trips(rtt_us):
    # A repair after exactly 1.5 round trips of silence is still fast; one
    # microsecond more and it is the timer's. The handshake carries the
    # round trip.
    limit = rtt_us * 3 // 2
    handshake = [HANDSHAKE[0], dataclasses.replace(HANDSHAKE[1], t_us=rtt_us)]
    for gap, kind in ((limit, RETX_FAST), (limit + 1, RETX_TIMEOUT)):
        trace = handshake + [
            TraceEvent(rtt_us + 1, "rx", "data", 0, 100, 0, 2),
            TraceEvent(rtt_us + 2, "rx", "data", 100, 100, 0, 3),
            TraceEvent(rtt_us + 2 + gap, "rx", "data", 0, 100, 0, 4),
        ]
        assert [r.kind for r in detect_retransmissions(trace, mss=100)] == [kind]


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
    misread = []
    for scenario in MAIN_GRID:
        timer_ip_ids.clear()
        trace, _ = run_to_completion(sim_init(scenario))
        retxs = detect_retransmissions(trace, mss=100)
        for hole in sorted(SCRIPT.drop_packets):
            first = next(r for r in retxs if r.index == hole)
            by_timer = trace[first.event_index].ip_id in timer_ip_ids
            if (first.kind == RETX_TIMEOUT) != by_timer:
                misread.append((scenario, hole))
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
    assert [r.index for r in detect_retransmissions(trace, mss=100)] == [1]
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
    assert [r.event_index for r in detect_retransmissions(trace, mss=100)] == [3]


def test_lost_segment_arrives_as_unexpected_loss():
    # The default NewReno run with its 10th server segment lost on the path.
    run = run_scenario(Variant.NEWRENO, lost={10})
    report = classify_trace(run.trace, run.scenario.probe_script)
    assert report.error == ERROR_UNEXPECTED_LOSS
    (at, note), = report.evidence
    assert run.trace[at].ip_id == 11
    assert "due ip_id 10" in note


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_duplicated_arrival_is_a_reordering_naming_the_copy(default_runs, variant):
    # The default run with one data arrival delivered twice, once for each
    # arrival: the copy repeats an ip_id below the one due, a backward step.
    trace = default_runs[variant].trace
    arrivals = [at for at, ev in enumerate(trace) if ev.dir == "rx" and ev.kind == "data"]
    assert len(arrivals) >= 30
    for at in arrivals:
        report = classify_trace(trace[:at + 1] + trace[at:], SCRIPT)
        assert (report.label, report.error) == (None, ERROR_REORDERING), at
        assert [index for index, _ in report.evidence] == [at + 1]


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
            run = run_scenario(variant, lost={ip_id}, **overrides)
            report = classify_trace(run.trace, run.scenario.probe_script)
            runs += 1
            if report.error is not None:
                errors.add(report.error)
            elif report.label != variant.value:
                wrong.append((variant.value, rtt_ms, cwnd, ip_id, report.label))
    assert runs == 1581
    assert wrong == []
    assert errors == {ERROR_UNEXPECTED_LOSS}


def test_one_lost_prober_segment_never_gives_another_label():
    # Each variant's default run with one prober segment lost on the path,
    # from the handshake's ACK (ip_id 2) to the closing RST. A run that is
    # not labelled its own variant stalls: the lost handshake ACK or request
    # leaves both sides idle, and until the cap the server's timer re-sends
    # to a closed prober after a lost RST, and to one silent on copies below
    # rcv_nxt after Tahoe's and NoFastRetransmit's lost ACK at ip_id 28.
    # ROADMAP item 18's answers to both will shrink the stalled set.
    labelled, stalled = 0, {}
    for variant in Variant:
        last = max(ev.ip_id for ev in run_scenario(variant).trace if ev.dir == "tx")
        for ip_id in range(2, last + 1):
            run = run_scenario(variant, lost={ip_id}, lost_by="prober")
            report = classify_trace(run.trace, run.scenario.probe_script)
            if report.error is None:
                assert report.label == variant.value, ip_id
                labelled += 1
            else:
                stalled[variant.value, ip_id] = (report.error, run.reason)
    idle = (ERROR_INCOMPLETE, TerminationReason.QUIESCENT)
    capped = (ERROR_TRACE_OVERFLOW, TerminationReason.TRACE_OVERFLOW)
    assert labelled == 138
    assert stalled == {
        **{(variant.value, ip_id): idle for variant in Variant for ip_id in (2, 3)},
        ("Tahoe", 28): capped, ("Tahoe", 30): capped, ("NoFastRetransmit", 28): capped,
        ("NoFastRetransmit", 30): capped, ("RenoPlus", 30): capped,
    }


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
    run = run_scenario(variant, lost=drops, **overrides)
    report = classify_trace(run.trace, run.scenario.probe_script)
    if report.error is None:
        assert report.label == classify_trace(clean.trace, clean.scenario.probe_script).label


# -- a script other than the sim's ---------------------------------------------
# classify_trace takes the probe script apart from the trace it reads. With
# another script's drops the repairs it looks for are not where the trace
# has them, so the trace gets an error row or no label, never a variant's.
MISMATCH_SCRIPTS = [
    ProbeScript(drop_packets=frozenset({13, 16}), ack_limit_packet=25),
    ProbeScript(drop_packets=frozenset({5, 9}), ack_limit_packet=15),
    ProbeScript(drop_packets=frozenset({8, 12}), ack_limit_packet=20),
]


def test_another_scripts_drops_never_give_a_variant_label():
    outcomes = Counter()
    for sim_script, other in permutations(MISMATCH_SCRIPTS, 2):
        page = max(sim_script.ack_limit_packet, other.ack_limit_packet) * 100 + 1000
        for variant in Variant:
            for rtt_ms in (5, 153, 301, 449):
                for cwnd in (2, 4):
                    run = run_scenario(
                        variant,
                        rtt_ms=rtt_ms,
                        page_bytes=page,
                        sender_config=SenderConfig(initial_cwnd=cwnd),
                        probe_script=sim_script,
                    )
                    report = classify_trace(run.trace, other)
                    outcomes[report.label, report.error] += 1
    assert outcomes == {
        (LABEL_UNCLASSIFIABLE, None): 120,
        (None, ERROR_SPURIOUS_TIMEOUT): 120,
    }


# -- the script read off the trace ---------------------------------------------
# The prober answers every arrival that ends above its last ACK at once, save
# the ones it refuses, so its own records state the script it ran.


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(list(Variant)),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=10, max_value=1000),
    st.frozensets(st.integers(min_value=1, max_value=30), max_size=4),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=20),
)
def test_read_script_is_the_scenarios(variant, rtt_ms, cwnd, mss, drops, past_drops, past_limit):
    script = ProbeScript(mss, drops, max(drops, default=0) + past_drops)
    run = run_scenario(
        variant,
        rtt_ms=rtt_ms,
        page_bytes=(script.ack_limit_packet + past_limit) * mss,
        sender_config=SenderConfig(initial_cwnd=cwnd),
        probe_script=script,
    )
    assume(run.reason is TerminationReason.PROBER_CLOSED)
    read = read_script(run.trace)
    assert (read.mss, read.drop_packets) == (mss, drops)
    assert classify_trace(run.trace, read) == classify_trace(run.trace, script)


def test_read_script_labels_every_server_mss_below_the_scripts():
    # The server's segments are the numbering the trace shows: read in it,
    # each run gets its own variant's label.
    for scenario in MSS_GRID:
        trace, _ = run_to_completion(sim_init(scenario))
        read = read_script(trace)
        assert read.mss == min(scenario.sender_config.mss, scenario.probe_script.mss)
        assert classify_trace(trace, read).label == scenario.variant.value, scenario


@pytest.mark.parametrize("variant", list(Variant))
def test_read_script_of_a_prober_that_skips_answers_is_not_two_drops(default_runs, variant):
    # A prober that answers only every other arrival leaves a trace whose
    # silences read as many drops: an error row, never a label.
    trace = default_runs[variant].trace
    acks = [at for at, ev in enumerate(trace) if ev.dir == "tx" and ev.kind == "ack"]
    thinned = [ev for at, ev in enumerate(trace) if at not in acks[1::2]]
    read = read_script(thinned)
    assert 14 <= len(read.drop_packets) <= 16
    report = classify_trace(thinned, read)
    assert (report.label, report.error) == (None, ERROR_NOT_TWO_DROPS)


# -- scripts of other than two drops -------------------------------------------
# The decision table reads how exactly two refused packets were repaired. A
# script of any other number of drops gets an error row naming that, before
# its trace is read: one drop is not two, and a third one would pass for a
# repair between the two.


@st.composite
def other_drop_counts(draw) -> ProbeScript:
    size = draw(st.sampled_from([0, 1, 3]))
    packets = st.integers(min_value=2, max_value=20)
    drops = draw(st.frozensets(packets, min_size=size, max_size=size))
    ack_limit = max(drops, default=1) + draw(st.integers(min_value=1, max_value=10))
    return ProbeScript(drop_packets=drops, ack_limit_packet=ack_limit)


@settings(max_examples=60, deadline=None)
@given(
    other_drop_counts(),
    st.sampled_from(list(Variant)),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=4),
)
def test_other_drop_counts_are_never_labelled(script, variant, rtt_ms, cwnd):
    run = run_scenario(
        variant,
        rtt_ms=rtt_ms,
        page_bytes=(script.ack_limit_packet + 5) * script.mss,
        sender_config=SenderConfig(initial_cwnd=cwnd),
        probe_script=script,
    )
    assert run.reason is TerminationReason.PROBER_CLOSED
    report = classify_trace(run.trace, script)
    assert report == ClassificationReport(None, ERROR_NOT_TWO_DROPS, FeatureVector(), [])


# -- the ack limit ---------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(list(Variant)),
    st.integers(min_value=1, max_value=800),
    st.integers(min_value=1, max_value=4),
)
def test_label_does_not_depend_on_the_ack_limit(variant, rtt_ms, cwnd):
    # Refusing 13 and 16, the probe reads its label off the repairs; how
    # far it then acks the page, from 17 to the page's last packet, must
    # not change what the trace is judged to be.
    outcomes = set()
    for ack_limit in range(17, Scenario.page_bytes // SCRIPT.mss + 1):
        run = run_scenario(
            variant,
            rtt_ms=rtt_ms,
            sender_config=SenderConfig(initial_cwnd=cwnd),
            probe_script=ProbeScript(ack_limit_packet=ack_limit),
        )
        report = classify_trace(run.trace, run.scenario.probe_script)
        outcomes.add((report.label, report.error))
    assert len(outcomes) == 1, outcomes


# -- decision table ------------------------------------------------------------


def features(**kw) -> FeatureVector:
    base = dict(rtt_est=100 * MS, first_drop_repair=RETX_FAST, second_drop_repair=RETX_FAST)
    base.update(kw)
    return FeatureVector(**base)


DECISION_ROWS = [
    (features(first_drop_repair=RETX_TIMEOUT), "NoFastRetransmit"),
    (features(first_drop_repair=RETX_NONE), LABEL_UNCLASSIFIABLE),
    (features(extra_repair_between_drops=True), "RenoPlus"),
    (features(follower_repeated_after_ack=True), "Tahoe"),
    (features(second_drop_repair=RETX_TIMEOUT), "Reno"),
    (features(retransmission_count=2), "NewReno"),
    (features(retransmission_count=3), LABEL_UNCLASSIFIABLE),
    (features(second_drop_repair=RETX_NONE), LABEL_UNCLASSIFIABLE),
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
        first_drop_repair=st.sampled_from([RETX_NONE, RETX_FAST, RETX_TIMEOUT]),
        second_drop_repair=st.sampled_from([RETX_NONE, RETX_FAST, RETX_TIMEOUT]),
        follower_repeated_after_ack=st.booleans(),
        extra_repair_between_drops=st.booleans(),
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
            feats.first_drop_repair,
            feats.second_drop_repair,
            feats.follower_repeated_after_ack,
            feats.extra_repair_between_drops,
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


def test_timer_repeat_before_any_loss_is_a_spurious_timeout():
    # Packets 1-5 arrive, then packet 3 again after a long silence: the
    # prober refused nothing below 13, so the server's timer fired early.
    trace = HANDSHAKE + [rx(200 + k, 100 * k, 2 + k) for k in range(5)] + [rx(1500, 200, 7)]
    report = classify_trace(closed(trace), SCRIPT)
    assert (report.label, report.error) == (None, ERROR_SPURIOUS_TIMEOUT)
    assert report.evidence == [(7, "retransmission of packet 3 before any scripted loss")]
    # With no scripted drop the table has nothing to judge: the script is
    # refused before the repeat is looked at.
    no_drop = ProbeScript(drop_packets=frozenset())
    assert classify_trace(closed(trace), no_drop) == ClassificationReport(
        None, ERROR_NOT_TWO_DROPS, FeatureVector(), []
    )


@pytest.mark.parametrize(
    "repeat_ms, error", [(1099, ERROR_SPURIOUS_TIMEOUT), (1100, None)], ids=["timer", "fast"]
)
def test_repeat_of_a_dropped_first_packet_within_a_round_trip_is_a_spurious_timeout(
    repeat_ms, error
):
    # A 1,100 ms round trip. Packet 1, the first drop, arrives at 2,100 ms
    # with packets 2-3 behind it. Its repeat lands less than a round trip
    # after the first data only if a timer sent it, and a round trip or
    # more after if duplicate ACKs did.
    script = ProbeScript(drop_packets=frozenset({1, 4}), ack_limit_packet=10)
    trace = [
        TraceEvent(t_us=0, dir="tx", kind="syn", seq=0, len=0, ack=0, ip_id=1),
        TraceEvent(t_us=1100 * MS, dir="rx", kind="synack", seq=0, len=0, ack=1, ip_id=1),
        rx(2100, 0, 2), rx(2100, 100, 3), rx(2100, 200, 4), rx(2100 + repeat_ms, 0, 5),
    ]
    report = classify_trace(closed(trace), script)
    assert report.error == error
    if error is not None:
        assert report.evidence == [
            (5, "retransmission of packet 1 within one round trip of the first data")
        ]
    else:
        assert report.features.first_drop_repair == "fast"
    assert report == reference_report(closed(trace), script)


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
        pytest.param(Variant.NEWRENO, {"lost": {1}}, id="no-handshake"),
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


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("unfinished", ["no-close", "overflow"])
def test_features_need_a_finished_probe(default_runs, variant, unfinished):
    # The features behind a label come only from a finished probe: the
    # default trace without its closing rst, and a run that filled the
    # event cap, raise in extract_features the row classify_trace reports.
    if unfinished == "no-close":
        trace = [ev for ev in default_runs[variant].trace if ev.kind != "rst"]
        script, error = SCRIPT, ERROR_INCOMPLETE
    else:
        run = run_scenario(variant, **OVERFLOWING)
        trace, script, error = run.trace, run.scenario.probe_script, ERROR_TRACE_OVERFLOW
    with pytest.raises(classifier._Unjudgeable) as raised:
        extract_features(trace, script)
    assert raised.value.args == (error, [])
    assert classify_trace(trace, script) == ClassificationReport(None, error, FeatureVector(), [])


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
    assert payload["features"]["first_drop_repair"] == "fast"
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


def reference_rtt(trace):
    """The round trip from the first SYN the prober sent to the first
    SYN+ACK listed after it and before any data, with a later ``t_us``;
    None without that pair."""
    syns = [position for position, ev in enumerate(trace) if ev.dir == "tx" and ev.kind == "syn"]
    if not syns:
        return None
    data = [position for position, ev in enumerate(trace) if ev.dir == "rx" and ev.kind == "data"]
    syn = trace[syns[0]]
    for ev in trace[syns[0] + 1:min(data + [len(trace)])]:
        if ev.dir == "rx" and ev.kind == "synack" and ev.t_us > syn.t_us:
            return ev.t_us - syn.t_us
    return None


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
    """The classifier's report built from the reference scans: a NotTwoDrops
    row for a script of other than two drops, then None without an rtt or
    on a broken path, a SpuriousTimeout row on a repeat below the first
    drop."""
    if len(script.drop_packets) != 2:
        return ClassificationReport(None, ERROR_NOT_TWO_DROPS, FeatureVector(), [])
    rtt = reference_rtt(trace)
    if rtt is None or reference_break(trace) is not None:
        return None
    first_drop, last_drop = min(script.drop_packets), max(script.drop_packets)
    follower = last_drop + 1
    retxs = reference_retransmissions(trace, rtt, mss=script.mss)
    for r in retxs:
        # The prober refused nothing below its first drop: a repeat there
        # is a timer that fired before any loss.
        if r.index < first_drop:
            note = f"retransmission of packet {r.index} before any scripted loss"
            return ClassificationReport(
                None, ERROR_SPURIOUS_TIMEOUT, FeatureVector(), [(r.event_index, note)]
            )
    # A repeat of packet 1 less than a round trip after the first data is
    # a timer's, whatever the first drop: a fast repair takes a round trip.
    first_data = [ev.t_us for ev in trace if ev.dir == "rx" and ev.kind == "data"]
    for r in retxs:
        if r.index == 1 and r.t_us - first_data[0] < rtt:
            note = "retransmission of packet 1 within one round trip of the first data"
            return ClassificationReport(
                None, ERROR_SPURIOUS_TIMEOUT, FeatureVector(), [(r.event_index, note)]
            )
    evidence = [
        (r.event_index, f"retransmission of packet {r.index} ({r.kind})") for r in retxs
    ]

    def first_retx(index):
        return next((r for r in retxs if r.index == index), None)

    feats = FeatureVector(rtt_est=rtt, retransmission_count=len(retxs))
    r13 = first_retx(first_drop)
    r16 = first_retx(last_drop)
    if r13 is not None:
        feats.first_drop_repair = r13.kind
        if r16 is not None:
            feats.second_drop_repair = r16.kind
            feats.extra_repair_between_drops = any(
                r.index not in (first_drop, last_drop)
                and r13.event_index < r.event_index < r16.event_index
                for r in retxs
            )
    follower_end = follower * script.mss
    for r in retxs:
        if r.index == follower and any(
            ev.dir == "tx" and ev.kind == "ack" and ev.ack >= follower_end
            for ev in trace[: r.event_index]
        ):
            feats.follower_repeated_after_ack = True
            evidence.append(
                (r.event_index, f"packet {follower} arrived again after being ack-covered")
            )
            break
    return ClassificationReport(classify(feats), None, feats, evidence)


def test_touching_arrivals_do_not_overlap():
    # [0, 100) then [100, 200): no shared byte, so no repair; one byte lower
    # they overlap, and one byte higher they leave a gap on the path.
    touching = HANDSHAKE + [rx(200, 0, 2), rx(300, 100, 3)]
    assert detect_retransmissions(touching, mss=100) == []
    overlapping = HANDSHAKE + [rx(200, 0, 2), rx(300, 99, 3)]
    assert [r.event_index for r in detect_retransmissions(overlapping, mss=100)] == [3]
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


# Openings with no round trip: the SYN+ACK at the SYN's t_us, listed
# after it or before it.
MALFORMED = {
    "synack-at-syn": synack_at_syn_time(HANDSHAKE, before=False),
    "synack-first": synack_at_syn_time(HANDSHAKE, before=True),
}


@st.composite
def probe_traces(draw) -> list[TraceEvent]:
    trace = []
    t = 0
    opening = draw(st.sampled_from(["handshake"] * 3 + ["request", "none", *MALFORMED]))
    if opening == "handshake":
        t = draw(st.integers(min_value=1, max_value=300)) * MS
        trace += [
            TraceEvent(t_us=0, dir="tx", kind="syn", seq=0, len=0, ack=0, ip_id=1),
            TraceEvent(t_us=t, dir="rx", kind="synack", seq=0, len=0, ack=1, ip_id=1),
        ]
    elif opening in MALFORMED:
        trace += MALFORMED[opening]
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
        # No packet below the first drop, so only a repeat of packet 1
        # within a round trip of the first data is a SpuriousTimeout:
        # other random repairs reach the features.
        ProbeScript(drop_packets=frozenset({1, 4})),
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
# A SYN+ACK at the SYN's t_us, listed after it or before it: no round trip.
@example(MALFORMED["synack-at-syn"] + [rx(200, 0, 2), rx(300, 100, 3), rx(400, 0, 4)], SCRIPT)
@example(MALFORMED["synack-first"] + [rx(200, 0, 2), rx(300, 100, 3), rx(400, 0, 4)], SCRIPT)
def test_coverage_index_matches_quadratic_reference(trace, script):
    expected = reference_report(trace, script)
    if expected is not None and expected.error == ERROR_NOT_TWO_DROPS:
        # The script is refused before the trace is read, broken or not.
        assert classify_trace(closed(trace), script) == expected
        return
    if expected is None:
        # No handshake or a broken path: an error row, naming the break.
        report = classify_trace(closed(trace), script)
        assert report.label is None
        if reference_rtt(trace) is None:
            assert report.error == ERROR_INCOMPLETE
        else:
            assert report.error in (ERROR_REORDERING, ERROR_UNEXPECTED_LOSS)
            assert [index for index, _ in report.evidence] == [reference_break(trace)]
        return
    assert detect_retransmissions(trace, mss=script.mss) == reference_retransmissions(
        trace, reference_rtt(trace), mss=script.mss
    )
    assert detect_reordering(trace) is None
    if expected.error is not None:
        assert classify_trace(closed(trace), script) == expected
        return
    assert extract_features(closed(trace), script) == (expected.features, expected.evidence)


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


# Every (owner, name) pair the benchmark's tracer patches, in every run.
TRACED = [
    (netsim, "sim_init"),
    (netsim, "run_to_completion"),
    (netsim.HttpServerEndpoint, "handle_segment"),
    (netsim.HttpServerEndpoint, "on_timer"),
    (Sender, "on_ack"),
    (Sender, "pump_transmissions"),
    (Sender, "on_rto"),
    (ProbeSession, "start"),
    (ProbeSession, "handle_segment"),
    (classifier, "classify_trace"),
    (classifier, "extract_features"),
    (classifier, "detect_retransmissions"),
    (classifier, "detect_reordering"),
    (traceio, "write_trace"),
    (traceio, "read_trace"),
    (traceio, "emit_plot_points"),
    (wire.Segment, "__init__"),
]


def traced_id(owner, name) -> str:
    if owner is netsim.HttpServerEndpoint and name in ("handle_segment", "on_timer"):
        return f"HttpServerEndpoint.{name}"  # the server's entry points, by their second name
    return f"{owner.__name__}.{name}"


@pytest.mark.parametrize("owner, name", TRACED, ids=[traced_id(*pair) for pair in TRACED])
def test_traced_names_stay_functions_of_their_owner(owner, name):
    # The tracer replaces each through its owner's own namespace.
    assert inspect.isfunction(vars(owner)[name])


def test_session_counts_the_dupacks_it_sends(default_runs):
    # The benchmark's tracer reads this count off the world after each run.
    run = default_runs[Variant.RENO]
    dupacks = tx_acks(run.trace)
    dupacks = sum(cur.ack == prev.ack for prev, cur in zip(dupacks, dupacks[1:]))
    assert run.world.prober.dupacks_sent == dupacks > 0


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
