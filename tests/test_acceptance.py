"""Release gate: the end-to-end behaviors this package promises.

Each test wraps one promise in the `acceptance` fixture so the pytest
summary ends with one visible PASS/FAIL line per criterion. Everything
here is deterministic; numbers in assertions (round tables, 900 ms
silence floors, the 3-rtt repair budget) are the frozen hand-derived
values the implementation must reproduce, not values read back from it.

One scoping note: the probe script closes the connection once packet 25
is covered, so the two slow variants (Tahoe, NoFastRetransmit) never get
to emit the last of the page in the default scenario. Delivery checks
therefore compare against what the sender emitted, byte for byte exactly
once, and additionally require the full page wherever the sender does
finish (the other three variants, and every no-drop run).
"""

import re
import time

import pytest

from ccprobe import (
    ProbeScript,
    Scenario,
    SenderConfig,
    Variant,
    classify_trace,
    run_to_completion,
    sim_init,
)
from ccprobe.classifier import (
    RETX_FAST,
    RETX_TIMEOUT,
    detect_retransmissions,
    estimate_rtt,
    extract_features,
)
from ccprobe.cli import main as cli_main
from ccprobe.prober import EVENT_CAP
from ccprobe.sender import Sender
from ccprobe.traceio import TraceEvent, emit_plot_points, read_trace

from conftest import MSS, PAGE, delivered_union, run_scenario, rx_data, trace_text, tx_acks
from test_sender import RoundDriver

MS = 1000
RTT_US = 100 * MS
SWEEP_RTTS = (10, 50, 100, 200)
HAND_ROUND_TABLE = (2, 4, 8, 16)  # initial window 2, doubling; 30 segments = page


def label_of(run) -> str:
    report = classify_trace(run.trace, run.scenario.probe_script)
    assert report.error is None, report.error
    return report.label


def retx_list(trace):
    return detect_retransmissions(trace, estimate_rtt(trace), mss=MSS)


def arrivals_of(trace, index):
    lo, hi = (index - 1) * MSS, index * MSS
    return [ev for ev in rx_data(trace) if ev.seq < hi and ev.seq + ev.len > lo]


# -- extra scenario sets (module scope: each run is deterministic) --------


@pytest.fixture(scope="module")
def sweep_runs():
    return {
        (rtt, variant): run_scenario(variant, rtt_ms=rtt)
        for rtt in SWEEP_RTTS
        for variant in Variant
    }


@pytest.fixture(scope="module")
def boundary_runs():
    return {variant: run_scenario(variant, rtt_ms=500) for variant in Variant}


@pytest.fixture(scope="module")
def nodrop_runs():
    script = ProbeScript(drop_packets=frozenset())
    return {
        variant: run_scenario(variant, probe_script=script) for variant in Variant
    }


@pytest.fixture(scope="module")
def all_runs(default_runs, sweep_runs, boundary_runs, nodrop_runs):
    return (
        list(default_runs.values())
        + list(sweep_runs.values())
        + list(boundary_runs.values())
        + list(nodrop_runs.values())
    )


# -- criteria --------------------------------------------------------------


def test_confusion_matrix_identity(acceptance, capsys):
    with acceptance("matrix: all five variants identified, deterministic, < 5s wall"):
        started = time.monotonic()
        code = cli_main(["matrix"])
        elapsed = time.monotonic() - started
        first = capsys.readouterr().out
        assert code == 0
        assert "identity=yes" in first
        assert "runs=5" in first
        assert elapsed < 5.0
        assert cli_main(["matrix"]) == 0
        second = capsys.readouterr().out
        mask = lambda text: re.sub(r"elapsed=[0-9.]+s", "elapsed=?", text)
        assert mask(first) == mask(second)


def test_signature_newreno(acceptance, default_runs):
    trace = default_runs[Variant.NEWRENO].trace
    with acceptance("signature NewReno: two fast repairs (13, 16), no second 17"):
        features, _ = extract_features(
            trace, default_runs[Variant.NEWRENO].scenario.probe_script
        )
        assert [(r.index, r.kind) for r in retx_list(trace)] == [
            (13, RETX_FAST),
            (16, RETX_FAST),
        ]
        assert features.retransmission_count == 2
        assert len(arrivals_of(trace, 17)) == 1


def test_signature_reno(acceptance, default_runs):
    trace = default_runs[Variant.RENO].trace
    with acceptance("signature Reno: repair of 16 follows >= 900 ms sender silence"):
        retx16 = next(r for r in retx_list(trace) if r.index == 16)
        assert retx16.kind == RETX_TIMEOUT
        before = [
            ev
            for position, ev in enumerate(trace)
            if position < retx16.event_index
            and ev.dir == "rx"
            and ev.kind == "data"
        ]
        assert retx16.t_us - before[-1].t_us >= 900 * MS


def test_signature_tahoe(acceptance, default_runs):
    trace = default_runs[Variant.TAHOE].trace
    with acceptance("signature Tahoe: 17 arrives twice; 13 repaired within 3 rtt"):
        assert len(arrivals_of(trace, 17)) == 2
        retx13 = next(r for r in retx_list(trace) if r.index == 13)
        # acks stuck at the hole before packet 13: first is the fresh ack,
        # the rest are duplicates, so the third duplicate is occurrence 4
        hole = 12 * MSS
        stuck = [ev.t_us for ev in tx_acks(trace) if ev.ack == hole]
        third_dup_t = stuck[3]
        assert retx13.t_us - third_dup_t <= 3 * RTT_US  # no timer wait first


def test_signature_no_fast_retransmit(acceptance, default_runs):
    trace = default_runs[Variant.NO_FAST_RETRANSMIT].trace
    with acceptance("signature NoFastRetransmit: 13 repaired only after >= 900 ms"):
        retx13 = next(r for r in retx_list(trace) if r.index == 13)
        assert retx13.kind == RETX_TIMEOUT
        before = [
            ev
            for position, ev in enumerate(trace)
            if position < retx13.event_index
            and ev.dir == "rx"
            and ev.kind == "data"
        ]
        assert retx13.t_us - before[-1].t_us >= 900 * MS


def test_signature_reno_plus(acceptance, default_runs):
    trace = default_runs[Variant.RENO_PLUS].trace
    with acceptance("signature RenoPlus: extra repairs strictly between 13 and 16"):
        retxs = retx_list(trace)
        pos13 = next(r.event_index for r in retxs if r.index == 13)
        pos16 = next(r.event_index for r in retxs if r.index == 16)
        between = [
            r.index
            for r in retxs
            if pos13 < r.event_index < pos16 and r.index not in (13, 16)
        ]
        assert len(between) >= 1


def test_timing_invariance(acceptance, sweep_runs, boundary_runs):
    with acceptance(
        "timing invariance: labels stable over rtt {10,50,100,200} (20 runs)"
    ):
        assert len(sweep_runs) == 20
        for (_, variant), run in sweep_runs.items():
            assert label_of(run) == variant.value
    with acceptance(
        "rtt 500 ms boundary: timer-only sender reads as Tahoe, others stable"
    ):
        # At rtt=500ms the 1s timer floor is only 2x the round trip, under
        # the 3x a silence gap needs to register as a timer expiry.
        expected = {
            Variant.TAHOE: "Tahoe",
            Variant.RENO: "Reno",
            Variant.NEWRENO: "NewReno",
            Variant.NO_FAST_RETRANSMIT: "Tahoe",
            Variant.RENO_PLUS: "RenoPlus",
        }
        for variant, run in boundary_runs.items():
            assert label_of(run) == expected[variant]


def test_sender_dynamics(acceptance, nodrop_runs):
    with acceptance(
        "sender dynamics: no-drop rounds 2,4,8,16; flight <= window every step"
    ):
        for variant, run in nodrop_runs.items():
            counts = {}
            for ev in rx_data(run.trace):
                counts[ev.t_us] = counts.get(ev.t_us, 0) + 1
            per_round = tuple(counts[t] for t in sorted(counts))
            assert per_round == HAND_ROUND_TABLE, variant.value
            # RoundDriver re-runs the same no-drop transfer against the
            # sender alone, asserting flight <= effective window after
            # every single pump and ack it processes.
            driver = RoundDriver(Sender(SenderConfig(mss=MSS), variant))
            driver.sender.enqueue_app_data(PAGE)
            assert driver.run().counts == list(HAND_ROUND_TABLE)


def test_conservation_and_monotonicity(acceptance, all_runs):
    with acceptance(
        "conservation: delivered == emitted exactly once; acks, clocks monotone"
    ):
        assert len(all_runs) == 35
        for run in all_runs:
            emitted_high = run.world.server.sender._max_sent
            assert delivered_union(run.trace) == [(0, emitted_high)]
            acks = [ev.ack for ev in tx_acks(run.trace)]
            assert acks == sorted(acks)
            times = [ev.t_us for ev in run.trace]
            assert times == sorted(times)
    with acceptance("conservation: full page delivered whenever the sender finishes"):
        finishers = [
            run
            for run in all_runs
            if not run.scenario.probe_script.drop_packets
            or run.scenario.variant
            in (Variant.NEWRENO, Variant.RENO, Variant.RENO_PLUS)
        ]
        assert len(finishers) >= 20
        for run in finishers:
            assert delivered_union(run.trace) == [(0, PAGE)]


def test_trace_round_trip_and_plot_counts(acceptance, all_runs):
    with acceptance("serialization: read(write(trace)) == trace; plot rows match"):
        for run in all_runs:
            assert read_trace(trace_text(run.trace)) == run.trace
            points = emit_plot_points(run.trace)
            assert len(points) == len(rx_data(run.trace)) + len(tx_acks(run.trace))


def test_error_taxonomy(acceptance, default_runs):
    script = ProbeScript()
    with acceptance(
        "errors: reordered -> Reordering, truncated -> Incomplete, cap -> TraceOverflow"
    ):
        reordered = [
            TraceEvent(t_us=0, dir="tx", kind="syn", seq=0, len=0, ack=0, ip_id=1),
            TraceEvent(
                t_us=100 * MS, dir="rx", kind="synack", seq=0, len=0, ack=1, ip_id=1
            ),
            TraceEvent(
                t_us=200 * MS, dir="rx", kind="data", seq=100, len=100, ack=0, ip_id=3
            ),
            TraceEvent(
                t_us=200 * MS, dir="rx", kind="data", seq=0, len=100, ack=0, ip_id=2
            ),
            TraceEvent(
                t_us=200 * MS, dir="tx", kind="rst", seq=100, len=0, ack=0, ip_id=4
            ),
        ]
        assert classify_trace(reordered, script).error == "Reordering"
        assert classify_trace(reordered[:-1], script).error == "Incomplete"

        truncated = default_runs[Variant.NEWRENO].trace[:1]
        assert classify_trace(truncated, script).error == "Incomplete"

        # A 2,000-packet page acked up to packet 1,900 fills the event cap.
        scenario = Scenario(
            variant=Variant.NEWRENO,
            rtt_ms=10,
            page_bytes=200_000,
            probe_script=ProbeScript(ack_limit_packet=1900),
        )
        world = sim_init(scenario)
        trace, _ = run_to_completion(world)
        assert world.prober.overflowed
        assert len(trace) == EVENT_CAP
        report = classify_trace(trace, scenario.probe_script)
        assert report.error == "TraceOverflow"
