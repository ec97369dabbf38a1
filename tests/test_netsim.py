"""Simulator tests: scenario validation, the server endpoint, and full runs.

End-to-end expectations (arrival times, termination reasons, delivered
byte spans) were derived by hand from the variant rules and the fixed
rtt/2 link before implementation, then frozen here.
"""

import pytest

from ccprobe import (
    ConfigurationError,
    ProbeScript,
    Scenario,
    SenderConfig,
    TerminationReason,
    Variant,
    classify_trace,
    run_to_completion,
    sim_init,
)
from ccprobe.netsim import HttpServerEndpoint
from ccprobe.wire import Flag, Segment

from conftest import delivered_union, run_scenario, rx_data, trace_text, tx_acks

MS = 1000


def prober_segment(flags=Flag.ACK, length=0, ip_id=1, mss_option=None) -> Segment:
    return Segment(
        seq=0,
        len=length,
        ack=0,
        flags=flags,
        ip_id=ip_id,
        mss_option=mss_option,
    )


# -- scenario validation -----------------------------------------------------


def test_default_scenario_validates():
    Scenario(variant=Variant.NEWRENO).validate()


def test_page_too_small_for_script():
    with pytest.raises(ConfigurationError):
        sim_init(Scenario(variant=Variant.NEWRENO, page_bytes=1000))


def test_deadline_must_exceed_ten_round_trips():
    with pytest.raises(ConfigurationError):
        sim_init(Scenario(variant=Variant.NEWRENO, rtt_ms=100, run_deadline_ms=50))


def test_rtt_must_be_positive():
    with pytest.raises(ConfigurationError):
        sim_init(Scenario(variant=Variant.NEWRENO, rtt_ms=0))


def test_sim_init_schedules_single_opening_event():
    world = sim_init(Scenario(variant=Variant.NEWRENO))
    assert world.clock == 0
    assert len(world._queue) == 1
    assert world._queue[0][0] == 0


# -- server endpoint ----------------------------------------------------------


def fresh_server(page=3000) -> HttpServerEndpoint:
    return HttpServerEndpoint(SenderConfig(), Variant.NEWRENO, page)


def test_syn_answered_with_synack_echoing_smaller_mss():
    server = fresh_server()
    out = server.handle_segment(prober_segment(Flag.SYN, mss_option=100), 0)
    assert len(out) == 1
    assert out[0].flags == Flag.SYN | Flag.ACK
    assert out[0].ack == 0  # the handshake consumes no sequence space
    assert out[0].mss_option == 100  # min(own 1460, offered 100)
    assert server.sender.mss == 100


def test_request_triggers_initial_window_of_two():
    server = fresh_server()
    server.handle_segment(prober_segment(Flag.SYN, mss_option=100), 0)
    server.handle_segment(prober_segment(Flag.ACK, ip_id=2), 50)
    out = server.handle_segment(prober_segment(Flag.ACK, length=100, ip_id=3), 50)
    assert [(seg.seq, seg.len) for seg in out] == [(0, 100), (100, 100)]
    assert [seg.ack for seg in out] == [100, 100]  # the request is acked


def test_payload_before_handshake_or_second_request_is_ignored():
    server = fresh_server()
    out = server.handle_segment(prober_segment(Flag.ACK, length=100), 0)
    assert out == []
    assert (server.phase, server.sender) == ("listen", None)
    server.handle_segment(prober_segment(Flag.SYN, mss_option=100), 0)
    server.handle_segment(prober_segment(Flag.ACK, ip_id=2), 50)
    server.handle_segment(prober_segment(Flag.ACK, length=100, ip_id=3), 50)
    sent = (server.sender.snd_una, server.sender.snd_nxt, server.sender.app_limit)
    out = server.handle_segment(prober_segment(Flag.ACK, length=100, ip_id=4), 60)
    assert out == []
    assert (server.sender.snd_una, server.sender.snd_nxt, server.sender.app_limit) == sent


def test_reset_halts_server_forever():
    server = fresh_server()
    server.handle_segment(prober_segment(Flag.SYN, mss_option=100), 0)
    server.handle_segment(prober_segment(Flag.ACK, ip_id=2), 50)
    server.handle_segment(prober_segment(Flag.ACK, length=100, ip_id=3), 50)
    out = server.handle_segment(prober_segment(Flag.RST, ip_id=4), 60)
    assert out == []
    assert server.halted
    out = server.handle_segment(prober_segment(Flag.ACK, ip_id=5), 70)
    assert out == []
    assert server.rto_deadline is None  # timer silenced with the endpoint


# -- full runs ----------------------------------------------------------------


def test_all_default_runs_close_via_prober(default_runs):
    for run in default_runs.values():
        assert run.reason is TerminationReason.PROBER_CLOSED


def test_handshake_and_first_round_timing(default_runs):
    # SYN at 0, SYN+ACK one full rtt later, first data after two.
    trace = default_runs[Variant.NEWRENO].trace
    assert (trace[0].kind, trace[0].t_us) == ("syn", 0)
    assert (trace[1].kind, trace[1].t_us) == ("synack", 100 * MS)
    first_data = rx_data(trace)[0]
    assert first_data.t_us == 200 * MS
    assert (first_data.seq, first_data.len) == (0, 100)


def test_link_latency_is_exactly_half_rtt():
    # NewReno's default run never waits on a timer, so every event time is
    # a whole number of one-way hops from the opening SYN at t=0.
    for rtt_ms in (10, 50, 100):
        run = run_scenario(Variant.NEWRENO, rtt_ms=rtt_ms)
        assert run.trace[1].t_us == rtt_ms * MS  # SYN+ACK after one round trip
        one_way = rtt_ms * MS // 2
        assert all(ev.t_us % one_way == 0 for ev in run.trace)


def test_clock_monotonic_across_trace(default_runs):
    for run in default_runs.values():
        times = [ev.t_us for ev in run.trace]
        assert times == sorted(times)


def test_deterministic_bit_identical_traces():
    first = trace_text(run_scenario(Variant.TAHOE).trace)
    second = trace_text(run_scenario(Variant.TAHOE).trace)
    assert first == second


def test_conservation_delivered_equals_emitted(default_runs):
    # The link is lossless: every byte the sender emitted arrives exactly
    # once as a distinct range, even the post-close stragglers.
    for run in default_runs.values():
        emitted_high = run.world.server.sender._max_sent
        assert delivered_union(run.trace) == [(0, emitted_high)]


def test_full_page_delivered_when_sender_finishes(default_runs):
    # Variants that repair fast enough push the whole page before the
    # prober's scripted close can cut them off.
    for variant in (Variant.NEWRENO, Variant.RENO, Variant.RENO_PLUS):
        assert delivered_union(default_runs[variant].trace) == [(0, 3000)]


def test_timer_driven_runs_end_much_later(default_runs):
    fast_end = default_runs[Variant.NEWRENO].trace[-1].t_us
    for variant in (Variant.RENO, Variant.NO_FAST_RETRANSMIT):
        slow_end = default_runs[variant].trace[-1].t_us
        assert slow_end - fast_end >= 900 * MS  # a timer wait, not a round trip


def test_deadline_exceeded_when_timer_cannot_fire_in_time():
    # At rtt=1ms the only repair for the first drop is the 1000ms timer,
    # far beyond a 12ms deadline (which still passes validation).
    scenario = Scenario(variant=Variant.NO_FAST_RETRANSMIT, rtt_ms=1, run_deadline_ms=12)
    _, reason = run_to_completion(sim_init(scenario))
    assert reason is TerminationReason.DEADLINE_EXCEEDED


def test_quiescent_when_handshake_never_completes():
    # Swallowing the SYN+ACK (server ip_id 1) leaves both sides idle with
    # no timer armed: the world drains to quiescence, not a close.
    scenario = Scenario(variant=Variant.NEWRENO, ambient_drops=frozenset({1}))
    world = sim_init(scenario)
    trace, reason = run_to_completion(world)
    assert reason is TerminationReason.QUIESCENT
    assert world.prober.phase == "syn_sent"
    assert [ev.kind for ev in trace] == ["syn"]


def test_ambient_data_drop_is_repaired_and_run_completes():
    scenario = Scenario(variant=Variant.NEWRENO, ambient_drops=frozenset({5}))
    world = sim_init(scenario)
    trace, reason = run_to_completion(world)
    assert reason is TerminationReason.PROBER_CLOSED
    emitted_high = world.server.sender._max_sent
    assert delivered_union(trace) == [(0, emitted_high)]


# -- probe outcome, as classify_trace reads it off the trace -------------------


def test_simulated_probe_completes():
    scenario = Scenario(variant=Variant.NEWRENO)
    world = sim_init(scenario)
    trace, reason = run_to_completion(world)
    assert world.prober.phase == "closed"
    assert reason is TerminationReason.PROBER_CLOSED
    assert trace[-1].t_us == 700 * MS
    assert classify_trace(trace, scenario.probe_script).label == "NewReno"


def test_quiescent_handshake_outcome_is_timeout():
    scenario = Scenario(variant=Variant.NEWRENO, ambient_drops=frozenset({1}))
    world = sim_init(scenario)
    trace, _ = run_to_completion(world)
    assert world.prober.phase == "syn_sent"
    assert classify_trace(trace, scenario.probe_script).error == "Incomplete"
