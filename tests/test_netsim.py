"""Simulator tests: scenario validation, the server endpoint, and full runs.

End-to-end expectations (arrival times, termination reasons, delivered
byte spans) were derived by hand from the variant rules and the fixed
rtt/2 link before implementation, then frozen here.
"""

import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccprobe import (
    ConfigurationError,
    InternalError,
    ProbeScript,
    Scenario,
    SenderConfig,
    TerminationReason,
    Variant,
    classify_trace,
    run_to_completion,
    sim_init,
)
from ccprobe import classifier, netsim
from ccprobe.netsim import EVENT_CAP, PROBER, SERVER
from ccprobe.prober import ProbeSession
from ccprobe.sender import Sender
from ccprobe.traceio import TraceEvent

from conftest import acks, delivered_union, outcome, run_scenario, rx_data, trace_text
from test_golden import LONG_PAGE
from test_prober import any_kind

MS = 1000


def prober_segment(kind="ack", length=0, ip_id=1) -> TraceEvent:
    return TraceEvent(0, "tx", kind, 0, length, 0, ip_id)


# -- scenario validation -----------------------------------------------------


def test_default_scenario_validates():
    # A scenario checks itself, and its two configs, when built.
    scenario = Scenario(variant=Variant.NEWRENO)
    assert sim_init(scenario).scenario is scenario


def test_page_too_small_for_script():
    with pytest.raises(ConfigurationError):
        sim_init(Scenario(variant=Variant.NEWRENO, page_bytes=1000))


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_page_of_exactly_the_ack_limit_closes_with_its_label(variant):
    # The prober closes once its cumulative ACK reaches ack_limit * mss, so
    # a page of exactly that many bytes lets it finish; a byte less cannot.
    script = ProbeScript()
    page = script.ack_limit_packet * script.mss
    run = run_scenario(variant, page_bytes=page)
    assert run.reason is TerminationReason.PROBER_CLOSED
    assert classify_trace(run.trace, script).label == variant.value
    with pytest.raises(ConfigurationError, match="^page too small"):
        Scenario(variant=variant, page_bytes=page - 1)


def test_rtt_must_be_positive():
    with pytest.raises(ConfigurationError):
        sim_init(Scenario(variant=Variant.NEWRENO, rtt_ms=0))


def test_no_positive_rtt_is_too_long_to_run():
    # Nothing ties the round trip to a deadline: a 10-minute RTT validates,
    # and each variant's run closes with the row of any RTT above the 1 s RTO.
    for variant in Variant:
        scenario = Scenario(variant=variant, rtt_ms=600_000)
        trace, reason = run_to_completion(sim_init(scenario))
        assert reason is TerminationReason.PROBER_CLOSED
        report = classify_trace(trace, scenario.probe_script)
        assert (report.label, report.error) == (None, "SpuriousTimeout")


def test_sim_init_schedules_single_opening_event():
    # The prober's SYN, sent at t=0, is an ordinary entry due at the server
    # one way later (rtt 100 ms).
    world = sim_init(Scenario(variant=Variant.NEWRENO))
    assert world.clock == 0
    [(when, dest, segments)] = world._queue
    assert (when, dest) == (50 * MS, SERVER)
    assert segments == [TraceEvent(0, "tx", "syn", 0, 0, 0, 1)]
    assert world.prober.trace == segments and world.prober.trace[0] is segments[0]


@pytest.mark.parametrize(
    "server_mss, script_mss, negotiated",
    [(1460, 100, 100), (50, 100, 50), (1460, 1460, 1460)],
    ids=["script-smaller", "server-smaller", "equal"],
)
def test_server_mss_is_capped_at_the_script_mss(server_mss, script_mss, negotiated):
    # The world hands the server min(its MSS, the script's), as a SYN's MSS
    # option would, and the first segment of the page is that long.
    script = ProbeScript(mss=script_mss)
    run = run_scenario(
        Variant.NEWRENO,
        page_bytes=(script.ack_limit_packet + 1) * script_mss,
        sender_config=SenderConfig(mss=server_mss),
        probe_script=script,
    )
    assert run.world.server.mss == negotiated
    assert rx_data(run.trace)[0].len == negotiated


# -- server endpoint ----------------------------------------------------------


ONE_WAY_US = 50 * MS


def test_the_world_builds_one_server_object():
    # The server is the sender itself, which keeps the page and the
    # handshake's phase; the endpoint's class name is only a second name.
    world = sim_init(Scenario(variant=Variant.RENO, page_bytes=4000))
    assert netsim.HttpServerEndpoint is Sender
    assert type(world.server) is Sender and not hasattr(world.server, "sender")
    assert world.server.page_bytes == 4000


def fresh_server(page=3000) -> Sender:
    return Sender(SenderConfig(mss=100), Variant.NEWRENO, ONE_WAY_US, page)


def test_syn_answered_with_synack_stamped_with_its_arrival():
    server = fresh_server()
    out = server.handle_segment([prober_segment("syn")], 10 * MS)
    # The handshake consumes no sequence space; the SYN+ACK is the record
    # the prober will log, due one way after it leaves.
    assert out == [TraceEvent(60 * MS, "rx", "synack", 0, 0, 0, 1)]
    assert server.mss == 100


def test_request_triggers_initial_window_of_two():
    server = fresh_server()
    server.handle_segment([prober_segment("syn")], 0)
    server.handle_segment([prober_segment(ip_id=2)], 50)
    out = server.handle_segment([prober_segment("data", length=100, ip_id=3)], 50)
    assert [(seg.seq, seg.len) for seg in out] == [(0, 100), (100, 100)]
    assert [seg.ack for seg in out] == [100, 100]  # the request is acked
    assert {(seg.t_us, seg.dir, seg.kind) for seg in out} == {(50 + ONE_WAY_US, "rx", "data")}


def test_payload_before_handshake_or_second_request_is_ignored():
    server = fresh_server()
    untouched = vars(server).copy()
    out = server.handle_segment([prober_segment("data", length=100)], 0)
    assert out == []
    assert server.phase == "listen" and vars(server) == untouched
    server.handle_segment([prober_segment("syn")], 0)
    server.handle_segment([prober_segment(ip_id=2)], 50)
    server.handle_segment([prober_segment("data", length=100, ip_id=3)], 50)
    sent = (server.snd_una, server.snd_nxt, server.app_limit)
    out = server.handle_segment([prober_segment("data", length=100, ip_id=4)], 60)
    assert out == []
    assert (server.snd_una, server.snd_nxt, server.app_limit) == sent


def test_reset_halts_server_forever():
    server = fresh_server()
    server.handle_segment([prober_segment("syn")], 0)
    server.handle_segment([prober_segment(ip_id=2)], 50)
    server.handle_segment([prober_segment("data", length=100, ip_id=3)], 50)
    out = server.handle_segment([prober_segment("rst", ip_id=4)], 60)
    assert out == []
    assert server.phase == "closed"
    out = server.handle_segment([prober_segment(ip_id=5)], 70)
    assert out == []
    assert server.rto_deadline is None  # timer silenced with the endpoint


# -- full runs ----------------------------------------------------------------


def test_all_default_runs_close_via_prober(default_runs):
    for run in default_runs.values():
        assert run.reason is TerminationReason.PROBER_CLOSED


def test_every_default_run_ends_with_the_timer_disarmed(default_runs):
    # The prober's close reaches the server and disarms the sender's timer,
    # also where data is still in flight then (Tahoe, NoFastRetransmit and
    # RenoPlus), so the sender's own deadline is the run loop's one gate.
    for variant, run in default_runs.items():
        assert run.world.server.phase == "closed", variant
        assert run.world.server.rto_deadline is None, variant


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_trace_holds_each_record_that_crossed_the_link(variant):
    # One record per segment: the trace's tx events are the very objects the
    # server received, its rx events the ones the server sent, in link order.
    # The link is lossless and the run drains its queue, so nothing is left out.
    world = sim_init(Scenario(variant=variant))
    received, sent = [], []
    for name in ("handle_segment", "on_timer"):
        def logged(*args, method=getattr(world.server, name)):
            if len(args) == 2:
                received.extend(args[0])
            out = method(*args)
            sent.extend(out)
            return out

        setattr(world.server, name, logged)
    trace, reason = run_to_completion(world)
    assert reason is TerminationReason.PROBER_CLOSED
    assert [id(ev) for ev in trace if ev.dir == "tx"] == list(map(id, received))
    assert [id(ev) for ev in trace if ev.dir == "rx"] == list(map(id, sent))
    assert len(set(map(id, trace))) == len(trace)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_each_server_answer_stamps_its_data_with_one_time(variant):
    # The sender computes an answer's arrival time once and stamps every
    # record of it with that one int, re-sends and the timer's repair
    # included, so a held trace keeps one t_us object per answer at most.
    world = sim_init(Scenario(variant=variant, **LONG_PAGE))
    answers = [0]
    for name in ("handle_segment", "on_timer"):
        def counted(*args, method=getattr(world.server, name)):
            out = method(*args)
            answers[0] += bool(out)
            return out

        setattr(world.server, name, counted)
    trace, reason = run_to_completion(world)
    assert reason is TerminationReason.PROBER_CLOSED
    data = rx_data(trace)
    assert len({id(ev.t_us) for ev in data}) <= answers[0] < len(data)


def test_handshake_and_first_round_timing(default_runs):
    # SYN at 0, SYN+ACK one full rtt later, first data after two.
    trace = default_runs[Variant.NEWRENO].trace
    assert (trace[0].kind, trace[0].t_us) == ("syn", 0)
    assert (trace[1].kind, trace[1].t_us) == ("synack", 100 * MS)
    first_data = rx_data(trace)[0]
    assert first_data.t_us == 200 * MS
    assert (first_data.seq, first_data.len) == (0, 100)


# Pages and the scripts that fit them: the default, a long page, and pages
# of 4, 4.5 and 12.34 segments, the first two shorter than the largest window.
FIRST_FLIGHT_PAGES = [
    (3000, ProbeScript()),
    (50_000, ProbeScript()),
    (400, ProbeScript(drop_packets=frozenset({1, 2}), ack_limit_packet=4)),
    (450, ProbeScript(drop_packets=frozenset({2}), ack_limit_packet=3)),
    (1234, ProbeScript(drop_packets=frozenset({3, 8}), ack_limit_packet=9)),
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(list(Variant)),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=10),
    st.sampled_from(FIRST_FLIGHT_PAGES),
)
@example(Variant.TAHOE, 1000, 10, FIRST_FLIGHT_PAGES[2])
@example(Variant.RENO, 1, 10, FIRST_FLIGHT_PAGES[3])
def test_first_flight_is_the_initial_window(variant, rtt_ms, cwnd, page):
    # TBIT's first test reads the initial window off the trace: the data
    # arrivals at the first one's t_us. A page shorter than the window caps
    # the count at its segments.
    page_bytes, script = page
    run = run_scenario(
        variant,
        rtt_ms=rtt_ms,
        page_bytes=page_bytes,
        sender_config=SenderConfig(initial_cwnd=cwnd),
        probe_script=script,
    )
    data = rx_data(run.trace)
    flight = sum(ev.t_us == data[0].t_us for ev in data)
    assert flight == min(cwnd, math.ceil(page_bytes / script.mss))


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


def test_event_before_the_clock_is_an_internal_error():
    # The loop never runs the clock back: a queued entry due before the
    # world's clock means the queue broke its order.
    world = sim_init(Scenario(variant=Variant.NEWRENO))
    world.clock = world._queue[0][0] + 1
    with pytest.raises(InternalError, match="^event before the clock$"):
        run_to_completion(world)


def test_deterministic_bit_identical_traces():
    first = trace_text(run_scenario(Variant.TAHOE).trace)
    second = trace_text(run_scenario(Variant.TAHOE).trace)
    assert first == second


def test_conservation_delivered_equals_emitted(default_runs):
    # The link is lossless: every byte the sender emitted arrives exactly
    # once as a distinct range, even the post-close stragglers.
    for run in default_runs.values():
        emitted_high = run.world.server._max_sent
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
    emitted_high = world.server._max_sent
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


# -- a capped run stops at the cap --------------------------------------------

CAPPED = dict(
    rtt_ms=10,
    page_bytes=200_000,
    probe_script=ProbeScript(ack_limit_packet=1900),
)


def test_capped_run_stops_at_the_overflowing_arrival(monkeypatch):
    # The 2,000-packet page acked up to 1,900 fills the 10,000-event cap
    # long before the prober could close. The run must end right after the
    # batch that fills it, not keep simulating arrivals.
    batches = []  # (now, batch size, trace length before, after, rx recorded)
    handle = ProbeSession.handle_segment

    def counted(session, segments, now):
        before = len(session.trace)
        out = handle(session, segments, now)
        rx = sum(ev.dir == "rx" for ev in session.trace[before:])
        batches.append((now, len(segments), before, len(session.trace), rx))
        return out

    monkeypatch.setattr(ProbeSession, "handle_segment", counted)
    world = sim_init(Scenario(variant=Variant.NEWRENO, **CAPPED))
    trace, reason = run_to_completion(world)
    assert reason is TerminationReason.TRACE_OVERFLOW
    # The run cut the session's trace to the cap, so both lists agree.
    assert len(trace) == EVENT_CAP
    assert world.prober.trace == trace
    # Every batch before the last left the trace short of the cap; the last
    # one reached it, no batch followed it, and the clock stopped there.
    assert all(after < EVENT_CAP for _, _, _, after, _ in batches[:-1])
    now, size, before, after, rx = batches[-1]
    assert before < EVENT_CAP <= after
    assert world.clock == now == trace[-1].t_us
    # The prober took the whole batch: one rx event per delivered segment.
    assert rx == size


def run_with_cap(monkeypatch, cap: int):
    """Run the default NewReno scenario with the event cap set to ``cap``.
    The run loop and ``classify_trace`` read the one shared constant."""
    monkeypatch.setattr(netsim, "EVENT_CAP", cap)
    monkeypatch.setattr(classifier, "EVENT_CAP", cap)
    return run_scenario(Variant.NEWRENO)


@pytest.mark.parametrize("cap", [67, 68])
def test_run_that_fills_the_cap_exactly_is_an_overflow(monkeypatch, cap):
    # The default NewReno run records 67 events, its closing reset last.
    # At a cap of 67 the run and classify_trace both call it an overflow;
    # one event more of room and it closes and gets its label.
    run = run_with_cap(monkeypatch, cap)
    assert len(run.trace) == 67
    report = classify_trace(run.trace, run.scenario.probe_script)
    if cap == 67:
        assert run.reason is TerminationReason.TRACE_OVERFLOW
        assert (report.label, report.error) == (None, "TraceOverflow")
    else:
        assert run.reason is TerminationReason.PROBER_CLOSED
        assert (report.label, report.error) == ("NewReno", None)


def test_closing_ack_at_the_cap_sends_no_reset(monkeypatch):
    # With the closing ACK as the cap-th event, the reset the prober sends
    # with it is cut from the trace: the trace ends on the ACK, and the cap
    # outranks the close.
    run = run_with_cap(monkeypatch, 66)
    assert run.reason is TerminationReason.TRACE_OVERFLOW
    assert len(run.trace) == 66
    assert (run.trace[-1].dir, run.trace[-1].kind, run.trace[-1].ack) == ("tx", "ack", 3000)
    assert not any(ev.kind == "rst" for ev in run.trace)
    assert classify_trace(run.trace, run.scenario.probe_script).error == "TraceOverflow"


def test_handshake_past_the_cap_sends_nothing(monkeypatch):
    # A cap of two events holds the SYN and the SYN+ACK alone. The handshake
    # ACK and the request the SYN+ACK draws are cut from the trace and never
    # reach the server.
    run = run_with_cap(monkeypatch, 2)
    assert run.reason is TerminationReason.TRACE_OVERFLOW
    assert [(ev.dir, ev.kind) for ev in run.trace] == [("tx", "syn"), ("rx", "synack")]
    assert run.world.prober.trace == run.trace
    assert run.world.server.phase == "syn_rcvd"
    assert run.world.clock == 100 * MS


# -- the batched event loop against the per-segment one -------------------------
# The queue holds one entry per delivered batch: everything the handlers
# send while one batch is delivered. The oracle below is the loop with one
# queue entry per segment, where the timer is checked before every single
# delivery; both must give the same trace, end reason and clock. The drawn
# pages stay small, so the explicit long-page examples are what merge
# batches of well over a hundred segments.


def _dispatch_each(world, segments, now, origin):
    dest = PROBER if origin == SERVER else SERVER
    when = now + world.one_way_us
    for seg in segments:
        if origin == SERVER and seg.ip_id in world.scenario.ambient_drops:
            continue
        world._queue.append((when, dest, seg))


def run_per_segment(world):
    queue = world._queue
    when, dest, batch = queue.popleft()  # the opening SYN's entry
    queue.extend((when, dest, seg) for seg in batch)
    while True:
        deadline = world.server.rto_deadline
        next_time = queue[0][0] if queue else None
        if next_time is None and deadline is None:
            reason = (
                TerminationReason.PROBER_CLOSED
                if world.prober.phase == "closed"
                else TerminationReason.QUIESCENT
            )
            break
        if deadline is not None and (next_time is None or deadline < next_time):
            if deadline < world.clock:
                raise InternalError("timer deadline in the past")
            world.clock = deadline
            _dispatch_each(world, world.server.on_timer(deadline), deadline, SERVER)
            continue
        when, kind, seg = queue.popleft()
        if when < world.clock:
            raise InternalError("event queue regressed in time")
        world.clock = when
        if kind == SERVER:
            _dispatch_each(world, world.server.handle_segment([seg], when), when, SERVER)
        else:
            _dispatch_each(world, world.prober.handle_segment([seg], when), when, PROBER)
    return list(world.prober.trace), reason


@st.composite
def loop_scenarios(draw) -> Scenario:
    rtt_ms = draw(st.integers(min_value=1, max_value=60_000))
    ack_limit = draw(st.integers(min_value=1, max_value=45))
    drops = draw(st.frozensets(st.integers(min_value=1, max_value=ack_limit), max_size=3))
    drops = frozenset(index for index in drops if index < ack_limit)
    extra_bytes = draw(st.integers(min_value=100, max_value=1500))  # runts too
    return Scenario(
        variant=draw(st.sampled_from(list(Variant))),
        rtt_ms=rtt_ms,
        page_bytes=ack_limit * 100 + extra_bytes,
        sender_config=SenderConfig(initial_cwnd=draw(st.integers(min_value=1, max_value=4))),
        probe_script=ProbeScript(mss=100, drop_packets=drops, ack_limit_packet=ack_limit),
        ambient_drops=draw(st.frozensets(st.integers(min_value=1, max_value=60), max_size=3)),
    )


def long_page(variant, packets, ack_limit, **overrides) -> Scenario:
    """A page of ``packets`` full segments, sent from an initial window of 4."""
    return Scenario(
        variant=variant,
        page_bytes=packets * 100,
        sender_config=SenderConfig(initial_cwnd=4),
        probe_script=ProbeScript(ack_limit_packet=ack_limit),
        **overrides,
    )


@settings(max_examples=200, deadline=None)
@given(loop_scenarios())
@example(Scenario(variant=Variant.NEWRENO, ambient_drops=frozenset({1})))  # the SYN+ACK
@example(Scenario(variant=Variant.RENO, ambient_drops=frozenset({5, 20})))
@example(Scenario(variant=Variant.NO_FAST_RETRANSMIT, rtt_ms=60_000))  # timer before any ACK
@example(long_page(Variant.NEWRENO, 300, 250))
@example(long_page(Variant.RENO, 500, 450))
@example(long_page(Variant.TAHOE, 500, 450, ambient_drops=frozenset({40, 41, 300})))
def test_batched_loop_matches_per_segment_loop(scenario):
    batched = sim_init(scenario)
    trace, reason = run_to_completion(batched)
    oracle = sim_init(scenario)
    expected_trace, expected_reason = run_per_segment(oracle)
    assert len(expected_trace) < EVENT_CAP
    assert (trace, reason, batched.clock) == (expected_trace, expected_reason, oracle.clock)
    # At any drawn RTT, only the close, quiescence or the cap ends a run.
    assert reason in {
        TerminationReason.PROBER_CLOSED,
        TerminationReason.QUIESCENT,
        TerminationReason.TRACE_OVERFLOW,
    }


# -- the entry points the benchmark's tracer wraps ------------------------------
# bench/tracing.py wraps these class attributes to time each layer and to
# count the golden "timers" and per-layer calls; it wraps the server's two
# entry points under the name HttpServerEndpoint. Each endpoint takes a whole
# delivered batch in one call, and the server hands its on_ack each batch
# after the handshake whole, so every segment must still pass through its
# endpoint's handle_segment, every one the server takes once established
# through on_ack, and every timer fire through on_timer.


def test_tracer_entry_points_see_every_segment_and_timer(monkeypatch):
    seen = Counter()
    inside_timer = [False]

    def wrap(owner, name, count):
        original = owner.__dict__[name]

        def wrapped(self, *args):
            seen[name, owner.__name__] += count(args)
            if name == "on_timer":
                inside_timer[0] = True
                try:
                    return original(self, *args)
                finally:
                    inside_timer[0] = False
            return original(self, *args)

        monkeypatch.setattr(owner, name, wrapped)

    wrap(ProbeSession, "handle_segment", lambda args: len(args[0]))
    wrap(netsim.HttpServerEndpoint, "handle_segment", lambda args: len(args[0]))
    wrap(netsim.HttpServerEndpoint, "on_timer", lambda args: 1)
    wrap(Sender, "on_ack", lambda args: len(args[0]))
    wrap(Sender, "on_rto", lambda args: 0 if inside_timer[0] else 1)
    timers = 0
    for overrides in ({}, LONG_PAGE):
        for variant in Variant:
            seen.clear()
            run = run_scenario(variant, **overrides)
            assert run.reason is TerminationReason.PROBER_CLOSED
            directions = Counter(ev.dir for ev in run.trace)
            assert seen["handle_segment", "ProbeSession"] == directions["rx"]
            assert seen["handle_segment", "Sender"] == directions["tx"]
            # Every prober record but the SYN and the handshake's ACK reaches
            # on_ack, as one record of a batch.
            assert seen["on_ack", "Sender"] == directions["tx"] - 2
            assert seen["on_rto", "Sender"] == 0  # no timer fire bypasses on_timer
            timers += seen["on_timer", "Sender"]
    assert timers == 4  # as at the per-segment loop: Reno and NoFastRetransmit, both pages


def test_on_ack_takes_each_batch_after_the_handshake_whole(monkeypatch):
    # The server walks a batch once: from the ACK of the SYN+ACK on, on_ack
    # gets the delivered list itself, in one call, and reads the records.
    handle, on_ack = Sender.handle_segment, Sender.on_ack
    delivered, calls, inside = [], [], []

    def handle_segment(self, segments, now):
        delivered.append(segments)
        inside.append(segments)
        try:
            return handle(self, segments, now)
        finally:
            inside.pop()

    def take(self, segments, now):
        if inside:  # not the timer's send
            calls.append((inside[-1], segments))
        return on_ack(self, segments, now)

    monkeypatch.setattr(Sender, "handle_segment", handle_segment)
    monkeypatch.setattr(Sender, "on_ack", take)
    for variant in Variant:
        delivered.clear()
        calls.clear()
        assert run_scenario(variant).reason is TerminationReason.PROBER_CLOSED
        syn, handshake, *later = delivered
        assert [seg.kind for seg in syn] == ["syn"]
        assert [seg.kind for seg in handshake] == ["ack", "data"]
        # The handshake's batch hands on_ack the records after its ACK.
        (batch, got), *rest = calls
        assert batch is handshake and got == handshake[1:]
        assert len(rest) == len(later) > 0
        for batch, (seen, got) in zip(later, rest):
            assert seen is batch and got is batch


# -- the server's one loop against the endpoint with a helper path ---------------
# ReferenceServer keeps the endpoint as it was, a wrapper around a sender of
# its own, when a pure ACK once established was handed to the sender in a
# call of its own and every other arrival but a close went through
# ``_open``, with ``request_seen`` and ``halted`` beside ``phase``.
# It takes one SYN, as the server does: a SYN once out of ``listen`` is
# ignored. Both branch on the arrival's kind and disarm the timer when they
# halt, so a timer fire with none armed raises in either.


class ReferenceServer:
    def __init__(self, sender, page_bytes):
        self.sender = sender
        self.page_bytes = page_bytes
        self.phase = "listen"
        self.halted = False
        self.request_seen = False

    def on_timer(self, now):
        return self.sender.on_rto(now)

    def handle_segment(self, segments, now):
        if self.halted:
            return []
        out, sender = [], self.sender
        established = self.phase == "established"
        for seg in segments:
            if established and seg.kind == "ack":
                out += sender.on_ack([seg], now)
            elif seg.kind in ("rst", "fin"):
                self.halted, sender.rto_deadline = True, None
                break
            else:
                out += self._open(seg, now)
                established = self.phase == "established"
        return out

    def _open(self, seg, now):
        if seg.kind == "syn":
            if self.phase != "listen":
                return []
            sender = self.sender
            sender.ip_id_counter += 1
            self.phase = "syn_rcvd"
            synack = TraceEvent(now + sender.one_way_us, "rx", "synack", 0, 0, 0, sender.ip_id_counter)
            return [synack]
        if seg.kind == "data":
            if self.phase != "established" or self.request_seen:
                return []
            self.request_seen = True
            self.sender.rcv_nxt = seg.seq + seg.len
            self.sender.app_limit += self.page_bytes
            return self.sender.pump_transmissions(now)
        if seg.kind == "ack" and self.phase == "syn_rcvd":
            self.phase = "established"
        return []


def folded_phase(reference: ReferenceServer) -> str:
    """The one ``phase`` that stands for the reference's three fields: the
    server keeps the request in ``rcv_nxt``, which it sets."""
    return "closed" if reference.halted else reference.phase


@st.composite
def client_segments(draw) -> TraceEvent:
    """Any kind, with a payload only on data: the records a prober could send."""
    kind = draw(any_kind(["ack", "ack", "data", "syn"]))
    payload = st.one_of(st.just(100), st.integers(min_value=1, max_value=300))
    return TraceEvent(
        draw(st.integers(min_value=0, max_value=50)),
        "tx",
        kind,
        draw(st.integers(min_value=0, max_value=300)),
        draw(payload) if kind == "data" else 0,
        draw(st.one_of(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=3100))),
        draw(st.integers(min_value=1, max_value=50)),
    )


server_ops = st.lists(
    st.one_of(st.just("timer"), st.lists(client_segments(), min_size=1, max_size=8)), max_size=14
)
SYN = prober_segment("syn")
REQUEST = prober_segment("data", length=100, ip_id=3)


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    mss=st.integers(min_value=1, max_value=1500),
    ops=server_ops,
    page=st.sampled_from([3000, 100, 0]),
)
# The handshake and request in one batch, ACKs, a timer fire.
@example(Variant.RENO, 100, [[SYN, prober_segment(), REQUEST], acks(100, 200), "timer", acks(300)], 3000)
# A pure ACK after the handshake but before the request reaches the sender.
@example(Variant.RENO, 100, [[SYN], [prober_segment()], acks(100)], 3000)
# A SYN after the request is ignored, and the page is not served again.
@example(Variant.TAHOE, 100, [[SYN, prober_segment(), REQUEST], [SYN], acks(0), [REQUEST], acks(0)], 3000)
# A second request is ignored also when the page is empty.
@example(Variant.TAHOE, 100, [[SYN, prober_segment(), REQUEST], [REQUEST], acks(0)], 0)
# An ACK beyond the data sent, in the handshake's batch before and after the
# request, raises with the state as the records before it left it.
@example(Variant.RENO, 100, [[SYN, prober_segment(), *acks(100), REQUEST]], 3000)
@example(Variant.RENO, 100, [[SYN, prober_segment(), REQUEST, *acks(100, 500)]], 3000)
# A FIN closes the server mid-transfer and silences its timer.
@example(Variant.NEWRENO, 100, [[SYN, prober_segment(), REQUEST, prober_segment("fin")], "timer"], 3000)
def test_server_loop_matches_helper_path_reference(variant, mss, ops, page):
    config = SenderConfig(mss=mss)
    server = Sender(config, variant, ONE_WAY_US, page)
    reference = ReferenceServer(Sender(config, variant, ONE_WAY_US, page), page)
    for step, op in enumerate(ops, start=1):
        now = step * 10 * MS
        got, expected = (
            outcome(endpoint.on_timer, now) if op == "timer" else outcome(endpoint.handle_segment, op, now)
            for endpoint in (server, reference)
        )
        assert got == expected
        assert vars(server) == {**vars(reference.sender), "phase": folded_phase(reference)}
        if got[0] == "raised":
            break


def test_syn_after_the_request_is_ignored():
    # One connection per server: a SYN after the request answers nothing,
    # and the sender keeps the page in flight. The ACKs that follow move it
    # on; none of them raises InternalError.
    server = fresh_server()
    server.handle_segment([SYN, prober_segment(), REQUEST], 0)
    assert server.handle_segment([SYN], 10 * MS) == []
    assert server.phase == "established"
    assert server.handle_segment([prober_segment()], 20 * MS) == []
    out = server.handle_segment(acks(100), 30 * MS)
    assert [(seg.seq, seg.len) for seg in out] == [(200, 100), (300, 100)]
    assert (server.snd_una, server.app_limit) == (100, 3000)


def test_timer_fire_with_no_timer_armed_raises():
    # Only the page arms the sender's timer, and a close disarms it: the run
    # loop never fires it unarmed, so such a fire is a bug in any phase.
    server = fresh_server()
    with pytest.raises(InternalError):
        server.on_timer(0)
    server.handle_segment([SYN, prober_segment(), REQUEST, prober_segment("fin")], 10 * MS)
    assert server.phase == "closed"
    with pytest.raises(InternalError):
        server.on_timer(20 * MS)
