"""Record contract of ``TraceEvent``, the one record on the link and in the trace.

It is a slotted dataclass, built positionally everywhere but the two hot
paths, so its field order is part of the contract. Those two, the
server's data segments and the prober's ACKs of data, build a bare
``object.__new__(TraceEvent)`` and store its seven slots in their own
frame, skipping ``type.__call__`` and the ``__init__`` frame; a slot they
miss is caught here, on every record of whole runs. It compares by value,
never equals a plain tuple, and supports ``dataclasses.replace``.
``wire.Segment`` is a second name for it: the benchmark's tracer counts
record builds by patching ``Segment.__dict__["__init__"]``, which a
``NamedTuple`` would not have, and which the two hot paths do not call. A
record checks nothing when built; what the server puts on the link is
checked here as a property of whole runs instead.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ccprobe
from ccprobe import ProbeScript, Scenario, SenderConfig, Variant, run_to_completion, sim_init
from ccprobe.traceio import TraceEvent
from ccprobe.wire import Segment

EVENT_FIELDS = ("t_us", "dir", "kind", "seq", "len", "ack", "ip_id")


def test_field_order_matches_positional_construction():
    assert tuple(f.name for f in dataclasses.fields(TraceEvent)) == EVENT_FIELDS
    assert TraceEvent(1, "rx", "data", 4, 5, 6, 7) == TraceEvent(
        t_us=1, dir="rx", kind="data", seq=4, len=5, ack=6, ip_id=7
    )


def test_segment_init_is_patchable_and_records_are_slotted():
    assert Segment is ccprobe.TraceEvent
    assert "__init__" in Segment.__dict__
    assert not hasattr(TraceEvent(0, "tx", "ack", 0, 0, 0, 1), "__dict__")


def test_records_compare_by_value_not_as_tuples():
    record, twin = (TraceEvent(5, "rx", "data", 100, 100, 0, 7) for _ in range(2))
    assert record == twin and record is not twin
    assert record != dataclasses.replace(record, ip_id=8)
    as_tuple = dataclasses.astuple(record)
    assert record != as_tuple and as_tuple != record
    with pytest.raises(TypeError):
        hash(record)


def test_replace_copies_a_record():
    event = TraceEvent(5, "rx", "data", 100, 100, 0, 7)
    later = dataclasses.replace(event, t_us=6)
    assert (later.t_us, event.t_us) == (6, 5)
    assert dataclasses.astuple(later)[1:] == dataclasses.astuple(event)[1:]


@settings(max_examples=100, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    rtt_ms=st.integers(min_value=1, max_value=800),
    cwnd=st.integers(min_value=1, max_value=4),
    drops=st.frozensets(st.integers(min_value=1, max_value=24), max_size=3),
    server_mss=st.integers(min_value=1, max_value=150),
)
@example(Variant.TAHOE, 100, 2, frozenset({13, 16}), 1)  # one-byte segments
@example(Variant.RENO, 100, 1, frozenset({13, 16}), 73)  # runts off the script's grid
def test_server_emits_data_and_synack_stamped_on_arrival(variant, rtt_ms, cwnd, drops, server_mss):
    # Every record the server sends is an rx data or synack, due one way
    # after it leaves, and data is 1 to the negotiated MSS bytes long.
    script = ProbeScript(drop_packets=drops)
    world = sim_init(Scenario(
        variant=variant,
        rtt_ms=rtt_ms,
        sender_config=SenderConfig(mss=server_mss, initial_cwnd=cwnd),
        probe_script=script,
    ))
    sent = []
    for name in ("handle_segment", "on_timer"):
        def logged(*args, method=getattr(world.server, name)):
            out = method(*args)
            sent.append((args[-1], out))
            return out

        setattr(world.server, name, logged)
    trace, _ = run_to_completion(world)
    negotiated = min(server_mss, script.mss)
    records = [(now, record) for now, out in sent for record in out]
    # Every record built, the prober's and the server's, is a whole
    # TraceEvent: astuple raises on a slot the hot paths never stored.
    for event in trace + [record for _, record in records]:
        assert type(event) is TraceEvent
        assert event == TraceEvent(*dataclasses.astuple(event))
    assert [record.kind for _, record in records[:1]] == ["synack"]
    for now, record in records:
        assert record.t_us == now + world.one_way_us
        assert record.dir == "rx"
        if record.kind == "data":
            assert 1 <= record.len <= negotiated
        else:
            assert (record.kind, record.len) == ("synack", 0)
