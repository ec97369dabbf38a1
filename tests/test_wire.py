"""Record contract of ``Segment`` and ``TraceEvent``.

Both are slotted dataclasses built positionally on the hot paths, so their
field order is part of the contract. They compare by value, never equal a
plain tuple, and support ``dataclasses.replace``. The benchmark's tracer
counts segments by patching ``Segment.__dict__["__init__"]``, which a
``NamedTuple`` would not have.
"""

import dataclasses

import pytest

from ccprobe.traceio import TraceEvent
from ccprobe.wire import Flag, Segment

SEGMENT_FIELDS = ("seq", "len", "ack", "flags", "ip_id", "mss_option")
EVENT_FIELDS = ("t_us", "dir", "kind", "seq", "len", "ack", "ip_id")


def test_field_order_matches_positional_construction():
    assert tuple(f.name for f in dataclasses.fields(Segment)) == SEGMENT_FIELDS
    assert tuple(f.name for f in dataclasses.fields(TraceEvent)) == EVENT_FIELDS
    assert Segment(1, 2, 3, Flag.SYN, 5, 6) == Segment(
        seq=1, len=2, ack=3, flags=Flag.SYN, ip_id=5, mss_option=6
    )
    assert Segment(1, 2, 3, Flag.ACK, 5).mss_option is None
    assert Segment(100, 50, 0, Flag.ACK, 1).end == 150
    assert TraceEvent(1, "rx", "data", 4, 5, 6, 7) == TraceEvent(
        t_us=1, dir="rx", kind="data", seq=4, len=5, ack=6, ip_id=7
    )


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, -1, 0, Flag.ACK, 1), "negative payload length"),
        ((0, 0, 0, Flag.SYN | Flag.RST, 1), "SYN and RST are mutually exclusive"),
        ((0, 0, 0, Flag.ACK, 1, 100), "mss_option is only valid on SYN segments"),
        ((0, 0, 0, Flag.SYN, 1, 0), "mss_option must be at least 1"),
        ((0, 0, 0, Flag.SYN, 1, -100), "mss_option must be at least 1"),
    ],
    ids=["negative-len", "syn-rst", "mss-without-syn", "mss-0", "mss-negative"],
)
def test_segment_constructor_checks(args, message):
    with pytest.raises(ValueError, match=message):
        Segment(*args)


# A segment that breaks two rules reports the first in this order: negative
# length, then SYN with RST, then mss_option without SYN, then mss_option
# below 1. No segment breaks SYN with RST and mss_option without SYN at
# once, since one needs SYN and the other its absence.
@pytest.mark.parametrize(
    "args, message",
    [
        ((0, -1, 0, Flag.SYN | Flag.RST, 1), "negative payload length"),
        ((0, -1, 0, Flag.ACK, 1, 100), "negative payload length"),
        ((0, -1, 0, Flag.SYN | Flag.RST, 1, 100), "negative payload length"),
        ((0, 0, 0, Flag.SYN | Flag.RST, 1, 100), "SYN and RST are mutually exclusive"),
        ((0, 0, 0, Flag.RST, 1, 100), "mss_option is only valid on SYN segments"),
        ((0, -1, 0, Flag.SYN, 1, 0), "negative payload length"),
        ((0, 0, 0, Flag.SYN | Flag.RST, 1, 0), "SYN and RST are mutually exclusive"),
        ((0, 0, 0, Flag.ACK, 1, 0), "mss_option is only valid on SYN segments"),
    ],
    ids=[
        "len-and-syn-rst", "len-and-mss", "len-syn-rst-and-mss", "syn-rst-with-mss",
        "rst-with-mss", "len-and-mss-0", "syn-rst-with-mss-0", "ack-with-mss-0",
    ],
)
def test_segment_reports_the_first_broken_rule(args, message):
    with pytest.raises(ValueError, match=message):
        Segment(*args)
    with pytest.raises(ValueError, match=message):
        Segment(**dict(zip(SEGMENT_FIELDS, args)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Segment(100, 100, 0, Flag.ACK, 7),
        lambda: TraceEvent(5, "rx", "data", 100, 100, 0, 7),
    ],
    ids=["Segment", "TraceEvent"],
)
def test_records_compare_by_value_not_as_tuples(make):
    record, twin = make(), make()
    assert record == twin and record is not twin
    assert record != dataclasses.replace(record, ip_id=8)
    as_tuple = dataclasses.astuple(record)
    assert record != as_tuple and as_tuple != record
    with pytest.raises(TypeError):
        hash(record)


def test_replace_copies_and_keeps_segment_checks():
    seg = Segment(100, 100, 0, Flag.ACK, 7)
    moved = dataclasses.replace(seg, seq=300)
    assert (moved.seq, moved.end, seg.seq) == (300, 400, 100)
    with pytest.raises(ValueError, match="negative payload length"):
        dataclasses.replace(seg, len=-1)
    event = TraceEvent(5, "rx", "data", 100, 100, 0, 7)
    later = dataclasses.replace(event, t_us=6)
    assert (later.t_us, event.t_us) == (6, 5)
    assert dataclasses.astuple(later)[1:] == dataclasses.astuple(event)[1:]


def test_segment_init_is_patchable_and_records_are_slotted():
    assert "__init__" in Segment.__dict__
    for record in (Segment(0, 0, 0, Flag.ACK, 1), TraceEvent(0, "tx", "ack", 0, 0, 0, 1)):
        assert not hasattr(record, "__dict__")
