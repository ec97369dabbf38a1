"""Trace file format tests: JSONL round trips, validation, plot points."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccprobe import Variant, read_trace, write_trace
from ccprobe.errors import TraceOrderError, TraceParseError
from ccprobe.traceio import (
    PLOT_HEADER,
    TraceEvent,
    emit_plot_points,
    write_plot_points,
)

from conftest import rx_data, trace_text, tx_acks

SYN_LINE = '{"t_us":0,"dir":"tx","kind":"syn","seq":0,"len":0,"ack":0,"ip_id":1}'


def test_single_syn_serializes_to_exact_line():
    ev = TraceEvent(t_us=0, dir="tx", kind="syn", seq=0, len=0, ack=0, ip_id=1)
    assert trace_text([ev]) == SYN_LINE + "\n"
    assert read_trace(SYN_LINE) == [ev]


def test_default_runs_round_trip_through_text(default_runs):
    for run in default_runs.values():
        assert read_trace(trace_text(run.trace)) == run.trace


def test_default_runs_round_trip_through_files(default_runs, tmp_path):
    for variant, run in default_runs.items():
        path = tmp_path / f"{variant.value}.jsonl"
        write_trace(run.trace, path)
        assert read_trace(path) == run.trace


def test_write_accepts_file_objects(default_runs):
    buf = io.StringIO()
    write_trace(default_runs[Variant.TAHOE].trace, buf)
    buf.seek(0)
    assert read_trace(buf) == default_runs[Variant.TAHOE].trace


def event_strategy(kind):
    length = st.integers(1, 1460) if kind == "data" else st.just(0)
    return st.builds(
        TraceEvent,
        t_us=st.integers(0, 10**9),
        dir=st.sampled_from(["tx", "rx"]),
        kind=st.just(kind),
        seq=st.integers(0, 10**6),
        len=length,
        ack=st.integers(0, 10**6),
        ip_id=st.integers(0, 65535),
    )


valid_traces = st.lists(
    st.sampled_from(["syn", "synack", "data", "ack", "rst", "fin"]).flatmap(
        event_strategy
    ),
    max_size=30,
).map(lambda evs: sorted(evs, key=lambda ev: ev.t_us))


@given(valid_traces)
def test_any_valid_trace_round_trips(trace):
    assert read_trace(trace_text(trace)) == trace


# -- rejection cases -----------------------------------------------------------


def bad_line(**overrides) -> str:
    import json

    raw = {"t_us": 0, "dir": "tx", "kind": "syn", "seq": 0, "len": 0, "ack": 0, "ip_id": 1}
    raw.update(overrides)
    return json.dumps(raw, separators=(",", ":"))


@pytest.mark.parametrize(
    "text",
    [
        SYN_LINE + "\n{not json",
        SYN_LINE + "\n[1,2,3]",
        SYN_LINE + "\n" + bad_line(extra=1),
        SYN_LINE + "\n" + '{"t_us":0,"dir":"tx","kind":"syn","seq":0,"len":0,"ack":0}',
        SYN_LINE + "\n" + bad_line(seq=-1),
        SYN_LINE + "\n" + bad_line(t_us=True),
        SYN_LINE + "\n" + bad_line(ack=1.0),
        SYN_LINE + "\n" + bad_line(len="0"),
        SYN_LINE + "\n" + bad_line(dir="sideways"),
        SYN_LINE + "\n" + bad_line(kind="keepalive"),
        SYN_LINE + "\n" + bad_line(kind="data", len=0),
        SYN_LINE + "\n" + bad_line(kind="ack", len=5),
        SYN_LINE + "\n\n" + SYN_LINE,
    ],
)
def test_malformed_second_line_rejected(text):
    with pytest.raises(TraceParseError) as excinfo:
        read_trace(text)
    assert excinfo.value.line_no == 2
    assert "line 2" in str(excinfo.value)


def test_unsorted_timestamps_rejected():
    text = bad_line(t_us=10) + "\n" + bad_line(t_us=5)
    with pytest.raises(TraceOrderError):
        read_trace(text)


def test_empty_text_is_empty_trace():
    assert read_trace("") == []


# -- plot points ---------------------------------------------------------------


def test_plot_point_mapping():
    data = TraceEvent(t_us=7, dir="rx", kind="data", seq=1000, len=100, ack=0, ip_id=9)
    ack = TraceEvent(t_us=8, dir="tx", kind="ack", seq=0, len=0, ack=1500, ip_id=3)
    rst = TraceEvent(t_us=9, dir="tx", kind="rst", seq=0, len=0, ack=0, ip_id=4)
    assert emit_plot_points([data, ack, rst]) == [
        (7, 1100, "packet"),
        (8, 1500, "ack"),
    ]


def test_plot_rows_count_data_and_acks(default_runs):
    trace = default_runs[Variant.TAHOE].trace
    points = emit_plot_points(trace)
    assert len(points) == len(rx_data(trace)) + len(tx_acks(trace)) == 62


def test_unnecessary_retransmissions_plot_as_repeated_height(default_runs):
    # The go-back sender delivers packet 17 twice; both copies land on the
    # same sequence height, one round trip apart plus the repair delay.
    points = emit_plot_points(default_runs[Variant.TAHOE].trace)
    repeats = [(t, y) for t, y, marker in points if marker == "packet" and y == 1700]
    assert [t for t, _ in repeats] == [500000, 700000]


def test_plot_csv_shape(default_runs, tmp_path):
    path = tmp_path / "points.csv"
    write_plot_points(default_runs[Variant.NEWRENO].trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == PLOT_HEADER
    assert lines[1] == "100000,0,ack"  # handshake ack, sent when the SYN+ACK lands
    assert len(lines) == 1 + len(emit_plot_points(default_runs[Variant.NEWRENO].trace))
    for line in lines[1:]:
        t_us, y, marker = line.split(",")
        assert int(t_us) >= 0 and int(y) >= 0
        assert marker in ("packet", "ack")


def test_plot_csv_for_empty_trace_is_header_only():
    buf = io.StringIO()
    write_plot_points([], buf)
    assert buf.getvalue() == PLOT_HEADER + "\n"
