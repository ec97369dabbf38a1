"""Trace file format tests: JSONL round trips, validation, plot points."""

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccprobe import Variant, read_trace, traceio, write_trace
from ccprobe.errors import TraceParseError
from ccprobe.traceio import (
    DIRS,
    KINDS,
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
        with open(path, "w", encoding="utf-8") as fp:
            write_trace(run.trace, fp)
        assert read_trace(path.read_text(encoding="utf-8")) == run.trace


def test_write_accepts_file_objects(default_runs):
    # The writer writes at the file's position, after what is already there.
    buf = io.StringIO()
    buf.write(SYN_LINE + "\n")
    write_trace(default_runs[Variant.TAHOE].trace, buf)
    assert read_trace(buf.getvalue())[1:] == default_runs[Variant.TAHOE].trace


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


@given(valid_traces, st.booleans())
def test_any_valid_trace_round_trips(trace, drop_last_newline):
    text = trace_text(trace)
    if drop_last_newline:
        text = text.removesuffix("\n")
    assert read_trace(text) == reference_read_trace(text) == trace


# -- rejection cases -----------------------------------------------------------


def bad_line(**overrides) -> str:
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


# What a segment on the link once refused to carry, a record cannot carry
# into a trace either: no flag combination but the six kinds, no MSS option
# key, no negative length.
@pytest.mark.parametrize(
    "line, reason",
    [
        (bad_line(kind="data", len=-1), "len must be nonnegative"),
        (bad_line(kind="syn+rst"), "kind must be one of"),
        (bad_line(kind="ack", mss_option=100), "expected exactly the keys"),
        (bad_line(mss_option=0), "expected exactly the keys"),
        (bad_line(mss_option=-100), "expected exactly the keys"),
    ],
    ids=["negative-len", "syn-rst", "mss-without-syn", "mss-0", "mss-negative"],
)
def test_trace_rejects_what_a_segment_could_not_carry(line, reason):
    with pytest.raises(TraceParseError, match=reason) as excinfo:
        read_trace(SYN_LINE + "\n" + line + "\n")
    assert excinfo.value.line_no == 2


def test_unsorted_timestamps_rejected():
    text = bad_line(t_us=10) + "\n" + bad_line(t_us=5)
    with pytest.raises(TraceParseError, match="^line 2: t_us 5 before the previous line's 10$") as excinfo:
        read_trace(text)
    assert excinfo.value.line_no == 2


def test_empty_text_is_empty_trace():
    assert read_trace("") == []


@pytest.mark.parametrize("line_no", [1, 2])
def test_deeply_nested_line_is_a_parse_error(line_no):
    # json.loads raises RecursionError, not JSONDecodeError, past its depth limit.
    text = (SYN_LINE + "\n") * (line_no - 1) + "[" * 200_000
    with pytest.raises(TraceParseError) as excinfo:
        read_trace(text)
    assert str(excinfo.value) == f"line {line_no}: invalid JSON (nested too deeply)"
    assert_reads_like_reference(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet='[]{}":,-.019eE \n\t\\')))
@example("[" * 200_000)
@example(SYN_LINE + "\n" + "{" * 100_000)
@example("9" * 5000)
def test_reader_returns_events_or_parse_error_for_any_text(text):
    try:
        events = read_trace(text)
    except TraceParseError:
        return
    assert all(type(event) is TraceEvent for event in events)


# -- equivalence with the json-based writer and reader ---------------------------
# write_trace formats lines itself and read_trace reads an all-canonical text
# in one regex scan; the json-based versions they replaced are kept here as
# oracles.

FIELDS = ("t_us", "dir", "kind", "seq", "len", "ack", "ip_id")


def reference_event_line(event: TraceEvent) -> str:
    return json.dumps({key: getattr(event, key) for key in FIELDS}, separators=(",", ":"))


def reference_parse_line(line_no: int, line: str) -> TraceEvent:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(line_no, f"invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise TraceParseError(line_no, "invalid JSON (nested too deeply)") from exc
    if not isinstance(raw, dict):
        raise TraceParseError(line_no, "event is not an object")
    if set(raw) != set(FIELDS):
        raise TraceParseError(line_no, f"expected exactly the keys {FIELDS}")
    for key in ("t_us", "seq", "len", "ack", "ip_id"):
        if type(raw[key]) is not int:
            raise TraceParseError(line_no, f"{key} must be an integer")
        if raw[key] < 0:
            raise TraceParseError(line_no, f"{key} must be nonnegative")
    if raw["dir"] not in DIRS:
        raise TraceParseError(line_no, f"dir must be one of {sorted(DIRS)}")
    if raw["kind"] not in KINDS:
        raise TraceParseError(line_no, f"kind must be one of {sorted(KINDS)}")
    if raw["kind"] == "data" and raw["len"] <= 0:
        raise TraceParseError(line_no, "data events need len > 0")
    if raw["kind"] != "data" and raw["len"] != 0:
        raise TraceParseError(line_no, "non-data events need len == 0")
    return TraceEvent(**raw)


def reference_read_trace(text: str) -> list[TraceEvent]:
    events = []
    lines = text.removesuffix("\n").split("\n") if text else []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            raise TraceParseError(line_no, "blank line")
        try:
            events.append(reference_parse_line(line_no, line))
        except ValueError as exc:  # json.loads past the int-string digit limit
            raise TraceParseError(line_no, "integer has too many digits") from exc
    for line_no, (prev, cur) in enumerate(zip(events, events[1:]), start=2):
        if cur.t_us < prev.t_us:
            raise TraceParseError(line_no, f"t_us {cur.t_us} before the previous line's {prev.t_us}")
    return events


def read_outcome(read, text):
    """What a reader makes of ``text``: its events, or how it failed."""
    try:
        return read(text)
    except Exception as exc:  # the comparison covers every exception type
        return type(exc), str(exc), getattr(exc, "line_no", None)


def assert_reads_like_reference(text):
    assert read_outcome(read_trace, text) == read_outcome(reference_read_trace, text)


any_event = st.builds(
    TraceEvent,
    t_us=st.integers(),
    dir=st.text(),
    kind=st.text(),
    seq=st.integers(),
    len=st.integers(),
    ack=st.integers(),
    ip_id=st.integers(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(any_event, max_size=10))
@example([TraceEvent(-1, 'q"\\', "\x00\x1f\x7f", 2**64, -(2**70), 0, 1)])
@example([TraceEvent(0, "\u00e9\u2028", "\U0001f600\ud800", 1, 2, 3, 4)])
def test_writer_matches_json_dumps(trace):
    expected = "".join(reference_event_line(ev) + "\n" for ev in trace)
    assert trace_text(trace) == expected


# Mutations of one field of a canonical line: not canonical or not valid.
NUMBER_MUTATIONS = [
    "007", "-0", "-1", "1.0", "1e3", "true", "null", '"1"',
    "\u0661\u0662", "1\u0662", "\uff11",  # digits json rejects and int() takes
]


def mutate_number(line, key, value):
    head, rest = line.split(f'"{key}":', 1)
    tail = rest[rest.index(",") if "," in rest else rest.index("}"):]
    return f'{head}"{key}":{value}{tail}'


def line_mutations(line):
    raw = json.loads(line)
    mutants = [mutate_number(line, key, value) for key in ("t_us", "seq", "len", "ack", "ip_id")
               for value in NUMBER_MUTATIONS]
    mutants += [
        "",
        "   ",
        line + " ",
        " " + line,
        line.replace(":", ": "),
        line.replace(",", ", "),
        line.replace('"tx"', '"\\u0074x"').replace('"rx"', '"\\u0072x"'),
        line.replace('"dir":"', '"dir":"T'),
        line.replace('"kind":"', '"kind":"x'),
        line[:-1] + ',"extra":1}',
        line[:-1] + ',"t_us":1}',
        json.dumps({k: v for k, v in raw.items() if k != "ip_id"}, separators=(",", ":")),
        json.dumps(dict(reversed(raw.items())), separators=(",", ":")),
        json.dumps(raw),
        json.dumps({**raw, "kind": "data", "len": 0}, separators=(",", ":")),
        json.dumps({**raw, "kind": "ack", "len": 5}, separators=(",", ":")),
        json.dumps({**raw, "kind": "syn", "len": 1}, separators=(",", ":")),
        line[:-1],
        "[" + line + "]",
    ]
    return mutants


@pytest.mark.parametrize("mutant", line_mutations(
    '{"t_us":10,"dir":"rx","kind":"data","seq":100,"len":100,"ack":0,"ip_id":3}'
))
def test_reader_matches_reference_on_mutated_line(mutant):
    assert_reads_like_reference(SYN_LINE + "\n" + mutant + "\n" + SYN_LINE)


@settings(max_examples=100, deadline=None)
@given(valid_traces, st.data())
def test_reader_matches_reference_on_mutated_traces(trace, data):
    lines = trace_text(trace).splitlines()
    for index in data.draw(st.sets(st.integers(0, max(len(lines) - 1, 0)), max_size=3)):
        if index < len(lines):
            lines[index] = data.draw(st.sampled_from(line_mutations(lines[index])))
    if data.draw(st.booleans()) and len(lines) > 1:
        lines.reverse()  # out-of-order times, alone or after a parse error
    assert_reads_like_reference("\n".join(lines))


@pytest.mark.parametrize("key", ["t_us", "seq", "len", "ack", "ip_id"])
@pytest.mark.parametrize("spacing", ["", " "], ids=["canonical", "json"])
def test_integer_past_digit_limit_is_a_parse_error(key, spacing):
    # int() and json.loads both refuse more than 4,300 digits with a plain
    # ValueError; the reader reports it against the line, on either path.
    line = mutate_number(SYN_LINE, key, spacing + "9" * 5000)
    with pytest.raises(TraceParseError, match="integer has too many digits") as excinfo:
        read_trace(SYN_LINE + "\n" + line + "\n" + SYN_LINE)
    assert excinfo.value.line_no == 2


@pytest.mark.parametrize(
    "third, reason",
    [
        (bad_line(t_us=20, kind="ack", seq="x"), "seq must be an integer"),
        # All three lines canonical: the one-pass reader must not judge order first.
        (bad_line(t_us=20, kind="data", len=0), "data events need len > 0"),
        (mutate_number(bad_line(t_us=20, kind="ack"), "seq", "9" * 5000),
         "integer has too many digits"),
    ],
    ids=["json", "data-len", "digits"],
)
def test_parse_error_outranks_order_error(third, reason):
    text = bad_line(t_us=10, kind="ack") + "\n" + bad_line(t_us=5, kind="ack") + "\n" + third
    with pytest.raises(TraceParseError, match=reason) as excinfo:
        read_trace(text)
    assert excinfo.value.line_no == 3
    assert_reads_like_reference(text)


CANONICAL_A = bad_line(t_us=1, kind="ack")
CANONICAL_B = bad_line(t_us=2, dir="rx", kind="data", len=100)


@pytest.mark.parametrize("text", [
    CANONICAL_A + "\n" + CANONICAL_B,
    CANONICAL_A + "\r\n" + CANONICAL_B + "\r\n",
    CANONICAL_A + "\n" + CANONICAL_B + "\n\n",
    "\n" + CANONICAL_A + "\n" + CANONICAL_B + "\n",
    *(form.format(a=CANONICAL_A, b=CANONICAL_B, sep=sep)
      for sep in ("\x0b", "\x85", "\u2028")
      for form in ("{a}{sep}{b}\n", "{a}\n{sep}{b}\n", "{a}\n{sep}\n{b}\n")),
    "",
    "\n",
])
def test_reader_matches_reference_on_edge_texts(text):
    assert_reads_like_reference(text)


@pytest.mark.parametrize(
    "text, outcome",
    [
        # A form feed is not JSON whitespace: it stays on line 1 and spoils it.
        (SYN_LINE + "\f\n" + SYN_LINE + "\n{bad", "line 1: invalid JSON (Extra data)"),
        # A raw U+2028 is a character of its JSON string.
        (SYN_LINE.replace('"dir":"tx"', '"dir":"\u2028"'), "line 1: dir must be one of ['rx', 'tx']"),
        # The "\r" of a CRLF is JSON whitespace at the end of its line.
        (CANONICAL_A + "\r\n" + CANONICAL_B + "\r\n", 2),
    ],
    ids=["form-feed", "line-separator", "crlf"],
)
def test_only_a_newline_ends_a_line(text, outcome):
    assert_reads_like_reference(text)
    if isinstance(outcome, int):
        assert len(read_trace(text)) == outcome
    else:
        with pytest.raises(TraceParseError) as excinfo:
            read_trace(text)
        assert str(excinfo.value) == outcome


def test_canonical_text_is_read_without_the_line_reader(default_runs, monkeypatch):
    def refuse(text):
        raise AssertionError("canonical text went to the line reader")

    monkeypatch.setattr(traceio, "_read_lines", refuse)
    for run in default_runs.values():
        assert read_trace(trace_text(run.trace)) == run.trace


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("length", [0, 100])
def test_canonical_path_kind_by_kind(kind, length, monkeypatch):
    # Every kind, valid or not, in an otherwise canonical three-line text.
    text = "\n".join([SYN_LINE, bad_line(kind=kind, len=length), SYN_LINE]) + "\n"
    valid = (kind == "data") == (length > 0)
    if valid:
        def refuse(text):
            raise AssertionError("canonical text went to the line reader")

        monkeypatch.setattr(traceio, "_read_lines", refuse)
    outcome = read_outcome(read_trace, text)
    assert outcome == read_outcome(reference_read_trace, text)
    if valid:
        assert len(outcome) == 3
    else:
        assert outcome[0] is TraceParseError and outcome[2] == 2


@pytest.mark.parametrize(
    "first_line",
    [SYN_LINE.replace('":', '": '), "", "not json", SYN_LINE.replace('"ip_id":1', '"ip_id":01')],
    ids=["spaced", "blank", "garbage", "leading-zero"],
)
def test_noncanonical_first_line_skips_the_whole_text_scan(default_runs, monkeypatch, first_line):
    pattern = traceio._CANONICAL_LINES
    scans = []

    class Spy:
        match = pattern.match

        def findall(self, text):
            scans.append(text)
            return pattern.findall(text)

    monkeypatch.setattr(traceio, "_CANONICAL_LINES", Spy())
    text = first_line + "\n" + trace_text(default_runs[Variant.NEWRENO].trace)
    assert_reads_like_reference(text)
    assert scans == []
    # A canonical text still takes the one scan.
    assert read_trace(trace_text(default_runs[Variant.NEWRENO].trace))
    assert len(scans) == 1
    # A data line with len 0 is not canonical: one scan, then the line reader names it.
    line_reads = []
    read_lines = traceio._read_lines

    def spy_read_lines(text):
        line_reads.append(text)
        return read_lines(text)

    monkeypatch.setattr(traceio, "_read_lines", spy_read_lines)
    scans.clear()
    text = "\n".join([SYN_LINE, SYN_LINE, bad_line(kind="data")]) + "\n"
    with pytest.raises(TraceParseError, match=r"^line 3: data events need len > 0$"):
        read_trace(text)
    assert scans == [text] and line_reads == [text]


def test_bool_field_is_written_so_both_readers_reject_it():
    ev = TraceEvent(t_us=True, dir="tx", kind="syn", seq=0, len=0, ack=0, ip_id=1)
    text = trace_text([ev])
    assert text.startswith('{"t_us":True,')
    with pytest.raises(TraceParseError, match="invalid JSON"):
        read_trace(text)
    assert_reads_like_reference(text)
    with pytest.raises(TraceParseError, match="must be an integer"):
        read_trace(reference_event_line(ev))


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


def test_plot_csv_shape(default_runs):
    buf = io.StringIO()
    write_plot_points(default_runs[Variant.NEWRENO].trace, buf)
    lines = buf.getvalue().splitlines()
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


def test_plot_csv_is_one_write_of_the_per_point_bytes(default_runs):
    class Sink(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    for run in default_runs.values():
        sink = Sink()
        write_plot_points(run.trace, sink)
        per_point = PLOT_HEADER + "\n" + "".join(
            f"{t_us},{y},{marker}\n" for t_us, y, marker in emit_plot_points(run.trace)
        )
        assert sink.getvalue() == per_point
        assert sink.writes == 1
