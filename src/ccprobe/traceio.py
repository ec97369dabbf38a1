"""Trace serialization and plot-point emission.

A trace is the prober's time-ordered record of every segment it saw or
emitted. Its text form is line-delimited JSON, one event per line, with
exactly the keys t_us, dir, kind, seq, len, ack, ip_id. Only a newline
ends a line: any other line break, such as a form feed or U+2028, is part
of the line's JSON. Reading a written trace gives back equal events.
Events must be sorted by t_us: a ``TraceParseError`` names the first line
that is not, as it names a line that does not parse. The writer emits one
canonical form (that key order, no spaces); the reader accepts any JSON
object with those keys. A text made only of canonical lines is read in
one regex scan and one comprehension from its rows to events; any other
text is read line by line through json, with the same events and the same
errors. This module parses and formats text only: the writers write to an
open text file, and opening files is the caller's work.

A ``TraceEvent`` is a slotted dataclass: cheap to build, compared by
value, not hashable, and read-only by convention. It is also the segment
on the simulated link (see ``wire``), so it checks nothing when built.
"""

import json
import re
from dataclasses import dataclass
from itertools import count
from json.encoder import encode_basestring_ascii as _json_string

from .errors import TraceParseError

DIRS = frozenset({"tx", "rx"})
KINDS = frozenset({"syn", "synack", "data", "ack", "rst", "fin"})

_FIELDS = ("t_us", "dir", "kind", "seq", "len", "ack", "ip_id")
_INT_FIELDS = ("t_us", "seq", "len", "ack", "ip_id")

# The exact line write_trace emits for a valid event, newline included: ASCII
# digits without leading zeros, no spaces, the keys in _FIELDS order, and
# the len rule as lookaheads on the kind (data has len >= 1, any other 0).
# No match holds a line break but its last "\n", and each starts at a line
# start, so a text is all canonical lines exactly when it has as many
# matches as "\n"s.
_NAT = "(0|[1-9][0-9]*)"
_CANONICAL_LINES = re.compile(
    f'^{{"t_us":{_NAT},"dir":"(tx|rx)","kind":"(data(?=","seq":[0-9]+,"len":[1-9])'
    f'|(?:syn|synack|ack|rst|fin)(?=","seq":[0-9]+,"len":0,))",'
    f'"seq":{_NAT},"len":{_NAT},"ack":{_NAT},"ip_id":{_NAT}}}\n',
    re.MULTILINE,
)

PLOT_HEADER = "t_us,y,marker"


@dataclass(slots=True)
class TraceEvent:
    """One packet in a probe's trace, as the prober saw it: ``tx`` sent, ``rx`` received."""
    t_us: int
    dir: str
    kind: str
    seq: int
    len: int
    ack: int
    ip_id: int


def write_trace(trace: list[TraceEvent], sink) -> None:
    """Write one JSON object per event to ``sink``, an open text file.

    With int and str fields, each line is what json.dumps(...,
    separators=(",", ":")) makes of the fields in _FIELDS order, built
    without going through json.
    """
    sink.write("".join([
        f'{{"t_us":{e.t_us},"dir":{_json_string(e.dir)},"kind":{_json_string(e.kind)},'
        f'"seq":{e.seq},"len":{e.len},"ack":{e.ack},"ip_id":{e.ip_id}}}\n'
        for e in trace
    ]))


def _parse_line(line_no: int, line: str) -> TraceEvent:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(line_no, f"invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise TraceParseError(line_no, "invalid JSON (nested too deeply)") from exc
    if not isinstance(raw, dict):
        raise TraceParseError(line_no, "event is not an object")
    if set(raw) != set(_FIELDS):
        raise TraceParseError(line_no, f"expected exactly the keys {_FIELDS}")
    for key in _INT_FIELDS:
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


def _read_lines(text: str) -> list[TraceEvent]:
    events, lines = [], text.split("\n")
    if not lines[-1]:
        lines.pop()  # a final "\n" ends the last line; it opens no blank one
    try:
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                raise TraceParseError(line_no, "blank line")
            events.append(_parse_line(line_no, line))
    except ValueError as exc:  # json.loads past the int-string digit limit
        raise TraceParseError(line_no, "integer has too many digits") from exc
    return events


def read_trace(text: str) -> list[TraceEvent]:
    """Parse a trace from its JSONL text."""
    body = text if text.endswith("\n") else text + "\n"
    # A text not canonical from its first line is never scanned whole.
    rows = _CANONICAL_LINES.findall(body) if _CANONICAL_LINES.match(body) else []
    try:
        if len(rows) != body.count("\n"):
            raise ValueError  # not all canonical lines
        events = [TraceEvent(int(t), d, k, int(s), int(n), int(a), int(i))
                  for t, d, k, s, n, a, i in rows]
    except ValueError:  # or an integer past the digit limit: the line reader names the line
        events = _read_lines(text)
    # Every line parsed before any order check: parse errors outrank order errors.
    for line_no, prev, cur in zip(count(2), events, events[1:]):
        if cur.t_us < prev.t_us:
            raise TraceParseError(
                line_no, f"t_us {cur.t_us} before the previous line's {prev.t_us}"
            )
    return events


def emit_plot_points(trace: list[TraceEvent]) -> list[tuple[int, int, str]]:
    """Time/sequence points: received data plots seq+len, sent acks plot ack."""
    points = []
    for event in trace:
        if event.dir == "rx" and event.kind == "data":
            points.append((event.t_us, event.seq + event.len, "packet"))
        elif event.dir == "tx" and event.kind == "ack":
            points.append((event.t_us, event.ack, "ack"))
    return points


def write_plot_points(trace: list[TraceEvent], sink) -> None:
    """Write plot points as CSV, under a t_us,y,marker header, to the open text file ``sink``."""
    sink.write(PLOT_HEADER + "\n" + "".join([
        f"{t_us},{y},{marker}\n" for t_us, y, marker in emit_plot_points(trace)
    ]))
