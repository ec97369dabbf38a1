"""Trace classifier: name the congestion-control variant behind a trace.

Everything here works from the prober's observed trace alone (plus the
probe script that produced it); no sender or session state is consulted,
and only the trace of a finished probe gets a label. The trace yields a
small feature vector -- how the two scripted losses were repaired,
whether anything else was retransmitted between or after them, and
whether the path reordered -- and an ordered decision table maps the
features to a label or an error.

Retransmissions are recognized as data arrivals whose byte range overlaps
an earlier arrival carrying a lower ip_id (the server's ip_id increases by
one per emitted segment). A retransmission is ``timeout`` when the silence
since the previous data arrival exceeds 1.5 estimated round trips
(``TIMEOUT_RTTS``), ``fast`` otherwise: a fast repair follows within one
round trip, the timer's first repair of a hole after 1.84 or more.

Earlier arrivals are not compared one by one. A coverage index keeps the
bytes seen so far as sorted disjoint spans, each with the lowest ip_id
that covered it. An in-order arrival, one starting at or past the end of
the last span, is appended without a search; any other costs a bisect
plus the few spans it overlaps. ``extract_features`` makes one coverage
pass that yields both the retransmissions and the first reordered
arrival, so a trace classifies in time about linear in its length.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field

from .prober import EVENT_CAP, ProbeScript
from .traceio import TraceEvent
from .wire import first_index

LABELS = ("Tahoe", "Reno", "NewReno", "NoFastRetransmit", "RenoPlus")
LABEL_UNCLASSIFIABLE = "Unclassifiable"

ERROR_REORDERING = "Reordering"
ERROR_TRACE_OVERFLOW = "TraceOverflow"
ERROR_INCOMPLETE = "Incomplete"

RETX_NONE = "none"
RETX_FAST = "fast"
RETX_TIMEOUT = "timeout"


# A repair is a timer's when the silence since the previous data arrival
# exceeds this many estimated round trips. The prober acks every arrival,
# so a fast repair lands at most 1.0 round trip after the arrival that drew
# the last duplicate ACK. The first timer repair of a scripted hole lands
# at least 1.84 round trips after the previous arrival (measured over rtt
# 1-800 ms, pages of 30 and 50 packets, initial cwnd 1-4); 1.5 sits in that
# gap. A threshold of 3.0 misread 670 of the 9,200 first repairs over rtt
# 1-799 ms in 7 ms steps on the same pages and windows.
TIMEOUT_RTTS = 1.5


class IncompleteTrace(Exception):
    """No handshake in the trace to measure the round trip by."""


@dataclass
class FeatureVector:
    rtt_est: int = 0  # virtual microseconds
    retx13: str = RETX_NONE
    retx16: str = RETX_NONE
    unnecessary_retx17: bool = False
    extra_retx_between_13_and_16: bool = False
    reordering_detected: bool = False
    retransmission_count: int = 0


@dataclass
class ClassificationReport:
    label: str | None
    error: str | None
    features: FeatureVector
    evidence: list = field(default_factory=list)  # (trace index, note)

    def to_dict(self) -> dict:
        head = {"label": self.label} if self.error is None else {"error": self.error}
        return {
            **head,
            "features": asdict(self.features),
            "evidence": [[index, note] for index, note in self.evidence],
        }


@dataclass(slots=True)
class RetxEvent:
    index: int  # 1-based packet number
    t_us: int
    kind: str  # fast | timeout
    event_index: int  # position in the trace


class _Coverage:
    """Data bytes seen so far: sorted disjoint spans [start, end), each
    holding the lowest ip_id of the arrivals that covered it.

    Data arrivals have len > 0, so two arrivals overlap exactly when they
    share a byte; spans that only touch do not overlap.
    """

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.ip_ids: list[int] = []

    def add(self, start: int, end: int, ip_id: int) -> int | None:
        """Cover [start, end) with ip_id; the lowest ip_id it overlapped, or None."""
        starts, ends, ip_ids = self.starts, self.ends, self.ip_ids
        lo = bisect_right(ends, start)
        hi = bisect_left(starts, end, lo)
        if lo == hi:
            starts.insert(lo, start)
            ends.insert(lo, end)
            ip_ids.insert(lo, ip_id)
            return None
        lowest = min(ip_ids[lo:hi])
        # Rebuild the overlapped stretch: parts outside [start, end) keep
        # their ip_id, parts inside take the lower one, gaps take ip_id.
        pieces = []
        cursor = start
        for s, e, i in zip(starts[lo:hi], ends[lo:hi], ip_ids[lo:hi]):
            if cursor < s:
                pieces.append((cursor, s, ip_id))
            if s < start:
                pieces.append((s, start, i))
            pieces.append((max(s, start), min(e, end), min(i, ip_id)))
            if end < e:
                pieces.append((end, e, i))
            cursor = e
        if cursor < end:
            pieces.append((cursor, end, ip_id))
        starts[lo:hi], ends[lo:hi], ip_ids[lo:hi] = zip(*pieces)
        return lowest


def estimate_rtt(trace: list[TraceEvent]) -> int | None:
    """Round trip from SYN -> SYN+ACK, or None without a handshake."""
    syn_t = next((ev.t_us for ev in trace if ev.dir == "tx" and ev.kind == "syn"), None)
    if syn_t is not None:
        for ev in trace:
            if ev.dir == "rx" and ev.kind == "synack" and ev.t_us >= syn_t:
                return ev.t_us - syn_t
    return None


def _coverage_pass(
    trace: list[TraceEvent], rtt_est: int, mss: int
) -> tuple[list[RetxEvent], int | None]:
    """One scan of the data arrivals: the retransmissions, and the trace
    index of the first fresh arrival whose ip_id runs backwards (or None)."""
    retxs = []
    reorder_at = None
    max_fresh_ip_id = -math.inf
    coverage = _Coverage()
    add, starts, ends, ip_ids = coverage.add, coverage.starts, coverage.ends, coverage.ip_ids
    limit = TIMEOUT_RTTS * rtt_est
    last_data_t = None
    for position, ev in enumerate(trace):
        if ev.kind != "data" or ev.dir != "rx":
            continue
        start, ip_id = ev.seq, ev.ip_id
        if not ends or start >= ends[-1]:
            # In order: past every span, so it overlaps nothing (add's lo == hi == len).
            starts.append(start)
            ends.append(start + ev.len)
            ip_ids.append(ip_id)
            lowest = None
        else:
            lowest = add(start, start + ev.len, ip_id)
        if lowest is None:
            if ip_id >= max_fresh_ip_id:
                max_fresh_ip_id = ip_id
            elif reorder_at is None:
                reorder_at = position
        elif lowest < ip_id:
            gap = ev.t_us - last_data_t if last_data_t is not None else 0
            kind = RETX_TIMEOUT if gap > limit else RETX_FAST
            retxs.append(RetxEvent(first_index(ev.seq, mss), ev.t_us, kind, position))
        last_data_t = ev.t_us
    return retxs, reorder_at


def detect_retransmissions(trace: list[TraceEvent], rtt_est: int, *, mss: int) -> list[RetxEvent]:
    return _coverage_pass(trace, rtt_est, mss)[0]


def detect_reordering(trace: list[TraceEvent]) -> int | None:
    """Trace index of the first fresh arrival whose ip_id runs backwards."""
    return _coverage_pass(trace, 0, 1)[1]


def classify(features: FeatureVector) -> ClassificationReport:
    """Ordered decision table; exactly one label or error per input."""
    f = features

    def labeled(label):
        return ClassificationReport(label=label, error=None, features=f)

    if f.reordering_detected:
        return ClassificationReport(label=None, error=ERROR_REORDERING, features=f)
    if f.retx13 == RETX_TIMEOUT:
        return labeled("NoFastRetransmit")
    if f.retx13 == RETX_NONE:
        return labeled(LABEL_UNCLASSIFIABLE)
    if f.extra_retx_between_13_and_16:
        return labeled("RenoPlus")
    if f.unnecessary_retx17:
        return labeled("Tahoe")
    if f.retx16 == RETX_TIMEOUT:
        return labeled("Reno")
    if f.retx16 == RETX_FAST and f.retransmission_count == 2:
        return labeled("NewReno")
    return labeled(LABEL_UNCLASSIFIABLE)


def extract_features(trace: list[TraceEvent], script: ProbeScript) -> tuple[FeatureVector, list]:
    """Build the feature vector plus the trace-index evidence behind it."""
    rtt = estimate_rtt(trace)
    if rtt is None:
        raise IncompleteTrace()

    drops = sorted(script.drop_packets)
    first_drop = drops[0] if drops else None
    last_drop = drops[-1] if drops else None
    follower = last_drop + 1 if last_drop is not None else None

    retxs, reorder_at = _coverage_pass(trace, rtt, script.mss)
    evidence = []
    for retx in retxs:
        evidence.append(
            (retx.event_index, f"retransmission of packet {retx.index} ({retx.kind})")
        )
    if reorder_at is not None:
        evidence.append((reorder_at, "ip_id order inconsistent with arrival order"))

    def first_retx(index):
        return next((r for r in retxs if r.index == index), None)

    features = FeatureVector(rtt_est=rtt, reordering_detected=reorder_at is not None)
    features.retransmission_count = len(retxs)
    r13 = first_retx(first_drop) if first_drop is not None else None
    r16 = first_retx(last_drop) if last_drop is not None else None
    if r13 is not None:
        features.retx13 = r13.kind
        # A repair kind for the second drop is only meaningful once the
        # first drop was seen repaired.
        if r16 is not None:
            features.retx16 = r16.kind
            features.extra_retx_between_13_and_16 = any(
                r.index not in (first_drop, last_drop)
                and r13.event_index < r.event_index < r16.event_index
                for r in retxs
            )
    repeats = [r for r in retxs if r.index == follower]
    if repeats:
        follower_end = follower * script.mss
        acked_at = next(
            (
                position
                for position, ev in enumerate(trace)
                if ev.dir == "tx" and ev.kind == "ack" and ev.ack >= follower_end
            ),
            len(trace),
        )
        r = next((r for r in repeats if acked_at < r.event_index), None)
        if r is not None:
            features.unnecessary_retx17 = True
            evidence.append(
                (r.event_index, f"packet {follower} arrived again after being ack-covered")
            )
    return features, evidence


def _error_row(error: str) -> ClassificationReport:
    return ClassificationReport(label=None, error=error, features=FeatureVector())


def classify_trace(trace: list[TraceEvent], script: ProbeScript) -> ClassificationReport:
    """Full pipeline from observed trace to report.

    Only a finished probe gets a label. A trace of EVENT_CAP events or more
    is a TraceOverflow error row, and a trace in which the prober never
    sent ``rst`` or ``fin``, or that lacks the handshake, is an Incomplete one.
    """
    if len(trace) >= EVENT_CAP:
        return _error_row(ERROR_TRACE_OVERFLOW)
    # The prober's close sits within a few hundred events of the end.
    if not any(ev.dir == "tx" and ev.kind in ("rst", "fin") for ev in reversed(trace)):
        return _error_row(ERROR_INCOMPLETE)
    try:
        features, evidence = extract_features(trace, script)
    except IncompleteTrace:
        return _error_row(ERROR_INCOMPLETE)
    report = classify(features)
    report.evidence = evidence
    return report
