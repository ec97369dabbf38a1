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
before it exceeds timeout_factor * estimated rtt, ``fast`` otherwise.

Earlier arrivals are not compared one by one. A coverage index keeps the
bytes seen so far as sorted disjoint spans, each with the lowest ip_id
that covered it, so an arrival costs a bisect plus the few spans it
overlaps, and a trace classifies in time about linear in its length.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field

from .errors import ConfigurationError
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


class IncompleteTrace(Exception):
    """No measurable exchange in the trace."""


@dataclass(frozen=True)
class ClassifierConfig:
    timeout_factor: float = 3.0

    def __post_init__(self):
        # Zero or less reads nearly every repair as a timeout; nan and inf read all as fast.
        if not (math.isfinite(self.timeout_factor) and self.timeout_factor > 0):
            raise ConfigurationError("timeout factor must be a positive finite number")


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


@dataclass(frozen=True)
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
    """Round trip from SYN -> SYN+ACK, else request -> first data arrival."""
    syn_t = next((ev.t_us for ev in trace if ev.dir == "tx" and ev.kind == "syn"), None)
    if syn_t is not None:
        for ev in trace:
            if ev.dir == "rx" and ev.kind == "synack" and ev.t_us >= syn_t:
                return ev.t_us - syn_t
    req_t = next((ev.t_us for ev in trace if ev.dir == "tx" and ev.kind == "data"), None)
    if req_t is not None:
        for ev in trace:
            if ev.dir == "rx" and ev.kind == "data" and ev.t_us >= req_t:
                return ev.t_us - req_t
    return None


def detect_retransmissions(
    trace: list[TraceEvent],
    rtt_est: int,
    *,
    mss: int,
    timeout_factor: float = 3.0,
) -> list[RetxEvent]:
    out = []
    seen = _Coverage()
    last_data_t = None
    for position, ev in enumerate(trace):
        if ev.dir != "rx" or ev.kind != "data":
            continue
        lowest = seen.add(ev.seq, ev.seq + ev.len, ev.ip_id)
        if lowest is not None and lowest < ev.ip_id:
            gap = ev.t_us - last_data_t if last_data_t is not None else 0
            kind = RETX_TIMEOUT if gap > timeout_factor * rtt_est else RETX_FAST
            out.append(
                RetxEvent(
                    index=first_index(ev.seq, mss),
                    t_us=ev.t_us,
                    kind=kind,
                    event_index=position,
                )
            )
        last_data_t = ev.t_us
    return out


def detect_reordering(trace: list[TraceEvent]) -> int | None:
    """Trace index of the first fresh arrival whose ip_id runs backwards."""
    max_ip_id = None
    seen = _Coverage()
    for position, ev in enumerate(trace):
        if ev.dir != "rx" or ev.kind != "data":
            continue
        if seen.add(ev.seq, ev.seq + ev.len, ev.ip_id) is None:
            if max_ip_id is not None and ev.ip_id < max_ip_id:
                return position
            max_ip_id = ev.ip_id if max_ip_id is None else max(max_ip_id, ev.ip_id)
    return None


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


def extract_features(
    trace: list[TraceEvent],
    script: ProbeScript,
    config: ClassifierConfig | None = None,
) -> tuple[FeatureVector, list]:
    """Build the feature vector plus the trace-index evidence behind it."""
    config = config or ClassifierConfig()
    rtt = estimate_rtt(trace)
    if rtt is None:
        raise IncompleteTrace()

    drops = sorted(script.drop_packets)
    first_drop = drops[0] if drops else None
    last_drop = drops[-1] if drops else None
    follower = last_drop + 1 if last_drop is not None else None

    retxs = detect_retransmissions(
        trace, rtt, mss=script.mss, timeout_factor=config.timeout_factor
    )
    reorder_at = detect_reordering(trace)
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


def classify_trace(
    trace: list[TraceEvent],
    script: ProbeScript,
    config: ClassifierConfig | None = None,
) -> ClassificationReport:
    """Full pipeline from observed trace to report.

    Only a finished probe gets a label. A trace of EVENT_CAP events or more
    is a TraceOverflow error row, and a trace in which the prober never
    sent ``rst`` or ``fin`` is an Incomplete one.
    """
    if len(trace) >= EVENT_CAP:
        return _error_row(ERROR_TRACE_OVERFLOW)
    # The prober's close sits within a few hundred events of the end.
    if not any(ev.dir == "tx" and ev.kind in ("rst", "fin") for ev in reversed(trace)):
        return _error_row(ERROR_INCOMPLETE)
    try:
        features, evidence = extract_features(trace, script, config)
    except IncompleteTrace:
        return _error_row(ERROR_INCOMPLETE)
    report = classify(features)
    report.evidence = evidence
    return report
