"""Trace classifier: name the congestion-control variant behind a trace.

Everything here works from the prober's observed trace alone (plus the
probe script that produced it); no sender or session state is consulted,
and only the trace of a finished probe gets a label. The trace yields a
small feature vector -- how the two scripted losses were repaired and
whether anything else was retransmitted between or after them -- and an
ordered decision table maps the features to a label. One walk over the
retransmissions, which are in trace order, finds each drop's first
repair and the repeats of the packet after the last drop.

As TBIT does, a trace is judged only if its path was clean. The server
numbers its segments from one per-connection ip_id counter, starting at
the SYN+ACK, and the scripted drops are recorded on arrival. So on a
clean path every data arrival carries the next ip_id and starts at or
below the high-water mark ``high``: the bytes seen form one prefix
[0, high). One scan checks both. At the first arrival that fails, the trace gets an
error row naming it: ``Reordering`` when its ip_id runs backwards or a
later arrival carries a lower one, ``UnexpectedLoss`` otherwise. A clean
path's first repeat of a packet below the first scripted drop, which the
prober never refused, means a timer fired before any loss (a round trip
above the 1 s initial RTO): a ``SpuriousTimeout`` row names it. So does
a repeat of packet 1 less than one round trip after the first data,
whatever the first drop: a fast repair lands a round trip or more after
it, and only a timer, its RTO at least 1 s, comes sooner.

On a clean path an arrival overlaps earlier ones, all of lower ip_id,
exactly when it starts below ``high``: that is a retransmission. It is
``timeout`` when the silence since the previous data arrival exceeds 1.5
estimated round trips (``TIMEOUT_RTTS``), ``fast`` otherwise: a fast
repair follows within one round trip, the timer's first repair of a hole
after 1.84 or more.
"""

from dataclasses import asdict, dataclass, field

from .netsim import EVENT_CAP
from .prober import ProbeScript
from .traceio import TraceEvent

LABEL_UNCLASSIFIABLE = "Unclassifiable"

ERROR_REORDERING = "Reordering"
ERROR_UNEXPECTED_LOSS = "UnexpectedLoss"
ERROR_TRACE_OVERFLOW = "TraceOverflow"
ERROR_INCOMPLETE = "Incomplete"
ERROR_SPURIOUS_TIMEOUT = "SpuriousTimeout"

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


class _Unjudgeable(Exception):
    """No label can be read off the trace; args: the error row's error and evidence."""


@dataclass
class FeatureVector:
    """How a trace repaired the scripted losses: what the decision table reads."""
    rtt_est: int = 0  # virtual microseconds
    retx13: str = RETX_NONE
    retx16: str = RETX_NONE
    unnecessary_retx17: bool = False
    extra_retx_between_13_and_16: bool = False
    retransmission_count: int = 0


@dataclass
class ClassificationReport:
    """A label or an error, with the features and trace evidence behind it."""
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
    """One retransmission found in a trace, and whether a timer or duplicate ACKs sent it."""
    index: int  # 1-based packet number
    t_us: int
    kind: str  # fast | timeout
    event_index: int  # position in the trace


def estimate_rtt(trace: list[TraceEvent]) -> int | None:
    """Round trip from SYN -> SYN+ACK, or None without a handshake."""
    for syn in trace:
        if syn.dir == "tx" and syn.kind == "syn":
            for ev in trace:
                if ev.dir == "rx" and ev.kind == "synack" and ev.t_us >= syn.t_us:
                    return ev.t_us - syn.t_us
            return None
    return None


def _coverage_pass(
    trace: list[TraceEvent], rtt_est: int, mss: int
) -> tuple[list[RetxEvent], tuple | None]:
    """One scan of the server's arrivals: the retransmissions before the
    first path break, and that break as (error, trace index, note) or None."""
    retxs = []
    limit = TIMEOUT_RTTS * rtt_est
    high = 0  # the bytes seen so far are [0, high)
    next_ip_id = -1  # no data is due before the SYN+ACK
    last_data_t = None
    for position, ev in enumerate(trace):
        if ev.dir != "rx":
            continue
        if ev.kind != "data":
            if ev.kind == "synack":
                next_ip_id = ev.ip_id + 1
            continue
        start, ip_id = ev.seq, ev.ip_id
        if ip_id != next_ip_id or start > high:
            reordered = ip_id < next_ip_id or any(
                later.ip_id < ip_id
                for later in trace[position + 1:]
                if later.dir == "rx" and later.kind == "data"
            )
            error = ERROR_REORDERING if reordered else ERROR_UNEXPECTED_LOSS
            note = f"path break: ip_id {ip_id} at byte {start}, due ip_id {next_ip_id} at byte <= {high}"
            return retxs, (error, position, note)
        next_ip_id += 1
        if start < high:
            gap = ev.t_us - last_data_t if last_data_t is not None else 0
            kind = RETX_TIMEOUT if gap > limit else RETX_FAST
            retxs.append(RetxEvent(start // mss + 1, ev.t_us, kind, position))
        end = start + ev.len
        if end > high:
            high = end
        last_data_t = ev.t_us
    return retxs, None


def detect_retransmissions(trace: list[TraceEvent], rtt_est: int, *, mss: int) -> list[RetxEvent]:
    return _coverage_pass(trace, rtt_est, mss)[0]


def detect_reordering(trace: list[TraceEvent]) -> int | None:
    """Trace index of the first path break, if the path reordered there."""
    broken = _coverage_pass(trace, 0, 1)[1]
    return broken[1] if broken is not None and broken[0] == ERROR_REORDERING else None


def classify(features: FeatureVector) -> str:
    """Ordered decision table; exactly one label per input."""
    f = features
    if f.retx13 == RETX_TIMEOUT:
        return "NoFastRetransmit"
    if f.retx13 == RETX_NONE:
        return LABEL_UNCLASSIFIABLE
    if f.extra_retx_between_13_and_16:
        return "RenoPlus"
    if f.unnecessary_retx17:
        return "Tahoe"
    if f.retx16 == RETX_TIMEOUT:
        return "Reno"
    if f.retx16 == RETX_FAST and f.retransmission_count == 2:
        return "NewReno"
    return LABEL_UNCLASSIFIABLE


def extract_features(trace: list[TraceEvent], script: ProbeScript) -> tuple[FeatureVector, list]:
    """Build the feature vector plus the trace-index evidence behind it."""
    rtt = estimate_rtt(trace)
    if rtt is None:
        raise _Unjudgeable(ERROR_INCOMPLETE, [])

    retxs, broken = _coverage_pass(trace, rtt, script.mss)
    if broken is not None:
        error, position, note = broken
        raise _Unjudgeable(error, [(position, note)])
    drops = sorted(script.drop_packets)
    for r in retxs:  # a timer's repeat: of a packet never refused, or too soon
        if not drops or r.index < drops[0]:
            note = f"retransmission of packet {r.index} before any scripted loss"
        elif r.index == 1 and r.t_us < rtt + next(
            e.t_us for e in trace if e.dir == "rx" and e.kind == "data"
        ):
            note = "retransmission of packet 1 within one round trip of the first data"
        else:
            continue
        raise _Unjudgeable(ERROR_SPURIOUS_TIMEOUT, [(r.event_index, note)])
    evidence = [
        (r.event_index, f"retransmission of packet {r.index} ({r.kind})") for r in retxs
    ]
    features = FeatureVector(rtt_est=rtt, retransmission_count=len(retxs))
    if not drops:
        return features, evidence
    first_drop, last_drop, follower = drops[0], drops[-1], drops[-1] + 1
    # One walk over the retransmissions, which are in trace order: where
    # each drop is first repaired, and the follower's repeats.
    at13, at16, repeats = None, None, []
    for position, r in enumerate(retxs):
        if r.index == follower:
            repeats.append(r)
            continue
        if r.index == first_drop and at13 is None:
            at13 = position
        if r.index == last_drop and at16 is None:
            at16 = position
    if at13 is not None:
        features.retx13 = retxs[at13].kind
        # A repair kind for the second drop is only meaningful once the
        # first drop was seen repaired.
        if at16 is not None:
            features.retx16 = retxs[at16].kind
            for r in retxs[at13 + 1:at16]:
                if r.index != first_drop and r.index != last_drop:
                    features.extra_retx_between_13_and_16 = True
                    break
    if repeats:
        # A repeat after the first ACK that covers the follower was
        # unnecessary; only an ACK before the last repeat can precede one.
        follower_end = follower * script.mss
        for acked_at, ev in enumerate(trace[:repeats[-1].event_index]):
            if ev.dir == "tx" and ev.kind == "ack" and ev.ack >= follower_end:
                for r in repeats:
                    if acked_at < r.event_index:
                        break
                features.unnecessary_retx17 = True
                evidence.append(
                    (r.event_index, f"packet {follower} arrived again after being ack-covered")
                )
                break
    return features, evidence


def _error_row(error: str, evidence: list) -> ClassificationReport:
    return ClassificationReport(None, error, FeatureVector(), evidence)


def classify_trace(trace: list[TraceEvent], script: ProbeScript) -> ClassificationReport:
    """Full pipeline from observed trace to report.

    Only a finished probe gets a label. A trace of EVENT_CAP events or more
    is a TraceOverflow error row, and a trace in which the prober never
    sent ``rst`` or ``fin``, or that lacks the handshake, is an Incomplete
    one. A path break is a Reordering or UnexpectedLoss row naming it, and
    a retransmission of a packet below the first scripted drop (of any
    packet, with no drop), or of packet 1 within one round trip of the
    first data, is a SpuriousTimeout row naming it.
    """
    if len(trace) >= EVENT_CAP:
        return _error_row(ERROR_TRACE_OVERFLOW, [])
    # The prober's close sits within a few hundred events of the end.
    for ev in reversed(trace):
        if ev.dir == "tx" and ev.kind in ("rst", "fin"):
            break
    else:
        return _error_row(ERROR_INCOMPLETE, [])
    try:
        features, evidence = extract_features(trace, script)
    except _Unjudgeable as exc:
        return _error_row(*exc.args)
    return ClassificationReport(classify(features), None, features, evidence)
