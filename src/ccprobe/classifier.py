"""Trace classifier: name the congestion-control variant behind a trace.

Everything here works from the prober's observed trace alone (plus the
probe script that produced it, which ``read_script`` reads off the
trace); no sender or session state is consulted, and only the trace of a
finished probe has features or gets a label:
``extract_features`` runs every check, in the order its docstring gives,
and ``classify_trace`` reports the first that fails. Like TBIT's, the
ordered decision table is built for exactly two refused packets, so a
script of any other number of drops gets a ``NotTwoDrops`` error row.
One walk over the retransmissions reads the features: each drop's first
repair, another packet's repair between those two, and a repeat of the
follower, the packet after the second drop, past the scan's covering ACK.

As TBIT does, a trace is judged only if its path was clean. The server
numbers its segments from one per-connection ip_id counter, starting at
the SYN+ACK, and the scripted drops are recorded on arrival. So on a
clean path every data arrival carries the next ip_id and starts at or
below the high-water mark ``high``: the bytes seen form one prefix
[0, high). One scan checks both. At the first arrival that fails, the
trace gets an error row naming it: ``Reordering`` when its ip_id runs
backwards or a later arrival carries a lower one, ``UnexpectedLoss``
otherwise. A clean path's first repeat of a packet below the first drop,
which the prober never refused, means a timer fired before any loss (a
round trip above the 1 s initial RTO): a ``SpuriousTimeout`` row names
it. So does a repeat of packet 1, when it is the first drop, less than
one round trip after the first data: a fast repair lands a round trip or
more after it, and only a timer, its RTO at least 1 s, comes sooner.

On a clean path an arrival overlaps earlier ones, all of lower ip_id,
exactly when it starts below ``high``: that is a retransmission. It is
``timeout`` when the silence since the previous data arrival exceeds 1.5
round trips (``TIMEOUT_RTTS``), ``fast`` otherwise: a fast repair follows
within one round trip, the timer's first repair of a hole after 1.84 or
more. The same scan reads that round trip off the prober's handshake: its
first SYN to the first SYN+ACK listed after it, before any data, at a
later ``t_us``. Without that pair a trace gets an ``Incomplete`` row.
"""

import math
from dataclasses import asdict, dataclass, field

from .netsim import EVENT_CAP
from .prober import ProbeScript
from .sender import Variant
from .traceio import TraceEvent

LABEL_UNCLASSIFIABLE = "Unclassifiable"

ERROR_REORDERING = "Reordering"
ERROR_UNEXPECTED_LOSS = "UnexpectedLoss"
ERROR_TRACE_OVERFLOW = "TraceOverflow"
ERROR_INCOMPLETE = "Incomplete"
ERROR_SPURIOUS_TIMEOUT = "SpuriousTimeout"
ERROR_NOT_TWO_DROPS = "NotTwoDrops"

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
    first_drop_repair: str = RETX_NONE
    second_drop_repair: str = RETX_NONE
    follower_repeated_after_ack: bool = False
    extra_repair_between_drops: bool = False
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


def _coverage_pass(
    trace: list[TraceEvent], mss: int, cover: float
) -> tuple[int | None, list[RetxEvent], tuple | None, int | None]:
    """One scan of the trace: the handshake's round trip, the retransmissions before the first path
    break, that break as (error, trace index, note), and the prober's first ACK of >= ``cover``."""
    for syn_at, syn in enumerate(trace):
        if syn.dir == "tx" and syn.kind == "syn":
            break
    else:
        syn_at = len(trace)  # no SYN: no SYN+ACK is listed after it
    rtt, limit = None, 0  # without a handshake no repair's kind is kept
    retxs = []
    high = 0  # the bytes seen so far are [0, high)
    next_ip_id = -1  # no data is due before the SYN+ACK
    last_data_t = covered = None
    for position, ev in enumerate(trace):
        if ev.dir != "rx":
            if covered is None and ev.ack >= cover and ev.kind == "ack":
                covered = position
            continue
        if ev.kind != "data":
            if ev.kind == "synack":
                next_ip_id = ev.ip_id + 1
                opening = rtt is None and last_data_t is None  # no round trip, no data yet
                if opening and syn_at < position and ev.t_us > syn.t_us:
                    rtt = ev.t_us - syn.t_us
                    limit = TIMEOUT_RTTS * rtt
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
            return rtt, retxs, (error, position, note), covered
        next_ip_id += 1
        if start < high:
            kind = RETX_TIMEOUT if ev.t_us - last_data_t > limit else RETX_FAST
            retxs.append(RetxEvent(start // mss + 1, ev.t_us, kind, position))
        end = start + ev.len
        if end > high:
            high = end
        last_data_t = ev.t_us
    return rtt, retxs, None, covered


def detect_retransmissions(trace: list[TraceEvent], *, mss: int) -> list[RetxEvent]:
    """The trace's retransmissions, judged by its own round trip; none without a handshake."""
    rtt, retxs, _, _ = _coverage_pass(trace, mss, math.inf)
    return retxs if rtt is not None else []


def detect_reordering(trace: list[TraceEvent]) -> int | None:
    """Trace index of the first path break, if the path reordered there."""
    broken = _coverage_pass(trace, 1, math.inf)[2]
    return broken[1] if broken is not None and broken[0] == ERROR_REORDERING else None


def classify(features: FeatureVector) -> str:
    """Ordered decision table; exactly one label per input."""
    f = features
    if f.first_drop_repair == RETX_TIMEOUT:
        return Variant.NO_FAST_RETRANSMIT.value
    if f.first_drop_repair == RETX_NONE:
        return LABEL_UNCLASSIFIABLE
    if f.extra_repair_between_drops:
        return Variant.RENO_PLUS.value
    if f.follower_repeated_after_ack:
        return Variant.TAHOE.value
    if f.second_drop_repair == RETX_TIMEOUT:
        return Variant.RENO.value
    if f.second_drop_repair == RETX_FAST and f.retransmission_count == 2:
        return Variant.NEWRENO.value
    return LABEL_UNCLASSIFIABLE


def extract_features(trace: list[TraceEvent], script: ProbeScript) -> tuple[FeatureVector, list]:
    """Build the feature vector plus the trace-index evidence behind it.

    Only a finished probe of a two-drop script has features; any other
    trace raises ``_Unjudgeable`` with its error row's error and evidence.
    In this order: a trace of EVENT_CAP events or more is TraceOverflow,
    one in which the prober never sent ``rst`` or ``fin`` Incomplete, and
    a script of other than two drops NotTwoDrops. Then a trace without the
    handshake's round trip is Incomplete, a path break is a Reordering or
    UnexpectedLoss row naming it, and a retransmission of a packet below
    the first drop, or of packet 1 within one round trip of the first
    data, is a SpuriousTimeout row naming it.
    """
    if len(trace) >= EVENT_CAP:
        raise _Unjudgeable(ERROR_TRACE_OVERFLOW, [])
    # The prober's close sits within a few hundred events of the end.
    for ev in reversed(trace):
        if ev.dir == "tx" and ev.kind in ("rst", "fin"):
            break
    else:
        raise _Unjudgeable(ERROR_INCOMPLETE, [])
    if len(script.drop_packets) != 2:
        raise _Unjudgeable(ERROR_NOT_TWO_DROPS, [])
    first, second = sorted(script.drop_packets)
    follower = second + 1
    rtt, retxs, broken, covered = _coverage_pass(trace, script.mss, follower * script.mss)
    if rtt is None:
        raise _Unjudgeable(ERROR_INCOMPLETE, [])
    if broken is not None:
        error, position, note = broken
        raise _Unjudgeable(error, [(position, note)])
    # One walk over the retransmissions, in trace order: a timer's early
    # repeat, each drop's first repair, another packet's repair between
    # those two, and the follower's first repeat after an ACK covered it.
    evidence = []
    repaired = {}  # drop -> the kind of its first repair
    between = False
    needless = None  # the follower's first repeat after its covering ACK
    for r in retxs:
        if r.index < first:  # the prober refused nothing below its first drop
            note = f"retransmission of packet {r.index} before any scripted loss"
        elif r.index == 1 and r.t_us < rtt + next(
            e.t_us for e in trace if e.dir == "rx" and e.kind == "data"
        ):
            note = "retransmission of packet 1 within one round trip of the first data"
        else:
            evidence.append((r.event_index, f"retransmission of packet {r.index} ({r.kind})"))
            if r.index == first or r.index == second:
                repaired.setdefault(r.index, r.kind)
            elif first in repaired and second not in repaired:
                between = True
            if r.index == follower and needless is None and covered is not None and covered < r.event_index:
                needless = r.event_index
            continue
        raise _Unjudgeable(ERROR_SPURIOUS_TIMEOUT, [(r.event_index, note)])
    features = FeatureVector(rtt_est=rtt, retransmission_count=len(retxs))
    if first in repaired:
        features.first_drop_repair = repaired[first]
        if second in repaired:  # read only once the first drop was repaired
            features.second_drop_repair = repaired[second]
            features.extra_repair_between_drops = between
    if needless is not None:
        features.follower_repeated_after_ack = True
        evidence.append((needless, f"packet {follower} arrived again after being ack-covered"))
    return features, evidence


def classify_trace(trace: list[TraceEvent], script: ProbeScript) -> ClassificationReport:
    """Full pipeline from observed trace to report: the table's label for
    ``extract_features``' features, or the error row it raised."""
    try:
        features, evidence = extract_features(trace, script)
    except _Unjudgeable as exc:
        return ClassificationReport(None, exc.args[0], FeatureVector(), exc.args[1])
    return ClassificationReport(classify(features), None, features, evidence)


def read_script(trace: list[TraceEvent]) -> ProbeScript:
    """The script the prober's records state. The MSS is the first data arrival's length,
    and a drop is a data arrival before the close that ends above the last ACK sent and
    has no ``tx`` record next: the prober answers every other such arrival at once. A
    drop is numbered by its last byte, and the ack limit is the least the drops allow."""
    mss, acked, drops = None, 0, set()
    for next_at, ev in enumerate(trace, start=1):
        if ev.dir == "tx":
            if ev.kind in ("rst", "fin"):
                break
            acked = ev.ack
        elif ev.kind == "data":
            mss, end = mss or ev.len, ev.seq + ev.len
            if end > acked and (next_at == len(trace) or trace[next_at].dir != "tx"):
                drops.add((end - 1) // mss + 1)
    return ProbeScript(mss or ProbeScript.mss, frozenset(drops), max(drops, default=0) + 1)
