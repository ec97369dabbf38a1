"""Seeded inputs, per-item work and the reference pass of each workload.

A workload draws a fixed pool of entries from its seed and the timed
loop cycles through that pool, one item at a time on one thread (a
closed loop with a single client). The library sees only the generated
``Scenario`` objects and traces.

Pools are drawn as Latin hypercubes: every numeric knob is uniform over
its range, one draw from each of ``n`` equal strata, and categorical
knobs are balanced, per variant in ``draw_default_scale`` and over the
whole pool in ``draw_long``. Seeds then change the exact values but
not the mix, so the host cost of a pool, and the share of scenarios that
hit a known labelling defect, barely move from seed to seed.
"""

import hashlib
import io
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0
MSS = 100  # probe script MSS; the sender negotiates down to it
DROPS = frozenset({13, 16})


@dataclass(frozen=True)
class Entry:
    scenario: object  # ccprobe.netsim.Scenario
    trace: list | None = None  # simulated during set-up (archive only)


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int  # entries drawn per seed; a multiple of the five variants
    warmup: int  # items run untimed at the end of set-up
    draw: Callable  # (lib, rng, n) -> list[Scenario]
    item: Callable  # (lib, entry) -> output checked against the reference
    target: tuple  # layers this workload is meant to stress
    presimulate: bool = False  # simulate the pool's traces during set-up


def _strata(rng, n):
    """n fractions in [0, 1), one from each of n equal strata, shuffled."""
    picks = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(picks)
    return picks


def _ints(rng, n, lo, hi):
    return [lo + int(f * (hi - lo + 1)) for f in _strata(rng, n)]


def _balanced(rng, n, choices):
    picks = [choices[k % len(choices)] for k in range(n)]
    rng.shuffle(picks)
    return picks


def _scenario(lib, variant, rtt_ms, page_packets, ack_limit, cwnd):
    return lib.netsim.Scenario(
        variant=variant,
        rtt_ms=rtt_ms,
        page_bytes=page_packets * MSS,
        sender_config=lib.sender.SenderConfig(initial_cwnd=cwnd),
        probe_script=lib.prober.ProbeScript(
            mss=MSS, drop_packets=DROPS, ack_limit_packet=ack_limit
        ),
    )


def draw_default_scale(lib, rng, n):
    """`ccprobe matrix` scale: ~84 events a probe, RTT over 1-800 ms.

    The RTT range is not clipped: above ~333 ms the timer-versus-fast rule
    misreads repairs, and those wrong labels must stay visible.
    """
    out = []
    m = n // len(lib.sender.Variant)
    for variant in lib.sender.Variant:
        for rtt, cwnd, ack, extra in zip(
            _ints(rng, m, 1, 800),
            _balanced(rng, m, (1, 2, 4)),
            _balanced(rng, m, (25, 30, 40)),
            _ints(rng, m, 1, 10),
        ):
            out.append(_scenario(lib, variant, rtt, ack + extra, ack, cwnd))
    rng.shuffle(out)
    return out


def draw_long(lib, rng, n):
    """Pages of 150-500 packets, ack limit 1-20% below the page.

    Congestion avoidance runs long enough here to emit runt segments; the
    sizes are chosen to keep them, not to hide them. The classifier's cost
    grows faster than the page, so the item-time percentiles follow the
    page sizes: pages are one Latin hypercube over the whole pool, and each
    run of five consecutive sizes gets every variant once, so that every
    variant spans the full range of sizes.
    """
    variants = list(lib.sender.Variant)
    order = []
    for _ in range(0, n, len(variants)):
        rng.shuffle(variants)
        order += variants
    out = []
    for page, variant, below, rtt, cwnd in zip(
        sorted(_ints(rng, n, 150, 500)),
        order,
        _strata(rng, n),
        _ints(rng, n, 10, 300),
        _balanced(rng, n, (1, 2, 4)),
    ):
        ack = page - max(1, round(page * (0.01 + 0.19 * below)))
        out.append(_scenario(lib, variant, rtt, page, ack, cwnd))
    rng.shuffle(out)
    return out


def probe(lib, entry):
    """`cmd_matrix`'s call sequence: simulate one probe, then classify it."""
    scenario = entry.scenario
    trace, reason = lib.netsim.run_to_completion(lib.netsim.sim_init(scenario))
    return trace, reason, lib.classifier.classify_trace(trace, scenario.probe_script)


def round_trip(lib, entry):
    """Write, re-read, compare, classify and plot one trace in memory."""
    sink = io.StringIO()
    lib.traceio.write_trace(entry.trace, sink)
    reread = lib.traceio.read_trace(sink.getvalue())
    same = reread == entry.trace
    report = lib.classifier.classify_trace(reread, entry.scenario.probe_script)
    return same, report, lib.traceio.emit_plot_points(reread)


WORKLOADS = {
    "sweep": Workload(
        "sweep", pool=500, warmup=25, draw=draw_default_scale, item=probe,
        target=("netsim", "sender", "prober"),
    ),
    "long": Workload(
        "long", pool=40, warmup=1, draw=draw_long, item=probe, target=("classifier",),
    ),
    "archive": Workload(
        "archive", pool=300, warmup=25, draw=draw_default_scale, item=round_trip,
        target=("traceio",), presimulate=True,
    ),
}


def entries(lib, workload, seed, pool):
    """The pool of a seed; archive also simulates each scenario's trace."""
    rng = random.Random(f"{workload.name}/{seed}")
    scenarios = workload.draw(lib, rng, pool)
    if not workload.presimulate:
        return [Entry(s) for s in scenarios]
    return [
        Entry(s, lib.netsim.run_to_completion(lib.netsim.sim_init(s))[0])
        for s in scenarios
    ]


@dataclass
class Reference:
    """Expected output of every pool entry, and what identifies the pool."""

    traces: list
    reports: list  # ClassificationReport.to_dict() of each trace
    points: list  # plot points per trace
    ok: list  # the entry passed every check of the reference pass
    digest: str  # SHA-256 over the JSONL of every trace, in pool order
    counts: dict  # simulated counts summed over the pool
    mislabeled: int


def reference(lib, pool_entries, tracer):
    """Run every entry once through each layer under ``tracer``.

    This pass is outside every timed region. It simulates and classifies
    each entry, which fixes the output the timed items must reproduce (for
    archive: the report of the re-read trace must equal the report of the
    original). It checks the serialization round trip and the plot points
    of every trace, and the tracer's counts give simulated counts that the
    trace alone does not show (timers fired, duplicate ACKs sent).
    """
    digest = hashlib.sha256()
    ref = Reference([], [], [], [], "", {}, 0)
    totals = dict(events=0, segments=0, retransmissions=0)
    before = dict(tracer.counts)
    tracer.install(lib)
    try:
        for entry in pool_entries:
            trace, reason, report = probe(lib, entry)
            sink = io.StringIO()
            lib.traceio.write_trace(trace, sink)
            text = sink.getvalue()
            digest.update(text.encode())
            points = lib.traceio.emit_plot_points(trace)
            expected_points = sum(
                (ev.dir, ev.kind) in (("rx", "data"), ("tx", "ack")) for ev in trace
            )
            ref.traces.append(trace)
            ref.reports.append(report.to_dict())
            ref.points.append(points)
            ref.ok.append(
                reason is lib.netsim.TerminationReason.PROBER_CLOSED
                and lib.traceio.read_trace(text) == trace
                and len(points) == expected_points
                and (entry.trace is None or entry.trace == trace)
            )
            ref.mislabeled += report.label != entry.scenario.variant.value
            totals["events"] += len(trace)
            totals["segments"] += sum(ev.dir == "rx" and ev.kind == "data" for ev in trace)
            totals["retransmissions"] += report.features.retransmission_count
    finally:
        tracer.uninstall()
    for key in ("dupacks", "timers"):
        totals[key] = tracer.counts[f"sim.{key}"] - before.get(f"sim.{key}", 0)
    ref.digest = digest.hexdigest()
    ref.counts = totals
    return ref


def check(lib, workload, ref, index, output):
    """True when one timed item's output matches the reference."""
    if workload.presimulate:
        same, report, points = output
        ok = same and points == ref.points[index]
    else:
        trace, reason, report = output
        closed = reason is lib.netsim.TerminationReason.PROBER_CLOSED
        ok = closed and trace == ref.traces[index]
    return ok and ref.ok[index] and report.to_dict() == ref.reports[index]
