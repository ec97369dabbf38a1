"""The scenario grid: a fixed list of runs, each simulated and classified.

Two parts, in this order:

* ``MAIN_GRID``, 4,600 runs: every variant x RTT 1-799 ms in 7 ms steps x
  the pages (3000 bytes, ack limit 25) and (5000, 40) x initial cwnd 1-4.
* ``MSS_GRID``, 150 runs: every variant x server MSS 10-91 in steps of 9
  x RTT {10, 100, 300} ms, at a 5000-byte page and the default script, so
  the server's MSS is below the script's 100.

Two long-RTT lists sit outside the two parts, so the digest does not
cover them. Above the 1 s initial RTO the timer fires before any loss:

* ``LONG_RTT_GRID``, 930 runs: every variant x RTT 1,001-3,911 ms in
  97 ms steps x initial cwnd {1, 4, 10} x the two pages.
* ``WIDE_RTT_GRID``, 1,160 runs: every variant x RTT 3,000-59,829 ms in
  997 ms steps x initial cwnd {1, 2, 4, 10}, at the default page and
  script.

No deadline bounds a run, so each of these runs to its close however
long its round trip.

``summarize`` folds the runs, in order, into one SHA-256 over their trace
texts (each what ``conftest.trace_text``, that is ``write_trace``, makes
of it), one over their reports (each ``json.dumps`` of its ``to_dict()``)
and, per part and variant, the count of each label and error row.
``tests/test_grid.py`` pins all three. Run as a script, this prints them:

    PYTHONPATH=src python3 tests/grid.py
"""

import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from ccprobe import (
    ClassificationReport,
    ProbeScript,
    Scenario,
    SenderConfig,
    TerminationReason,
    Variant,
    classify_trace,
    run_to_completion,
    sim_init,
    write_trace,
)

RTTS_MS = range(1, 800, 7)
PAGES = ((3000, 25), (5000, 40))  # (page bytes, ack limit packet)
CWNDS = range(1, 5)
SERVER_MSS = range(10, 92, 9)
MSS_RTTS_MS = (10, 100, 300)
MSS_PAGE = 5000

MAIN_GRID = tuple(
    Scenario(
        variant=variant,
        rtt_ms=rtt_ms,
        page_bytes=page,
        sender_config=SenderConfig(initial_cwnd=cwnd),
        probe_script=ProbeScript(ack_limit_packet=ack_limit),
    )
    for variant in Variant
    for rtt_ms in RTTS_MS
    for page, ack_limit in PAGES
    for cwnd in CWNDS
)
MSS_GRID = tuple(
    Scenario(
        variant=variant, rtt_ms=rtt_ms, page_bytes=MSS_PAGE, sender_config=SenderConfig(mss=mss)
    )
    for variant in Variant
    for mss in SERVER_MSS
    for rtt_ms in MSS_RTTS_MS
)
PARTS = {"main": MAIN_GRID, "mss": MSS_GRID}

LONG_RTTS_MS = range(1001, 4001, 97)
LONG_CWNDS = (1, 4, 10)
LONG_RTT_GRID = tuple(
    Scenario(
        variant=variant,
        rtt_ms=rtt_ms,
        page_bytes=page,
        sender_config=SenderConfig(initial_cwnd=cwnd),
        probe_script=ProbeScript(ack_limit_packet=ack_limit),
    )
    for variant in Variant
    for rtt_ms in LONG_RTTS_MS
    for page, ack_limit in PAGES
    for cwnd in LONG_CWNDS
)
WIDE_RTTS_MS = range(3000, 60_001, 997)
WIDE_CWNDS = (1, 2, 4, 10)
WIDE_RTT_GRID = tuple(
    Scenario(variant=variant, rtt_ms=rtt_ms, sender_config=SenderConfig(initial_cwnd=cwnd))
    for variant in Variant
    for rtt_ms in WIDE_RTTS_MS
    for cwnd in WIDE_CWNDS
)


@dataclass(frozen=True)
class GridRun:
    part: str
    scenario: Scenario
    trace: list
    reason: TerminationReason
    report: ClassificationReport

    @property
    def outcome(self) -> str:
        """The report's label, or ``error:<name>`` for an error row."""
        return self.report.label if self.report.error is None else f"error:{self.report.error}"


def run_grid() -> Iterator[GridRun]:
    """Simulate and classify every scenario, part by part, in order."""
    for part, scenarios in PARTS.items():
        for scenario in scenarios:
            trace, reason = run_to_completion(sim_init(scenario))
            report = classify_trace(trace, scenario.probe_script)
            yield GridRun(part, scenario, trace, reason, report)


@dataclass(frozen=True)
class GridSummary:
    digest: str  # SHA-256 over every run's trace text, in run order
    report_digest: str  # SHA-256 over every run's report JSON, in run order
    outcomes: dict  # part -> variant value -> outcome -> count
    runs: int


def summarize(runs: Iterable[GridRun]) -> GridSummary:
    digest, report_digest, outcomes, count = hashlib.sha256(), hashlib.sha256(), {}, 0
    for run in runs:
        sink = io.StringIO()
        write_trace(run.trace, sink)
        digest.update(sink.getvalue().encode())
        report_digest.update(json.dumps(run.report.to_dict()).encode())
        by_variant = outcomes.setdefault(run.part, {})
        by_variant.setdefault(run.scenario.variant.value, Counter())[run.outcome] += 1
        count += 1
    plain = {
        part: {variant: dict(sorted(counts.items())) for variant, counts in by_variant.items()}
        for part, by_variant in outcomes.items()
    }
    return GridSummary(digest.hexdigest(), report_digest.hexdigest(), plain, count)


if __name__ == "__main__":
    summary = summarize(run_grid())
    print(summary.runs, "runs")
    print(summary.digest)
    print(summary.report_digest)
    for part, by_variant in summary.outcomes.items():
        for variant, counts in by_variant.items():
            print(part, variant, counts)
