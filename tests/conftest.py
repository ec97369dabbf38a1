"""Shared fixtures: canned simulation runs and acceptance reporting.

Most tests work from the five default-scenario runs (rtt=100ms, mss=100,
page=3000, drop 13 and 16, close after 25). Those runs are deterministic,
so they are executed once per session and handed out read-only.
"""

import io
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from ccprobe import (
    Scenario,
    TerminationReason,
    Variant,
    run_to_completion,
    sim_init,
    write_trace,
)
from ccprobe.traceio import TraceEvent

RTT_DEFAULT_MS = 100
MSS = 100
PAGE = 3000


@dataclass
class Run:
    scenario: Scenario
    world: object
    trace: list
    reason: TerminationReason


def run_scenario(variant: Variant, **overrides) -> Run:
    scenario = Scenario(variant=variant, **overrides)
    world = sim_init(scenario)
    trace, reason = run_to_completion(world)
    return Run(scenario=scenario, world=world, trace=trace, reason=reason)


@pytest.fixture(scope="session")
def default_runs() -> dict:
    return {variant: run_scenario(variant) for variant in Variant}


def trace_text(trace: list[TraceEvent]) -> str:
    """The JSONL that ``write_trace`` produces for ``trace``."""
    sink = io.StringIO()
    write_trace(trace, sink)
    return sink.getvalue()


def rx_data(trace: list[TraceEvent]) -> list[TraceEvent]:
    return [ev for ev in trace if ev.dir == "rx" and ev.kind == "data"]


def tx_acks(trace: list[TraceEvent]) -> list[TraceEvent]:
    return [ev for ev in trace if ev.dir == "tx" and ev.kind == "ack"]


def acks(*values) -> list[TraceEvent]:
    """Prober ACK records of these numbers: a batch as ``Sender.on_ack`` takes it."""
    return [TraceEvent(0, "tx", "ack", 0, 0, ack, 4) for ack in values]


def outcome(call, *args) -> tuple:
    """What ``call(*args)`` gave: ``("returned", value)`` or ``("raised",
    type, message)``, so a differential test compares answers and errors
    of two implementations alike."""
    try:
        return ("returned", call(*args))
    except Exception as error:  # any error: the two must raise the same one
        return ("raised", type(error), str(error))


def delivered_union(trace: list[TraceEvent]) -> list[tuple[int, int]]:
    """Distinct byte ranges that arrived, as merged [start, end) spans."""
    spans: list[tuple[int, int]] = []
    for ev in rx_data(trace):
        start, end = ev.seq, ev.seq + ev.len
        merged = []
        for s, e in spans:
            if e < start or s > end:
                merged.append((s, e))
            else:
                start, end = min(start, s), max(end, e)
        merged.append((start, end))
        merged.sort()
        spans = merged
    return spans


# -- acceptance reporting ------------------------------------------------
# test_acceptance.py wraps each criterion in `acceptance(name)`; the lines
# collected here are echoed after the test summary so every criterion gets
# one visible PASS/FAIL line.


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance(request):
    @contextmanager
    def criterion(name: str):
        try:
            yield
        except Exception:
            request.config._acceptance_lines.append(f"FAIL  {name}")
            raise
        request.config._acceptance_lines.append(f"PASS  {name}")

    return criterion
