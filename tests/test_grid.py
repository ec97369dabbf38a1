"""The grid fence: 4,750 runs pinned by two digests and their label counts.

The goldens cover 30 scenarios at cwnd 2. The grid (see ``grid.py``)
reaches RTTs to 799 ms, cwnd 1-4 and a server MSS below the script's,
where a sender without Karn's rule or without its RTT estimator writes
other traces. The report digest covers every feature value, evidence
index and note, which the label counts do not. A refactor must leave
every pin unchanged; a change meant
to alter traces re-pins them and says why. The 2,090 long-RTT runs sit
outside the digest: each must close and get a ``SpuriousTimeout`` row.
"""

import pytest

from ccprobe import TerminationReason, classify_trace, run_to_completion, sim_init

from grid import LONG_RTT_GRID, MAIN_GRID, MSS_GRID, WIDE_RTT_GRID, run_grid, summarize

GRID_DIGEST = "1c3558963ed8bd5422d7fbf417c7ccd47bd51f66db0e3af210ddb3efbbe084e6"
REPORT_DIGEST = "5855d240926633d42393334434de6df445e96453b14e0ab24e8fe5e6dca1b1d8"

# Per part and variant, the runs that got each label or error row. Every
# wrong label in the main part is a trace that Reno and NewReno both write
# byte for byte. A server MSS below the script's breaks the packet numbering:
# most of those runs repair bytes that number below the first drop, and get
# a SpuriousTimeout row that a segment-size check would name better.
GRID_OUTCOMES = {
    "main": {
        "Tahoe": {"Tahoe": 920},
        "Reno": {"Reno": 834, "Tahoe": 86},
        "NewReno": {"NewReno": 834, "Tahoe": 86},
        "NoFastRetransmit": {"NoFastRetransmit": 920},
        "RenoPlus": {"RenoPlus": 920},
    },
    "mss": {
        "Tahoe": {"Unclassifiable": 3, "error:SpuriousTimeout": 27},
        "Reno": {"Reno": 3, "error:SpuriousTimeout": 27},
        "NewReno": {"NewReno": 3, "error:SpuriousTimeout": 27},
        "NoFastRetransmit": {"NoFastRetransmit": 3, "error:SpuriousTimeout": 27},
        "RenoPlus": {"RenoPlus": 3, "error:SpuriousTimeout": 27},
    },
}


@pytest.fixture(scope="module")
def grid_summary():
    return summarize(run_grid())


def test_grid_shape():
    assert (len(MAIN_GRID), len(MSS_GRID)) == (4600, 150)
    assert len(set(MAIN_GRID + MSS_GRID)) == 4750


def test_grid_trace_digest(grid_summary):
    assert grid_summary.runs == 4750
    assert grid_summary.digest == GRID_DIGEST


def test_grid_report_digest(grid_summary):
    assert grid_summary.report_digest == REPORT_DIGEST


def test_grid_outcome_counts(grid_summary):
    assert grid_summary.outcomes == GRID_OUTCOMES


def test_long_rtt_runs_all_get_a_spurious_timeout_row():
    # Above the 1 s initial RTO the timer fires before the first ACK can
    # return, and every variant goes back over data it already sent: an
    # error row, never a label. Nothing but the close ends these runs,
    # however long the round trip.
    assert (len(LONG_RTT_GRID), len(WIDE_RTT_GRID)) == (930, 1160)
    outcomes = set()
    for scenario in LONG_RTT_GRID + WIDE_RTT_GRID:
        trace, reason = run_to_completion(sim_init(scenario))
        assert reason is TerminationReason.PROBER_CLOSED
        report = classify_trace(trace, scenario.probe_script)
        outcomes.add((report.label, report.error))
    assert outcomes == {(None, "SpuriousTimeout")}
