"""The grid fence: 4,750 runs pinned by one digest and their label counts.

The goldens cover 30 scenarios at cwnd 2. The grid (see ``grid.py``)
reaches RTTs to 799 ms, cwnd 1-4 and a server MSS below the script's,
where a sender without Karn's rule or without its RTT estimator writes
other traces. A refactor must leave both pins unchanged; a change meant
to alter traces re-pins them and says why.
"""

import pytest

from grid import MAIN_GRID, MSS_GRID, run_grid, summarize

GRID_DIGEST = "1c3558963ed8bd5422d7fbf417c7ccd47bd51f66db0e3af210ddb3efbbe084e6"

# Per part and variant, the runs that got each label or error row. Every
# wrong label in the main part is a trace that Reno and NewReno both write
# byte for byte; a server MSS below the script's breaks the packet numbering.
GRID_OUTCOMES = {
    "main": {
        "Tahoe": {"Tahoe": 920},
        "Reno": {"Reno": 834, "Tahoe": 86},
        "NewReno": {"NewReno": 834, "Tahoe": 86},
        "NoFastRetransmit": {"NoFastRetransmit": 920},
        "RenoPlus": {"RenoPlus": 920},
    },
    "mss": {
        "Tahoe": {"Unclassifiable": 30},
        "Reno": {"Reno": 3, "Unclassifiable": 27},
        "NewReno": {"NewReno": 3, "Unclassifiable": 27},
        "NoFastRetransmit": {"NoFastRetransmit": 3, "Unclassifiable": 27},
        "RenoPlus": {"RenoPlus": 30},
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


def test_grid_outcome_counts(grid_summary):
    assert grid_summary.outcomes == GRID_OUTCOMES
