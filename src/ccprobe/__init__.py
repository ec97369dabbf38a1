"""Deterministic laboratory for fingerprinting TCP congestion control.

A scripted prober provokes loss recovery in a simulated page server and
classifies the sender's congestion-control variant from the observed
trace alone.
"""

from .classifier import ClassificationReport, classify_trace
from .errors import CcprobeError, ConfigurationError, InternalError, TraceParseError
from .netsim import Scenario, TerminationReason, run_to_completion, sim_init
from .prober import ProbeScript
from .sender import SenderConfig, Variant
from .traceio import (
    TraceEvent,
    emit_plot_points,
    read_trace,
    write_plot_points,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "CcprobeError",
    "ClassificationReport",
    "ConfigurationError",
    "InternalError",
    "ProbeScript",
    "Scenario",
    "SenderConfig",
    "TerminationReason",
    "TraceEvent",
    "TraceParseError",
    "Variant",
    "classify_trace",
    "emit_plot_points",
    "read_trace",
    "run_to_completion",
    "sim_init",
    "write_plot_points",
    "write_trace",
    "__version__",
]
