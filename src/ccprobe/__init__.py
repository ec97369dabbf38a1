"""Deterministic laboratory for fingerprinting TCP congestion control.

A scripted prober provokes loss recovery in a simulated page server and
classifies the sender's congestion-control variant from the observed
trace alone.
"""

from .classifier import (
    ClassificationReport,
    ClassifierConfig,
    FeatureVector,
    classify,
    classify_trace,
    detect_reordering,
    detect_retransmissions,
    estimate_rtt,
)
from .errors import (
    CcprobeError,
    ConfigurationError,
    InternalError,
    ProtocolError,
    TraceIOError,
    TraceOrderError,
    TraceParseError,
)
from .netsim import (
    HttpServerEndpoint,
    Scenario,
    SimWorld,
    TerminationReason,
    run_to_completion,
    sim_init,
)
from .prober import ProbeOutcome, ProbeScript, ProbeSession
from .sender import Sender, SenderConfig, Variant
from .traceio import (
    TraceEvent,
    emit_plot_points,
    read_trace,
    write_plot_points,
    write_trace,
)
from .wire import Flag, Segment

__version__ = "0.1.0"

__all__ = [
    "CcprobeError",
    "ClassificationReport",
    "ClassifierConfig",
    "ConfigurationError",
    "FeatureVector",
    "Flag",
    "HttpServerEndpoint",
    "InternalError",
    "ProbeOutcome",
    "ProbeScript",
    "ProbeSession",
    "ProtocolError",
    "Scenario",
    "Segment",
    "Sender",
    "SenderConfig",
    "SimWorld",
    "TerminationReason",
    "TraceEvent",
    "TraceIOError",
    "TraceOrderError",
    "TraceParseError",
    "Variant",
    "classify",
    "classify_trace",
    "detect_reordering",
    "detect_retransmissions",
    "emit_plot_points",
    "estimate_rtt",
    "read_trace",
    "run_to_completion",
    "sim_init",
    "write_plot_points",
    "write_trace",
    "__version__",
]
