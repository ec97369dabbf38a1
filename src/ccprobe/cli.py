"""Command-line interface.

Subcommands:
  sim       run one scenario and write its trace (JSONL)
  classify  read a trace and print a classification report (JSON)
  matrix    run every variant and print the confusion matrix
  plot      convert a trace to time/sequence plot points (CSV)

Exit codes: 0 success (and matrix identity), 1 matrix mismatch or
non-closing run, 2 usage, config, trace, file or internal errors, 3
classification error row, 141 stdout closed by its reader (as a shell
reports death by SIGPIPE). ``main`` is the one entry point: the
``ccprobe`` script and ``python -m ccprobe`` exit with what it returns.

classify and matrix judge a run only by its trace, through
``classify_trace``: a capped or unclosed run, or a script of other than
two drops, gets an error row, which classify exits 3 on and matrix
counts as "other"; sim runs any drop set. The script's flags belong to
sim and matrix: classify takes only ``--in``, reads the script off the
trace with ``classifier.read_script`` and prints it ahead of the report.
matrix runs at ``--rtt-ms`` or, with ``--rtt-sweep``, at each sweep RTT, never both.
"""

import argparse
import itertools
import json
import os
import sys
import time
from collections import Counter

from .classifier import classify_trace, read_script
from .errors import CcprobeError, ConfigurationError, TraceParseError
from .netsim import Scenario, TerminationReason, run_to_completion, sim_init
from .prober import ProbeScript
from .sender import Variant
from .traceio import read_trace, write_plot_points, write_trace

VARIANTS = {v.value.lower(): v for v in Variant}  # the --variant choices
SWEEP_RTTS_MS = (10, 50, 100, 200, 500)


def _parse_drops(text: str) -> frozenset:
    text = text.strip()
    if not text or text.lower() == "none":
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigurationError(f"bad drop list: {text!r}") from None


def _build_scenario(args, variant: Variant, rtt_ms: int) -> Scenario:
    return Scenario(
        variant=variant,
        rtt_ms=rtt_ms,
        page_bytes=args.page_bytes,
        probe_script=ProbeScript(args.mss, _parse_drops(args.drop), args.ack_limit),
    )


def _add_scenario_flags(parser, rtt_flags):
    # --rtt-ms stores a fresh one-item list where --rtt-sweep stores its
    # tuple: never the default object, so a group of the two refuses it.
    rtt_flags.add_argument(
        "--rtt-ms", dest="rtts", nargs=1, type=int, default=(Scenario.rtt_ms,), metavar="RTT_MS"
    )
    parser.add_argument("--page-bytes", type=int, default=Scenario.page_bytes)
    parser.add_argument("--mss", type=int, default=ProbeScript.mss)
    drops = ",".join(map(str, sorted(ProbeScript.drop_packets)))
    parser.add_argument("--drop", default=drops, help="comma list of packet numbers, or 'none'")
    parser.add_argument("--ack-limit", type=int, default=ProbeScript.ack_limit_packet)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccprobe",
        description="Fingerprint TCP congestion-control variants by active probing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="run one scenario and write its trace")
    p_sim.add_argument("--variant", required=True, choices=VARIANTS)
    _add_scenario_flags(p_sim, p_sim)
    p_sim.add_argument("--out", required=True, help="trace output path (JSONL)")
    p_sim.set_defaults(handler=cmd_sim)

    p_cls = sub.add_parser("classify", help="classify a recorded trace")
    p_cls.add_argument("--in", dest="input", required=True, help="trace path")
    p_cls.set_defaults(handler=cmd_classify)

    p_mat = sub.add_parser("matrix", help="run all variants, print confusion matrix")
    rtt_flags = p_mat.add_mutually_exclusive_group()
    _add_scenario_flags(p_mat, rtt_flags)
    rtt_flags.add_argument(
        "--rtt-sweep",
        dest="rtts",
        action="store_const",
        const=SWEEP_RTTS_MS,
        help=f"repeat every variant at rtt (ms) in {SWEEP_RTTS_MS}, not --rtt-ms",
    )
    p_mat.set_defaults(handler=cmd_matrix)

    p_plot = sub.add_parser("plot", help="emit time/sequence plot points")
    p_plot.add_argument("--in", dest="input", required=True, help="trace path")
    p_plot.add_argument("--out", required=True, help="CSV output path")
    p_plot.set_defaults(handler=cmd_plot)
    return parser


def _read_trace_file(path: str) -> list:
    """The trace in the file at ``path``; a byte that is not UTF-8 fails on its line."""
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        return read_trace(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise TraceParseError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from exc


def cmd_sim(args) -> int:
    world = sim_init(_build_scenario(args, VARIANTS[args.variant], *args.rtts))
    trace, reason = run_to_completion(world)
    with open(args.out, "w", encoding="utf-8") as fp:
        write_trace(trace, fp)
    print(reason.value)
    return 0 if reason is TerminationReason.PROBER_CLOSED else 1


def cmd_classify(args) -> int:
    trace = _read_trace_file(args.input)
    script = read_script(trace)
    report = classify_trace(trace, script)
    shown = {"mss": script.mss, "drops": sorted(script.drop_packets)}
    print(json.dumps({"script": shown, **report.to_dict()}, indent=2))
    return 0 if report.error is None else 3


def cmd_matrix(args) -> int:
    labels = [v.value for v in Variant]
    columns = labels + ["other"]
    counts = Counter()  # (actual, predicted) -> runs
    started = time.monotonic()
    for rtt_ms, variant in itertools.product(args.rtts, Variant):
        scenario = _build_scenario(args, variant, rtt_ms)
        trace, _ = run_to_completion(sim_init(scenario))
        label = classify_trace(trace, scenario.probe_script).label
        counts[variant.value, label if label in labels else "other"] += 1
    elapsed = time.monotonic() - started

    width = max(map(len, columns)) + 2
    print("actual".ljust(width) + "".join(col.rjust(width) for col in columns))
    for actual in labels:
        print(actual.ljust(width) + "".join(str(counts[actual, col]).rjust(width) for col in columns))
    identity = all(actual == predicted for actual, predicted in counts)
    print(f"runs={counts.total()} elapsed={elapsed:.3f}s identity={'yes' if identity else 'no'}")
    return 0 if identity else 1


def cmd_plot(args) -> int:
    trace = _read_trace_file(args.input)
    with open(args.out, "w", encoding="utf-8") as fp:
        write_plot_points(trace, fp)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # See "Note on SIGPIPE" in the signal module docs: point stdout at
        # devnull so the flush at interpreter exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (ConfigurationError, TraceParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CcprobeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2

