"""Command-line interface.

Subcommands:
  sim       run one scenario and write its trace (JSONL)
  classify  read a trace and print a classification report (JSON)
  matrix    run every variant and print the confusion matrix
  plot      convert a trace to time/sequence plot points (CSV)

Exit codes: 0 success (and matrix identity), 1 matrix mismatch or
non-closing run, 2 usage/config/IO errors, 3 classification error row,
141 stdout closed by its reader (as a shell reports death by SIGPIPE).

classify and matrix judge a run only by its trace, through
``classify_trace``: a capped or unclosed run gets an error row, which
classify exits 3 on and matrix counts as "other".
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .classifier import ClassifierConfig, classify_trace
from .errors import CcprobeError, ConfigurationError, TraceIOError
from .netsim import Scenario, TerminationReason, run_to_completion, sim_init
from .prober import ProbeScript
from .sender import Variant
from .traceio import read_trace, write_plot_points, write_trace

VARIANT_CHOICES = tuple(v.value.lower() for v in Variant)
# 500ms is excluded: timeout detection needs a gap > 3*rtt, and the 1s
# floor on the retransmit timer leaves only a 2x margin at rtt=500ms.
SWEEP_RTTS_MS = (10, 50, 100, 200)


def _parse_drops(text: str) -> frozenset:
    text = text.strip()
    if not text or text.lower() == "none":
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigurationError(f"bad drop list: {text!r}") from None


def _build_script(args) -> ProbeScript:
    script = ProbeScript(
        mss=args.mss,
        drop_packets=_parse_drops(args.drop),
        ack_limit_packet=args.ack_limit,
    )
    script.validate()
    return script


def _build_scenario(args, variant: Variant, rtt_ms=None) -> Scenario:
    return Scenario(
        variant=variant,
        rtt_ms=rtt_ms if rtt_ms is not None else args.rtt_ms,
        page_bytes=args.page_bytes,
        probe_script=_build_script(args),
    )


def _add_scenario_flags(parser):
    parser.add_argument("--rtt-ms", type=int, default=100)
    parser.add_argument("--page-bytes", type=int, default=3000)
    parser.add_argument("--mss", type=int, default=100)
    parser.add_argument("--drop", default="13,16", help="comma list of packet numbers, or 'none'")
    parser.add_argument("--ack-limit", type=int, default=25)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccprobe",
        description="Fingerprint TCP congestion-control variants by active probing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="run one scenario and write its trace")
    p_sim.add_argument("--variant", required=True, choices=VARIANT_CHOICES)
    _add_scenario_flags(p_sim)
    p_sim.add_argument("--out", required=True, help="trace output path (JSONL)")

    p_cls = sub.add_parser("classify", help="classify a recorded trace")
    p_cls.add_argument("--in", dest="input", required=True, help="trace path")
    p_cls.add_argument("--mss", type=int, default=100)
    p_cls.add_argument("--drop", default="13,16")
    p_cls.add_argument("--ack-limit", type=int, default=25)
    p_cls.add_argument("--timeout-factor", type=float, default=3.0)

    p_mat = sub.add_parser("matrix", help="run all variants, print confusion matrix")
    _add_scenario_flags(p_mat)
    p_mat.add_argument("--timeout-factor", type=float, default=3.0)
    p_mat.add_argument(
        "--rtt-sweep",
        action="store_true",
        help=f"repeat every variant at rtt (ms) in {SWEEP_RTTS_MS}",
    )

    p_plot = sub.add_parser("plot", help="emit time/sequence plot points")
    p_plot.add_argument("--in", dest="input", required=True, help="trace path")
    p_plot.add_argument("--out", required=True, help="CSV output path")
    return parser


def cmd_sim(args) -> int:
    variant = Variant.parse(args.variant)
    world = sim_init(_build_scenario(args, variant))
    trace, reason = run_to_completion(world)
    write_trace(trace, args.out)
    print(reason.value)
    return 0 if reason is TerminationReason.PROBER_CLOSED else 1


def cmd_classify(args) -> int:
    trace = read_trace(Path(args.input))
    script = _build_script(args)
    report = classify_trace(trace, script, ClassifierConfig(timeout_factor=args.timeout_factor))
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.error is None else 3


def _matrix_runs(args):
    rtts = SWEEP_RTTS_MS if args.rtt_sweep else (args.rtt_ms,)
    for rtt_ms in rtts:
        for variant in Variant:
            yield rtt_ms, variant


def cmd_matrix(args) -> int:
    config = ClassifierConfig(timeout_factor=args.timeout_factor)
    labels = [v.value for v in Variant]
    columns = labels + ["other"]
    counts = {actual: {col: 0 for col in columns} for actual in labels}
    started = time.monotonic()
    runs = 0
    for rtt_ms, variant in _matrix_runs(args):
        scenario = _build_scenario(args, variant, rtt_ms=rtt_ms)
        trace, _ = run_to_completion(sim_init(scenario))
        report = classify_trace(trace, scenario.probe_script, config)
        predicted = report.label if report.label in labels else "other"
        counts[variant.value][predicted] += 1
        runs += 1
    elapsed = time.monotonic() - started

    width = max(len(name) for name in columns + labels) + 2
    print("actual".ljust(width) + "".join(col.rjust(width) for col in columns))
    for actual in labels:
        row = counts[actual]
        print(actual.ljust(width) + "".join(str(row[col]).rjust(width) for col in columns))
    identity = all(
        counts[actual][col] == (0 if col != actual else counts[actual][actual])
        for actual in labels
        for col in columns
    ) and all(counts[actual][actual] > 0 for actual in labels)
    print(f"runs={runs} elapsed={elapsed:.3f}s identity={'yes' if identity else 'no'}")
    return 0 if identity else 1


def cmd_plot(args) -> int:
    trace = read_trace(Path(args.input))
    write_plot_points(trace, args.out)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "sim": cmd_sim,
        "classify": cmd_classify,
        "matrix": cmd_matrix,
        "plot": cmd_plot,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # See "Note on SIGPIPE" in the signal module docs: point stdout at
        # devnull so the flush at interpreter exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (ConfigurationError, TraceIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CcprobeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
