"""The package's public surface: its names, a run's end reasons and a
scenario's fields, its error types and its one command-line entry point."""

import dataclasses
import inspect
import os
import re
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import ccprobe
from ccprobe import cli, errors

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_namespace_holds_what_callers_use():
    assert sorted(ccprobe.__all__) == sorted([
        "CcprobeError", "ConfigurationError", "InternalError", "TraceParseError",
        "ClassificationReport", "classify_trace",
        "Scenario", "TerminationReason", "run_to_completion", "sim_init",
        "ProbeScript", "SenderConfig", "Variant",
        "TraceEvent", "emit_plot_points", "read_trace", "write_plot_points", "write_trace",
        "__version__",
    ])
    for name in ccprobe.__all__:
        assert hasattr(ccprobe, name), name


def test_a_run_has_three_end_reasons_and_no_deadline():
    # The event cap is the one bound on a run, so no run ends on a deadline.
    assert [reason.value for reason in ccprobe.TerminationReason] == [
        "ProberClosed", "Quiescent", "TraceOverflow",
    ]


def test_a_scenario_has_no_deadline_field():
    assert [field.name for field in dataclasses.fields(ccprobe.Scenario)] == [
        "variant", "rtt_ms", "page_bytes", "sender_config", "probe_script", "ambient_drops",
    ]


def test_one_error_type_per_failure_a_caller_tells_apart():
    defined = {
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value) and value.__module__ == errors.__name__
    }
    assert defined == {"CcprobeError", "ConfigurationError", "InternalError", "TraceParseError"}
    for name in defined - {"CcprobeError"}:
        assert getattr(errors, name).__bases__ == (errors.CcprobeError,)


def test_script_entry_point_is_cli_main(capsys):
    # The project.scripts table, read without tomllib (absent before 3.11).
    target = re.search(
        r'^\[project\.scripts\]\nccprobe = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE
    ).group(1)
    entry = EntryPoint(name="ccprobe", value=target, group="console_scripts").load()
    assert entry is cli.main
    assert entry(["matrix"]) == 0
    assert "identity=yes" in capsys.readouterr().out


def test_module_run_exits_with_main():
    env = {**os.environ, "PYTHONPATH": str(Path(ccprobe.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "ccprobe", "matrix"], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0
    assert b"identity=yes" in proc.stdout
