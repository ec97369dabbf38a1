"""CLI tests: subcommand behavior, output shapes, exit codes.

Exit code contract: 0 success, 1 matrix mismatch or a run that ended some
way other than the prober closing, 2 usage/config/IO errors, 3 a
classification that produced an error row, 141 stdout closed by its reader.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccprobe
from ccprobe.cli import main
from ccprobe.traceio import PLOT_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def newreno_trace(tmp_path, capsys):
    path = tmp_path / "newreno.jsonl"
    code, _, _ = run_cli(capsys, "sim", "--variant", "newreno", "--out", str(path))
    assert code == 0
    return path


# -- sim -----------------------------------------------------------------------


def test_sim_writes_trace_and_reports_close(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code, stdout, _ = run_cli(capsys, "sim", "--variant", "newreno", "--out", str(out))
    assert code == 0
    assert stdout.strip() == "ProberClosed"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 67
    assert json.loads(lines[0])["kind"] == "syn"


def test_sim_rejects_unknown_variant(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sim", "--variant", "vegas", "--out", str(tmp_path / "t.jsonl")
    )
    assert code == 2
    assert "invalid choice" in err


def test_sim_rejects_page_smaller_than_script(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "sim",
        "--variant",
        "reno",
        "--page-bytes",
        "100",
        "--out",
        str(tmp_path / "t.jsonl"),
    )
    assert code == 2
    assert err.startswith("error:")


def test_sim_output_is_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli(capsys, "sim", "--variant", "tahoe", "--out", str(a))[0] == 0
    assert run_cli(capsys, "sim", "--variant", "tahoe", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


# -- classify --------------------------------------------------------------------


def test_classify_prints_label_report(newreno_trace, capsys):
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(newreno_trace))
    assert code == 0
    report = json.loads(stdout)
    assert report["label"] == "NewReno"
    assert "error" not in report
    assert report["features"]["retx13"] == "fast"
    assert report["features"]["retransmission_count"] == 2
    assert report["evidence"]


def test_classify_empty_trace_is_error_row(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 3
    assert json.loads(stdout)["error"] == "Incomplete"


def test_classify_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "classify", "--in", str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert "error:" in err


def test_classify_malformed_trace_is_io_error(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text("{not json\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", "--in", str(path))
    assert code == 2
    assert "line 1" in err


def test_overlong_trace_integer_is_io_error(tmp_path, capsys):
    path = tmp_path / "overlong.jsonl"
    line = '{"t_us":%s,"dir":"tx","kind":"syn","seq":0,"len":0,"ack":0,"ip_id":1}\n'
    path.write_text(line % ("9" * 5000), encoding="utf-8")
    for argv in (("classify",), ("plot", "--out", str(tmp_path / "points.csv"))):
        code, _, err = run_cli(capsys, *argv, "--in", str(path))
        assert code == 2
        assert err == "error: line 1: integer has too many digits\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--mss", "0"), "script mss must be positive"),
        (("--ack-limit", "5"), "ack_limit_packet must lie beyond every dropped packet"),
        *(
            (("--timeout-factor", factor), "timeout factor must be a positive finite number")
            for factor in ("-1", "0", "nan", "inf")
        ),
    ],
    ids=[
        "mss-0",
        "ack-limit-below-drops",
        "timeout-factor--1",
        "timeout-factor-0",
        "timeout-factor-nan",
        "timeout-factor-inf",
    ],
)
def test_classify_rejects_invalid_script(newreno_trace, capsys, flags, message):
    # sim and matrix reject these scripts too; classify must not crash on
    # them or label a trace with a script no probe could have run.
    code, stdout, err = run_cli(capsys, "classify", "--in", str(newreno_trace), *flags)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {message}\n"


def test_classify_timeout_factor_changes_label(newreno_trace, capsys):
    code, stdout, _ = run_cli(
        capsys, "classify", "--in", str(newreno_trace), "--timeout-factor", "0.1"
    )
    assert code == 0  # a confident (if wrong) label is not an error row
    assert json.loads(stdout)["label"] == "NoFastRetransmit"


def test_classify_capped_trace_is_overflow_row(tmp_path, capsys):
    # A 2,000-packet page acked up to 1,900 fills the 10,000-event cap
    # before the prober closes, so the trace may not be labelled.
    path = tmp_path / "capped.jsonl"
    flags = ("--rtt-ms", "10", "--page-bytes", "200000", "--ack-limit", "1900")
    code, stdout, _ = run_cli(capsys, "sim", "--variant", "newreno", *flags, "--out", str(path))
    assert code == 1
    assert stdout.strip() == "DeadlineExceeded"
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(path), "--ack-limit", "1900")
    assert code == 3
    assert json.loads(stdout)["error"] == "TraceOverflow"


def test_classify_trace_without_close_is_incomplete(newreno_trace, tmp_path, capsys):
    lines = newreno_trace.read_text(encoding="utf-8").splitlines(keepends=True)
    assert json.loads(lines[-1])["kind"] == "rst"
    path = tmp_path / "unclosed.jsonl"
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 3
    assert json.loads(stdout)["error"] == "Incomplete"


# -- matrix ----------------------------------------------------------------------


def test_matrix_default_is_identity(capsys):
    code, stdout, _ = run_cli(capsys, "matrix")
    assert code == 0
    assert "identity=yes" in stdout
    assert "runs=5" in stdout
    header, *rows = [line for line in stdout.splitlines() if line.strip()]
    assert header.split()[0] == "actual"
    for row in rows[:5]:
        name = row.split()[0]
        cells = row.split()[1:]
        position = header.split()[1:].index(name)
        assert cells[position] == "1"
        assert sum(int(c) for c in cells) == 1


def test_matrix_mismatch_exits_one(capsys):
    code, stdout, _ = run_cli(capsys, "matrix", "--timeout-factor", "0.1")
    assert code == 1
    assert "identity=no" in stdout


def test_matrix_rejects_non_finite_timeout_factor(capsys):
    code, stdout, err = run_cli(capsys, "matrix", "--timeout-factor", "nan")
    assert code == 2
    assert stdout == ""
    assert err == "error: timeout factor must be a positive finite number\n"


def test_matrix_rtt_sweep_holds_identity(capsys):
    code, stdout, _ = run_cli(capsys, "matrix", "--rtt-sweep")
    assert code == 0
    assert "runs=20" in stdout
    assert "identity=yes" in stdout


def test_matrix_counts_overflowed_runs_as_other(capsys):
    # A 2,000-packet page acked up to 1,900 overflows the 10,000-event
    # cap in every variant: no run finishes, so none may be labelled.
    code, stdout, _ = run_cli(
        capsys, "matrix", "--rtt-ms", "10", "--page-bytes", "200000", "--ack-limit", "1900"
    )
    assert code == 1
    assert "identity=no" in stdout
    header, *rows = stdout.splitlines()
    assert header.split()[-1] == "other"
    for row in rows[:5]:
        cells = [int(c) for c in row.split()[1:]]
        assert cells == [0, 0, 0, 0, 0, 1]


# -- plot ------------------------------------------------------------------------


def test_plot_writes_csv(newreno_trace, tmp_path, capsys):
    out = tmp_path / "points.csv"
    code, _, _ = run_cli(capsys, "plot", "--in", str(newreno_trace), "--out", str(out))
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == PLOT_HEADER
    assert len(lines) == 1 + 32 + 31  # data arrivals plus acks sent
    assert lines[-1].endswith(",ack")


def test_plot_empty_trace_is_header_only(tmp_path, capsys):
    src = tmp_path / "empty.jsonl"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "points.csv"
    code, _, _ = run_cli(capsys, "plot", "--in", str(src), "--out", str(out))
    assert code == 0
    assert out.read_text(encoding="utf-8") == PLOT_HEADER + "\n"


# -- closed stdout ---------------------------------------------------------------


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_quietly_with_141(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(ccprobe.__file__).parents[1]),
        "PYTHONUNBUFFERED": unbuffered,  # print fails at once, or at the final flush
    }
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ccprobe", "matrix"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
