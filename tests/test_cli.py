"""CLI tests: subcommand behavior, output shapes, exit codes.

Exit code contract: 0 success, 1 matrix mismatch or a run that ended some
way other than the prober closing, 2 usage/config/IO errors, 3 a
classification that produced an error row, 141 stdout closed by its reader.
"""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ccprobe
from ccprobe import InternalError, Scenario, cli
from ccprobe.cli import VARIANTS, _build_scenario, build_parser, main
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


@pytest.mark.parametrize(
    "spelling, label",
    [
        ("tahoe", "Tahoe"),
        ("reno", "Reno"),
        ("newreno", "NewReno"),
        ("nofastretransmit", "NoFastRetransmit"),
        ("renoplus", "RenoPlus"),
    ],
)
def test_sim_variant_spelling_selects_its_variant(tmp_path, capsys, spelling, label):
    path = tmp_path / "trace.jsonl"
    assert run_cli(capsys, "sim", "--variant", spelling, "--out", str(path))[0] == 0
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 0
    assert json.loads(stdout)["label"] == label


@pytest.mark.parametrize("spelling", ["vegas", "NoFastRetransmit"])
def test_sim_rejects_unknown_variant(tmp_path, capsys, spelling):
    # The choices are the lowercase names only.
    code, _, err = run_cli(
        capsys, "sim", "--variant", spelling, "--out", str(tmp_path / "t.jsonl")
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


@pytest.mark.parametrize("spelling", sorted(VARIANTS))
def test_flag_defaults_are_the_library_defaults(spelling):
    variant = VARIANTS[spelling]
    for argv in (["sim", "--variant", spelling, "--out", "x.jsonl"], ["matrix"]):
        args = build_parser().parse_args(argv)
        assert _build_scenario(args, variant, *args.rtts) == Scenario(variant=variant)


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_sim_runs_a_multi_second_rtt_to_its_close(tmp_path, capsys):
    # No deadline bounds a run: at a 3 s round trip the probe still closes,
    # and its trace gets the SpuriousTimeout row of any RTT above 1 s.
    path = tmp_path / "slow.jsonl"
    code, stdout, _ = run_cli(
        capsys, "sim", "--variant", "reno", "--rtt-ms", "3000", "--out", str(path)
    )
    assert (code, stdout) == (0, "ProberClosed\n")
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 3
    assert '"error": "SpuriousTimeout"' in stdout


# -- classify --------------------------------------------------------------------


def test_classify_prints_label_report(newreno_trace, capsys):
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(newreno_trace))
    assert code == 0
    report = json.loads(stdout)
    assert report["label"] == "NewReno"
    assert "error" not in report
    assert report["features"]["first_drop_repair"] == "fast"
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


SYN = b'{"t_us":0,"dir":"tx","kind":"syn","seq":0,"len":0,"ack":0,"ip_id":1}'


@pytest.mark.parametrize(
    "data, message",
    [
        (
            b'{"t_us":%s,"dir":"tx","kind":"syn","seq":0,"len":0,"ack":0,"ip_id":1}\n' % (b"9" * 5000),
            "line 1: integer has too many digits",
        ),
        (b'\xff\xfe{"t_us":0}\n', "line 1: not UTF-8 text"),
        (b"{}\n{}\n\x80\n", "line 3: not UTF-8 text"),
        (b"[" * 200_000 + b"\n", "line 1: invalid JSON (nested too deeply)"),
        # Only "\n" ends a line: the form feed is on line 1, not a break.
        (SYN + b"\f\n" + SYN + b"\n{bad", "line 1: invalid JSON (Extra data)"),
    ],
    ids=["overlong-integer", "not-utf8", "not-utf8-line-3", "nested-too-deeply", "form-feed"],
)
def test_unreadable_trace_file_is_a_parse_error(tmp_path, capsys, data, message):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    for argv in (("classify",), ("plot", "--out", str(tmp_path / "points.csv"))):
        code, _, err = run_cli(capsys, *argv, "--in", str(path))
        assert code == 2
        assert err == f"error: {message}\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.binary(), st.text().map(str.encode)))
@example(b'\xff\xfe{"t_us":0}\n')
@example(b"[" * 200_000 + b"\n")
def test_any_trace_file_gets_an_exit_code(fuzz_dir, data):
    path = fuzz_dir / "any.jsonl"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["classify", "--in", str(path)]) in (0, 2, 3)
        assert main(["plot", "--in", str(path), "--out", str(fuzz_dir / "points.csv")]) in (0, 2)


def test_classify_out_of_order_trace_names_its_line(tmp_path, capsys):
    path = tmp_path / "unsorted.jsonl"
    line = '{"t_us":%d,"dir":"%s","kind":"%s","seq":0,"len":0,"ack":0,"ip_id":1}\n'
    path.write_text(
        line % (0, "tx", "syn") + line % (300_000, "rx", "synack") + line % (100_000, "tx", "ack"),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "classify", "--in", str(path))
    assert code == 2
    assert err == "error: line 3: t_us 100000 before the previous line's 300000\n"


@pytest.mark.parametrize(
    "variant, sim_flags",
    [
        # At 1,500 ms the 1 s timer fires before the first ACK returns, and
        # the trace repeats packets the prober never refused.
        ("newreno", ("--rtt-ms", "1500")),
        # At 1,001 ms the timer re-sends packet 1, the first drop, before
        # any duplicate ACK could reach the server.
        ("tahoe", ("--rtt-ms", "1001", "--drop", "1,4", "--ack-limit", "10", "--page-bytes", "2500")),
    ],
    ids=["rtt-1500", "drop-1"],
)
def test_classify_round_trip_above_the_initial_rto_is_spurious_timeout(
    tmp_path, capsys, variant, sim_flags
):
    path = tmp_path / "slow.jsonl"
    code, stdout, _ = run_cli(capsys, "sim", "--variant", variant, *sim_flags, "--out", str(path))
    assert (code, stdout) == (0, "ProberClosed\n")
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 3
    assert json.loads(stdout)["error"] == "SpuriousTimeout"


def test_classify_takes_no_script_flags(newreno_trace, capsys):
    # classify reads the script off the trace: a restated one is a usage
    # error, refused before anything is classified.
    for flags in (("--mss", "50"), ("--drop", "5,9")):
        code, stdout, _ = run_cli(capsys, "classify", "--in", str(newreno_trace), *flags)
        assert (code, stdout) == (2, "")


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_classify_reads_the_script_the_trace_was_made_with(tmp_path, capsys, variant):
    # The script's numbering behind every evidence note is printed first.
    path = tmp_path / "drop59.jsonl"
    flags = ("--drop", "5,9", "--ack-limit", "15")
    assert run_cli(capsys, "sim", "--variant", variant, *flags, "--out", str(path))[0] == 0
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 0
    report = json.loads(stdout)
    assert list(report)[:2] == ["script", "label"]
    assert report["script"] == {"mss": 100, "drops": [5, 9]}
    assert report["label"] == VARIANTS[variant].value


@pytest.mark.parametrize("command", ["sim", "matrix"])
def test_bad_drop_list_is_a_usage_error(tmp_path, capsys, command):
    # A drop list that is not comma-separated packet numbers is refused
    # before anything runs or is written.
    out = tmp_path / "out.jsonl"
    required = {"sim": ("--variant", "newreno", "--out", str(out)), "matrix": ()}[command]
    code, stdout, err = run_cli(capsys, command, *required, "--drop", "13,x")
    assert (code, stdout, err) == (2, "", "error: bad drop list: '13,x'\n")
    assert not out.exists()


def test_classify_drops_past_the_default_ack_limit(tmp_path, capsys):
    # classify reads the drops off the trace and no ack limit: drops past
    # the default ack limit of 25 are read and judged as any others.
    path = tmp_path / "late.jsonl"
    flags = ("--drop", "30,33", "--ack-limit", "40", "--page-bytes", "5000")
    assert run_cli(capsys, "sim", "--variant", "reno", *flags, "--out", str(path))[0] == 0
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 0
    assert json.loads(stdout)["label"] == "Reno"


def test_classify_without_drops_is_not_two_drops_row(tmp_path, capsys):
    # sim runs any drop set; classify judges only a script of two drops.
    path = tmp_path / "nodrop.jsonl"
    assert run_cli(capsys, "sim", "--variant", "reno", "--drop", "none", "--out", str(path))[0] == 0
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 3
    report = json.loads(stdout)
    assert (report["error"], report["evidence"]) == ("NotTwoDrops", [])


def test_classify_respaced_copy_gives_the_same_report(newreno_trace, tmp_path, capsys):
    # A copy with a space after every key is not canonical, so it takes the
    # line reader; the report must not change.
    path = tmp_path / "spaced.jsonl"
    path.write_text(newreno_trace.read_text(encoding="utf-8").replace('":', '": '), encoding="utf-8")
    canonical = run_cli(capsys, "classify", "--in", str(newreno_trace))
    assert canonical[0] == 0
    assert run_cli(capsys, "classify", "--in", str(path)) == canonical


def test_classify_trace_with_a_lost_server_segment_is_unexpected_loss(
    newreno_trace, tmp_path, capsys
):
    # A server segment lost on the path leaves a gap in the ip_ids: an
    # error row, not a label.
    lines = newreno_trace.read_text(encoding="utf-8").splitlines(keepends=True)
    lost = [line for line in lines if re.search(r'"dir":"rx","kind":"data".*"ip_id":10}', line)]
    assert len(lost) == 1
    path = tmp_path / "lossy.jsonl"
    path.write_text("".join(line for line in lines if line not in lost), encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 3
    assert json.loads(stdout)["error"] == "UnexpectedLoss"


def test_classify_capped_trace_is_overflow_row(tmp_path, capsys):
    # A 2,000-packet page acked up to 1,900 fills the 10,000-event cap
    # before the prober closes, so the trace may not be labelled. The run
    # stops at the cap, says so, and keeps the first 10,000 events.
    path = tmp_path / "capped.jsonl"
    flags = ("--rtt-ms", "10", "--page-bytes", "200000", "--ack-limit", "1900")
    code, stdout, _ = run_cli(capsys, "sim", "--variant", "newreno", *flags, "--out", str(path))
    assert code == 1
    assert stdout.strip() == "TraceOverflow"
    assert path.read_bytes().count(b"\n") == 10_000
    code, stdout, _ = run_cli(capsys, "classify", "--in", str(path))
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
    # Without scripted drops there are no repairs to judge: no run gets a label.
    code, stdout, _ = run_cli(capsys, "matrix", "--drop", "none")
    assert code == 1
    assert "identity=no" in stdout


@pytest.mark.parametrize(
    "flags",
    [
        (),
        # A 30,000-byte page runs congestion avoidance in all 25 probes.
        ("--page-bytes", "30000", "--ack-limit", "250"),
        # The loss window, held spans and repairs sit elsewhere in the page.
        ("--drop", "5,9", "--ack-limit", "15"),
        # The world caps the server's 1,460-byte MSS at the script's.
        ("--mss", "50", "--page-bytes", "1500"),
        ("--mss", "1000", "--page-bytes", "30000"),
    ],
    ids=["default", "long-page", "drop-5-9", "mss-50", "mss-1000"],
)
def test_matrix_rtt_sweep_holds_identity(capsys, flags):
    code, stdout, _ = run_cli(capsys, "matrix", "--rtt-sweep", *flags)
    assert code == 0
    assert "runs=25" in stdout
    assert "identity=yes" in stdout


@pytest.mark.parametrize("rtt_ms", ["0", "100", "1500"])
@pytest.mark.parametrize("sweep_first", [True, False])
def test_matrix_rtt_sweep_refuses_an_rtt(capsys, rtt_ms, sweep_first):
    # 100 is the default: a given --rtt-ms is refused at any value.
    flags = ["--rtt-ms", rtt_ms]
    flags = ["--rtt-sweep", *flags] if sweep_first else [*flags, "--rtt-sweep"]
    code, stdout, err = run_cli(capsys, "matrix", *flags)
    assert code == 2
    assert stdout == ""
    assert "not allowed with argument" in err


def assert_every_run_is_other(code, stdout):
    assert code == 1
    assert "identity=no" in stdout
    header, *rows = stdout.splitlines()
    assert header.split()[-1] == "other"
    for row in rows[:5]:
        cells = [int(c) for c in row.split()[1:]]
        assert cells == [0, 0, 0, 0, 0, 1]


def test_matrix_counts_overflowed_runs_as_other(capsys):
    # A 2,000-packet page acked up to 1,900 overflows the 10,000-event
    # cap in every variant: no run finishes, so none may be labelled.
    code, stdout, _ = run_cli(
        capsys, "matrix", "--rtt-ms", "10", "--page-bytes", "200000", "--ack-limit", "1900"
    )
    assert_every_run_is_other(code, stdout)


def test_matrix_timer_repeat_of_a_dropped_first_packet_is_other(capsys):
    # At 1,001 ms the 1 s timer re-sends packet 1, the first drop, before
    # any duplicate ACK could reach the server: no run may be labelled.
    code, stdout, _ = run_cli(
        capsys, "matrix", "--rtt-ms", "1001", "--drop", "1,4", "--ack-limit", "10",
        "--page-bytes", "2500",
    )
    assert_every_run_is_other(code, stdout)


@pytest.mark.parametrize(
    "flags", [("--drop", "13"), ("--drop", "5,9,13", "--ack-limit", "25")], ids=["one", "three"]
)
def test_matrix_counts_other_drop_counts_as_other(capsys, flags):
    # The decision table reads how two refused packets were repaired. One
    # drop once read RenoPlus as Tahoe, and a third drop's repair passed
    # for RenoPlus's extra one: no run may be labelled.
    assert_every_run_is_other(*run_cli(capsys, "matrix", *flags)[:2])


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


# -- every flag is read -----------------------------------------------------------


def optional_flags():
    """(subcommand, flag) for every optional flag that ``build_parser`` defines."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, flag)
        for command, parser in sub.choices.items()
        for action in parser._actions
        if not action.required and not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    ]


# One value for each optional flag, away from its default. matrix prints
# only labels, which no valid page, MSS or ack limit near the defaults
# moves, and every valid ack limit leaves sim's default trace as it is (the
# repair of packet 16 acks the whole page): there a value the scenario
# refuses (exit 2) shows that the flag reaches it.
FLAG_VALUES = {
    ("sim", "--rtt-ms"): ("50",),
    ("sim", "--page-bytes"): ("5000",),
    ("sim", "--mss"): ("50",),
    ("sim", "--drop"): ("5,9",),
    ("sim", "--ack-limit"): ("31",),
    ("matrix", "--rtt-ms"): ("1500",),
    ("matrix", "--page-bytes"): ("2400",),
    ("matrix", "--mss"): ("1000",),
    ("matrix", "--drop"): ("none",),
    ("matrix", "--ack-limit"): ("31",),
    ("matrix", "--rtt-sweep"): (),
}


def test_flag_values_name_every_optional_flag():
    assert sorted(FLAG_VALUES) == sorted(optional_flags())


@pytest.mark.parametrize("command, flag", optional_flags())
def test_every_optional_flag_changes_what_its_command_shows(tmp_path, capsys, command, flag):
    # A flag that a command defines but never reads leaves its exit code,
    # its stdout and the file it writes all as they are at the defaults.
    out = tmp_path / "out"
    required = {"sim": ("--variant", "newreno", "--out", str(out)), "matrix": ()}[command]

    def shown(*flags):
        code, stdout, _ = run_cli(capsys, command, *required, *flags)
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, re.sub(r"elapsed=\S+", "elapsed=", stdout), written

    assert shown(flag, *FLAG_VALUES[command, flag]) != shown()


# -- internal errors -------------------------------------------------------------


def test_internal_error_exits_2_naming_it(capsys, monkeypatch):
    # A broken invariant inside a run is a message and exit 2, not a traceback.
    def broken(world):
        raise InternalError("event before the clock")

    monkeypatch.setattr(cli, "run_to_completion", broken)
    code, stdout, err = run_cli(capsys, "matrix")
    assert (code, stdout, err) == (2, "", "internal error: event before the clock\n")


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
