"""Self-test of the benchmark at a tiny size.

    python3 -m pytest bench -q

Checks that every declared metric is printed with its unit, that the
golden-digest check catches an altered trace, that injected failures are
counted, and that the benchmark refuses to run without the sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = dict(seed=1, seconds=0.05, pool=5)
# Printed on every untraced run beside the declared metrics.
REPORTED = {"failed_share": "ratio", "mislabeled_share": "ratio", "item_p99_ms": "ms"}


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace):
    lines, result = run.run(name, trace=trace, **TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= TINY["pool"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    expected = {m["name"]: m["unit"] for m in declared}
    if not trace:
        expected.update(REPORTED)
    for metric, unit in expected.items():
        assert any(line.startswith(f"{metric} ") and f" {unit}" in line for line in lines), metric
    if trace:
        stress = next(line for line in lines if line.startswith("stress "))
        fields = dict(word.split("=") for word in stress.split()[1:3])
        assert float(fields["target"]) >= 0.6 and float(fields["other"]) < 0.35, stress


def test_golden_check_fails_on_an_altered_trace(lib, monkeypatch):
    workload = workloads.WORKLOADS["sweep"]
    pool = workloads.entries(lib, workload, workloads.DEFAULT_SEED, workload.pool)
    ref = workloads.reference(lib, pool, Tracer())
    assert run.golden_matches(lib, workload, ref, workloads.DEFAULT_SEED, workload.pool)

    probe = workloads.probe

    def altered(lib, entry):
        trace, reason, report = probe(lib, entry)
        if entry is pool[0]:
            trace[-1] = dataclasses.replace(trace[-1], t_us=trace[-1].t_us + 1)
        return trace, reason, report

    monkeypatch.setattr(workloads, "probe", altered)
    ref = workloads.reference(lib, pool, Tracer())
    assert not run.golden_matches(lib, workload, ref, workloads.DEFAULT_SEED, workload.pool)


def test_golden_mismatch_fails_every_item(tmp_path, monkeypatch):
    golden = json.loads(run.GOLDEN_PATH.read_text())
    golden["workloads"]["sweep"]["digest"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN_PATH", path)
    lines, result = run.run("sweep", trace=False, **TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any("MISMATCH" in line for line in lines)


def _fail_once(monkeypatch, make_bad):
    """Make the sweep item misbehave on exactly one timed call."""
    workload = workloads.WORKLOADS["sweep"]
    setup_calls = min(workload.warmup, TINY["pool"])  # warm-up before the loop
    calls = []

    def flaky(lib, entry):
        calls.append(entry)
        output = workloads.probe(lib, entry)
        return make_bad(output) if len(calls) == setup_calls + 2 else output

    monkeypatch.setitem(
        workloads.WORKLOADS, "sweep", dataclasses.replace(workload, item=flaky)
    )


def _raise(output):
    raise RuntimeError("injected failure")


def _truncate(output):
    trace, reason, report = output
    return trace[:-1], reason, report


@pytest.mark.parametrize("make_bad", [_raise, _truncate])
def test_failed_share_counts_an_injected_failure(monkeypatch, make_bad):
    _fail_once(monkeypatch, make_bad)
    lines, result = run.run("sweep", trace=False, **TINY)
    assert not result["correct"]
    assert result["failed"] == 1
    attempted = result["attempted"]
    assert f"failed_share {1 / attempted:.6f} ratio (1 of {attempted} items)" in lines


def test_reference_is_deterministic_per_seed(lib):
    workload = workloads.WORKLOADS["long"]
    first, again, other = (
        workloads.reference(lib, workloads.entries(lib, workload, seed, 5), Tracer())
        for seed in (3, 3, 4)
    )
    assert (first.digest, first.counts, first.mislabeled) == (
        again.digest, again.counts, again.mislabeled
    )
    assert first.digest != other.digest
    assert all(first.ok)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [*DECLARED["command"], "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout
