"""Benchmark of ccprobe: seeded closed-loop workloads on host time.

Run one workload:

    python3 bench/run.py --workload sweep --seed 3 --seconds 30 --trace 0

or all of them, each untraced and then traced, in child processes:

    python3 bench/run.py --workload all

A run sets up (imports ccprobe from ``src/`` next to this directory,
draws the seed's pool, warms up). A reference pass then fixes every pool
entry's expected output, and the timed loop cycles through the pool for
``--seconds`` seconds, checking each item against the reference outside
its timing. Six more set-ups run between items, spread over the loop,
and ``setup_s`` is the median of those of the seven that ran in the
host's slow state. Last, the default
seed's pool is checked against ``golden.json``; a mismatch counts every
item of the run as failed.

With ``--trace 0`` the timed loop is not instrumented and the run
prints the end-to-end metrics. With ``--trace 1`` untraced and traced
passes over the pool alternate; the run prints per-layer metrics from
the spans and writes the spans to ``bench/out/spans-<workload>.csv``.
Rates and percentiles rest on each pool entry's median time over its
items that ran in the host's slow state (see ``typical_times``). The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. All times are
host time (``time.perf_counter``), never the simulator's virtual clock.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from tracing import ITEM, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN_PATH = HERE / "golden.json"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
DEFAULT_SECONDS = 30
# The host probe runs between items once this many seconds have passed
# since the last one: often enough to follow the host's speed, which
# holds for a second or more, at a few percent of the loop's time.
PROBE_GAP_S = 0.02
# Host states within this factor of the run's slow end count as the
# same state; the states seen so far differ by up to 2.1x.
SAME_STATE = 0.85


class MissingLibrary(Exception):
    """The ccprobe sources are not next to the benchmark."""


def import_library():
    """Import ccprobe afresh from the checkout's ``src/``."""
    if not (SRC / "ccprobe" / "__init__.py").is_file():
        raise MissingLibrary(f"no ccprobe sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ccprobe" or m.startswith("ccprobe.")]:
        del sys.modules[name]
    package = importlib.import_module("ccprobe")
    if Path(package.__file__).resolve().parent != SRC / "ccprobe":
        raise MissingLibrary(f"ccprobe imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"ccprobe.{m}")
           for m in ("netsim", "sender", "prober", "classifier", "traceio", "wire")}
    )


def setup(workload, seed, pool):
    lib = import_library()
    entries = workloads.entries(lib, workload, seed, pool)
    # The smallest entries, so that set-up time does not hinge on which
    # sizes the seed happened to put first.
    for entry in sorted(entries, key=lambda e: e.scenario.page_bytes)[: workload.warmup]:
        workload.item(lib, entry)
    return lib, entries


def host_probe():
    """Host seconds of a fixed pure-Python loop that calls nothing of ccprobe.

    The host's speed switches between states that differ by up to 2.1x,
    for seconds to minutes at a time. This probe tells the states apart
    without touching the program under test.
    """
    start = perf_counter()
    counts = {}
    for i in range(2_000):
        counts[i & 255] = counts.get(i & 255, 0) + len(str(i))
    return perf_counter() - start


def timed_loop(lib, workload, entries, ref, seconds, tracer, extra_setup=None):
    """Cycle through the pool until ``seconds`` have passed.

    With a tracer, odd passes are traced and even ones are not, so both
    see the same machine state. Between items the host probe runs at
    most every ``PROBE_GAP_S``; an item's host state is the mean of the
    two probes around the group of items it ran in. ``extra_setup``, if
    given, runs ``SETUP_REPEATS - 1`` times between items, spread evenly
    over the loop, so that set-ups meet the same host states as items.
    Returns (samples, attempted, failed), a sample being (traced, entry
    index, host seconds, host state) of one item.
    """
    samples, attempted, failed = [], 0, 0
    first_error = None
    needed = 2 if tracer is not None else 1
    complete = 0
    group = []  # samples since the last probe, waiting for the next one
    last_probe = host_probe()
    last_at = perf_counter()
    deadline = last_at + seconds
    repeats = SETUP_REPEATS - 1 if extra_setup else 0
    setup_at = [last_at + (k + 0.5) * seconds / repeats for k in range(repeats)]

    def close_group():
        nonlocal last_probe, last_at
        probe = host_probe()
        samples.extend((*sample, (last_probe + probe) / 2) for sample in group)
        group.clear()
        last_probe, last_at = probe, perf_counter()

    def done():
        return perf_counter() >= deadline and complete >= needed

    while not done():
        traced = tracer is not None and complete % 2 == 1
        item = workload.item
        if traced:
            tracer.install(lib)
            item = tracer.wrap(ITEM, item)
        try:
            for index, entry in enumerate(entries):
                if setup_at and perf_counter() >= setup_at[0]:
                    close_group()
                    setup_at.pop(0)
                    extra_setup()
                    gc.collect()  # the set-up's garbage, not the items'
                    last_probe, last_at = host_probe(), perf_counter()
                elif perf_counter() - last_at >= PROBE_GAP_S:
                    close_group()
                attempted += 1
                if traced:
                    tracer.item_id = attempted
                start = perf_counter()
                try:
                    output = item(lib, entry)
                except Exception:
                    output = None
                    first_error = first_error or traceback.format_exc()
                group.append((traced, index, perf_counter() - start))
                if output is None or not workloads.check(lib, workload, ref, index, output):
                    failed += 1
                if done():
                    break
            else:
                complete += 1
        finally:
            if traced:
                tracer.uninstall()
    close_group()
    for _ in setup_at:  # a loop cut short by its deadline
        extra_setup()
    if first_error:
        print(f"first failed item:\n{first_error}", file=sys.stderr)
    return samples, attempted, failed


def golden_matches(lib, workload, ref, seed, pool):
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = golden["workloads"][workload.name]
    if seed != golden["seed"] or pool != expected["pool"]:
        ref = workloads.reference(
            lib, workloads.entries(lib, workload, golden["seed"], expected["pool"]), Tracer()
        )
    return ref.digest == expected["digest"] and ref.counts == expected["counts"]


def _slow_end(states):
    """The host state of the run's slow end: its 90th percentile."""
    states = sorted(states)
    return states[int(0.9 * (len(states) - 1))]


def _in_slow_state(timed, slow):
    """Host seconds of the (seconds, state) pairs in the slow state.

    If none is, the one in the slowest state stands in.
    """
    kept = [seconds for seconds, state in timed if state >= SAME_STATE * slow]
    return kept or [max(timed, key=lambda pair: pair[1])[0]]


def typical_times(samples, traced, slow, pool):
    """Each pool entry's median host seconds over its slow-state items.

    The host drifts between speed states, so an item counts only if its
    host state is at most ``SAME_STATE`` faster than ``slow``, the slow
    end of the whole run (so that traced and untraced items, and the
    set-ups, are held to the same state). The values stay the program's
    own host times; items that ran in a faster state are set aside.
    Taking each entry's median before combining entries keeps the
    remaining drift out of rates and percentiles. Returns (medians, items
    kept, items of this kind).
    """
    timed = [[] for _ in range(pool)]
    for kind, index, seconds, state in samples:
        if kind == traced:
            timed[index].append((seconds, state))
    kept = [_in_slow_state(pairs, slow) for pairs in timed]
    return ([statistics.median(k) for k in kept], sum(map(len, kept)),
            sum(map(len, timed)))


def run(name, seed, seconds, trace, pool=None):
    """One workload run; returns (report lines, result object)."""
    workload = workloads.WORKLOADS[name]
    pool = pool or workload.pool
    setups = []  # (host seconds, host state)

    def timed_setup():
        before = host_probe()
        start = perf_counter()
        made = setup(workload, seed, pool)
        seconds = perf_counter() - start
        setups.append((seconds, (before + host_probe()) / 2))
        return made

    lib, entries = timed_setup()
    tracer = Tracer() if trace else None
    ref = workloads.reference(lib, entries, tracer or Tracer())
    # The pool and the reference are the harness's, not the program's:
    # keep them out of the garbage collector's scans in the timed loop.
    gc.collect()
    gc.freeze()
    # The other set-ups run inside the untraced loop, between items.
    samples, attempted, failed = timed_loop(
        lib, workload, entries, ref, seconds, tracer, None if trace else timed_setup
    )
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gc.unfreeze()
    golden_ok = golden_matches(lib, workload, ref, seed, pool)
    if not golden_ok:
        failed = attempted

    lines = [
        f"workload={name} seed={seed} pool={pool} seconds={seconds} trace={int(trace)}",
        f"simulated sha256={ref.digest} "
        + " ".join(f"{k}={v}" for k, v in ref.counts.items()),
        f"golden seed={workloads.DEFAULT_SEED} {'ok' if golden_ok else 'MISMATCH'}",
        f"failed_share {failed / attempted:.6f} ratio ({failed} of {attempted} items)",
        f"mislabeled_share {ref.mislabeled / pool:.6f} ratio "
        f"({ref.mislabeled} of {pool} pool scenarios)",
    ]
    metrics = {}
    slow = _slow_end([state for *_, state in samples] + [state for _, state in setups])

    def put(metric, value, unit, note=""):
        metrics[metric] = {"value": value, "unit": unit}
        lines.append(f"{metric} {value:.6g} {unit}{' (' + note + ')' if note else ''}")

    if not trace:
        medians, kept, total = typical_times(samples, False, slow, pool)
        basis = f"{len(medians)} entries, each its median over {kept} of {total} items"
        put("items_per_s", len(medians) / sum(medians), "1/s", basis)
        put("events_per_s", ref.counts["events"] / sum(medians), "1/s", basis)
        cuts = statistics.quantiles(medians, n=100, method="inclusive")
        for q in (50, 90):
            above = sum(t > cuts[q - 1] for t in medians)
            put(f"item_p{q}_ms", cuts[q - 1] * 1e3, "ms", f"{basis}; {above} above")
        # On long, with 40 entries, at most one lies above p99: too few
        # for a bound, so p99 is printed but left out of the result.
        above = sum(t > cuts[98] for t in medians)
        lines.append(f"item_p99_ms {cuts[98] * 1e3:.6g} ms ({basis}; {above} above)")
        put("correct_label_share", 1 - ref.mislabeled / pool, "ratio", f"{pool} pool scenarios")
        kept = _in_slow_state(setups, slow)
        put("setup_s", statistics.median(kept), "s",
            f"median of {len(kept)} of {SETUP_REPEATS} set-ups, those in the host's slow state")
        put("peak_rss_mib", peak_rss_mib, "MiB")
    else:
        for metric, (value, unit) in tracer.layer_metrics().items():
            put(metric, value, unit)
        plain, with_spans = (sum(typical_times(samples, t, slow, pool)[0]) for t in (False, True))
        put("tracing_overhead_share", (with_spans - plain) / with_spans, "ratio",
            f"{len(entries) / plain:.1f} vs {len(entries) / with_spans:.1f} items/s")
        shares = tracer.item_shares()
        for layer, share in shares.items():
            lines.append(f"share of item time: {layer} {share:.3f}")

        def group_share(w):
            return sum(shares[layer] for layer in w.target)

        target = group_share(workload)
        other = max(group_share(w) for w in workloads.WORKLOADS.values() if w is not workload)
        lines.append(
            f"stress target={target:.3f} other={other:.3f} (item-time share of "
            f"{'+'.join(workload.target)}, expected >= 0.60, and of the largest "
            "layer group another workload targets, expected < 0.35)"
        )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_csv(OUT_DIR / f"spans-{name}.csv")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


def run_all(seed, seconds) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            if child.returncode not in (0, 1) or not lines:
                return child.returncode or 2
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
