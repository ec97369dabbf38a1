"""Run one workload over several seeds and report each metric's spread.

    python3 bench/steadiness.py --workload long --seeds 1 2 3 4 5

Each seed is one run of ``run.py`` in a child process with ``--trace 0``.
For every metric the script prints the median of the runs and the
distance between the first and third quartile as a share of the median,
the figure a metric's bound in BENCHMARK.json must stay above.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--out", help="also write the runs and spreads here as JSON")
    args = parser.parse_args(argv)
    runs = []
    for seed in args.seeds:
        start = perf_counter()
        child = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = child.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        digest = next(line.split()[1] for line in lines if line.startswith("simulated "))
        wall_s = perf_counter() - start
        runs.append({"seed": seed, "simulated": digest, "wall_s": wall_s, **result})
        print(seed, child.returncode, f"{wall_s:.1f}s", result["correct"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    summary = {}
    for metric, first in runs[0]["metrics"].items():
        median, share = spread([r["metrics"][metric]["value"] for r in runs])
        summary[metric] = {"median": median, "unit": first["unit"], "iqr_share": share}
        print(f"{metric:22s} median {median:12.5g} {first['unit']:6s} iqr/median {share:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "runs": runs,
             "spread": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
