"""Rewrite golden.json from the current ccprobe sources.

    python3 bench/golden.py

The golden file pins the simulated output of each workload's pool at the
default seed: a SHA-256 over the JSONL of every trace plus the simulated
counts. A change that only makes ccprobe faster must leave it untouched;
rewrite it only for a change meant to alter what the simulator emits,
and say so where that change is recorded.
"""

import json

import workloads
from run import GOLDEN_PATH, import_library
from tracing import Tracer


def main() -> None:
    lib = import_library()
    golden = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        pool = workloads.entries(lib, workload, workloads.DEFAULT_SEED, workload.pool)
        ref = workloads.reference(lib, pool, Tracer())
        golden["workloads"][name] = {
            "pool": workload.pool,
            "digest": ref.digest,
            "counts": ref.counts,
        }
        print(name, ref.digest, ref.counts, f"mislabeled={ref.mislabeled}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")


if __name__ == "__main__":
    main()
