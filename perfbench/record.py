"""Run the benchmark over several seeds and record medians and quartiles.

    python3 perfbench/record.py --out perfbench/baseline.json

For each workload, runs `perfbench/run.py --trace 0` once per seed 1-10 and
`--trace 1` once (seed 1), one run at a time, and writes every result
plus, per end-to-end metric, the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

SEEDS = range(1, 11)


def one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    record = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "platform": platform.platform()},
              "run_seconds": seconds, "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    for workload in run.WORKLOADS:
        runs = []
        for seed in SEEDS:
            result = one(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result})
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        summary = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                   for m in spec["end_to_end"]}
        traced = one(workload, SEEDS[0], seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": summary, "runs": runs,
            "trace": {"seed": SEEDS[0], **traced}}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
