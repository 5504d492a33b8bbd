"""Run-to-run steadiness of the end-to-end metrics.

    python3 benchmark/steadiness.py [--seeds 1,2,...,10] [--workload NAME ...]

Runs ``benchmark/run.py`` once per seed on each workload (from the repository
root, untraced, ``run_seconds`` from BENCHMARK.json) and prints, per metric,
the median and the quartile spread (Q3 - Q1) / median of the values, as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to a third of
the metric's bound. It also prints the failed share of each run, which must
be the same in every run of a workload. Exits 1 when a run is incorrect,
a spread other than setup_s's exceeds its bound, or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        shares = set()
        for seed in seeds:
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            shares.add(Fraction(result["failed"], result["attempted"]))
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(workload, seed, result["correct"], result["failed"], result["attempted"],
                  {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        for m, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            if m != "setup_s" and spread > bounds[m]:
                ok = False
            print(f"  {workload} {m}: median {med:.6g}, spread {spread:.4f} "
                  f"(bound {bounds[m]}, a third {bounds[m] / 3:.4f})")
        print(f"  {workload} failed shares: {sorted(str(s) for s in shares)}")
        ok &= len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
