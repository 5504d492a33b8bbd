"""qtriad benchmark: one workload per call, run from the repository root.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``): fresh worker processes run one batch of the
workload each, one after another, until S seconds have passed (at least
three batches). Each batch's output is checked: the first against the
independent reference, the rest for byte equality with the first. The last
stdout line is the result: ``states_per_s``, ``peak_rss_mb`` and ``setup_s``
as medians over batches, with operations attempted and failed. The line
before it is the run's accounting block, also written to
``.benchmark-out/``.

Traced (``--trace 1``): one worker runs every workload in rounds for S
seconds, each round once untraced and once with spans around the calls into
qtriad's modules; the result line carries the per-layer metrics, and the
spans go to ``.benchmark-out/trace-<workload>-<seed>.json.gz``. Attempted and
failed count the named workload's operations only.

The benchmark reads and writes inside the repository only. Without
``src/qtriad`` it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads as wl
from calibration import calibrated, speed_factor

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".benchmark-out"
MIN_BATCHES = 3
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 150
# Keep each worker on one core; the parent only waits while it runs.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_EXT = {wl.SAMPLE_CSV: "csv", wl.SHELLS_JSON: "json", wl.VERIFY: "json",
           wl.SCALAR_API: "json"}


def _worker(args: list[str], timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run worker.py to completion and return its JSON line."""
    env = dict(os.environ, **WORKER_ENV)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_output(workload: str, seed: int, path: str, traced: bool) -> list[str]:
    """Check one batch's output file against the reference."""
    k = 1 if traced else 0
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if workload == wl.SAMPLE_CSV:
        return checks.check_sample_csv(text, seed, wl.SAMPLE_COUNT[k])
    if workload == wl.SHELLS_JSON:
        return checks.check_shells_json(text, seed, wl.SHELL_LEVELS, wl.SHELL_PER_LEVEL[k])
    if workload == wl.VERIFY:
        return checks.check_verify_report(text, seed, wl.VERIFY_COUNT[k])
    inputs = [op for r in range(wl.SCALAR_ROUNDS[k]) for op in wl.scalar_round(seed, r)]
    return checks.check_scalar(json.loads(text), inputs)


def measured_run(root: str, workload: str, seed: int, seconds: int, outdir: str):
    first = os.path.join(outdir, f"{workload}-{seed}.{OUT_EXT[workload]}")
    batches, errors = [], []
    start = time.monotonic()
    while len(batches) < MIN_BATCHES or time.monotonic() - start < seconds:
        out = first if not batches else os.path.join(outdir, f"{workload}-{seed}.next")
        spawned = time.monotonic()
        b = _worker(["run", root, workload, seed, out])
        b["raw_setup_s"] = b["ready"] - spawned
        b["raw_states_per_s"] = b["handled"] / b["elapsed"]
        b["setup_s"] = calibrated(b["raw_setup_s"], **b["setup_cal"])
        b["states_per_s"] = b["handled"] / calibrated(b["elapsed"], **b["work_cal"])
        b["speed_factor"] = speed_factor(statistics.fmean(b["work_cal"]["samples"]))
        if b["rc"] != 0:
            errors.append(f"batch {len(batches)}: qtriad exited {b['rc']}")
        if batches:
            os.remove(out)
            if b["digest"] != batches[0]["digest"]:
                errors.append(f"batch {len(batches)}: output differs from batch 0")
        batches.append(b)
    found = check_output(workload, seed, first, traced=False)
    if not found:
        os.remove(first)  # the digest stays in the accounting block
    errors += found
    metrics = {
        "states_per_s": (statistics.median(b["states_per_s"] for b in batches), "states/s"),
        "peak_rss_mb": (statistics.median(b["rss_kb"] / 1024.0 for b in batches), "MB"),
        "setup_s": (statistics.median(b["setup_s"] for b in batches), "s"),
    }
    ops = {workload: {"attempted": sum(b["attempted"] for b in batches),
                      "failed": sum(b["failed"] for b in batches)}}
    detail = {
        "batches": [{k: b[k] for k in ("setup_s", "states_per_s", "raw_setup_s",
                                       "raw_states_per_s", "speed_factor", "elapsed", "cpu_s",
                                       "rss_kb")}
                    for b in batches],
        "output_sha256": {workload: batches[0]["digest"]},
        "qtriad_numpy": batches[0]["numpy"],
    }
    return metrics, ops, errors, detail


def traced_run(root: str, workload: str, seed: int, seconds: int, outdir: str):
    probes = [_worker(["import", root]) for _ in range(IMPORT_PROBES)]
    imports = [calibrated(p["raw_import_s"], **p["setup_cal"]) for p in probes]
    res = _worker(["trace", root, workload, seed, seconds, outdir])
    factor = speed_factor(statistics.median(res["cal_s"]))
    errors = []
    for w, path in res["outputs"].items():
        if len(res["digests"][w]) != 1:
            errors.append(f"{w}: traced and untraced passes wrote different outputs")
        if any(rc != 0 for rc in res["totals"][w]["rc"]):
            errors.append(f"{w}: qtriad exited {res['totals'][w]['rc']}")
        found = check_output(w, seed, path, traced=True)
        if not found:
            os.remove(path)
        errors += [f"{w}: {e}" for e in found]
    layer = dict(res["metrics"], **{"cli.import_s": statistics.median(imports)})
    metrics = {}
    for name, value in layer.items():
        if value is None:
            errors.append(f"layer metric {name} was not measured")
            continue
        unit = _layer_unit(name)
        if unit in ("us", "s") and name != "cli.import_s":
            value /= factor
        metrics[name] = (value, unit)
    ops = {w: {"attempted": t["attempted"], "failed": t["failed"]}
           for w, t in res["totals"].items()}
    detail = {
        "rounds": res["rounds"],
        "raw_import_s": [p["raw_import_s"] for p in probes],
        "cal_s": res["cal_s"],
        "output_sha256": {w: d[0] for w, d in res["digests"].items() if w != wl.SCALAR_API},
        "trace_file": os.path.relpath(res["trace_file"], root),
    }
    return metrics, ops, errors, detail


def _layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes_per_state"):
        return "B"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qtriad", "__init__.py")):
        print("error: run from the repository root; src/qtriad is missing", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        print("error: --seed must fit in 64 unsigned bits, --seconds be >= 1", file=sys.stderr)
        return 2
    outdir = os.path.join(root, OUT_DIR)
    os.makedirs(outdir, exist_ok=True)
    run = traced_run if args.trace else measured_run
    metrics, ops, errors, detail = run(root, args.workload, args.seed, args.seconds, outdir)
    accounting = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds, "operations": ops,
        "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "errors": errors, **detail,
    }
    name = f"accounting-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        json.dump(accounting, fh, indent=1)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": ops[args.workload]["attempted"],
        "failed": ops[args.workload]["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"accounting": accounting}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
