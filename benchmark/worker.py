"""Measured side of the benchmark: one fresh process per batch.

    python3 benchmark/worker.py import ROOT
    python3 benchmark/worker.py run ROOT WORKLOAD SEED OUT
    python3 benchmark/worker.py trace ROOT WORKLOAD SEED SECONDS OUTDIR

``run`` imports qtriad from ROOT/src, builds the inputs, then times one
batch of WORKLOAD; ``trace`` runs every workload in rounds, each round once
untraced and once traced, for SECONDS; ``import`` times ``import
qtriad.cli``. Set-up and the timed batch are sampled by ``calibration``'s
machine-speed kernel. Each mode prints one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import os
import resource
import sys
import time

# workloads and tracing import numpy, so they are imported only after qtriad:
# the import probe must see a fresh interpreter.

# Kernel runs per calibration between traced rounds.
_CAL_REPEATS = 20


def _import_qtriad(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qtriad
    import qtriad.cli  # noqa: F401  (the CLI workloads' entry point)

    if not os.path.abspath(qtriad.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"qtriad was imported from {qtriad.__file__}, not from {src}")
    return qtriad


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def scalar_pass(qt, rounds) -> tuple[dict, list]:
    """The README quickstart calls, one state at a time, over ``rounds``.

    Functions are looked up when the pass starts, so a traced pass sees the
    patched ones. Only the construction step may fail by design (the
    extreme-scale inputs); any failure is counted and recorded for the check.
    """
    make_state, make_correlated, embed = qt.make_state, qt.make_correlated, qt.embed_correlated
    triad, coords, ball = qt.triad, qt.coords_from_state, qt.ball_point
    quaternify, project, lift = qt.quaternify, qt.stereo_project, qt.inverse_stereo
    classify, schmidt = qt.classify, qt.schmidt_decompose
    results: list = []
    failed = 0
    t0 = time.perf_counter()
    for inputs in rounds:
        for kind, payload in inputs:
            try:
                if kind.startswith("correlated"):
                    s = embed(make_correlated(*payload, normalize=True))
                else:
                    s = make_state(payload, normalize=True)
                t = triad(s)
                x = coords(s)
                r = ball(s).radius
                q = project(quaternify(s))
                y = lift(q)
                labels = classify(s)
                sf = schmidt(s)
            except (ValueError, ArithmeticError) as exc:
                failed += 1
                results.append((kind, str(exc)))
                continue
            results.append((kind, s, t, x, r, q, y, labels, sf))
    elapsed = time.perf_counter() - t0
    attempted = sum(len(inputs) for inputs in rounds)
    return {"elapsed": elapsed, "attempted": attempted, "failed": failed,
            "handled": attempted - failed, "rc": 0}, results


def scalar_rows(qt, results) -> list:
    """JSON-ready rows of a scalar pass (made after timing)."""
    rows = []
    for res in results:
        if len(res) == 2:
            rows.append(list(res))
            continue
        kind, s, t, x, r, q, y, labels, sf = res
        rows.append([
            kind,
            [v for a in s.alpha for v in (a.real, a.imag)],
            list(t), list(x), r, qt.is_infinite(q), list(y),
            sorted(label.value for label in labels),
            [sf.lambda1, sf.lambda2],
        ])
    return rows


def cli_pass(workload: str, seed: int, out: str, traced: bool) -> dict:
    """One CLI invocation through ``qtriad.cli.main`` (looked up at call time)."""
    import workloads as wl

    main = sys.modules["qtriad.cli"].main
    argv = wl.cli_argv(workload, seed, out, traced)
    t0 = time.perf_counter()
    if workload == wl.VERIFY:
        with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            rc = main(argv)
    else:
        rc = main(argv)
    elapsed = time.perf_counter() - t0
    n = wl.per_batch_states(workload, traced)
    # verify exits 1 when a check fails; its operations still completed.
    ok = rc == 0 or (workload == wl.VERIFY and rc == 1)
    return {"elapsed": elapsed, "attempted": n, "failed": 0 if ok else n,
            "handled": n if ok else 0, "rc": rc}


def _write_scalar(qt, results, out: str) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(scalar_rows(qt, results), fh)


def cmd_run(qt, workload: str, seed: int, out: str, rounds) -> dict:
    import calibration

    cpu0 = time.process_time()
    with calibration.Sampler() as cal:
        if rounds is not None:
            res, results = scalar_pass(qt, rounds)
        else:
            res = cli_pass(workload, seed, out, traced=False)
    res["cpu_s"] = time.process_time() - cpu0
    res["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    res["work_cal"] = {"spent": cal.spent, "samples": cal.samples}
    if rounds is not None:
        _write_scalar(qt, results, out)
    import numpy

    res.update(digest=sha256_file(out), numpy=numpy.__version__,
               python=sys.version.split()[0])
    return res


def cmd_trace(qt, workload: str, seed: int, seconds: float, outdir: str) -> dict:
    import calibration
    import workloads as wl
    from tracing import ROUND_COUNTERS, Tracer, median_or_none

    scalar_inputs = [wl.scalar_round(seed, 0)]
    tracer = Tracer()
    order = [workload] + [w for w in wl.WORKLOADS if w != workload]
    totals = {w: {"attempted": 0, "failed": 0, "rc": []} for w in order}
    digests: dict[str, set] = {w: set() for w in order}
    outputs = {w: os.path.join(outdir, f"trace-{w}-{seed}.out") for w in order}
    walls: list[tuple[float, float, float]] = []
    cals = [calibration.kernel_seconds(_CAL_REPEATS)]
    start = time.monotonic()
    rnd = 0
    while rnd == 0 or time.monotonic() - start < seconds:
        untraced = traced = cpu = 0.0
        for w in order:
            for on in (False, True):
                if on:
                    tracer.begin_pass(rnd, w)
                    tracer.install()
                cpu0 = time.process_time()
                try:
                    if w == wl.SCALAR_API:
                        res, results = scalar_pass(qt, scalar_inputs)
                    else:
                        res = cli_pass(w, seed, outputs[w], traced=True)
                finally:
                    if on:
                        tracer.uninstall()
                if on:
                    traced += res["elapsed"]
                    cpu += time.process_time() - cpu0
                else:
                    untraced += res["elapsed"]
                if w == wl.SCALAR_API:
                    _write_scalar(qt, results, outputs[w])
                digests[w].add(sha256_file(outputs[w]))
                totals[w]["attempted"] += res["attempted"]
                totals[w]["failed"] += res["failed"]
                totals[w]["rc"].append(res["rc"])
        walls.append((untraced, traced, cpu))
        cals.append(calibration.kernel_seconds(_CAL_REPEATS))
        rnd += 1

    metrics: dict[str, float | None] = dict(tracer.layer_metrics())
    for counter in ROUND_COUNTERS:
        metrics[counter] = median_or_none(tracer.round_counter(counter).values())
    dataset_passes = {i for i, (_, w) in enumerate(tracer.passes)
                      if w in (wl.SAMPLE_CSV, wl.SHELLS_JSON)}

    def per_round(durations: dict[int, int]) -> float | None:
        by_round: dict[int, float] = {}
        for pid, ns in durations.items():
            if pid in dataset_passes:
                r = tracer.passes[pid][0]
                by_round[r] = by_round.get(r, 0.0) + ns / 1e9
        return median_or_none(by_round.values())

    metrics["cli.generate_s"] = per_round(tracer.pass_durations(
        {"sampling.sample", "sampling.fixed_concurrence_state"}, parent_name="cli.main"))
    metrics["cli.emit_s"] = per_round(tracer.pass_durations(
        {"dataset.emit_csv", "dataset.emit_json"}, parent_name="cli.main"))
    metrics["cli.cpu_s"] = median_or_none(c for _, _, c in walls)
    metrics["trace.overhead_pct"] = median_or_none(100.0 * (t / u - 1.0) for u, t, _ in walls)
    states = {w: wl.per_batch_states(w, traced=True) for w in order}
    for w, metric in ((wl.SAMPLE_CSV, "dataset.csv_bytes_per_state"),
                      (wl.SHELLS_JSON, "dataset.json_bytes_per_state")):
        metrics[metric] = os.path.getsize(outputs[w]) / states[w]

    trace_path = os.path.join(outdir, f"trace-{workload}-{seed}.json.gz")
    with gzip.open(trace_path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump({"workload": workload, "seed": seed, "rounds": rnd,
                   "round_walls_s": [list(x) for x in walls], "metrics": metrics,
                   **tracer.dump()}, fh)
    return {"rounds": rnd, "metrics": metrics, "cal_s": cals, "totals": totals, "outputs": outputs,
            "digests": {w: sorted(d) for w, d in digests.items()}, "trace_file": trace_path}


def main(argv: list[str]) -> int:
    import calibration  # standard library only, so it may precede the timed import

    mode, root = argv[0], argv[1]
    if mode not in ("import", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    # Set-up: everything up to "inputs ready", machine speed sampled throughout.
    with calibration.Sampler(calibration.SETUP_INTERVAL_S) as setup:
        t0 = time.perf_counter()
        qt = _import_qtriad(root)
        import_s = time.perf_counter() - t0
        rounds = None
        if mode == "run":
            import workloads as wl

            if argv[2] == wl.SCALAR_API:
                rounds = [wl.scalar_round(int(argv[3]), r) for r in range(wl.SCALAR_ROUNDS[0])]
        ready = time.monotonic()
    setup_cal = {"spent": setup.spent, "samples": setup.samples}
    if mode == "import":
        out = {"raw_import_s": import_s, "setup_cal": setup_cal}
    elif mode == "run":
        out = cmd_run(qt, argv[2], int(argv[3]), argv[4], rounds)
        out.update(ready=ready, setup_cal=setup_cal)
    else:
        out = cmd_trace(qt, argv[2], int(argv[3]), float(argv[4]), argv[5])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
