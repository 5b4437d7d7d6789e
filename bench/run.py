"""qpklab benchmark: one process, one client, closed loop.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs jobs of the named workload back to back (each trial starts when the
previous one ends) while the next job is expected to end within `--seconds`,
checks every output against an exact value, and prints a JSON details line
followed by the result line `{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics with no tracing installed. Their
times are read on `clock.Clock`, scaled to a reference CPU speed; the details
line also gives them unscaled.
`--trace 1` replays job 0 alternately traced and untraced and reports the
per-layer metrics, the tracing overhead, and writes job 0's spans under
`.bench_out/`. Exit status: 0 all checks passed, 1 a check failed,
2 configuration error (no result line).

See bench/README.md for the workloads and what each metric should move.
"""

import argparse
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10
TAIL_WINDOW = 100

EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG = 0, 1, 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qpklab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(cap: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "QPKLAB_QMAX": os.environ.get("QPKLAB_QMAX", ""),
        "qubit_cap": cap,
        "git_commit": git_commit(),
    }


def probe_setup(workload_name: str):
    """Raw and reference-speed seconds of SETUP_PROBES set-ups in fresh interpreters."""
    import clock

    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload_name],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup_s, calibration_s = map(float, proc.stdout.strip().splitlines()[-1].split())
        raw.append(setup_s)
        scaled.append(setup_s * clock.REFERENCE_S / calibration_s)
    return raw, scaled


class Checkpoints:
    """Takes a tracer's place in `tracing.install`: each wrapped call first
    gives the clock a chance to calibrate."""

    def __init__(self, clock):
        self.clock = clock

    def wrap(self, _name, fn, _kind, _hook):
        checkpoint = self.clock.checkpoint

        def checkpointed(*args, **kwargs):
            checkpoint()
            return fn(*args, **kwargs)

        return functools.update_wrapper(checkpointed, fn)


def run_job(workload, rng, clock, tracer=None):
    """One job from cold objects, timed on `clock`.

    Returns (build handle, one handle per trial, results, tracing install).
    """
    inst = None
    if tracer is not None:
        import tracing

        inst = tracing.install(tracer)
    try:
        clock.checkpoint()
        first = clock.start()
        ctx = workload.build()
        build = clock.stop(first)
        trials, results = [], []
        for i, child in enumerate(rng.spawn(workload.job_trials)):
            if tracer is not None:
                tracer.trial = i
            clock.checkpoint()
            first = clock.start()
            results.append(workload.trial(ctx, child, clock.checkpoint))
            trials.append(clock.stop(first))
    finally:
        if inst is not None:
            inst.uninstall()
    return build, trials, results, inst


def job_seconds(read, build, trials):
    """Time of one job (build plus trials) and of each trial, read by `read`."""
    times = [read(h) for h in trials]
    return read(build) + sum(times), times


def tail(job_times):
    """Tail trial time of a run, and the percentile and sample count behind it.

    Consecutive whole jobs are grouped into windows of at least TAIL_WINDOW
    trials (a short remainder joins the last window). In each window the tail
    is the highest percentile with at least TAIL_BEYOND trials beyond it (the
    maximum if the window is smaller); the run's tail is the median over
    windows, so one burst of host contention moves only one window.
    """
    windows, current = [], []
    for times in job_times:
        current += times
        if len(current) >= TAIL_WINDOW:
            windows.append(current)
            current = []
    if current:
        if windows:
            windows[-1] += current
        else:
            windows.append(current)
    values, percentiles = [], []
    for window in windows:
        ordered = sorted(window)
        n = len(ordered)
        k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
        values.append(ordered[k])
        percentiles.append(100.0 * (k + 1) / n)
    return statistics.median(values), percentiles, [len(w) for w in windows]


def rate_check(workload, results) -> dict:
    import workloads

    if workload.exact_rate is None:
        return {"ok": True}
    events = sum(r.events for r in results)
    draws = sum(r.draws for r in results)
    lo, hi = workloads.wilson_interval(events, draws)
    return {
        "ok": draws > 0 and lo <= workload.exact_rate <= hi,
        "what": workload.rate_label, "observed": events / draws if draws else None,
        "events": events, "draws": draws, "exact": workload.exact_rate,
        "wilson_z": workloads.WILSON_Z, "interval": [lo, hi],
    }


def tally(results):
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    reasons = [reason for r in results for reason in r.reasons][:10]
    return attempted, failed, reasons


def metric(value, unit):
    return {"value": value, "unit": unit}


def time_metrics(job_s, job_times, setup_samples):
    trials = sum(len(times) for times in job_times)
    tail_value, tail_pcts, tail_samples = tail(job_times)
    metrics = {
        "trials_per_s": metric(trials / sum(job_s), "1/s"),
        "trial_p50_ms": metric(statistics.median(t for ts in job_times for t in ts) * 1e3, "ms"),
        "trial_tail_ms": metric(tail_value * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
    }
    return metrics, tail_pcts, tail_samples


def measure(workload, args):
    import tracing
    import workloads
    from clock import REFERENCE_S, Clock

    setup_raw, setup_scaled = probe_setup(workload.name)
    clock = Clock()
    checkpoints = tracing.install(
        Checkpoints(clock), [(t, "checkpoint", tracing.SPAN) for t in workload.checkpoint_targets])
    jobs, results = [], []
    deadline = perf_counter() + args.seconds
    try:
        while not jobs or perf_counter() + statistics.median(w for w, *_ in jobs) <= deadline:
            gc.collect()
            start = perf_counter()
            build, trials, job_results, _ = run_job(
                workload, workloads.job_rng(args.seed, len(jobs)), clock)
            jobs.append((perf_counter() - start, build, trials))
            results += job_results
    finally:
        checkpoints.uninstall()
    if checkpoints.absent:
        sys.stderr.write(f"note: no calibration points at {checkpoints.absent}\n")
    clock.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [job_seconds(clock.scaled, build, trials) for _, build, trials in jobs]
    raw = [job_seconds(clock.raw, build, trials) for _, build, trials in jobs]
    metrics, tail_pcts, tail_samples = time_metrics(
        [s for s, _ in scaled], [ts for _, ts in scaled], setup_scaled)
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    raw_metrics, _, _ = time_metrics([s for s, _ in raw], [ts for _, ts in raw], setup_raw)
    attempted, failed, reasons = tally(results)
    check = rate_check(workload, results)
    details = {
        "jobs": len(jobs), "job_trials": workload.job_trials,
        "job_s": [s for s, _ in scaled], "trials": sum(len(ts) for _, ts in scaled),
        "tail_percentiles": tail_pcts, "tail_samples": tail_samples,
        "setup_samples_s": setup_scaled,
        "unscaled": {name: m["value"] for name, m in raw_metrics.items()},
        "calibration_s": {"reference": REFERENCE_S, "count": len(clock.calibrations),
                          "min": min(clock.calibrations),
                          "median": statistics.median(clock.calibrations),
                          "max": max(clock.calibrations)},
        "fail_ratio": failed / attempted, "failures": reasons, "rate_check": check,
    }
    return metrics, attempted, failed, check["ok"], details


def measure_traced(workload, args):
    import tracing
    import workloads
    from clock import Clock

    clock = Clock()
    reps = []
    deadline = perf_counter() + args.seconds
    rep_s = 0.0
    while not reps or perf_counter() + rep_s <= deadline:
        start = perf_counter()
        gc.collect()
        tracer = tracing.Tracer()
        traced = run_job(workload, workloads.job_rng(args.seed, 0), clock, tracer)
        gc.collect()
        plain = run_job(workload, workloads.job_rng(args.seed, 0), clock)
        reps.append((tracer, traced, plain))
        rep_s = perf_counter() - start
    clock.finish()

    per_rep = []
    for tracer, (_build, _trials, results, inst), _plain in reps:
        extra = {
            "games": sum(r.games for r in results),
            "games_valid": sum(r.games_valid for r in results),
            "oracle_s": {k: sum(r.oracle_s.get(k, 0.0) for r in results)
                         for k in tracing.ORACLE_TIMES},
        }
        per_rep.append(tracing.layer_metrics(tracer, inst, workload.job_trials, extra))

    problems = []
    first = per_rep[0]
    for name in tracing.COUNT_METRICS:
        values = {rep[name][0] for rep in per_rep}
        if len(values) > 1:
            problems.append(f"{name} differs between identical traced jobs: {sorted(values)}")
    outcomes = {tuple(r.outcome for r in run[2]) for rep in reps for run in rep[1:]}
    if len(outcomes) > 1:
        problems.append("tracing changed the program's outcomes")

    metrics = {}
    for name, (value, unit, absent) in first.items():
        if absent:
            metrics[name] = {"value": None, "unit": unit, "absent": absent}
        else:
            metrics[name] = metric(statistics.median(rep[name][0] for rep in per_rep), unit)
    traced_job_s = [job_seconds(clock.scaled, *rep[1][:2])[0] for rep in reps]
    plain_job_s = [job_seconds(clock.scaled, *rep[2][:2])[0] for rep in reps]
    overhead = statistics.median(traced_job_s) / statistics.median(plain_job_s) - 1.0
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")

    all_results = [r for rep in reps for run in rep[1:] for r in run[2]]
    attempted, failed, reasons = tally(all_results)
    check = rate_check(workload, reps[0][1][2])
    spans_file = write_spans(reps[0][0], workload.name, args.seed)
    details = {
        "reps": len(reps), "job_trials": workload.job_trials,
        "traced_job_s": traced_job_s, "untraced_job_s": plain_job_s,
        "absent_targets": reps[0][1][3].absent, "spans": len(reps[0][0].spans),
        "spans_file": str(spans_file.relative_to(ROOT)), "fail_ratio": failed / attempted,
        "failures": reasons + problems, "rate_check": check,
    }
    return metrics, attempted, failed, check["ok"] and not problems, details


def write_spans(tracer, workload_name, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload_name}-seed{seed}.jsonl"
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    with path.open("w") as fh:
        for span_id, name, start, end, parent, trial in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start_s": start - origin,
                                 "end_s": end - origin, "parent": parent,
                                 "trial": trial}) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qpklab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qpklab sources under {SRC}\n")
        return EXIT_CONFIG
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return EXIT_CONFIG
    try:
        cap = workloads.check_capacity(workload)
    except workloads.ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    workloads.setup(workload)

    if args.trace:
        metrics, attempted, failed, ok, details = measure_traced(workload, args)
    else:
        metrics, attempted, failed, ok, details = measure(workload, args)
    correct = ok and failed == 0
    details = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "env": environment(cap), **details}
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return EXIT_OK if correct else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
