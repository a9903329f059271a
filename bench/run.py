"""Benchmark of the ``wickops`` batch CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a closed loop with a single client: each job (one
seeded input through a fixed pipeline of subcommands, called in-process
through ``wickops.cli.main``) starts when the previous one ends.  Job time is
the wall time inside the ``main`` calls; generating inputs, passing results
between steps and checking outputs run outside the clock.  The end-to-end
times are rescaled to a reference host speed by a calibration kernel run
between jobs (``harness.Calibration``); the plain wall-time figures go to
the run record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones plus the tracing overhead.  The last line of standard output is the
result as one JSON object; the full record (environment, parameters, sizes,
samples, spans) is written under ``bench/out/``.
"""

import os

# One BLAS thread, pinned before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def host_speed(calibration) -> float:
    """Median speed factor of three calibration kernels."""
    return statistics.median(calibration.speed_factor() for _ in range(3))


def set_up(workload, seed, package, work):
    """Fresh-interpreter import, input generation and one cold warm-up job.
    Returns the jobs, the warm-up result, the wall seconds and the seconds
    at the reference host speed (calibrated before and after)."""
    before = host_speed(workload.calibration)
    t0 = time.perf_counter()
    harness.fresh_import()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = workload.make_jobs(seed, work)
    harness.clear_caches(package)
    warm = harness.run_job(package.cli, jobs[0])
    wall = time.perf_counter() - t0
    return jobs, warm, wall, wall * (before + host_speed(workload.calibration)) / 2


def closed_loop(package, jobs, calibration, seconds, tracer=None):
    """Run jobs back to back for ``seconds``; with a tracer, every second job
    is traced.  A calibration kernel runs between jobs, outside the clock,
    and each job keeps the mean of the two around it.  Returns (untraced
    results, traced results)."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    before = calibration.speed_factor()
    i = 0
    while time.perf_counter() < deadline:
        job = jobs[i % len(jobs)]
        if tracer is not None and i % 2 == 1:
            tracer.job = i
            tracer.install()
            try:
                result = harness.run_job(package.cli, job)
            finally:
                tracer.uninstall()
            traced.append(result)
        else:
            result = harness.run_job(package.cli, job)
            plain.append(result)
        after = calibration.speed_factor()
        result.speed_factor = (before + after) / 2
        before = after
        i += 1
    return plain, traced


def jobs_per_s(results, seconds=lambda r: r.seconds) -> float:
    return sum(r.ok for r in results) / sum(seconds(r) for r in results)


def latency(results, seconds) -> tuple:
    """(median, 90th percentile) job time in ms."""
    ms = [seconds(r) * 1e3 for r in results]
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90


def wall_figures(results, setup_s) -> dict:
    """The end-to-end figures in plain wall time, not rescaled to the
    reference host speed; written to the run record, not reported."""
    p50, p90 = latency(results, lambda r: r.seconds)
    return {"jobs_per_s": jobs_per_s(results), "job_ms.p50": p50, "job_ms.p90": p90,
            "setup_s": setup_s,
            "speed_factor.p50": statistics.median(r.speed_factor for r in results)}


def end_to_end(results, setup_s) -> dict:
    """Times are at the reference host speed (``harness.Calibration``)."""
    ref = lambda r: r.ref_seconds  # noqa: E731
    p50, p90 = latency(results, ref)
    return {
        "jobs_per_s": (jobs_per_s(results, ref), "1/s"),
        "job_ms.p50": (p50, "ms"),
        "job_ms.p90": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "ok_frac": (sum(r.ok for r in results) / len(results), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(plain, traced, records) -> dict:
    totals = tracing.summarize(records)
    n = len(traced)
    out = tracing.layer_metrics(totals, n, sum(r.output_bytes for r in traced) / 1024.0)
    out["trace.job_ms"] = sum(r.seconds for r in traced) * 1e3 / n
    out["trace.overhead_frac"] = jobs_per_s(plain) / jobs_per_s(traced) - 1.0
    return {k: (v, tracing.unit_of(k)) for k, v in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        package = harness.import_wickops()
    except (harness.SetupError, ImportError) as exc:
        print(f"bench: cannot load wickops: {exc}", file=sys.stderr)
        return 2

    work = harness.OUT / f"work-{workload.name}"
    setups = [set_up(workload, args.seed, package, work) for _ in range(SETUP_REPS)]
    jobs = setups[-1][0]
    warm_problems = [p for _, warm, _, _ in setups for p in warm.problems]
    setup_s = statistics.median(s for _, _, _, s in setups)

    tracer = tracing.Tracer(package) if args.trace else None
    plain, traced = closed_loop(package, jobs, workload.calibration, args.seconds, tracer)
    results = plain + traced
    if args.trace:
        metrics = per_layer(plain, traced, tracer.records)
    else:
        metrics = end_to_end(plain, setup_s)

    failures = warm_problems + [p for r in results for p in r.problems]
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": harness.environment(np), "params": workload.params, "sizes": workload.sizes,
        "setup_runs_s": {"wall": [w for _, _, w, _ in setups],
                         "reference": [s for _, _, _, s in setups]},
        "jobs": {"untraced": len(plain), "traced": len(traced)},
        "job_ms": {"wall": [r.seconds * 1e3 for r in plain],
                   "reference": [r.ref_seconds * 1e3 for r in plain]},
        "wall": wall_figures(plain, statistics.median(w for _, _, w, _ in setups)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures[:20],
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (harness.OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(harness.OUT / f"{stem}.spans.jsonl", "w") as fh:
            for rec in tracer.records:
                fh.write(json.dumps(rec) + "\n")

    for problem in failures[:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed}: {len(plain)} untraced / {len(traced)} traced "
          f"jobs, wall={json.dumps(record['wall'])}, env={json.dumps(record['env'])}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
