"""Digest every report the benchmark's jobs write, to compare two checkouts.

    python3 tools/report_digest.py [--output MANIFEST]

Runs the first 16 jobs of each workload in ``bench/workloads.py`` at seeds
1, 2 and 3, plus ``selftest --output``, in-process through this checkout's
``wickops.cli.main``, in a temporary directory.  The manifest is JSON: each
report's path relative to that directory, sorted, mapped to the sha256 of its
bytes.  The temporary directory's path, which JSON reports carry in
``config.input``, is replaced by ``<work>`` before hashing, so that two runs,
or runs from two checkouts, give equal manifests exactly when every report is
byte-identical.  A job whose exit code or output check fails stops the run.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402
import workloads  # noqa: E402

JOBS = 16
SEEDS = (1, 2, 3)


def _digest(path: Path, work: Path) -> str:
    data = path.read_bytes().replace(str(work).encode(), b"<work>")
    return hashlib.sha256(data).hexdigest()


def manifest(jobs: int = JOBS, seeds=SEEDS) -> dict:
    """{relative report path: sha256} for the first `jobs` jobs of every
    workload at each seed, plus the selftest report."""
    wickops = harness.import_wickops()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, workload in workloads.WORKLOADS.items():
            for seed in seeds:
                run_dir = work / name / f"seed-{seed}"
                run_dir.mkdir(parents=True)
                rng = np.random.default_rng(seed)
                for i in range(jobs):
                    job = workload.make_job(rng, run_dir, i)
                    result = harness.run_job(wickops.cli, job)
                    if not result.ok:
                        raise RuntimeError(f"{name} seed {seed} job {i}: {result.problems}")
                    for step in job.steps:
                        out[str(step.output.relative_to(work))] = _digest(step.output, work)
        selftest = work / "selftest.json"
        with contextlib.redirect_stdout(io.StringIO()):
            if wickops.cli.main(["selftest", "--output", str(selftest)]) != 0:
                raise RuntimeError("selftest failed")
        out[selftest.name] = _digest(selftest, work)
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--output", help="manifest file (default: standard output)")
    args = p.parse_args(argv)
    text = json.dumps(manifest(), indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
