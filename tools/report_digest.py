"""Digest every report the benchmark's jobs write, to compare two checkouts.

    python3 tools/report_digest.py [--output MANIFEST]
    python3 tools/report_digest.py --compare PARENT CHANGE

Runs the first 16 jobs of each workload in ``bench/workloads.py`` at seeds
1, 2 and 3, plus ``selftest --output``, in-process through this checkout's
``wickops.cli.main``, in a temporary directory.  The manifest is JSON: each
report's path relative to that directory, sorted, mapped to the sha256 of its
bytes.  The temporary directory's path, which JSON reports carry in
``config.input``, is replaced by ``<work>`` before hashing, so that two runs,
or runs from two checkouts, give equal manifests exactly when every report is
byte-identical.  A job whose exit code or output check fails stops the run,
and so does a JSON report that a strict parser rejects, one holding NaN or
Infinity.

``--compare`` reads two such manifests and prints, per workload and step
(the report name less its job number), how many reports are the same, changed,
added or removed from PARENT to CHANGE; it exits 1 if any is not the same.
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


def _refuse_constant(name):
    raise ValueError(f"non-finite float {name}")


def _digest(path: Path, work: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        try:
            json.loads(data, parse_constant=_refuse_constant)
        except ValueError as exc:
            raise RuntimeError(f"{path} is not strict JSON: {exc}") from exc
    data = data.replace(str(work).encode(), b"<work>")
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


STATES = ("same", "changed", "added", "removed")


def compare(parent: dict, change: dict) -> dict:
    """{(workload, step): {state: count}} over the reports of two manifests,
    for the STATES; a report outside any workload, like selftest.json, is
    its own workload."""
    counts = {}
    for path in sorted(parent.keys() | change.keys()):
        head, _, name = path.rpartition("/")
        key = (head.split("/")[0] or name.split(".")[0], name.split("-", 1)[-1])
        if path not in change:
            state = "removed"
        elif path not in parent:
            state = "added"
        else:
            state = "same" if parent[path] == change[path] else "changed"
        row = counts.setdefault(key, dict.fromkeys(STATES, 0))
        row[state] += 1
    return counts


def _table(counts: dict) -> str:
    rows = [("workload", "step", *STATES)]
    rows += [(*key, *map(str, row.values())) for key, row in counts.items()]
    rows.append(("total", "", *(str(sum(row[s] for row in counts.values())) for s in STATES)))
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(cell.ljust(w) if i < 2 else cell.rjust(w)
                             for i, (cell, w) in enumerate(zip(row, widths))).rstrip() + "\n"
                   for row in rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--output", help="manifest file (default: standard output)")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two manifests instead of writing one")
    args = p.parse_args(argv)
    if args.compare:
        counts = compare(*(json.loads(Path(path).read_text()) for path in args.compare))
        sys.stdout.write(_table(counts))
        return int(any(row["same"] != sum(row.values()) for row in counts.values()))
    text = json.dumps(manifest(), indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
