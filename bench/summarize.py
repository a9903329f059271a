"""Summarize benchmark records written under bench/out/.

    python3 bench/summarize.py RECORD... [--vs RECORD...]

For untraced records, prints per workload and end-to-end metric the median,
the quartile spread as a share of the median and the bound from
BENCHMARK.json.  With ``--vs``, also prints how far the second set's median
moved from the first, and marks a move worse than the bound.  For traced
records, prints whether each count metric is identical across the records
(the work per job must not depend on the seed).
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from tracer import unit_of

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def load(paths) -> dict:
    """{(workload, trace): {metric: [values]}} from record files."""
    out = defaultdict(lambda: defaultdict(list))
    for path in paths:
        rec = json.loads(Path(path).read_text())
        for name, m in rec["metrics"].items():
            out[(rec["workload"], rec["trace"])][name].append(m["value"])
    return out


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base if base else 0.0
    return change if better == "lower" else -change


def main(argv) -> int:
    if "--vs" in argv:
        k = argv.index("--vs")
        first, second = argv[:k], argv[k + 1:]
    else:
        first, second = argv, []
    a, b = load(first), load(second)
    regressions = 0
    for (workload, trace), metrics in sorted(a.items()):
        print(f"== {workload} (trace {trace}, {len(next(iter(metrics.values())))} runs)")
        if trace:
            for name, values in sorted(metrics.items()):
                if unit_of(name) != "count" and not name.endswith("_ratio"):
                    continue
                same = "identical" if len(set(values)) == 1 else f"DIFFERS {values}"
                print(f"  {name:40s} {statistics.median(values):14.6g}  {same}")
            continue
        for name, values in metrics.items():
            spec = E2E[name]
            line = (f"  {name:12s} median {statistics.median(values):12.6g} {spec['unit']:5s}"
                    f" spread {spread(values):7.4f}  bound {spec['bound']}")
            other = b.get((workload, trace), {}).get(name)
            if other:
                moved = worse_by(statistics.median(values), statistics.median(other),
                                 spec["better"])
                flag = "  WORSE THAN BOUND" if moved > spec["bound"] else ""
                regressions += bool(flag)
                line += (f" | vs median {statistics.median(other):12.6g} spread "
                         f"{spread(other):7.4f} worse by {moved:+.4f}{flag}")
            print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
