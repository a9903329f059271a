"""Write a committed benchmark record, BENCH_<label>.json, from bench/out runs.

    python3 tools/bench_record.py --label LABEL \\
        --parent PARENT_RECORDS... --change CHANGE_RECORDS...

The records are the files ``bench/run.py`` writes under ``bench/out/``, one
set run from a git checkout of the parent commit and one from a checkout of
the change, with the same seeds and run length; each side's commit is the
``git_sha`` its records carry, and must be one.  Runs are paired by workload,
trace flag and seed.  For each workload and metric the file holds both
sides' medians and quartiles, the paired seeds and the number of pairs the
change won: strictly better in the direction ``BENCHMARK.json`` gives for
the metric, ties counting for neither side.  Untraced runs go under
``end_to_end``, traced ones under ``per_layer``.  Each end-to-end metric of
an untraced run also carries the proof rule's verdict: ``gain_shown`` when
the change won at least 9 in 10 of the pairs and its median beats the
parent's by more than the parent's q3 - q1, and ``within_bound`` when its
median is worse than the parent's by no more than the metric's
``BENCHMARK.json`` bound, a fraction of the parent's median.  Beside its metrics, which
``bench/run.py`` rescales to a reference host speed, each untraced workload
carries the same comparison of the records' plain wall-time figures (their
``wall`` field, ``setup_s`` included) under ``wall``; a figure
``BENCHMARK.json`` gives no direction for, such as ``speed_factor.p50``, has
quartiles only.  The file is written to the repository root.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> dict:
    """Median and quartiles, by the method bench/summarize.py uses."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _compare(a, b, better) -> dict:
    """Both sides' quartiles and, for a metric with a direction, the number
    of pairs the change won."""
    out = {"parent": quartiles(a), "change": quartiles(b)}
    if better is not None:
        sign = 1 if better == "higher" else -1
        out["better"] = better
        out["change_wins"] = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    return out


def _verdict(entry, pairs, bound) -> dict:
    """gain_shown and within_bound of one end-to-end metric's comparison."""
    sign = 1 if entry["better"] == "higher" else -1
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    spread = entry["parent"]["q3"] - entry["parent"]["q1"]
    return {"gain_shown": 10 * entry["change_wins"] >= 9 * pairs
            and sign * (change - parent) > spread,
            "within_bound": sign * (parent - change) <= bound * abs(parent)}


def _load(paths) -> dict:
    """{(workload, trace): {seed: record}}, refusing a repeated run."""
    runs = defaultdict(dict)
    for path in paths:
        rec = json.loads(Path(path).read_text())
        key = (rec["workload"], rec["trace"])
        if rec["seed"] in runs[key]:
            raise ValueError(f"{path}: a second {key[0]} run at seed {rec['seed']}")
        runs[key][rec["seed"]] = rec
    return runs


def _sha(runs, side) -> str:
    shas = {rec["env"]["git_sha"] for by_seed in runs.values() for rec in by_seed.values()}
    if len(shas) != 1:
        raise ValueError(f"the {side} records come from {len(shas)} commits: {sorted(shas)}")
    return shas.pop()


def build_record(parent_paths, change_paths, label, spec) -> dict:
    """The BENCH_<label>.json content for two sets of run records."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, change = _load(parent_paths), _load(change_paths)
    if set(parent) != set(change):
        raise ValueError(f"the two sets cover different workloads: {sorted(parent)} "
                         f"and {sorted(change)}")
    out = {"label": label, "parent_sha": _sha(parent, "parent"),
           "change_sha": _sha(change, "change"), "end_to_end": {}, "per_layer": {}}
    for (workload, trace), before in sorted(parent.items()):
        after = change[workload, trace]
        if set(before) != set(after):
            raise ValueError(f"{workload}: parent seeds {sorted(before)} and change seeds "
                             f"{sorted(after)} do not pair")
        seeds = sorted(before)
        lengths = {rec["seconds"] for rec in [*before.values(), *after.values()]}
        if len(lengths) != 1:
            raise ValueError(f"{workload}: runs of different lengths {sorted(lengths)}")
        metrics = {}
        for name, first in before[seeds[0]]["metrics"].items():
            a = [before[s]["metrics"][name]["value"] for s in seeds]
            b = [after[s]["metrics"][name]["value"] for s in seeds]
            metrics[name] = {"unit": first["unit"], **_compare(a, b, better[name])}
            if not trace and name in bounds:
                metrics[name].update(_verdict(metrics[name], len(seeds), bounds[name]))
        entry = {"seconds": lengths.pop(), "seeds": seeds, "pairs": len(seeds),
                 "metrics": metrics}
        if not trace:
            entry["wall"] = {name: _compare([before[s]["wall"][name] for s in seeds],
                                            [after[s]["wall"][name] for s in seeds],
                                            better.get(name))
                             for name in before[seeds[0]]["wall"]}
        out["per_layer" if trace else "end_to_end"][workload] = entry
    return out


def main(argv=None, root=ROOT) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--parent", nargs="+", required=True, help="parent run records")
    p.add_argument("--change", nargs="+", required=True, help="change run records")
    args = p.parse_args(argv)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    try:
        record = build_record(args.parent, args.change, args.label, spec)
    except ValueError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    path = root / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
