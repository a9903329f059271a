import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = {"end_to_end": [{"name": "jobs_per_s", "better": "higher", "bound": 0.25},
                       {"name": "job_ms.p50", "better": "lower", "bound": 0.25},
                       {"name": "ok_frac", "better": "higher", "bound": 0.01}],
        "per_layer": [{"name": "hermite.samples", "better": "lower"}]}


def _record(path, seed, values, trace=0, seconds=35, sha="aaa", wall=None):
    """A run record as bench/run.py writes it; an untraced one carries plain
    wall-time figures, by default a fixed set."""
    units = {"jobs_per_s": "1/s", "job_ms.p50": "ms", "ok_frac": "frac",
             "hermite.samples": "count"}
    record = {
        "workload": "coeff-transform", "seed": seed, "seconds": seconds, "trace": trace,
        "env": {"git_sha": sha},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    if not trace:
        record["wall"] = wall or {"jobs_per_s": 50.0, "job_ms.p50": 20.0, "setup_s": 0.25,
                                  "speed_factor.p50": 1.0}
    path.write_text(json.dumps(record))
    return str(path)


def test_two_records(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    parent = _record(tmp_path / "p.json", 7,
                     {"jobs_per_s": 63.0, "job_ms.p50": 15.4, "ok_frac": 1.0})
    change = _record(tmp_path / "c.json", 7,
                     {"jobs_per_s": 118.0, "job_ms.p50": 8.6, "ok_frac": 1.0}, sha="bbb")
    assert bench_record.main(["--label", "demo", "--parent", parent, "--change", change],
                             root=tmp_path) == 0
    out = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert (out["label"], out["parent_sha"], out["change_sha"]) == ("demo", "aaa", "bbb")
    assert out["per_layer"] == {}
    run = out["end_to_end"]["coeff-transform"]
    assert (run["seeds"], run["pairs"], run["seconds"]) == ([7], 1, 35)
    jobs = run["metrics"]["jobs_per_s"]
    assert jobs["parent"] == {"median": 63.0, "q1": 63.0, "q3": 63.0}
    assert jobs["change"]["median"] == 118.0
    assert (jobs["unit"], jobs["better"], jobs["change_wins"]) == ("1/s", "higher", 1)
    # a lower time wins; a tie counts for neither side
    assert run["metrics"]["job_ms.p50"]["change_wins"] == 1
    assert run["metrics"]["ok_frac"]["change_wins"] == 0
    # the plain wall-time figures, compared the same way
    assert run["wall"]["job_ms.p50"] == {
        "better": "lower", "change_wins": 0,
        "parent": {"median": 20.0, "q1": 20.0, "q3": 20.0},
        "change": {"median": 20.0, "q1": 20.0, "q3": 20.0}}


def test_pairs_by_seed_and_splits_traced_runs(tmp_path):
    parents = [_record(tmp_path / f"p{s}.json", s, {"jobs_per_s": v})
               for s, v in [(1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0), (5, 50.0)]]
    # listed in another order, and losing at seed 3
    changes = [_record(tmp_path / f"c{s}.json", s, {"jobs_per_s": v})
               for s, v in [(5, 51.0), (3, 29.0), (1, 11.0), (2, 21.0), (4, 41.0)]]
    parents.append(_record(tmp_path / "pt.json", 1, {"hermite.samples": 18100.0}, trace=1))
    changes.append(_record(tmp_path / "ct.json", 1, {"hermite.samples": 0.0}, trace=1))
    out = bench_record.build_record(parents, changes, "x", SPEC)
    jobs = out["end_to_end"]["coeff-transform"]["metrics"]["jobs_per_s"]
    assert jobs["parent"] == {"median": 30.0, "q1": 15.0, "q3": 45.0}
    assert jobs["change_wins"] == 4
    samples = out["per_layer"]["coeff-transform"]["metrics"]["hermite.samples"]
    assert samples["change_wins"] == 1 and samples["change"]["median"] == 0.0
    assert "wall" not in out["per_layer"]["coeff-transform"]


def test_wall_figures_beside_the_rescaled_metrics(tmp_path):
    walls = [(0.20, 0.30), (0.25, 0.21), (0.30, 0.29)]  # (parent, change) setup_s
    parents, changes = [], []
    for seed, (p, c) in enumerate(walls, 1):
        parents.append(_record(tmp_path / f"p{seed}.json", seed, {"jobs_per_s": 1.0},
                               wall={"setup_s": p, "speed_factor.p50": 1.0 + seed}))
        changes.append(_record(tmp_path / f"c{seed}.json", seed, {"jobs_per_s": 1.0},
                               wall={"setup_s": c, "speed_factor.p50": 1.1}))
    spec = {**SPEC, "end_to_end": SPEC["end_to_end"] + [{"name": "setup_s", "better": "lower",
                                                         "bound": 0.25}]}
    wall = bench_record.build_record(parents, changes, "x", spec)["end_to_end"][
        "coeff-transform"]["wall"]
    assert wall["setup_s"]["parent"] == {"median": 0.25, "q1": 0.2, "q3": 0.3}
    assert wall["setup_s"]["change"]["median"] == 0.29
    assert (wall["setup_s"]["better"], wall["setup_s"]["change_wins"]) == ("lower", 2)
    # a figure without a direction gets quartiles only
    assert set(wall["speed_factor.p50"]) == {"parent", "change"}
    assert wall["speed_factor.p50"]["parent"]["median"] == 3.0


def test_proof_rule_verdicts(tmp_path):
    # ten pairs; the parent's jobs_per_s quartiles are 97.5 and 102.5
    parent_jobs = [95.0, 96.0, 97.0, 98.0, 99.0, 101.0, 102.0, 103.0, 104.0, 105.0]
    cases = {
        # 10/10 wins by 8 against a spread of 5: shown
        "shown": ([v + 8.0 for v in parent_jobs], 10.0),
        # 9/10 wins, but the median gains 4 against a spread of 5: not shown
        "small": ([v + 4.0 for v in parent_jobs[:9]] + [parent_jobs[9] - 1.0], 10.0),
        # gains 8, but wins 8/10 only: not shown; p50 30 % worse, past its 0.25 bound
        "unsteady": ([v + 8.0 for v in parent_jobs[:8]] + [v - 1.0 for v in parent_jobs[8:]],
                     13.0),
    }
    verdicts = {}
    for label, (change_jobs, change_p50) in cases.items():
        parents, changes = [], []
        for seed, (p, c) in enumerate(zip(parent_jobs, change_jobs), 1):
            parents.append(_record(tmp_path / f"p{seed}.json", seed,
                                   {"jobs_per_s": p, "job_ms.p50": 10.0, "ok_frac": 1.0}))
            changes.append(_record(tmp_path / f"c{seed}.json", seed,
                                   {"jobs_per_s": c, "job_ms.p50": change_p50, "ok_frac": 0.995},
                                   sha="bbb"))
        parents.append(_record(tmp_path / "pt.json", 1, {"hermite.samples": 1.0}, trace=1))
        changes.append(_record(tmp_path / "ct.json", 1, {"hermite.samples": 1.0}, trace=1,
                               sha="bbb"))
        out = bench_record.build_record(parents, changes, label, SPEC)
        metrics = out["end_to_end"]["coeff-transform"]["metrics"]
        verdicts[label] = {name: (m["gain_shown"], m["within_bound"])
                           for name, m in metrics.items()}
        # per-layer metrics and the plain wall figures carry no verdict
        assert "gain_shown" not in out["per_layer"]["coeff-transform"]["metrics"][
            "hermite.samples"]
        assert "gain_shown" not in out["end_to_end"]["coeff-transform"]["wall"]["job_ms.p50"]
    assert verdicts["shown"]["jobs_per_s"] == (True, True)
    assert verdicts["small"]["jobs_per_s"] == (False, True)
    assert verdicts["unsteady"]["jobs_per_s"] == (False, True)
    # equal medians: within the bound, no gain
    assert verdicts["shown"]["job_ms.p50"] == (False, True)
    assert verdicts["unsteady"]["job_ms.p50"] == (False, False)
    # ok_frac 0.5 % lower: inside its 0.01 bound
    assert verdicts["shown"]["ok_frac"] == (False, True)


@pytest.mark.parametrize("change_seed,seconds,match", [(8, 35, "do not pair"),
                                                       (7, 10, "different lengths")])
def test_unpaired_runs_are_refused(tmp_path, change_seed, seconds, match):
    parent = _record(tmp_path / "p.json", 7, {"jobs_per_s": 1.0})
    change = _record(tmp_path / "c.json", change_seed, {"jobs_per_s": 1.0}, seconds=seconds)
    with pytest.raises(ValueError, match=match):
        bench_record.build_record([parent], [change], "x", SPEC)


def test_one_commit_per_side(tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    parents = [_record(tmp_path / f"p{s}.json", s, {"jobs_per_s": 1.0}, sha=sha)
               for s, sha in [(1, "aaa"), (2, "ccc")]]
    changes = [_record(tmp_path / f"c{s}.json", s, {"jobs_per_s": 1.0}) for s in (1, 2)]
    assert bench_record.main(["--label", "x", "--parent", *parents, "--change", *changes],
                             root=tmp_path) == 2
    assert "parent records come from 2 commits" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_x.json").exists()
