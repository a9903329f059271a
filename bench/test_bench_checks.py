"""Tests of the benchmark itself: every output check passes on real CLI
output and fires on a deliberately corrupted copy; the tracer patches every
binding and restores it; inputs depend on the seed only through values."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import tracer as tracing
import workloads

wickops = harness.import_wickops()


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """One job per workload, run once; {name: (job, work dir)}."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        job = workload.make_job(np.random.default_rng(5), work, 0)
        result = harness.run_job(wickops.cli, job)
        assert result.ok, result.problems
        out[name] = (job, work)
    return out


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _bump(values, index, delta):
    values[index][0] += delta


def _raise_last_minimum(data):
    mins = data["result"]["min_real_eigenvalues"]
    mins[-1] = mins[-2] + 1e-6


def _set(key, value, section="result"):
    def edit(data):
        data[section][key] = value
    return edit


def _scale_sup(data):
    data["result"]["sup"] *= 1 + 1e-6


def _scale_detail(data):
    data["result"]["details"][2]["sup"] *= 1 + 1e-6


def _edit_csv(path):
    lines = path.read_text().splitlines()
    # row 1, col 0 of the square block; its mirror (0, 1) stays put
    i = next(k for k, line in enumerate(lines) if line.startswith("1,0,"))
    row, col, re_, im = lines[i].split(",")
    lines[i] = ",".join([row, col, repr(float(re_) + 1e-6), im])
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = [
    ("fock-spectral", "0-garding.json", _raise_last_minimum, "minimum rises"),
    ("fock-spectral", "0-garding.json", _set("max_imag_norms", [1e-3, 1e-3, 1e-3]), "skew part"),
    ("fock-spectral", "0-garding.json",
     lambda d: d["result"].update(diagonal_min=d["result"]["diagonal_min"] + 1e-6),
     "diagonal_min"),
    ("fock-spectral", "0-gs.json", _scale_sup, "bound-check gs: sup"),
    ("fock-spectral", "0-shubin.json", _scale_detail, "bound-check shubin: sup at"),
    ("fock-spectral", "0-shubin.json", _scale_sup, "bound-check shubin: sup "),
    ("real-quantize", "0-weyl.csv", None, "not Hermitian"),
    ("real-quantize", "0-wick-symbol.json",
     lambda d: _bump([t["value"] for t in d["terms"]], 0, 1e-6), "to-wick: Wick matrix differs"),
    ("real-quantize", "0-wick-matrix.json",
     lambda d: _bump(d["result"]["entries"], 5, 1e-6), "wick-matrix: differs"),
    ("real-quantize", "0-expand.json", _set("max_deviation", 1e-6, "verification"),
     "max_deviation"),
    ("coeff-transform", "0-coeffs-d1.json",
     lambda d: _bump([c["value"] for c in d["result"]["coeffs"]], 3, 1e-8), "d=1 coefficients"),
    ("coeff-transform", "0-coeffs-d3.json",
     lambda d: _bump([c["value"] for c in d["result"]["coeffs"]], 3, 1e-8), "d=3 coefficients"),
    ("coeff-transform", "0-bargmann.json",
     lambda d: _bump([r["integral_route"] for r in d["cross_check"]], 0, 1e-6), "routes disagree"),
    ("coeff-transform", "0-bargmann.json",
     lambda d: _bump([r["coefficient_route"] for r in d["cross_check"]], 0, 1e-6), "bargmann: F("),
    ("coeff-transform", "0-classify.json",
     lambda d: d["result"].update(parameter=d["result"]["parameter"] + 0.01),
     "classify: parameter"),
]


@pytest.mark.parametrize("workload,filename,edit,message", CORRUPTIONS,
                         ids=[f"{w}:{f}:{m}" for w, f, _, m in CORRUPTIONS])
def test_check_fires_on_corrupted_output(ran, workload, filename, edit, message):
    job, work = ran[workload]
    path = work / filename
    original = path.read_text()
    try:
        if edit is None:
            _edit_csv(path)
        else:
            _edit_json(path, edit)
        problems = job.check()
    finally:
        path.write_text(original)
    assert any(message in p for p in problems), problems
    assert job.check() == []


def test_exception_escaping_main_fails_the_job(tmp_path):
    symbol = tmp_path / "s.json"
    symbol.write_text(json.dumps({"dimension": 1, "kind": "wick", "terms": []}))
    out = tmp_path / "g.json"
    job = workloads.Job([workloads.Step(["garding", "--input", str(symbol), "--output",
                                         str(out), "--truncations", "a,b"], out)],
                        check=lambda: [])
    result = harness.run_job(wickops.cli, job)
    assert not result.ok and "garding" in result.problems[0]


def test_seed_changes_values_only(tmp_path):
    def shapes(seed, label):
        work = tmp_path / label
        work.mkdir()
        for workload in workloads.WORKLOADS.values():
            workload.make_job(np.random.default_rng(seed), work, 0)
        return {p.name: p.read_text() for p in sorted(work.iterdir())}

    a, a_again, b = shapes(1, "a"), shapes(1, "a-again"), shapes(2, "b")
    assert a == a_again
    assert a != b
    number = re.compile(r"-?\d+\.\d+(e-?\d+)?")
    assert {k: number.sub("x", v) for k, v in a.items()} == \
        {k: number.sub("x", v) for k, v in b.items()}


def _bindings():
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "wickops" or n.startswith("wickops.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    for cls in (wickops.core.CoefficientExpansion, wickops.symbols.WickSymbol):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    snap.update({("numpy.linalg", k): getattr(np.linalg, k) for k in ("eigvalsh", "lstsq")})
    return snap


def test_tracer_patches_every_binding_and_restores_them():
    before = _bindings()
    t = tracing.Tracer(wickops)
    assert _bindings() == before  # creating a tracer installs nothing
    t.install()
    try:
        for module in (wickops.cli, wickops.analysis, wickops.expansion, wickops.symbols):
            assert module.wick_matrix is not before[("wickops.symbols", "wick_matrix")]
        assert wickops.hermite.gauss_hermite is not before[("wickops.core", "gauss_hermite")]
        assert np.linalg.eigvalsh is not before[("numpy.linalg", "eigvalsh")]
    finally:
        t.uninstall()
    assert _bindings() == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_self_times_add_up_to_job_time(ran, name):
    job, _ = ran[name]
    t = tracing.Tracer(wickops)
    t.install()
    try:
        result = harness.run_job(wickops.cli, job)
    finally:
        t.uninstall()
    assert result.ok, result.problems
    totals = tracing.summarize(t.records)
    roots = sum(r["dur_ns"] for r in t.records if r["parent"] is None) / 1e6
    assert sum(totals["self_ms"].values()) == pytest.approx(roots, rel=1e-9)
    assert roots <= result.seconds * 1e3
    metrics = tracing.layer_metrics(totals, 1, 0.0)
    assert metrics["cli.calls"] == len(job.steps)
    calls = set(totals["calls"])
    expected = {"fock-spectral": {"symbols.evaluate", "analysis.eigvalsh"},
                "real-quantize": {"symbols.lstsq", "hermite.apply_ladder", "core.expansions"},
                "coeff-transform": {"core.gauss_hermite", "bargmann.evaluate_fock"}}[name]
    assert expected <= calls


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = set(tracing.layer_metrics(tracing.summarize([]), 1, 0.0))
    names |= {"trace.job_ms", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert all(m["unit"] == tracing.unit_of(m["name"]) for m in spec["per_layer"])


def test_job_time_rescales_to_reference_host_speed():
    slow = harness.JobResult(0.2, speed_factor=0.5)
    fast = harness.JobResult(0.05, speed_factor=2.0)
    assert slow.ref_seconds == pytest.approx(0.1)
    assert fast.ref_seconds == pytest.approx(0.1)
    for calibration in (harness.POINTWISE, harness.ARRAY):
        assert 0.01 < calibration.speed_factor() < 100.0
