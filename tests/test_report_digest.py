import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"
_spec = importlib.util.spec_from_file_location("report_digest", _SCRIPT)
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)


def test_two_runs_give_one_manifest():
    # each run works in its own temporary directory
    first = report_digest.manifest(jobs=1, seeds=(1,))
    assert report_digest.manifest(jobs=1, seeds=(1,)) == first
    assert sorted(first) == sorted([
        "coeff-transform/seed-1/0-bargmann.json", "coeff-transform/seed-1/0-classify.json",
        "coeff-transform/seed-1/0-coeffs-d1.json", "coeff-transform/seed-1/0-coeffs-d3.json",
        "fock-spectral/seed-1/0-garding.json", "fock-spectral/seed-1/0-gs.json",
        "fock-spectral/seed-1/0-shubin.json", "real-quantize/seed-1/0-expand.json",
        "real-quantize/seed-1/0-to-wick.json", "real-quantize/seed-1/0-weyl.csv",
        "real-quantize/seed-1/0-wick-matrix.json", "selftest.json"])
    assert all(len(digest) == 64 for digest in first.values())


def test_compare_counts_each_state(tmp_path, capsys):
    parent = {"a/seed-1/0-x.json": "1", "a/seed-1/1-x.json": "2", "a/seed-2/0-y.csv": "3",
              "selftest.json": "4"}
    change = {"a/seed-1/0-x.json": "1", "a/seed-1/1-x.json": "9", "b/seed-1/10-z.json": "5",
              "selftest.json": "4"}
    row = dict.fromkeys(report_digest.STATES, 0)
    assert report_digest.compare(parent, change) == {
        ("a", "x.json"): {**row, "same": 1, "changed": 1},
        ("a", "y.csv"): {**row, "removed": 1},
        ("b", "z.json"): {**row, "added": 1},
        ("selftest", "selftest.json"): {**row, "same": 1}}
    paths = []
    for name, manifest in [("parent", parent), ("change", change)]:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(manifest))
    assert report_digest.main(["--compare", *map(str, paths)]) == 1
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[0] == ["workload", "step", *report_digest.STATES]
    assert lines[1:] == [["a", "x.json", "1", "1", "0", "0"], ["a", "y.csv", "0", "0", "0", "1"],
                         ["b", "z.json", "0", "0", "1", "0"],
                         ["selftest", "selftest.json", "1", "0", "0", "0"],
                         ["total", "2", "1", "1", "1"]]
    assert report_digest.main(["--compare", str(paths[0]), str(paths[0])]) == 0



def test_digest_refuses_non_finite_floats(tmp_path):
    report = tmp_path / "0-classify.json"
    for constant in ("NaN", "Infinity", "-Infinity"):
        report.write_text('{"parameter": %s}' % constant)
        with pytest.raises(RuntimeError, match=f"0-classify.json is not strict JSON: "
                                               f"non-finite float {constant}"):
            report_digest._digest(report, tmp_path)
    report.write_text('{"parameter": null, "input": "%s/in.json"}' % tmp_path)
    assert report_digest._digest(report, tmp_path) == hashlib.sha256(
        b'{"parameter": null, "input": "<work>/in.json"}').hexdigest()
    # a CSV report is hashed as it is
    csv = tmp_path / "0-weyl.csv"
    csv.write_bytes(b"0,0,nan,0\n")
    assert report_digest._digest(csv, tmp_path) == hashlib.sha256(b"0,0,nan,0\n").hexdigest()
