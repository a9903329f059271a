import importlib.util
from pathlib import Path

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
