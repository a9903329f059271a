import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import wickops
import wickops.cli
import wickops.expansion
from wickops.bargmann import AccuracyWarning, bargmann_coeff, bargmann_integral, evaluate_fock
from wickops.cli import _write_json, main
from wickops.core import (CalculusError, CoefficientExpansion, HERMITE, InputDataError,
                          MAX_QUAD_NODES)
from wickops.expansion import decompose
from wickops.hermite import synthesize
from wickops.symbols import (MAX_MATRIX_ENTRIES, OperatorMatrix, RealSymbol, WickSymbol,
                             real_to_wick_symbol, weyl_matrix, wick_matrix)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture
def oscillator_wick(tmp_path):
    a = WickSymbol(1, {((1,), (1,)): 2.0, ((0,), (0,)): 1.0})
    return write_json(tmp_path / "osc.json", a.to_json_dict())


class TestHermiteCoeffs:
    def test_gaussian_expression(self, tmp_path):
        inp = write_json(tmp_path / "in.json",
                         {"dimension": 1, "expression": "exp(-x0**2 / 2)"})
        out = tmp_path / "out.json"
        assert main(["hermite-coeffs", "--input", inp, "--output", str(out),
                     "--degree", "6"]) == 0
        result = read_json(out)["result"]
        coeffs = {tuple(e["index"]): complex(*e["value"]) for e in result["coeffs"]}
        # exp(-x^2/2) = pi^{1/4} h_0
        assert coeffs[(0,)].real == pytest.approx(math.pi ** 0.25, abs=1e-10)
        for key, v in coeffs.items():
            if key != (0,):
                assert abs(v) < 1e-8

    def test_config_embedded(self, tmp_path):
        inp = write_json(tmp_path / "in.json",
                         {"dimension": 1, "expression": "x0"})
        out = tmp_path / "out.json"
        main(["hermite-coeffs", "--input", inp, "--output", str(out), "--degree", "3"])
        report = read_json(out)
        assert report["config"]["degree"] == 3
        assert "version" in report


class TestBargmann:
    def test_cross_check_rows_agree(self, tmp_path):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0, (2,): 0.5j})
        inp = write_json(tmp_path / "in.json", f.to_json_dict())
        out = tmp_path / "out.json"
        assert main(["bargmann", "--input", inp, "--output", str(out),
                     "--cross-check", "3"]) == 0
        report = read_json(out)
        assert report["result"]["side"] == "fock"
        for row in report["cross_check"]:
            assert row["abs_diff"] < 1e-8


    def test_cross_check_keeps_the_per_point_route(self, tmp_path):
        # one batched call draws the z of the old per-point loop and gives
        # its values, without an accuracy warning for |Re z| <= 2
        f = CoefficientExpansion(1, HERMITE, {(k,): complex(1.0 / (k + 1), k) for k in range(9)})
        inp = write_json(tmp_path / "in.json", f.to_json_dict())
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bargmann", "--input", inp, "--output", str(out),
                         "--cross-check", "8", "--seed", "5"]) == 0
        rows = read_json(out)["cross_check"]
        rng = np.random.default_rng(5)
        F = bargmann_coeff(f)
        for row in rows:
            z = complex(*rng.uniform(-2, 2, size=2))
            assert row["z"] == [z.real, z.imag]
            for key, want in [("coefficient_route", evaluate_fock(F, z)),
                              ("integral_route",
                               bargmann_integral(lambda pts: synthesize(f, pts), z))]:
                assert abs(complex(*row[key]) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("k", [600, -600])
    @pytest.mark.parametrize("coeffs, argv", [
        # the order-12 rule and its embedded order-8 rule disagree at index 20
        ({(20,): 1.0}, ["--quad-order", "12"]),
        ({(n,): complex(1.0 / (n + 1), n) for n in range(9)}, []),
    ], ids=["disagreeing-rules", "degree-8"])
    def test_cross_check_scales_exactly(self, tmp_path, k, coeffs, argv):
        # every number under cross_check but z is 2^k times the scale-1
        # report's, bit for bit, and the warnings are the same
        reports = []
        for scale in (1.0, 2.0**k):
            f = CoefficientExpansion(1, HERMITE, {a: scale * c for a, c in coeffs.items()})
            inp = write_json(tmp_path / "in.json", f.to_json_dict())
            out = tmp_path / "out.json"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["bargmann", "--input", inp, "--output", str(out),
                             "--cross-check", "8", *argv]) == 0
            reports.append((read_json(out)["cross_check"], [str(w.message) for w in caught]))
        (plain, plain_warnings), (scaled, scaled_warnings) = reports
        assert scaled_warnings == plain_warnings
        assert any("rules differ" in w for w in plain_warnings) == bool(argv)
        for row, want in zip(scaled, plain, strict=True):
            assert row["z"] == want["z"]
            for key in ("coefficient_route", "integral_route", "abs_diff"):
                np.testing.assert_array_equal(row[key], np.ldexp(want[key], k))

    def test_negative_cross_check_is_usage_error(self, tmp_path, capsys):
        f = CoefficientExpansion(1, HERMITE, {(1,): 1.0})
        inp = write_json(tmp_path / "in.json", f.to_json_dict())
        assert main(["bargmann", "--input", inp, "--output", str(tmp_path / "o.json"),
                     "--cross-check", "-3"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "usage"


class TestMatrixCommands:
    def test_wick_matrix_oscillator_diagonal(self, tmp_path, oscillator_wick):
        out = tmp_path / "out.json"
        assert main(["wick-matrix", "--input", oscillator_wick,
                     "--output", str(out), "--degree", "5"]) == 0
        result = read_json(out)["result"]
        entries = np.array([complex(re, im) for re, im in result["entries"]])
        M = entries.reshape(result["n_out"] + 1, result["n_in"] + 1)
        assert np.allclose(np.diag(M)[:6], 2 * np.arange(6) + 1)

    def test_default_degree_is_in_the_report(self, tmp_path, oscillator_wick):
        out = tmp_path / "out.json"
        assert main(["wick-matrix", "--input", oscillator_wick, "--output", str(out)]) == 0
        report = read_json(out)
        assert report["config"]["degree"] == report["result"]["n_in"] == 8

    def test_csv_format(self, tmp_path, oscillator_wick):
        out = tmp_path / "out.csv"
        assert main(["wick-matrix", "--input", oscillator_wick, "--output", str(out),
                     "--degree", "3", "--format", "csv"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# wickops")
        assert lines[1] == "row,col,re,im"
        values = {(int(r), int(c)): float(re)
                  for r, c, re, im in (ln.split(",") for ln in lines[2:])}
        assert values[(0, 0)] == 1.0 and values[(3, 3)] == 7.0

    def test_weyl_oscillator(self, tmp_path):
        b = RealSymbol(1, "weyl", {((2,), (0,)): 1.0, ((0,), (2,)): 1.0})
        inp = write_json(tmp_path / "b.json", b.to_json_dict())
        out = tmp_path / "out.json"
        assert main(["weyl-matrix", "--input", inp, "--output", str(out),
                     "--degree", "5"]) == 0
        result = read_json(out)["result"]
        entries = np.array([complex(re, im) for re, im in result["entries"]])
        M = entries.reshape(result["n_out"] + 1, result["n_in"] + 1)
        assert np.allclose(np.diag(M)[:6], 2 * np.arange(6) + 1)


class TestToWick:
    def test_weyl_oscillator_symbol(self, tmp_path):
        b = RealSymbol(1, "weyl", {((2,), (0,)): 1.0, ((0,), (2,)): 1.0})
        inp = write_json(tmp_path / "b.json", b.to_json_dict())
        out = tmp_path / "out.json"
        assert main(["to-wick", "--input", inp, "--output", str(out)]) == 0
        result = read_json(out)["result"]
        terms = {(tuple(t["alpha"]), tuple(t["beta"])): complex(*t["value"])
                 for t in result["terms"]}
        assert terms[((1,), (1,))] == pytest.approx(2.0)
        assert terms[((0,), (0,))] == pytest.approx(1.0)


class TestExpandAntiwick:
    def test_exact_decomposition_reported(self, tmp_path, oscillator_wick):
        out = tmp_path / "out.json"
        assert main(["expand-antiwick", "--input", oscillator_wick,
                     "--output", str(out), "--order", "1"]) == 0
        report = read_json(out)
        assert report["verification"]["max_deviation"] <= 1e-10

    def test_decomposes_once(self, tmp_path, oscillator_wick, monkeypatch):
        # the reported decomposition is the one verified: one decompose call
        calls = []

        def counted(a, order):
            calls.append(order)
            return decompose(a, order)

        monkeypatch.setattr(wickops.cli, "decompose", counted)
        monkeypatch.setattr(wickops.expansion, "decompose", counted)
        assert main(["expand-antiwick", "--input", oscillator_wick,
                     "--output", str(tmp_path / "out.json"), "--order", "2"]) == 0
        assert calls == [2]


class TestGarding:
    def test_oscillator_floor(self, tmp_path, oscillator_wick):
        out = tmp_path / "out.json"
        assert main(["garding", "--input", oscillator_wick, "--output", str(out),
                     "--truncations", "8,16,32"]) == 0
        result = read_json(out)["result"]
        assert result["min_real_eigenvalues"] == pytest.approx([1.0, 1.0, 1.0])
        assert result["stabilized"] is True


class TestClassify:
    def test_roumieu_recovery(self, tmp_path):
        coeffs = {(k,): math.exp(-k) for k in range(65)}
        f = CoefficientExpansion(1, HERMITE, coeffs)
        inp = write_json(tmp_path / "f.json", f.to_json_dict())
        out = tmp_path / "out.json"
        assert main(["classify", "--input", inp, "--output", str(out)]) == 0
        result = read_json(out)["result"]
        assert result["family"] == "roumieu_s"
        assert result["parameter"] == pytest.approx(0.5, abs=0.05)

    def test_three_positive_shells_and_the_constant_are_h0(self, tmp_path):
        f = CoefficientExpansion(1, HERMITE, {(k,): 1.0 for k in range(4)})
        inp = write_json(tmp_path / "f.json", f.to_json_dict())
        out = tmp_path / "out.json"
        assert main(["classify", "--input", inp, "--output", str(out)]) == 0
        assert read_json(out)["result"]["family"] == "h0"

    def test_infinite_flat_sigma_is_strict_json_null(self, tmp_path):
        # M_k = sqrt(k!) fits sigma = inf, which was written as Infinity
        f = CoefficientExpansion(1, HERMITE, {(k,): math.sqrt(math.factorial(k)) for k in range(9)})
        inp = write_json(tmp_path / "f.json", f.to_json_dict())
        out = tmp_path / "out.json"
        assert main(["classify", "--input", inp, "--output", str(out),
                     "--family", "flat_sigma"]) == 0

        def refuse(name):
            raise ValueError(f"non-finite float {name}")
        result = json.loads(out.read_text(), parse_constant=refuse)["result"]
        assert result["parameter"] is None and result["inconclusive"] is True


class TestBoundCheck:
    def test_constant_symbol_loss_bounded(self, tmp_path):
        a = WickSymbol(1, {((0,), (0,)): 1.0})
        inp = write_json(tmp_path / "a.json", a.to_json_dict())
        out = tmp_path / "out.json"
        assert main(["bound-check", "--input", inp, "--output", str(out),
                     "--mode", "gs", "--direction", "loss"]) == 0
        result = read_json(out)["result"]
        assert result["sup"] <= 1.0 + 1e-12


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, oscillator_wick):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["garding", "--input", oscillator_wick, "--output", str(out),
                         "--truncations", "6,12"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bargmann_seeded_cross_check_deterministic(self, tmp_path):
        f = CoefficientExpansion(1, HERMITE, {(1,): 1.0})
        inp = write_json(tmp_path / "f.json", f.to_json_dict())
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["bargmann", "--input", inp, "--output", str(out),
                         "--cross-check", "2", "--seed", "11"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


    def test_parser_reuse_keeps_report_bytes(self, tmp_path, capsys, oscillator_wick):
        # several subcommands in one process, an argparse error between each
        # pair, against the same calls in fresh interpreters
        calls = [["wick-matrix", "--input", oscillator_wick, "--degree", "4"],
                 ["garding", "--input", oscillator_wick, "--truncations", "4,8"],
                 ["expand-antiwick", "--input", oscillator_wick, "--order", "1"],
                 ["wick-matrix", "--input", oscillator_wick, "--degree", "4",
                  "--format", "csv"]]
        for i, argv in enumerate(calls):
            assert main([*argv, "--output", str(tmp_path / f"same-{i}")]) == 0
            capsys.readouterr()
            assert main(["garding", "--input", oscillator_wick]) == 2  # --output missing
            err = capsys.readouterr().err
            assert json.loads(err)["error"] == {
                "kind": "usage",
                "message": "wickops garding: the following arguments are required: "
                           "--output, --truncations"}
        src = str(Path(wickops.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        script = "import sys; from wickops.cli import main; sys.exit(main(sys.argv[1:]))"
        for i, argv in enumerate(calls):
            fresh = tmp_path / f"fresh-{i}"
            subprocess.run([sys.executable, "-c", script, *argv, "--output", str(fresh)],
                           env=env, check=True, timeout=120)
            assert (tmp_path / f"same-{i}").read_bytes() == fresh.read_bytes()

    def test_dispatch_follows_rebound_subcommands(self, tmp_path, monkeypatch,
                                                  oscillator_wick):
        out = tmp_path / "o.json"
        argv = ["wick-matrix", "--input", oscillator_wick, "--output", str(out)]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(wickops.cli, "cmd_wick_matrix", seen.append)
        assert main(argv) == 0
        assert [a.command for a in seen] == ["wick-matrix"]


def _stdlib_report(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _written(obj):
    fh = io.StringIO()
    _write_json(fh, obj)
    return fh.getvalue()


_NUMBERS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.sampled_from([10**40, -2**70, -0.0]),
                     st.floats(), st.floats().map(np.float64))
_STRINGS = st.one_of(st.text(), st.sampled_from(
    ['"], ["', ", ", "], [", '\\"', "\u00e9\u2603\U0001f600", "\n\t\x00\x1f"]))
_ROWS = st.lists(st.lists(_NUMBERS, min_size=1, max_size=4), max_size=6)
_TREES = st.recursive(
    _NUMBERS | _STRINGS | _ROWS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(_STRINGS, children, max_size=5),
    max_leaves=30)


def _as_lists(tree):
    """The tree with every numpy array replaced by its .tolist()."""
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    if isinstance(tree, dict):
        return {k: _as_lists(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_as_lists(v) for v in tree]
    return tree


# float64 arrays as the report writer gets a matrix: heavy repetition, signed
# zeros, non-finite values, subnormals and values whose repr switches notation
_ARRAY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1]),
    st.floats())
_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                  max_side=6), elements=_ARRAY_VALUES)
_RECORD_KEYS = st.sampled_from(["%", "a%s", "%%", "\u00e9\u2603", "index", "value"]) | st.text()


@st.composite
def _records(draw):
    """A list of dicts with the same keys, each key holding scalars or
    non-empty scalar lists of one length, as the coefficient and cross-check
    reports hold them."""
    keys = draw(st.lists(_RECORD_KEYS, min_size=1, max_size=4, unique=True))
    lengths = {k: draw(st.sampled_from([None, 1, 2, 3])) for k in keys}

    def field(n):
        return draw(_NUMBERS if n is None else st.lists(_NUMBERS, min_size=n, max_size=n))
    return [{k: field(n) for k, n in lengths.items()}
            for _ in range(draw(st.integers(1, 5)))]


_ARRAY_TREES = st.recursive(
    _NUMBERS | _ARRAYS | _records() | _ROWS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_STRINGS, children, max_size=4),
    max_leaves=12)


@st.composite
def _sparse_matrices(draw):
    """Complex matrices of 1,000-3,000 entries as the quantization matrices
    are: mostly +0.0 entries, a few values repeated across the writer's
    pieces (NaN, infinities and subnormals among them), -0.0 alone in an
    otherwise zero entry, and a whole piece of zero entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(25, 60)), draw(st.integers(40, 50))
    values = np.array(draw(st.lists(_ARRAY_VALUES, min_size=1, max_size=6)))
    pairs = np.zeros((rows * cols, 2))
    spots = rng.random(pairs.shape) < draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]))
    pairs[spots] = rng.choice(values, spots.sum())
    pairs[1024:2048] = 0.0
    pairs[rng.integers(len(pairs)), :] = draw(st.sampled_from([[-0.0, 0.0], [0.0, -0.0]]))
    return pairs.view(complex).reshape(rows, cols)


def _csv_per_entry(M):
    """The CSV report of a matrix, built one entry at a time; floats are
    spelled as in JSON reports, repr but NaN and Infinity."""
    rows = [("row", "col", "re", "im")]
    for i in range(M.entries.shape[0]):
        for j in range(M.entries.shape[1]):
            v = M.entries[i, j]
            rows.append((i, j, json.dumps(float(v.real)), json.dumps(float(v.imag))))
    want = "# wickops " + wickops.__version__ + "\n"
    return want + "".join(",".join(str(v) for v in row) + "\n" for row in rows)


class _Sink:
    """A report file that counts the characters written and keeps none."""
    length = 0

    def write(self, text):
        self.length += len(text)


def _repeated(rows, values):
    rng = np.random.default_rng(rows)
    return rng.choice(np.array(values), size=(rows, 2))


def _assert_same_text(got, want):
    """got == want, failing with the first differing offset in context:
    pytest's own diff of two long reports takes minutes."""
    if got == want:
        return
    at = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
              min(len(got), len(want)))
    pytest.fail(f"texts of lengths {len(got)} and {len(want)} differ from offset {at}: "
                f"{got[max(at - 60, 0):at + 60]!r} != {want[max(at - 60, 0):at + 60]!r}")


class TestReportWriter:
    """The report writer against the stdlib's indented encoder."""

    @given(_TREES)
    @example([[1.0], 2])
    @example([[1, [2]], 3])
    @example([[1, [2]], [3]])
    @example([[], [1.0]])
    @example([["], [", 1.0], [", ", 2.0]])
    @example([["a, b", 1.0], ["c"]])
    @example([[{}, 1.0]])
    @example({"z": [float("nan"), float("inf"), -float("inf"), -0.0, np.float64(0.1)]})
    @example([[float(i) / 7, -i] for i in range(2500)])
    @example([[0.5, 1.5]] * 1100 + [[1, [2]]] + [[2.5]] * 1100)
    @example(list(range(3000)) + [[1.0]])
    def test_matches_indented_json_dump(self, tree):
        _assert_same_text(_written(tree), _stdlib_report(tree))

    @given(_ARRAY_TREES)
    @example(np.zeros((0, 2)))
    @example({"e": np.zeros((3, 0))})
    @example(np.array([[0.5], [-0.0], [0.0]]))
    @example(np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-7]))
    @example({"entries": _repeated(2500, [0.0, 0.0, 0.0, -0.0, 1.0, 1 / 3, -2.5e-8])})
    @example([np.array([1.5, 2.5]), np.float64(3.5), np.arange(3)])
    @example({"a": np.array(2.0), "b": np.arange(6.0).reshape(1, 2, 3)})
    @example([{"%": 1.0, "a%s": [2, None], "%%": [True, False, 0.5]},
              {"%": -0.0, "a%s": [10**40, 3], "%%": [1, 2, 3]}])
    @example([{"\u00e9\u2603": None, "index": [0, 1]}] * 1030)
    @example([{"index": [0, 1], "value": [1.0, 0.0]}, {"index": [1], "value": [2.0, 0.0]}])
    @example([{"index": [0], "value": 1.0}, {"index": [1]}])
    @example([{"index": [0], "value": 1.0}, {"index": [1], "value": 2.0, "extra": 3}])
    @example([{"index": [0], "value": 1.0}, {"index": [1], "value": {"re": 2.0}}])
    @example([{"index": [0], "value": {"re": 2.0}}, {"index": [1], "value": 1.0}])
    @example([{"index": [], "value": 1.0}, {"index": [], "value": 2.0}])
    @example([{"index": [0], "value": "a, b"}, {"index": [1], "value": "c"}])
    @example([{"index": (0,), "value": 1.0}, {"index": (1,), "value": 2.0}])
    def test_arrays_and_records_match_indented_json_dump(self, tree):
        _assert_same_text(_written(tree), _stdlib_report(_as_lists(tree)))

    def test_writes_one_piece_at_a_time(self):
        entries = np.arange(6000.0).reshape(3000, 2)
        fh = io.StringIO()
        writes = []
        fh.write = lambda text: writes.append(len(text))
        _write_json(fh, {"entries": entries})
        assert sum(writes) == len(_stdlib_report({"entries": entries.tolist()}))
        assert max(writes) < sum(writes) / 2

    @given(_sparse_matrices(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_sparse_matrices_match_indented_json_dump_and_per_entry_csv(self, entries, flat):
        M = OperatorMatrix(1, entries.shape[1] - 1, entries.shape[0] - 1, HERMITE, entries)
        pairs = M.to_json_dict()["entries"]
        tree = {"entries": pairs.ravel() if flat else pairs}
        _assert_same_text(_written(tree), _stdlib_report(_as_lists(tree)))
        csv = "".join(line + "\n" for line in wickops.cli._matrix_csv(M))
        _assert_same_text("# wickops " + wickops.__version__ + "\n" + csv, _csv_per_entry(M))

    def test_dense_array_is_written_in_bounded_memory(self):
        # the memo of spelled floats is capped: a dense array of distinct
        # values holds about one piece's texts at a time, never all of them
        entries = np.random.default_rng(0).standard_normal((50_000, 2))
        sink = _Sink()
        tracemalloc.start()
        try:
            _write_json(sink, {"entries": entries})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sink.length / 4

    def test_matrix_csv_is_written_in_bounded_memory(self, tmp_path):
        # about 10^6 entries: the lines are made a piece at a time, so the
        # report's 15.8 MB of text never sit in memory beside the matrix
        a = WickSymbol(1, {((1,), (1,)): 1.0, ((2,), (0,)): 0.5})
        inp = write_json(tmp_path / "in.json", a.to_json_dict())
        out = tmp_path / "m.csv"
        tracemalloc.start()
        try:
            assert main(["wick-matrix", "--input", inp, "--output", str(out), "--degree", "998",
                         "--format", "csv"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = 1001 * 999
        assert out.read_text().count("\n") == entries + 2
        assert peak <= 1.25 * 16 * entries

    def test_non_str_key_is_refused(self):
        with pytest.raises(TypeError):
            _written({1: 2.0})

    def test_matrix_entries_match_per_entry_loop(self):
        a = WickSymbol(2, {((1, 0), (0, 1)): 0.3 - 1.7j, ((2, 1), (0, 0)): -0.0 + 2j / 3})
        M = wick_matrix(a, 4)
        want = [[v.real, v.imag] for v in M.entries.ravel(order="C")]
        assert M.to_json_dict()["entries"].tolist() == want
        fortran = dataclasses.replace(M, entries=np.asfortranarray(M.entries))
        assert fortran.to_json_dict()["entries"].tolist() == want


@pytest.fixture
def report_inputs(tmp_path):
    wick = WickSymbol(1, {((1,), (1,)): 2.0, ((0,), (0,)): 1.0,
                          ((2,), (1,)): 0.3 + 0.1j, ((1,), (2,)): 0.3 - 0.1j})
    point = WickSymbol(1, wick.terms, point_symbol=True)
    real = RealSymbol(1, "weyl", {((2,), (0,)): 1.0, ((1,), (1,)): 0.7 - 0.2j})
    kn = RealSymbol(1, "kohn_nirenberg", real.terms)
    decay = CoefficientExpansion(1, HERMITE, {(k,): math.exp(-k) for k in range(40)})
    # the benchmark's real-quantize shape: four degree-3 monomials in d = 2
    quantize = RealSymbol(2, "weyl", {((2, 0), (1, 0)): 0.7, ((0, 1), (0, 2)): -1.3,
                                      ((1, 1), (0, 1)): 1.1, ((1, 0), (1, 1)): -0.6})
    return {
        "quantize-weyl": write_json(tmp_path / "quantize-weyl.json", quantize.to_json_dict()),
        "quantize-wick": write_json(tmp_path / "quantize-wick.json",
                                    real_to_wick_symbol(quantize, 3).to_json_dict()),
        "wick": write_json(tmp_path / "wick.json", wick.to_json_dict()),
        "antiwick": write_json(tmp_path / "antiwick.json", point.to_json_dict()),
        "real": write_json(tmp_path / "real.json", real.to_json_dict()),
        "kn": write_json(tmp_path / "kn.json", kn.to_json_dict()),
        "decay": write_json(tmp_path / "decay.json", decay.to_json_dict()),
        "expr": write_json(tmp_path / "expr.json",
                           {"dimension": 1, "expression": "exp(-x0**2 / 2) * cos(x0)"}),
    }


class TestReportBytes:
    @pytest.mark.parametrize("command,source,options", [
        ("hermite-coeffs", "expr", ["--degree", "6"]),
        ("bargmann", "decay", ["--cross-check", "2"]),
        ("wick-matrix", "wick", ["--degree", "4"]),
        ("antiwick-matrix", "antiwick", ["--degree", "4"]),
        ("kn-matrix", "kn", ["--degree", "4"]),
        ("weyl-matrix", "real", ["--degree", "4"]),
        ("to-wick", "real", []),
        ("expand-antiwick", "wick", ["--order", "1"]),
        ("garding", "wick", ["--truncations", "4,8"]),
        ("classify", "decay", []),
        ("bound-check", "wick", ["--mode", "gs"]),
        ("bound-check", "wick", ["--mode", "shubin", "--grid-points", "3"]),
        ("selftest", None, []),
        # 6,930 entry rows, across the writer's 1,024-item pieces
        ("wick-matrix", "quantize-wick", ["--degree", "10"]),
    ])
    def test_json_report_is_the_stdlib_dump(self, tmp_path, capsys, report_inputs,
                                            command, source, options):
        out = tmp_path / "report.json"
        inputs = ["--input", report_inputs[source]] if source else []
        assert main([command, *inputs, "--output", str(out), *options]) == 0
        text = out.read_text()
        _assert_same_text(text, _stdlib_report(json.loads(text)))

    @pytest.mark.parametrize("command,builder,loader,source,degree", [
        ("wick-matrix", wick_matrix, WickSymbol.from_json_dict, "wick", 5),
        ("weyl-matrix", weyl_matrix, RealSymbol.from_json_dict, "real", 5),
        ("weyl-matrix", weyl_matrix, RealSymbol.from_json_dict, "quantize-weyl", 6),
    ])
    def test_matrix_csv_matches_per_entry_loop(self, tmp_path, report_inputs,
                                               command, builder, loader, source, degree):
        out = tmp_path / "m.csv"
        assert main([command, "--input", report_inputs[source], "--output", str(out),
                     "--degree", str(degree), "--format", "csv"]) == 0
        M = builder(loader(read_json(Path(report_inputs[source]))), degree)
        _assert_same_text(out.read_text(), _csv_per_entry(M))


class TestOutputDirEnv:
    def test_relative_paths_redirected(self, tmp_path, monkeypatch, oscillator_wick):
        monkeypatch.setenv("WICKOPS_OUTPUT_DIR", str(tmp_path))
        assert main(["wick-matrix", "--input", oscillator_wick,
                     "--output", "report.json", "--degree", "3"]) == 0
        assert (tmp_path / "report.json").exists()


# bound-check float options that are not finite, or that overflow the grid or
# the weight: (arguments, exit code, part of the error message)
_FLOAT_OPTION_CASES = [
    (["--r", "nan"], 2, "argument --r: invalid finite float value: 'nan'"),
    (["--s", "inf"], 2, "argument --s: invalid finite float value: 'inf'"),
    (["--s", "abc"], 2, "argument --s: invalid finite float value: 'abc'"),
    (["--mode", "shubin", "--weight-t", "nan"], 2, "argument --weight-t"),
    (["--mode", "shubin", "--rho=-inf"], 2, "argument --rho"),
    (["--grid-radius", "nan"], 2, "argument --grid-radius"),
    (["--grid-radius", "1e308"], 2, "a grid of radius 1e+308 overflows float64"),
    (["--mode", "shubin", "--grid-radius", "1e308"], 2, "a grid of radius 1e+308"),
    (["--mode", "shubin", "--weight-t", "1e308"], 4,
     "the weighted bound (t = 1e+308) is not finite on the grid of radius 4"),
]


class TestErrorExitCodes:
    def test_missing_input_file_is_input_error(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["wick-matrix", "--input", str(tmp_path / "nope.json"),
                     "--output", str(out)]) == 3

    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", "--input", str(bad),
                     "--output", str(tmp_path / "o.json")]) == 3

    @staticmethod
    def _error(capsys, kind):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["kind"] == kind
        return error["message"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_in_a_missing_directory_is_usage_error(self, tmp_path, capsys,
                                                          oscillator_wick, fmt):
        out = tmp_path / "missing" / "o.json"
        assert main(["garding", "--input", oscillator_wick, "--output", str(out),
                     "--truncations", "2,4", "--format", fmt]) == 2
        assert "cannot write output file" in self._error(capsys, "usage")
        assert not out.parent.exists()

    def test_non_utf8_input_is_input_error(self, tmp_path, capsys):
        inp = tmp_path / "in.json"
        inp.write_bytes(b'{"dimension": 1, "expression": "x0 \xff"}')
        assert main(["hermite-coeffs", "--input", str(inp),
                     "--output", str(tmp_path / "o.json")]) == 3
        assert "not UTF-8" in self._error(capsys, "input-data")

    def test_over_deep_input_is_input_error(self, tmp_path, capsys):
        inp = tmp_path / "in.json"
        inp.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["classify", "--input", str(inp),
                     "--output", str(tmp_path / "o.json")]) == 3
        assert "nested too deeply" in self._error(capsys, "input-data")

    def test_csv_unsupported_is_usage_error(self, tmp_path, capsys, monkeypatch):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0})
        inp = write_json(tmp_path / "f.json", f.to_json_dict())
        calls = []
        monkeypatch.setattr(wickops.cli, "classify_decay", lambda *args: calls.append(args))
        assert main(["classify", "--input", inp,
                     "--output", str(tmp_path / "o.csv"), "--format", "csv"]) == 2
        assert self._error(capsys, "usage") == "wickops: unrecognized arguments: --format csv"
        assert calls == []  # refused before the fit ran
        assert not (tmp_path / "o.csv").exists()

    # each option is taken only by the subcommands that read it: --format by
    # the four matrix subcommands and garding, --seed by bargmann, whose
    # cross-check samples the d = 1 kernel integral
    @pytest.mark.parametrize("argv, data, message", [
        (["classify", "--format", "json"], {"dimension": 1, "side": "hermite", "coeffs": []},
         "wickops: unrecognized arguments: --format json"),
        (["garding", "--truncations", "2", "--seed", "3"],
         {"dimension": 1, "kind": "wick", "terms": []},
         "wickops: unrecognized arguments: --seed 3"),
        (["selftest", "--format", "csv"], None, "wickops: unrecognized arguments: --format csv"),
        (["bargmann", "--cross-check", "3"],
         {"dimension": 2, "side": "hermite", "coeffs": [{"index": [1, 0], "value": [1.0, 0.0]}]},
         "--cross-check samples the d = 1 kernel integral; the expansion has dimension 2"),
    ], ids=["classify-format", "garding-seed", "selftest-format", "bargmann-cross-check-d2"])
    def test_option_a_subcommand_does_not_read_is_refused(self, tmp_path, capsys, monkeypatch,
                                                          argv, data, message):
        calls = []
        for name in ("classify_decay", "garding_check", "_selftest_cases", "bargmann_coeff",
                     "bargmann_integral"):
            monkeypatch.setattr(wickops.cli, name, lambda *args: calls.append(args))
        out = tmp_path / "o.json"
        if data is not None:
            argv = [argv[0], "--input", write_json(tmp_path / "in.json", data),
                    "--output", str(out), *argv[1:]]
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        assert self._error(capsys, "usage") == message
        assert calls == [] and not out.exists()  # refused before anything ran

    def test_an_error_of_no_other_kind_exits_4(self, capsys, monkeypatch):
        def fail(args):
            raise CalculusError("an error of the base class")
        monkeypatch.setattr(wickops.cli, "cmd_classify", fail)
        assert main(["classify", "--input", "in.json", "--output", "o.json"]) == 4
        assert self._error(capsys, "error") == "an error of the base class"

    def test_order_zero_expand_is_fine_but_negative_rejected(self, tmp_path,
                                                             oscillator_wick):
        out = tmp_path / "o.json"
        assert main(["expand-antiwick", "--input", oscillator_wick,
                     "--output", str(out), "--order", "-1"]) == 2


    @pytest.mark.parametrize("argv", [
        ["bound-check"],
        ["garding", "--truncations", "4,8"],
    ])
    def test_nan_coefficient_is_input_error(self, tmp_path, argv):
        inp = tmp_path / "nan.json"
        inp.write_text('{"dimension": 1, "kind": "wick", "terms": '
                       '[{"alpha": [1], "beta": [1], "value": [NaN, 0.0]}]}')
        assert main([argv[0], "--input", str(inp), "--output", str(tmp_path / "o.json"),
                     *argv[1:]]) == 3

    def test_negative_multi_index_is_input_error(self, tmp_path):
        symbol = {"dimension": 1, "kind": "wick",
                  "terms": [{"alpha": [-1], "beta": [1], "value": [1.0, 0.0]}]}
        inp = write_json(tmp_path / "neg.json", symbol)
        assert main(["bound-check", "--input", inp,
                     "--output", str(tmp_path / "o.json")]) == 3
        expansion = {"dimension": 1, "side": "hermite",
                     "coeffs": [{"index": [-2], "value": [1.0, 0.0]}]}
        inp = write_json(tmp_path / "neg-exp.json", expansion)
        assert main(["classify", "--input", inp, "--output", str(tmp_path / "o.json")]) == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_every_json_reader_rejects_non_finite_values(self, bad):
        readers = [
            (CoefficientExpansion, CoefficientExpansion(1, HERMITE, {(0,): 1.0}), "coeffs"),
            (WickSymbol, WickSymbol(1, {((1,), (0,)): 1.0}), "terms"),
            (RealSymbol, RealSymbol(1, "weyl", {((1,), (0,)): 1.0}), "terms"),
        ]
        for cls, obj, field in readers:
            data = obj.to_json_dict()
            data[field][0]["value"][1] = bad
            with pytest.raises(InputDataError):
                cls.from_json_dict(data)

    @pytest.mark.parametrize("bad", [True, 2.7, float("nan"), float("inf"), "2"])
    def test_every_json_reader_refuses_non_integer_sizes(self, bad):
        readers = [
            (CoefficientExpansion, CoefficientExpansion(1, HERMITE, {(1,): 1.0}), "coeffs",
             "index"),
            (WickSymbol, WickSymbol(1, {((1,), (0,)): 1.0}), "terms", "alpha"),
            (RealSymbol, RealSymbol(1, "weyl", {((1,), (0,)): 1.0}), "terms", "beta"),
        ]
        for cls, obj, field, key in readers:
            data = obj.to_json_dict()
            data["dimension"] = bad
            with pytest.raises(InputDataError, match="is not an integer"):
                cls.from_json_dict(data)
            data = obj.to_json_dict()
            data[field][0][key][0] = bad
            with pytest.raises(InputDataError, match="is not an integer"):
                cls.from_json_dict(data)

    @pytest.mark.parametrize("argv,text", [
        (["bound-check"], '{"dimension": 1e400, "kind": "wick", "terms": []}'),
        (["wick-matrix"], '{"dimension": 1e400, "kind": "wick", "terms": []}'),
        (["garding", "--truncations", "4"], '{"dimension": 1e400, "kind": "wick", "terms": []}'),
        (["hermite-coeffs"], '{"dimension": 1e400, "expression": "x0"}'),
        (["hermite-coeffs"], '{"dimension": 1, "degree": 2.5, "expression": "x0"}'),
        (["classify"], '{"dimension": -1e400, "side": "hermite", "coeffs": []}'),
        (["wick-matrix"], '{"dimension": true, "kind": "wick", '
                          '"terms": [{"alpha": [1], "beta": [1], "value": [1.0, 0.0]}]}'),
        (["wick-matrix"], '{"dimension": 2.7, "kind": "wick", "terms": []}'),
        (["bound-check"], '{"dimension": 1, "kind": "wick", '
                          '"terms": [{"alpha": [1e400], "beta": [1], "value": [1.0, 0.0]}]}'),
        (["classify"], '{"dimension": 1, "side": "hermite", '
                       '"coeffs": [{"index": [2.5], "value": [1.0, 0.0]}]}'),
    ])
    def test_non_integer_size_is_input_error(self, tmp_path, capsys, argv, text):
        inp = tmp_path / "in.json"
        inp.write_text(text)
        assert main([argv[0], "--input", str(inp), "--output", str(tmp_path / "o.json"),
                     *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is not an integer" in json.loads(err)["error"]["message"]

    def test_bad_truncation_list_is_usage_error(self, tmp_path, oscillator_wick):
        assert main(["garding", "--input", oscillator_wick, "--output",
                     str(tmp_path / "o.json"), "--truncations", "a,b"]) == 2

    @pytest.mark.parametrize("argv, code, message", _FLOAT_OPTION_CASES,
                             ids=[" ".join(case[0]) for case in _FLOAT_OPTION_CASES])
    def test_bound_check_float_options_are_finite_and_in_range(self, tmp_path, capsys,
                                                               oscillator_wick, argv, code,
                                                               message):
        out = tmp_path / "o.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["bound-check", "--input", oscillator_wick, "--output", str(out),
                         *argv]) == code
        assert caught == []
        assert message in self._error(capsys, "usage" if code == 2 else "numerical")
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_report_write_is_usage_error(self, capsys, oscillator_wick, fmt):
        assert main(["garding", "--input", oscillator_wick, "--output", "/dev/full",
                     "--truncations", "2,4", "--format", fmt]) == 2
        assert "cannot write output file /dev/full" in self._error(capsys, "usage")

    @pytest.mark.parametrize("mode", [["--mode", "gs", "--direction", "gain"],
                                      ["--mode", "shubin"]])
    def test_overflowing_bound_check_is_numerical_error(self, tmp_path, capsys,
                                                       oscillator_wick, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bound-check", "--input", oscillator_wick, "--output",
                         str(tmp_path / "o.json"), "--grid-radius", "40", *mode])
        assert code == 4
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "numerical" and "radius 40" in error["message"]


    @pytest.mark.parametrize("kind,argv", [("wick", ["garding", "--truncations", "4,8"]),
                                           ("weyl", ["weyl-matrix"])])
    @pytest.mark.parametrize("dimension,index", [(1, [1, 0]), (0, [])])
    def test_wrong_length_symbol_key_is_input_error(self, tmp_path, capsys, kind, argv,
                                                    dimension, index):
        symbol = {"dimension": dimension, "kind": kind,
                  "terms": [{"alpha": index, "beta": index, "value": [1.0, 0.0]}]}
        inp = write_json(tmp_path / "s.json", symbol)
        assert main([argv[0], "--input", inp, "--output", str(tmp_path / "o.json"),
                     *argv[1:]]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "input-data"

    @pytest.mark.parametrize("kind,argv", [("weyl", ["wick-matrix"]),
                                           ("antiwik", ["garding", "--truncations", "4,8"]),
                                           ("wick", ["weyl-matrix"])])
    def test_symbol_of_another_kind_is_input_error(self, tmp_path, capsys, kind, argv):
        # Wick commands once read every kind but "antiwick" as a Wick symbol
        symbol = {"dimension": 1, "kind": kind,
                  "terms": [{"alpha": [1], "beta": [1], "value": [1.0, 0.0]}]}
        inp = write_json(tmp_path / "s.json", symbol)
        assert main([argv[0], "--input", inp, "--output", str(tmp_path / "o.json"),
                     *argv[1:]]) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "input-data" and repr(kind) in error["message"]
        assert not (tmp_path / "o.json").exists()

    def test_symbol_without_kind_reads_as_wick(self, tmp_path):
        inp = write_json(tmp_path / "s.json", {"dimension": 1, "terms": [
            {"alpha": [1], "beta": [1], "value": [1.0, 0.0]}]})
        assert main(["wick-matrix", "--input", inp, "--output", str(tmp_path / "o.json"),
                     "--degree", "2"]) == 0

    def test_over_budget_grid_is_refused_at_once(self, tmp_path, capsys):
        a = WickSymbol(2, {((1, 0), (0, 1)): 1.0})
        inp = write_json(tmp_path / "d2.json", a.to_json_dict())
        t0 = time.perf_counter()
        code = main(["bound-check", "--input", inp, "--output", str(tmp_path / "o.json"),
                     "--grid-points", "7"])
        assert code == 2
        assert time.perf_counter() - t0 < 1.0  # refused before building 5.76M pairs
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "usage"
        assert "5764801" in error["message"] and "1000000" in error["message"]

    @pytest.mark.parametrize("argv,text,want", [
        (["hermite-coeffs"], "[1, 2]", 3),
        (["garding", "--truncations", "1,2"], "[]", 3),
        (["hermite-coeffs"], '{"dimension": "x", "expression": "x0"}', 3),
        (["hermite-coeffs"], '{"dimension": 0, "expression": "1"}', 3),
        (["classify"], '{"dimension": "x", "side": "hermite", "coeffs": []}', 3),
        (["hermite-coeffs", "--degree", "-1"], '{"dimension": 1, "expression": "x0"}', 2),
        (["bound-check", "--mode", "shubin", "--n-decay", "-1", "--grid-points", "1"],
         '{"dimension": 1, "kind": "wick", "terms": []}', 2),
    ])
    def test_fuzzed_tracebacks_are_errors(self, tmp_path, capsys, argv, text, want):
        # inputs on which the fuzz test below first found a traceback (exit 1)
        inp = tmp_path / "in.json"
        inp.write_text(text)
        assert main([argv[0], "--input", str(inp), "--output", str(tmp_path / "o.json"),
                     *argv[1:]]) == want
        assert "error" in json.loads(capsys.readouterr().err)

    def test_over_budget_diagonal_grid_is_refused_at_once(self, tmp_path, capsys):
        a = WickSymbol(4, {((1, 0, 0, 0), (1, 0, 0, 0)): 1.0})
        inp = write_json(tmp_path / "d4.json", a.to_json_dict())
        t0 = time.perf_counter()
        code = main(["garding", "--input", inp, "--output", str(tmp_path / "o.json"),
                     "--truncations", "2,4"])
        assert code == 2
        assert time.perf_counter() - t0 < 1.0  # refused before building 41^4 points
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "usage"
        assert "2825761" in error["message"] and "1000000" in error["message"]

    @pytest.mark.parametrize("expression,dimension", [
        ("exp(-x0**2/2", 1), ("x5", 1),
        ("0*x0 + ().__class__.__mro__[1].__subclasses__().__len__()", 1),  # attributes
        ("x0[0]", 1), ("np.pi * x0", 1), ("(lambda x: x)(x0)", 1),
        ("[x0 for x0 in (1,)]", 1), ("9**9**9", 1)])
    def test_bad_expression_is_input_error(self, tmp_path, capsys, expression, dimension):
        inp = write_json(tmp_path / "e.json",
                         {"dimension": dimension, "expression": expression})
        assert main(["hermite-coeffs", "--input", inp, "--output",
                     str(tmp_path / "o.json"), "--degree", "4"]) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "input-data" and expression in error["message"]

    def test_over_budget_quadrature_is_refused_at_once(self, tmp_path, capsys):
        inp = write_json(tmp_path / "d4.json", {
            "dimension": 4, "expression": "exp(-(x0**2 + x1**2 + x2**2 + x3**2) / 2)"})
        t0 = time.perf_counter()
        code = main(["hermite-coeffs", "--input", inp, "--output", str(tmp_path / "o.json"),
                     "--degree", "30"])
        assert code == 2
        assert time.perf_counter() - t0 < 1.0  # refused before building 50^4 nodes
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "usage"
        assert "6250000" in error["message"] and str(MAX_QUAD_NODES) in error["message"]

    @pytest.mark.parametrize("argv", [["garding", "--truncations", "8,40"],
                                      ["wick-matrix", "--degree", "40"]])
    def test_over_budget_matrix_is_refused_at_once(self, tmp_path, capsys, argv):
        # a 13,244 x 12,341 complex matrix (2.6 GB) at d = 3
        a = WickSymbol(3, {((1, 0, 0), (1, 0, 0)): 1.0})
        inp = write_json(tmp_path / "d3.json", a.to_json_dict())
        t0 = time.perf_counter()
        code = main([argv[0], "--input", inp, "--output", str(tmp_path / "o.json"), *argv[1:]])
        assert code == 2
        assert time.perf_counter() - t0 < 1.0
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "usage"
        assert "163444204" in error["message"] and str(MAX_MATRIX_ENTRIES) in error["message"]

    def test_over_budget_to_wick_system_is_refused_at_once(self, tmp_path, capsys):
        # 70 unit Wick matrices of 2145 x 1891 entries at d = 2, symbol degree 4:
        # 284M complex entries (4.5 GB), each matrix within the budget on its own
        b = RealSymbol(2, "weyl", {((2, 0), (1, 1)): 1.0})
        inp = write_json(tmp_path / "b.json", b.to_json_dict())
        t0 = time.perf_counter()
        code = main(["to-wick", "--input", inp, "--output", str(tmp_path / "o.json"),
                     "--degree", "60"])
        assert code == 2
        assert time.perf_counter() - t0 < 1.0
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "usage"
        assert "283933650" in error["message"] and str(MAX_MATRIX_ENTRIES) in error["message"]

    def test_over_budget_quadrature_of_an_expansion_is_refused_at_once(self, tmp_path, capsys):
        f = CoefficientExpansion(4, HERMITE, {(1, 0, 0, 0): 1.0})
        inp = write_json(tmp_path / "d4.json", f.to_json_dict())
        t0 = time.perf_counter()
        code = main(["hermite-coeffs", "--input", inp, "--output", str(tmp_path / "o.json"),
                     "--degree", "30"])
        assert code == 2
        assert time.perf_counter() - t0 < 1.0  # refused before synthesizing on 50^4 nodes
        assert "6250000" in json.loads(capsys.readouterr().err)["error"]["message"]

    @pytest.mark.parametrize("order,want", [("400", 4), ("100000", 2)])
    def test_quadrature_order_without_a_finite_rule(self, tmp_path, capsys, order, want):
        # order 400 used to exit 0 with NaN coefficients; 100000 is refused
        # before hermgauss builds its 100000 x 100000 eigenproblem
        inp = write_json(tmp_path / "e.json", {"dimension": 1, "expression": "exp(-x0**2/2)"})
        t0 = time.perf_counter()
        assert main(["hermite-coeffs", "--input", inp, "--output", str(tmp_path / "o.json"),
                     "--degree", "4", "--quad-order", order]) == want
        assert want != 2 or time.perf_counter() - t0 < 1.0
        assert "error" in json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_empty_grid_is_usage_error(self, tmp_path, oscillator_wick, points):
        assert main(["bound-check", "--input", oscillator_wick, "--output",
                     str(tmp_path / "o.json"), "--grid-points", points]) == 2


# Fuzzed CLI calls.  Each input is drawn for its subcommand and is mostly
# well formed, so that most calls get past parsing; one field in ten is
# malformed (wrong type, wrong length, negative, non-finite) and one input
# in ten is any JSON at all.  Sizes stay small so that each call is cheap.
# Options are passed as --name=value, and the required ones always, so
# argparse accepts every argv and each call reaches the subcommand.
def _mostly(good, bad):
    """good nine times in ten, bad otherwise."""
    return st.integers(0, 9).flatmap(lambda k: good if k else bad)


_VALUE = _mostly(
    st.lists(st.floats(-2, 2), min_size=2, max_size=2),
    st.one_of(st.lists(st.sampled_from([float("nan"), float("inf"), 1e300]),
                       min_size=2, max_size=2),
              st.lists(st.floats(-2, 2), max_size=3), st.text(max_size=2), st.none()))
_EXPRESSIONS = ["exp(-x0**2/2)", "x0 * exp(-x0**2)", "cos(x1) * exp(-(x0**2 + x1**2) / 2)",
                "exp(-x0**2/2", "x5", "1/x0", "exp(x0**4)", "nan", "", 3]
_EXPANSION_COMMANDS = ("hermite-coeffs", "bargmann", "classify")
_REAL_COMMANDS = ("kn-matrix", "weyl-matrix", "to-wick")


@st.composite
def _input_text(draw, command):
    d = draw(_mostly(st.integers(1, 2), st.sampled_from([0, -1, 3, "2", "x", None, 1.5])))
    n = d if d in (1, 2, 3) else 1
    index = _mostly(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                    st.one_of(st.lists(st.integers(-1, 2), max_size=3),
                              st.text(max_size=2), st.integers(-1, 2)))
    if command == "hermite-coeffs" and draw(st.booleans()):
        data = {"dimension": d, "expression": draw(st.sampled_from(_EXPRESSIONS))}
    elif command in _EXPANSION_COMMANDS:
        side = _mostly(st.just("hermite"), st.sampled_from(["fock", "other"]))
        data = {"dimension": d, "side": draw(side), "coeffs": draw(st.lists(
            st.fixed_dictionaries({"index": index, "value": _VALUE}), max_size=8))}
    else:
        kinds = ["kn", "weyl"] if command in _REAL_COMMANDS else ["wick", "antiwick"]
        kind = _mostly(st.sampled_from(kinds), st.sampled_from(["wick", "kn", "other"]))
        data = {"dimension": d, "kind": draw(kind), "terms": draw(st.lists(
            st.fixed_dictionaries({"alpha": index, "beta": index, "value": _VALUE}),
            max_size=3))}
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(_TREES.map(json.dumps),
                              st.sampled_from(["", "{", "[1, 2", "null", "\\x00"])))
    return json.dumps(data)


_OPTIONS = {
    "hermite-coeffs": {"degree": st.integers(-1, 6), "quad-order": st.integers(-1, 26)},
    "bargmann": {"cross-check": st.integers(-2, 4), "quad-order": st.integers(-1, 40),
                 "seed": st.integers(-1, 3)},
    "wick-matrix": {"degree": st.integers(-1, 5)},
    "antiwick-matrix": {"degree": st.integers(-1, 5)},
    "kn-matrix": {"degree": st.integers(-1, 5)},
    "weyl-matrix": {"degree": st.integers(-1, 5)},
    "to-wick": {"degree": st.integers(-1, 3)},
    "expand-antiwick": {"order": st.integers(-1, 3), "trunc-degree": st.integers(-1, 5)},
    "garding": {"truncations": st.one_of(
        st.lists(st.integers(-1, 6), max_size=3).map(lambda ns: ",".join(map(str, ns))),
        st.sampled_from(["a,b", "4,", " 2"]))},
    "classify": {"family": st.sampled_from(["roumieu_s", "flat_sigma"])},
    "bound-check": {"mode": st.sampled_from(["gs", "shubin"]),
                    "s": st.sampled_from(["0.5", "0", "-1", "nan", "inf"]),
                    "r": st.sampled_from(["1", "0", "-2", "nan"]),
                    "direction": st.sampled_from(["gain", "loss"]),
                    "weight-t": st.sampled_from(["2", "0", "-1", "nan"]),
                    "rho": st.sampled_from(["1", "0", "2", "nan"]),
                    "max-order": st.integers(-1, 2), "n-decay": st.integers(-1, 2),
                    "grid-radius": st.sampled_from(["4", "0", "-1", "40", "nan", "inf"]),
                    "grid-points": st.integers(-1, 3)},
}
_ALWAYS = ("order", "truncations", "grid-points")
# the subcommands that take --format, json or csv; the others write JSON
_CSV_COMMANDS = ("wick-matrix", "antiwick-matrix", "kn-matrix", "weyl-matrix", "garding")


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = [f"--{name}={draw(values)}" for name, values in _OPTIONS[command].items()
               if name in _ALWAYS or draw(st.booleans())]
    if command in _CSV_COMMANDS:
        options += ["--format=" + draw(_mostly(st.just("json"), st.just("csv")))]
    return command, options, draw(_input_text(command)), draw(_mostly(st.just(True),
                                                                      st.just(False)))


def test_format_and_seed_are_declared_where_read():
    (subcommands,) = [action.choices for action in wickops.cli.build_parser()._actions
                      if isinstance(action.choices, dict)]
    declaring = {option: {name for name, parser in subcommands.items()
                          if option in parser._option_string_actions}
                 for option in ("--format", "--seed")}
    assert declaring == {"--format": set(_CSV_COMMANDS), "--seed": {"bargmann"}}


class TestFuzzedCalls:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_cli_calls())
    def test_error_contract(self, call):
        command, options, text, input_exists = call
        with tempfile.TemporaryDirectory() as tmp:
            inp = Path(tmp) / "in.json"
            if input_exists:
                inp.write_text(text)
            err = io.StringIO()
            with warnings.catch_warnings(record=True), contextlib.redirect_stderr(err):
                code = main([command, "--input", str(inp), "--output",
                             str(Path(tmp) / "out"), *options])
        assert code in (0, 2, 3, 4)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error"}


class TestSelftest:
    def test_a_failed_check_is_numerical_error(self, capsys, monkeypatch):
        monkeypatch.setattr(wickops.cli, "_selftest_cases", lambda: [
            ("passing", 0.0, 1.0, True), ("failing", 2.0, 1.0, False)])
        assert main(["selftest"]) == 4
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "1/2 oracle checks passed"
        assert json.loads(captured.err)["error"] == {
            "kind": "numerical", "message": "1 selftest oracle checks failed"}

    def test_all_oracle_checks_pass(self, tmp_path, capsys):
        out = tmp_path / "self.json"
        assert main(["selftest", "--output", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "FAIL" not in captured
        report = read_json(out)["result"]
        assert all(c["passed"] for c in report)
        assert len(report) >= 30

    def test_no_accuracy_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            assert main(["selftest"]) == 0
