"""Every library precondition refuses its input with the right exception, and
the CLI turns each one it can reach into the matching exit code and JSON
error object."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wickops.analysis import fit_norm_growth, garding_check
from wickops.bargmann import (bargmann_integral, bargmann_kernel, evaluate_fock,
                              fock_inner_quadrature, gaussian_plane_rule, reproducing_quadrature)
import wickops
from wickops.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_USAGE, main
from wickops import symbols
from wickops.core import (FOCK, HERMITE, CoefficientExpansion, InputDataError, NumericalError,
                          UsageError, basis_size, enumerate_basis, gauss_hermite, power_tables,
                          tensor_rule)
from wickops.expansion import diagonal_derivative_symbol, remainder_symbol
from wickops.hermite import (CREATION, LadderKind, apply_hermite_operator, apply_ladder,
                             hermite_coefficients, hermite_function, norm_growth_probe,
                             synthesize)
from wickops.symbols import (OperatorMatrix, RealSymbol, ShubinWeight, WickSymbol, kn_matrix,
                             pair_grid, real_to_wick_symbol, shubin_estimate_check,
                             symbol_bound_check, wick_apply_quadrature, wick_matrix)

OSC = WickSymbol(1, {((1,), (1,)): 1.0})
POINT = WickSymbol(1, {((1,), (1,)): 1.0}, point_symbol=True)
KN = RealSymbol(1, "kohn_nirenberg", {((1,), (1,)): 1.0})
F_H = CoefficientExpansion(1, HERMITE, {(2,): 1.0})
F_F = F_H.with_side(FOCK)
F_F2 = CoefficientExpansion(2, FOCK, {(0, 1): 1.0})
M = wick_matrix(OSC, 1)
GRID = (np.zeros((1, 1), dtype=complex), np.zeros((1, 1), dtype=complex))
EMPTY_GRID = (np.zeros((0, 1), dtype=complex), np.zeros((0, 1), dtype=complex))
GAUSSIAN = {"dimension": 1, "expression": "exp(-x0**2 / 2)"}
# x^300: to-wick would solve for C(302, 2) = 45,451 symbol coefficients
X300 = RealSymbol(1, "weyl", {((300,), (0,)): 1.0})


# d = 3 up to order 60: C(66, 6) = 90,858,768 derivative orders
SHUBIN_D3 = WickSymbol(3, {((1, 0, 0), (0, 0, 1)): 1.0})
# z^1000 up to order 120: 1000! / 880! is about 6e356
Z1000 = WickSymbol(1, {((1000,), (0,)): 1.0})
# conj(w)^300 sends e_g to g!/(g - 300)! sqrt((g - 300)!/g!) e_(g - 300): 300! overflows
W300 = WickSymbol(1, {((0,), (300,)): 1.0})
H65 = CoefficientExpansion(65, HERMITE, {(0,) * 65: 1.0})
TENSOR_65 = "a tensor rule in dimension 65 is over the budget of 64 coordinates"
ONE_NODE = ["hermite-coeffs", "--degree", "0", "--quad-order", "1"]


def _wick_power(exponent):
    """The Wick symbol z^exponent conj(w) as JSON, the exponent as given."""
    return {"dimension": 1, "kind": "wick",
            "terms": [{"alpha": [exponent], "beta": [1], "value": [1.0, 0.0]}]}

EXIT = {UsageError: EXIT_USAGE, InputDataError: EXIT_INPUT, NumericalError: EXIT_NUMERICAL}

# (id, library call or None, exception, message part, None or the CLI input
# and arguments that reach the same check)
REFUSALS = [
    # core
    ("enumerate_basis-dimension", lambda: enumerate_basis(0, 2), UsageError,
     "dimension must be >= 1", None),
    ("enumerate_basis-degree", lambda: enumerate_basis(1, -1), UsageError,
     "degree bound must be >= 0", None),
    ("basis_size-dimension", lambda: basis_size(0, 2), UsageError,
     "dimension must be >= 1", None),
    ("basis_size-degree", lambda: basis_size(2, -1), UsageError,
     "degree bound must be >= 0", None),
    ("power_tables-budget", lambda: power_tables(np.zeros((625, 1), dtype=complex), 10**5),
     UsageError, "take 62500625 entries, over the budget of 10000000",
     (_wick_power(10**5), ["bound-check", "--mode", "gs"])),
    ("power_tables-budget-huge-exponent", None, UsageError,
     "up to degree 100000000000000000000 take", (_wick_power(1e20), ["bound-check"])),
    ("power_tables-budget-huge-exponent-shubin", None, UsageError,
     "up to degree 100000000000000000000 take",
     (_wick_power(1e20), ["bound-check", "--mode", "shubin"])),
    ("gauss_hermite-order", lambda: gauss_hermite(0), UsageError,
     "quadrature order must be >= 1",
     (F_H.to_json_dict(), ["bargmann", "--cross-check", "1", "--quad-order", "0"])),
    ("tensor_rule-dimension", lambda: tensor_rule(gauss_hermite(3), 0), UsageError,
     "dimension must be >= 1", None),
    ("expansion-plus", lambda: F_H.plus(F_F), UsageError,
     "cannot add expansions with different dimension or side", None),
    # hermite
    ("LadderKind-kind", lambda: LadderKind("sideways"), UsageError,
     "ladder kind must be", None),
    ("LadderKind-coordinate", lambda: LadderKind(CREATION, -1), UsageError,
     "ladder coordinate must be non-negative", None),
    ("hermite_coefficients-quad_order",
     lambda: hermite_coefficients(lambda x: np.exp(-x[:, 0] ** 2 / 2), 1, 8, 5), UsageError,
     "quad_order 5 too small for degree bound 8",
     (GAUSSIAN, ["hermite-coeffs", "--degree", "8", "--quad-order", "5"])),
    ("hermite_coefficients-callback-shape",
     lambda: hermite_coefficients(lambda x: np.zeros(3), 1, 2), UsageError,
     "must return shape", None),
    ("hermite_function-length", lambda: hermite_function((1, 2), [0.0]), UsageError,
     "index length 2 != point dimension 1", None),
    ("synthesize-side", lambda: synthesize(F_F, [0.0]), UsageError,
     "synthesize expects a hermite-side expansion", None),
    ("synthesize-dimension", lambda: synthesize(F_H, np.zeros((3, 2))), UsageError,
     "point dimension 2 != expansion dimension 1", None),
    ("apply_ladder-coordinate", lambda: apply_ladder(F_H, LadderKind(CREATION, 1)), UsageError,
     "coordinate 1 out of range for dimension 1", None),
    ("apply_hermite_operator-side", lambda: apply_hermite_operator(F_F), UsageError,
     "the Hermite operator acts on hermite-side expansions", None),
    ("norm_growth_probe-side", lambda: norm_growth_probe(F_F, 3), UsageError,
     "norm_growth_probe expects a hermite-side expansion", None),
    # bargmann
    ("bargmann_kernel-dimension", lambda: bargmann_kernel(np.zeros(2), np.zeros(1)), UsageError,
     "dimension mismatch between z and y", None),
    ("bargmann_integral-shape",
     lambda: bargmann_integral(lambda y: np.ones(len(y)), np.zeros((1, 1, 1))), UsageError,
     "are neither (d,) nor (k, d)", None),
    ("evaluate_fock-side", lambda: evaluate_fock(F_H, [0.0]), UsageError,
     "evaluate_fock expects a fock-side expansion", None),
    ("gaussian_plane_rule-orders", lambda: gaussian_plane_rule(0, 4), UsageError,
     "quadrature orders must be >= 1", None),
    ("gaussian_plane_rule-radial", lambda: gaussian_plane_rule(1001, 1), UsageError,
     "radial order 1001 is over the budget of 1000", None),
    ("gaussian_plane_rule-nodes", lambda: gaussian_plane_rule(1000, 1001), UsageError,
     "a 1000 x 1001 plane rule has 1001000 nodes, over the budget of 1000000", None),
    ("fock_inner_quadrature-side", lambda: fock_inner_quadrature(F_H, F_H), UsageError,
     "fock_inner_quadrature expects fock-side expansions", None),
    ("fock_inner_quadrature-dimension", lambda: fock_inner_quadrature(F_F2, F_F2), UsageError,
     "fock_inner_quadrature is a d = 1 oracle", None),
    ("reproducing_quadrature-dimension", lambda: reproducing_quadrature(F_F2, [0.0, 0.0]),
     UsageError, "reproducing_quadrature is a d = 1 fock-side oracle", None),
    # symbols
    ("evaluate-point-two-arguments", lambda: POINT.evaluate([0.0], [0.0]), UsageError,
     "point symbols take a single argument", None),
    ("evaluate-wick-one-argument", lambda: OSC.evaluate([0.0]), UsageError,
     "Wick symbols take two arguments", None),
    ("derivative-point", lambda: POINT.derivative((1,), (0,)), UsageError,
     "derivative in (z, conj w) applies to standard Wick symbols", None),
    ("symbol-plus", lambda: OSC.plus(POINT), UsageError,
     "cannot add symbols of different dimension or kind", None),
    ("RealSymbol-quantization", lambda: RealSymbol(1, "anti", {}), UsageError,
     "quantization must be", None),
    ("OperatorMatrix-shape", lambda: OperatorMatrix(1, 2, 2, FOCK, np.zeros((2, 2))),
     UsageError, "does not match bases (3, 3)", None),
    ("OperatorMatrix-embedded", lambda: M.embedded(0), UsageError,
     "cannot embed into a smaller codomain", None),
    ("OperatorMatrix-apply-side", lambda: M.apply(F_H), UsageError,
     "expansion does not match the matrix bases", None),
    ("OperatorMatrix-apply-degree", lambda: M.apply(F_F), UsageError,
     "expansion degree exceeds the matrix domain", None),
    ("ShubinWeight-rho", lambda: ShubinWeight(2.0, rho=1.5), UsageError,
     "rho must lie in [0, 1]",
     (OSC.to_json_dict(), ["bound-check", "--mode", "shubin", "--rho", "1.5"])),
    ("real_matrix-n_in", lambda: kn_matrix(KN, -1), UsageError, "n_in must be >= 0",
     (KN.to_json_dict(), ["kn-matrix", "--degree", "-1"])),
    ("wick_apply_quadrature-dimension",
     lambda: wick_apply_quadrature(WickSymbol(2, {}), F_F2, [0.0, 0.0]), UsageError,
     "quadrature oracle is d = 1 only", None),
    ("wick_apply_quadrature-side", lambda: wick_apply_quadrature(OSC, F_H, [0.0]), UsageError,
     "oracle expects a fock-side expansion", None),
    ("symbol_bound_check-s", lambda: symbol_bound_check(OSC, 0.4, 1.0, "loss", GRID),
     UsageError, "s must be >= 1/2", (OSC.to_json_dict(), ["bound-check", "--s", "0.4"])),
    ("symbol_bound_check-r", lambda: symbol_bound_check(OSC, 0.5, 0.0, "loss", GRID),
     UsageError, "r must be > 0", (OSC.to_json_dict(), ["bound-check", "--r", "0"])),
    ("symbol_bound_check-direction", lambda: symbol_bound_check(OSC, 0.5, 1.0, "up", GRID),
     UsageError, "direction must be 'gain' or 'loss'", None),
    ("shubin_estimate_check-point",
     lambda: shubin_estimate_check(POINT, ShubinWeight(2.0), 1, 0, GRID), UsageError,
     "Shubin estimates apply to standard Wick symbols",
     (POINT.to_json_dict(), ["bound-check", "--mode", "shubin"])),
    ("shubin_estimate_check-weight",
     lambda: shubin_estimate_check(OSC, ShubinWeight(1e308), 0, 0, pair_grid(1, 4.0, 3)),
     NumericalError, "the weighted bound (t = 1e+308) is not finite on the grid of radius 4",
     (OSC.to_json_dict(), ["bound-check", "--mode", "shubin", "--weight-t", "1e308"])),
    ("shubin_estimate_check-weight-underflow",
     lambda: shubin_estimate_check(OSC, ShubinWeight(-800.0), 0, 0, pair_grid(1, 4.0, 3)),
     NumericalError, "the weight (t = -800) underflows to 0 on the grid",
     (OSC.to_json_dict(), ["bound-check", "--mode", "shubin", "--weight-t=-800"])),
    ("shubin_estimate_check-weight-underflow-extreme", None, NumericalError,
     "the weight (t = -1e+308) underflows to 0 on the grid",
     (OSC.to_json_dict(), ["bound-check", "--mode", "shubin", "--weight-t=-1e308"])),
    ("real_to_wick_symbol-budget", lambda: real_to_wick_symbol(X300), UsageError,
     "(45451 x 601 x 301 matrix, 601 x 601 coordinate tables) are over the budget",
     (X300.to_json_dict(), ["to-wick"])),
    ("pair_grid-radius", lambda: pair_grid(1, 1e308, 3), UsageError,
     "a grid of radius 1e+308 overflows float64",
     (OSC.to_json_dict(), ["bound-check", "--grid-radius", "1e308"])),
    ("wick_matrix-factor", lambda: wick_matrix(W300, 300), NumericalError,
     "the matrix factor of the term (0, 300) at degree 300 overflows float64",
     (W300.to_json_dict(), ["wick-matrix", "--degree", "300"])),
    ("shubin_estimate_check-budget",
     lambda: shubin_estimate_check(OSC, ShubinWeight(2.0), 200, 0, GRID), UsageError,
     "20301 estimate records (derivative orders <= 200 in dimension 1, N <= 0) are over the "
     "budget of 10000",
     (OSC.to_json_dict(), ["bound-check", "--mode", "shubin", "--max-order", "200",
                           "--grid-points", "1"])),
    # nothing overflows at this radius, so the 60,003 records were all written
    ("shubin_estimate_check-budget-decay",
     lambda: shubin_estimate_check(OSC, ShubinWeight(2.0), 1, 20000, pair_grid(1, 0.001, 3)),
     UsageError, "60003 estimate records", (OSC.to_json_dict(), [
         "bound-check", "--mode", "shubin", "--n-decay", "20000", "--grid-radius", "0.001"])),
    ("shubin_estimate_check-factor",
     lambda: shubin_estimate_check(Z1000, ShubinWeight(2.0), 120, 0, GRID), NumericalError,
     "a derivative of order <= 120 has a factor over float64's range",
     (Z1000.to_json_dict(), ["bound-check", "--mode", "shubin", "--max-order", "120",
                             "--grid-points", "1"])),
    ("shubin_estimate_check-grid",
     lambda: shubin_estimate_check(OSC, ShubinWeight(2.0), 1, 0, EMPTY_GRID), UsageError,
     "bound check requires a non-empty grid", None),
    # hermite
    ("tensor_rule-dimension-65", lambda: tensor_rule(gauss_hermite(1), 65), UsageError, TENSOR_65,
     ({"dimension": 65, "expression": "x0"}, ONE_NODE)),
    ("hermite_coefficients-dimension-65", lambda: hermite_coefficients(H65, 65, 0, 1), UsageError,
     TENSOR_65, (H65.to_json_dict(), ONE_NODE)),
    # expansion
    ("diagonal_derivative_symbol-point", lambda: diagonal_derivative_symbol(POINT, (1,)),
     UsageError, "diagonal derivatives apply to standard Wick symbols", None),
    ("remainder_symbol-point", lambda: remainder_symbol(POINT, (1,)), UsageError,
     "remainder symbols apply to standard Wick symbols", None),
    # analysis
    ("garding_check-point", lambda: garding_check(POINT, [4]), UsageError,
     "garding_check applies to standard Wick symbols",
     (POINT.to_json_dict(), ["garding", "--truncations", "4"])),
    ("garding_check-truncations", lambda: garding_check(OSC, []), UsageError,
     "at least one truncation degree is required", None),
    ("fit_norm_growth-length", lambda: fit_norm_growth([1.0, 2.0, 3.0]), InputDataError,
     "need at least 4 norm values, got 3", None),
    # cli
    ("hermite-coeffs-input", None, InputDataError,
     "input must contain 'expression' or an expansion with 'coeffs'",
     ({"dimension": 1}, ["hermite-coeffs"])),
]


@pytest.mark.parametrize("call, error, message, cli", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, error, message, cli, tmp_path, capsys):
    if call is not None:
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and message in str(exc.value)
    if cli is not None:
        data, argv = cli
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(data))
        assert main([argv[0], "--input", str(inp), "--output", str(tmp_path / "out.json"),
                     *argv[1:]]) == EXIT[error]
        assert message in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not (tmp_path / "out.json").exists()


def test_to_wick_budget_comes_before_the_symbol_keys(monkeypatch):
    # x^99999 has C(100001, 2), about 5e9, symbol keys: listing them before the
    # budget check ran past any time limit
    def listed(d, degree):
        raise AssertionError(f"{basis_size(2 * d, degree)} keys listed before the budget check")
    monkeypatch.setattr(symbols, "enumerate_symbol_keys", listed)
    with pytest.raises(UsageError, match="over the budget"):
        real_to_wick_symbol(RealSymbol(1, "weyl", {((99999,), (0,)): 1.0}))


def test_shubin_budget_comes_before_the_derivative_orders(monkeypatch):
    # listing the 90,858,768 orders took gigabytes before the budget check
    def listed(d, degree):
        raise AssertionError(f"{basis_size(d, degree)} orders listed before the budget check")
    for name in ("enumerate_basis", "enumerate_symbol_keys", "_basis_array"):
        monkeypatch.setattr(symbols, name, listed)
    with pytest.raises(UsageError, match="over the budget of 10000"):
        shubin_estimate_check(SHUBIN_D3, ShubinWeight(2.0), 60, 0, pair_grid(3, 4.0, 1))


def test_huge_dimension_is_refused_in_bounded_memory(tmp_path):
    # the names x0 .. x{d-1} and the integer q^d were built before any
    # budget check: a MemoryError traceback (exit 1) under this limit.  The
    # child process keeps the limit, and a failure, away from this one.
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"dimension": 10**8, "expression": "x0"}))
    src = str(Path(wickops.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from wickops.cli import main; sys.exit(main(sys.argv[1:]))")
    out = tmp_path / "out.json"
    proc = subprocess.run([sys.executable, "-c", script, "hermite-coeffs", "--input", str(inp),
                           "--output", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"]["message"] == (
        "a tensor rule in dimension 100000000 is over the budget of 64 coordinates")
    assert not out.exists()
