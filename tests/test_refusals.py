"""Every library precondition refuses its input with the right exception, and
the CLI turns each one it can reach into the matching exit code and JSON
error object."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickops.analysis import default_diag_grid, fit_norm_growth, garding_check
from wickops.bargmann import (bargmann_integral, bargmann_kernel, evaluate_fock,
                              fock_inner_quadrature, gaussian_plane_rule, reproducing_quadrature)
import wickops
from wickops.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_USAGE, main
from wickops import symbols
from wickops.core import (FOCK, HERMITE, CoefficientExpansion, InputDataError, NumericalError,
                          UsageError, basis_size, enumerate_basis, gauss_hermite, power_tables,
                          tensor_rule)
from wickops.expansion import decompose, diagonal_derivative_symbol, remainder_symbol
from wickops.hermite import (CREATION, LadderKind, _tensor_values, apply_hermite_operator,
                             apply_ladder, hermite_coefficients, hermite_function,
                             norm_growth_probe, synthesize)
from wickops.symbols import (OperatorMatrix, RealSymbol, ShubinWeight, WickSymbol, kn_matrix,
                             pair_grid, real_to_wick_symbol, shubin_estimate_check,
                             symbol_bound_check, weyl_matrix, wick_apply_quadrature, wick_matrix)

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
H20000 = CoefficientExpansion(20000, HERMITE, {(0,) * 20000: 1.0})
# degree 10^400: the probe's box radius sqrt(4 n_max + 2 degree + 2) overflows a float
H_HUGE = CoefficientExpansion(1, HERMITE, {(10**400,): 1.0})
TENSOR_65 = "a tensor rule in dimension 65 is over the budget of 64 coordinates"
ONE_NODE = ["hermite-coeffs", "--degree", "0", "--quad-order", "1"]
# x^400: row 400 of the 1-d factor's column 0 is sqrt(400! / 2^400), about 5e373
X400_WEYL = RealSymbol(1, "weyl", {((400,), (0,)): 1.0})
X400_KN = RealSymbol(1, "kohn_nirenberg", {((400,), (0,)): 1.0})
# xi^340: that entry, sqrt(340! / 2^340), is finite, and the power D^340 overflows
XI340 = RealSymbol(1, "kohn_nirenberg", {((0,), (340,)): 1.0})
# 1e308 conj(w)^3 sends e_3 to sqrt(6) 1e308 e_0
W3_HUGE = WickSymbol(1, {((0,), (3,)): 1e308})
# d_z dbar_w of z^(10^309) conj(w) has the factor 10^309
Z_HUGE = WickSymbol(1, {((10**309,), (1,)): 1.0})
# the remainder of order 1 of z^(10^200 + 1) conj(w)^3 has the factor C(10^200, 2)
Z_LARGE = WickSymbol(1, {((10**200 + 1,), (3,)): 1.0})
EMPTY_40, EMPTY_65 = WickSymbol(40, {}), WickSymbol(65, {})
# the remainder of order 1 of z^(10^30) conj(w)^(10^30) sums over 10^30 shifts k
ZW_HUGE = WickSymbol(1, {((10**30,), (10**30,)): 1.0})
# ... and of z^(30, 30, 30) conj(w)^(30, 30, 30) over 31^3 = 29,791
ZW_D3 = WickSymbol(3, {((30, 30, 30), (30, 30, 30)): 1.0})
EMPTY_1000, EMPTY_100000 = WickSymbol(1000, {}), WickSymbol(100000, {})
# 1.7e308 (h_1 + h_5): its cross-check values e_1(z) and e_5(z) times 1.7e308 overflow
H_MAX = CoefficientExpansion(1, HERMITE, {(1,): 1.7e308, (5,): 1.7e308})
# Re a(w, w) = 1 - 1e307 |w|^4 is -inf on the diagonal grid; with the
# coefficient 1e307 + 1e307i the complex products are nan
DIAG_INF = WickSymbol(1, {((0,), (0,)): 1.0, ((2,), (2,)): -1e307})
DIAG_NAN = WickSymbol(1, {((0,), (0,)): 1.0, ((2,), (2,)): 1e307 + 1e307j})
# one Hermite function of a high degree: its value table takes (degree + 1) x points entries
H_300K, H_5M, H_10M = (CoefficientExpansion(1, HERMITE, {(n,): 1.0})
                       for n in (300_000, 5_000_000, 10**7))


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
    ("basis_size-astronomical", lambda: basis_size(10**30, 10**20), UsageError,
     "the basis of degree <= 100000000000000000000 in dimension "
     "1000000000000000000000000000000 has over 2^64 elements, over every budget", None),
    ("enumerate_basis-budget", lambda: enumerate_basis(1000, 2), UsageError,
     "the basis of degree <= 2 in dimension 1000 has 501501000 entries, over the budget of "
     "1000000", None),
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
    ("expansion-side", lambda: CoefficientExpansion(1, "other", {}), UsageError,
     "side must be 'hermite' or 'fock', got 'other'", None),
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
    ("norm_growth_probe-dimension-65", lambda: norm_growth_probe(H65, 0), UsageError,
     "the probe grid in dimension 65 is over the budget of 64 coordinates", None),
    ("norm_growth_probe-dimension-20000", lambda: norm_growth_probe(H20000, 0), UsageError,
     "the probe grid in dimension 20000 is over the budget of 64 coordinates", None),
    ("norm_growth_probe-degree-astronomical", lambda: norm_growth_probe(H_HUGE, 2), UsageError,
     f"the coefficient block of degree {10**400} in dimension 1 has over 2^64 points", None),
    ("norm_growth_probe-n_max-astronomical", lambda: norm_growth_probe(F_H, 10**400), UsageError,
     "iterates on 201 points, over the budget of 1000000 samples", None),
    ("norm_growth_probe-n_max-astronomical-grid",
     lambda: norm_growth_probe(F_H, 10**400, np.zeros((3, 1))), UsageError,
     "iterates on 3 points, over the budget of 1000000 samples", None),
    ("norm_growth_probe-n_max", lambda: norm_growth_probe(F_H, -2), UsageError,
     "n_max must be >= 0, got -2", None),
    ("_tensor_values-dimension-65", lambda: _tensor_values(H65, np.zeros(1)), UsageError,
     "the coefficient block of degree 0 in dimension 65 is over the budget of 64 coordinates",
     None),
    ("_tensor_values-dimension-20000", lambda: _tensor_values(H20000, np.zeros(1)), UsageError,
     "the coefficient block of degree 0 in dimension 20000 is over the budget of 64 coordinates",
     None),
    # bargmann
    ("bargmann_kernel-dimension", lambda: bargmann_kernel(np.zeros(2), np.zeros(1)), UsageError,
     "dimension mismatch between z and y", None),
    ("bargmann_integral-shape",
     lambda: bargmann_integral(lambda y: np.ones(len(y)), np.zeros((1, 1, 1))), UsageError,
     "are neither (d,) nor (k, d)", None),
    ("evaluate_fock-side", lambda: evaluate_fock(F_H, [0.0]), UsageError,
     "evaluate_fock expects a fock-side expansion", None),
    ("bargmann-cross-check-range", None, NumericalError,
     "the cross-check values are past float64's range; scale the expansion down",
     (H_MAX.to_json_dict(), ["bargmann", "--cross-check", "2"])),
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
    ("wick_matrix-n_in", lambda: wick_matrix(OSC, -1), UsageError,
     "n_in must be >= 0", (OSC.to_json_dict(), ["wick-matrix", "--degree", "-1"])),
    ("real_to_wick_symbol-n_probe", lambda: real_to_wick_symbol(KN, 1), UsageError,
     "n_probe 1 below symbol degree 2", (KN.to_json_dict(), ["to-wick", "--degree", "1"])),
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
    ("weyl_matrix-factor", lambda: weyl_matrix(X400_WEYL, 0), NumericalError,
     "the matrix factor of the term (400, 0) at degree 0 overflows float64",
     (X400_WEYL.to_json_dict(), ["weyl-matrix", "--degree", "0"])),
    ("kn_matrix-factor", lambda: kn_matrix(X400_KN, 0), NumericalError,
     "the matrix factor of the term (400, 0) at degree 0 overflows float64",
     (X400_KN.to_json_dict(), ["kn-matrix", "--degree", "0"])),
    ("kn_matrix-factor-products", lambda: kn_matrix(XI340, 0), NumericalError,
     "the matrix factor of the term (0, 340) at degree 0 overflows float64",
     (XI340.to_json_dict(), ["kn-matrix", "--degree", "0"])),
    ("wick_matrix-entries", lambda: wick_matrix(W3_HUGE, 3), NumericalError,
     "the matrix entries overflow float64",
     (W3_HUGE.to_json_dict(), ["wick-matrix", "--degree", "3"])),
    ("derivative-factor", lambda: Z_HUGE.derivative((1,), (1,)), NumericalError,
     "a factor of the derivative of order ((1,), (1,)) is past float64's range",
     (Z_HUGE.to_json_dict(), ["expand-antiwick", "--order", "0"])),
    ("remainder_symbol-factor", lambda: remainder_symbol(Z_LARGE, (1,)), NumericalError,
     "a factor of the remainder symbol of order (1,) is past float64's range", None),
    ("pair_grid-dimension", lambda: pair_grid(65, 4.0, 1), UsageError,
     "a grid in dimension 65 is over the budget of 64 coordinates",
     (EMPTY_65.to_json_dict(), ["bound-check", "--grid-points", "1"])),
    # (10^1100)^4 grid points have more digits than str prints
    ("pair_grid-points-astronomical", lambda: pair_grid(1, 4.0, 10**1100), UsageError,
     "a grid in dimension 1 has over 2^64 points, over the budget of 1000000",
     (OSC.to_json_dict(), ["bound-check", "--grid-points", str(10**1100)])),
    # hermite
    ("tensor_rule-dimension-65", lambda: tensor_rule(gauss_hermite(1), 65), UsageError, TENSOR_65,
     ({"dimension": 65, "expression": "x0"}, ONE_NODE)),
    ("hermite_coefficients-dimension-65", lambda: hermite_coefficients(H65, 65, 0, 1), UsageError,
     TENSOR_65, (H65.to_json_dict(), ONE_NODE)),
    ("synthesize-table", lambda: synthesize(H_10M, [0.0]), UsageError,
     "Hermite functions of degree <= 10000000 at 1 points take 10000001 entries, over the "
     "budget of 10000000", None),
    ("hermite_coefficients-table", lambda: hermite_coefficients(H_300K, 1, 8, 200), UsageError,
     "Hermite functions of degree <= 300000 at 200 points take 60000200 entries",
     (H_300K.to_json_dict(), ["hermite-coeffs", "--degree", "8", "--quad-order", "200"])),
    # the 60-point rule and its embedded 40-point rule, sampled together
    ("bargmann_integral-table",
     lambda: bargmann_integral(lambda pts: synthesize(H_5M, pts), [0j], 60), UsageError,
     "Hermite functions of degree <= 5000000 at 100 points take 500000100 entries",
     (H_5M.to_json_dict(), ["bargmann", "--cross-check", "1"])),
    # expansion
    ("decompose-point", lambda: decompose(POINT, 1), UsageError,
     "decompose applies to standard Wick symbols",
     (POINT.to_json_dict(), ["expand-antiwick", "--order", "1"])),
    ("decompose-budget", lambda: decompose(EMPTY_40, 3), UsageError,
     "135751 decomposition terms (multi-indices of degree <= 4 in dimension 40) are over the "
     "budget of 10000", (EMPTY_40.to_json_dict(), ["expand-antiwick", "--order", "3"])),
    ("decompose-budget-d1000", None, UsageError, "501501 decomposition terms",
     (EMPTY_1000.to_json_dict(), ["expand-antiwick", "--order", "1"])),
    ("decompose-budget-d100000", None, UsageError, "100001 decomposition terms",
     (EMPTY_100000.to_json_dict(), ["expand-antiwick", "--order", "0"])),
    ("diagonal_derivative_symbol-point", lambda: diagonal_derivative_symbol(POINT, (1,)),
     UsageError, "diagonal derivatives apply to standard Wick symbols", None),
    ("remainder_symbol-point", lambda: remainder_symbol(POINT, (1,)), UsageError,
     "remainder symbols apply to standard Wick symbols", None),
    ("remainder_symbol-budget", lambda: remainder_symbol(ZW_HUGE, (1,)), UsageError,
     "the remainder symbol of order (1,) is a sum of more than 10000 terms; lower the symbol's",
     (ZW_HUGE.to_json_dict(), ["expand-antiwick", "--order", "0"])),
    ("remainder_symbol-budget-d3", lambda: remainder_symbol(ZW_D3, (1, 0, 0)), UsageError,
     "the remainder symbol of order (1, 0, 0) is a sum of more than 10000 terms", None),
    # analysis
    ("default_diag_grid-dimension", lambda: default_diag_grid(100000), UsageError,
     "the diagonal grid in dimension 100000 is over the budget of 64 coordinates",
     (EMPTY_100000.to_json_dict(), ["garding", "--truncations", "2"])),
    ("garding_check-point", lambda: garding_check(POINT, [4]), UsageError,
     "garding_check applies to standard Wick symbols",
     (POINT.to_json_dict(), ["garding", "--truncations", "4"])),
    ("garding_check-truncations", lambda: garding_check(OSC, []), UsageError,
     "at least one truncation degree is required", None),
    ("garding_check-diagonal-infinite", lambda: garding_check(DIAG_INF, [1]), NumericalError,
     "the diagonal Re a(w, w) is past float64's range on the grid of radius 4", None),
    ("garding_check-diagonal-nan", lambda: garding_check(DIAG_NAN, [1]), NumericalError,
     "the diagonal Re a(w, w) is past float64's range on the grid of radius 4", None),
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if call is not None:
            with pytest.raises(error) as exc:
                call()
            assert type(exc.value) is error and message in str(exc.value)
        if cli is not None:
            data, argv = cli
            inp = tmp_path / "in.json"
            inp.write_text(json.dumps(data))
            t0 = time.perf_counter()
            assert main([argv[0], "--input", str(inp), "--output", str(tmp_path / "out.json"),
                         *argv[1:]]) == EXIT[error]
            assert time.perf_counter() - t0 < 1.0
            (line,) = capsys.readouterr().err.splitlines()
            assert message in json.loads(line)["error"]["message"]
            assert not (tmp_path / "out.json").exists()
    assert not caught, [str(w.message) for w in caught]


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


def _child_refusal(data, argv, tmp_path, timeout, prelude="", code=EXIT_USAGE):
    """The message of the CLI's refusal (exit code, one JSON line and no
    warning on stderr, no report, main done within 1 s) of the input data,
    run in a child process: it keeps a resource limit set in prelude, a hang
    or a failure away from this one."""
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(data))
    src = str(Path(wickops.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    seconds = tmp_path / "seconds"
    script = (prelude + "import sys, time; from wickops.cli import main; "
              "t0 = time.perf_counter(); code = main(sys.argv[1:]); "
              f"open({str(seconds)!r}, 'w').write(str(time.perf_counter() - t0)); "
              "sys.exit(code)")
    out = tmp_path / "out.json"
    proc = subprocess.run([sys.executable, "-c", script, argv[0], "--input", str(inp),
                           "--output", str(out), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == code, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert not out.exists()
    assert float(seconds.read_text()) < 1.0
    return json.loads(line)["error"]["message"]


# (id, input, arguments, exit code, message part) of refusals run in a child
# process, where each one ended in a traceback or a non-finite report
CHILD_REFUSALS = [
    ("bargmann-negative-seed", F_H, ["bargmann", "--cross-check", "2", "--seed", "-1"],
     EXIT_USAGE, "--seed must be >= 0, got -1"),
    ("bargmann-cross-check-astronomical", F_H, ["bargmann", "--cross-check", str(10**22)],
     EXIT_USAGE, "kernel tables of 1000000000000000000000000 entries, over the budget of "
     "1000000"),
    ("bargmann-cross-check-budget", F_H, ["bargmann", "--cross-check", "10001"], EXIT_USAGE,
     "10001 points against the 100 nodes of the order-60 and order-40 rules"),
    ("garding-diagonal-infinite", DIAG_INF, ["garding", "--truncations", "1"], EXIT_NUMERICAL,
     "the diagonal Re a(w, w) is past float64's range on the grid of radius 4"),
    ("garding-diagonal-nan", DIAG_NAN, ["garding", "--truncations", "1"], EXIT_NUMERICAL,
     "the diagonal Re a(w, w) is past float64's range on the grid of radius 4"),
]


@pytest.mark.parametrize("data, argv, code, message", [row[1:] for row in CHILD_REFUSALS],
                         ids=[row[0] for row in CHILD_REFUSALS])
def test_child_refusal(data, argv, code, message, tmp_path):
    assert message in _child_refusal(data.to_json_dict(), argv, tmp_path, 60, code=code)


def test_huge_dimension_is_refused_in_bounded_memory(tmp_path):
    # the names x0 .. x{d-1} and the integer q^d were built before any
    # budget check: a MemoryError traceback (exit 1) under this limit
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    assert _child_refusal({"dimension": 10**8, "expression": "x0"}, ["hermite-coeffs"], tmp_path,
                          60, limit) == (
        "a tensor rule in dimension 100000000 is over the budget of 64 coordinates")


def test_cross_check_past_the_factorials_range_runs(tmp_path):
    # 171! is past float64's range, and e_171(z) = z^171 / sqrt(171!) is not
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(CoefficientExpansion(1, HERMITE, {(171,): 1.0}).to_json_dict()))
    out = tmp_path / "out.json"
    src = str(Path(wickops.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "wickops.cli", "bargmann", "--input", str(inp),
                           "--output", str(out), "--cross-check", "2"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr

    def refuse(name):
        raise ValueError(f"non-finite float {name}")
    rows = json.loads(out.read_text(), parse_constant=refuse)["cross_check"]
    assert len(rows) == 2


# Raw input for every subcommand: each run exits 0, 2, 3 or 4, writes at most
# one JSON error line on stderr and no warning, and raises nothing.
_COMMANDS = {
    "hermite-coeffs": [], "bargmann": ["--cross-check", "1"],
    "wick-matrix": ["--degree", "2"], "antiwick-matrix": ["--degree", "2"],
    "kn-matrix": ["--degree", "2"], "weyl-matrix": ["--degree", "2"], "to-wick": [],
    "expand-antiwick": ["--order", "1"], "garding": ["--truncations", "2,3"], "classify": [],
    "bound-check": ["--grid-points", "2"],
    "bound-check-shubin": ["--mode", "shubin", "--grid-points", "2"],
}
_TERM = {"alpha": [1, 0], "beta": [0, 2], "value": [0.5, -1.0]}
_TEMPLATES = [
    {"dimension": 2, "kind": kind, "terms": [_TERM, {**_TERM, "alpha": [0, 0]}]}
    for kind in ("wick", "antiwick", "kn", "weyl")
] + [
    {"dimension": 2, "side": side, "coeffs": [{"index": [1, 0], "value": [1.0, 0.0]},
                                              {"index": [0, 3], "value": [0.0, -2.0]}]}
    for side in ("hermite", "fock")
] + [{"dimension": 1, "degree": 4, "expression": "exp(-x0**2 / 2)"}]
_DRAWN = st.one_of(
    st.sampled_from([-1, 0, 3, 65, 10**5, 10**30, 2**63, -(10**30), 1.5, 1e308, -1e308]),
    st.integers(), st.floats(), st.text(max_size=4), st.none(), st.booleans(),
    st.lists(st.one_of(st.integers(-3, 400), st.floats()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _paths(obj, prefix=()):
    """Every key path into a template, the template itself first."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _raw_inputs(draw):
    """Input bytes: arbitrary, deeply nested JSON, or a valid file with one
    field swapped for a drawn value."""
    kind = draw(st.sampled_from(["binary", "nested", "swapped"]))
    if kind == "binary":
        return draw(st.binary(max_size=64))
    if kind == "nested":
        depth = draw(st.integers(1, 100_000))
        return ('{"terms": ' * depth + "[]" + "}" * depth).encode()
    data = json.loads(json.dumps(draw(st.sampled_from(_TEMPLATES))))
    path = draw(st.sampled_from(list(_paths(data))[1:]))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(_DRAWN)
    return json.dumps(data).encode()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_COMMANDS)), _raw_inputs(),
       st.sampled_from(["file", "missing-directory", "directory"]))
def test_raw_input_keeps_the_error_contract(command, raw, output):
    argv = [command.removesuffix("-shubin"), *_COMMANDS[command]]
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / "in.json"
        inp.write_bytes(raw)
        out = {"file": Path(tmp) / "out.json", "missing-directory": Path(tmp) / "no" / "out.json",
               "directory": Path(tmp)}[output]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([argv[0], "--input", str(inp), "--output", str(out), *argv[1:]])
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, EXIT_USAGE, EXIT_INPUT, EXIT_NUMERICAL)
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != 0), lines
    if lines:
        assert set(json.loads(lines[0])["error"]) == {"kind", "message"}


@pytest.mark.parametrize("command, kind", [
    ("to-wick", "weyl"), ("wick-matrix", "wick"), ("antiwick-matrix", "antiwick"),
    ("kn-matrix", "kn"), ("weyl-matrix", "weyl")])
def test_huge_dimension_without_terms_runs(command, kind, tmp_path, capsys):
    # each degree shell was listed by a recursion d levels deep: a
    # RecursionError traceback (exit 1)
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"dimension": 100000, "kind": kind, "terms": []}))
    out = tmp_path / "out.json"
    assert main([command, "--input", str(inp), "--output", str(out), "--degree", "0"]) == 0
    assert capsys.readouterr().err == "" and out.exists()


@pytest.mark.parametrize("argv, message", [
    (["bound-check"], "a grid in dimension 10**30 is over the budget of 64 coordinates"),
    (["garding", "--truncations", "2"],
     "the diagonal grid in dimension 10**30 is over the budget of 64 coordinates")])
def test_astronomical_dimension_is_refused_at_once(argv, message, tmp_path):
    # the grid sizes were exact integer powers with d = 10^30 in the
    # exponent: the command never returned
    data = {"dimension": 10**30, "kind": "wick", "terms": []}
    assert _child_refusal(data, argv, tmp_path, 20) == message.replace("10**30", str(10**30))


@pytest.mark.parametrize("dimension, degree", [(2**40, 2**40), (2**40, 10**20), (10**30, 10**20)])
def test_astronomical_basis_is_refused_at_once(dimension, degree, tmp_path):
    # math.comb(degree + dimension, dimension) never returned for the first
    # two, and was an OverflowError traceback for the third
    data = {"dimension": dimension, "kind": "wick", "terms": []}
    assert _child_refusal(data, ["wick-matrix", "--degree", str(degree)], tmp_path, 20) == (
        f"the basis of degree <= {degree} in dimension {dimension} has over 2^64 elements, "
        f"over every budget; lower the degree or the dimension")
