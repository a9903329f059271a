"""The package's public names, pinned, so that a name is added or removed
only on purpose, and helpers that only tests used stay out of the library."""

import importlib
import pkgutil
import types

import pytest

import wickops

EXPORTS = {
    # core
    "CalculusError", "CoefficientExpansion", "InputDataError", "MultiIndex", "NumericalError",
    "QuadratureRule", "UsageError", "enumerate_basis", "expansion_inner", "gauss_hermite",
    # hermite
    "LadderKind", "apply_hermite_operator", "apply_ladder", "hermite_coefficients",
    "hermite_function", "norm_growth_probe", "synthesize",
    # bargmann
    "bargmann_coeff", "bargmann_integral", "bargmann_kernel", "evaluate_fock",
    "fock_inner_quadrature",
    # symbols
    "BoundReport", "OperatorMatrix", "RealSymbol", "ShubinWeight", "WickSymbol",
    "antiwick_matrix", "kn_matrix", "real_to_wick_symbol", "shubin_estimate_check",
    "symbol_bound_check", "weyl_matrix", "wick_matrix",
    # expansion
    "WickToAntiWickDecomposition", "decompose", "diagonal_derivative_symbol",
    "remainder_symbol", "verify_decomposition",
    # analysis
    "DecayFit", "GardingReport", "classify_decay", "fit_norm_growth", "garding_check",
}

# deleted: test-only wrappers, the list-of-pairs grid and JSON helpers, the
# basis index dict (positions come from enumerate_basis or the rank table), the
# falling factorials (math.perm) and the per-grid budgets (core._tensor_nodes
# checks every tensor grid against MAX_QUAD_NODES)
DELETED = ("FockPoint", "bilinear_pairing", "sesquilinear_pairing", "wick_kernel",
           "inverse_bargmann_coeff", "matrix_apply_at_point", "quantization_matrix",
           "_stack_grid", "_terms_from_json", "basis_index_map", "_falling", "_falling_multi",
           "MAX_GRID_PAIRS", "MAX_DIAG_POINTS")

MODULES = [importlib.import_module(f"wickops.{info.name}")
           for info in pkgutil.iter_modules(wickops.__path__)]


def test_package_exports_exactly_the_public_api():
    # submodules become package attributes when imported, so they are not counted
    names = {name for name, value in vars(wickops).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == EXPORTS


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_deleted_helpers_stay_deleted(module):
    assert [name for name in DELETED if hasattr(module, name)] == []
