import math
import time

import numpy as np
import pytest

from wickops.core import (HERMITE, MAX_QUAD_NODES, CoefficientExpansion, InputDataError,
                          UsageError, enumerate_basis, gauss_hermite)
from wickops.hermite import (
    ANNIHILATION,
    CREATION,
    LadderKind,
    _folded_table,
    _tensor_values,
    apply_hermite_operator,
    apply_ladder,
    hermite_coefficients,
    hermite_function,
    hermite_values_1d,
    norm_growth_probe,
    synthesize,
)


def rodrigues_oracle(n, t):
    """Direct evaluation of pi^{-1/4} (-1)^n (2^n n!)^{-1/2} e^{t^2/2} d^n/dt^n e^{-t^2}."""
    import sympy

    x = sympy.symbols("x")
    expr = (sympy.pi ** sympy.Rational(-1, 4) * (-1) ** n
            / sympy.sqrt(2**n * sympy.factorial(n))
            * sympy.exp(x**2 / 2) * sympy.diff(sympy.exp(-(x**2)), x, n))
    return float(expr.subs(x, sympy.Rational(t).limit_denominator(10**12)).evalf(30))


class TestHermiteFunction:
    def test_ground_state_at_origin(self):
        assert hermite_function((0,), [0.0]) == pytest.approx(math.pi ** -0.25)

    def test_odd_function_vanishes_at_origin(self):
        assert hermite_function((1,), [0.0]) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n,t", [(3, 1.2), (5, -0.7), (8, 2.1)])
    def test_against_rodrigues_formula(self, n, t):
        assert hermite_function((n,), [t]) == pytest.approx(rodrigues_oracle(n, t), rel=1e-12)

    def test_tensor_product(self):
        val = hermite_function((2, 3), [0.4, -1.1])
        assert val == pytest.approx(
            hermite_function((2,), [0.4]) * hermite_function((3,), [-1.1]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_orthonormality_gram(self, d):
        # Gram matrix of {h_a : |a| <= 12} under the quadrature inner product
        from wickops.core import enumerate_basis, tensor_rule

        degree = 12 if d == 1 else 6
        rule = gauss_hermite(40)
        points, weights = tensor_rule(rule, d)
        basis = enumerate_basis(d, degree)
        H = np.array([[hermite_function(a, p) for p in points] for a in basis])
        fold = weights * np.exp(np.sum(points**2, axis=1))
        gram = (H * fold) @ H.T
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10


def _basis_loop_coefficients(f, d, degree_bound, quad_order):
    """Reference route: one pass over the tensor nodes per basis function,
    multiplying d gathered 1-d table rows."""
    rule = gauss_hermite(quad_order)
    grids = np.meshgrid(*([np.arange(quad_order)] * d), indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)
    points = rule.nodes[idx]
    weights = np.prod(rule.weights[idx], axis=1)
    table = hermite_values_1d(degree_bound, rule.nodes)
    base = weights * f(points) * np.exp(np.sum(points**2, axis=1))
    coeffs = {}
    for alpha in enumerate_basis(d, degree_bound):
        h = np.ones(points.shape[0])
        for j, n in enumerate(alpha):
            h = h * table[n, idx[:, j]]
        coeffs[alpha] = complex(np.sum(base * h))
    return coeffs


class TestHermiteCoefficients:
    def test_projects_basis_function(self):
        f = lambda pts: np.array([hermite_function((2,), p) for p in pts])
        exp = hermite_coefficients(f, 1, 5)
        assert exp.coeffs[(2,)] == pytest.approx(1.0, abs=1e-10)
        for a, c in exp.coeffs.items():
            if a != (2,):
                assert abs(c) <= 1e-10

    def test_linearity(self):
        f = lambda pts: np.array(
            [hermite_function((0,), p) + 2 * hermite_function((1,), p) for p in pts])
        exp = hermite_coefficients(f, 1, 4)
        assert exp.coeffs[(0,)] == pytest.approx(1.0, abs=1e-10)
        assert exp.coeffs[(1,)] == pytest.approx(2.0, abs=1e-10)

    def test_gaussian_overlap_closed_form(self):
        # oracle: symbolic integral of e^{-x^2} h_n(x) over the line
        import sympy

        x = sympy.symbols("x")
        exp = hermite_coefficients(lambda pts: np.exp(-pts[:, 0] ** 2), 1, 6)
        for n in range(7):
            hn = (sympy.pi ** sympy.Rational(-1, 4) * (-1) ** n
                  / sympy.sqrt(2**n * sympy.factorial(n))
                  * sympy.exp(x**2 / 2) * sympy.diff(sympy.exp(-(x**2)), x, n))
            want = float(sympy.integrate(sympy.exp(-(x**2)) * hn,
                                         (x, -sympy.oo, sympy.oo)).evalf(30))
            if n % 2 == 1:
                assert want == pytest.approx(0.0, abs=1e-25)
            got = exp.coeffs.get((n,), 0.0)
            assert got.real == pytest.approx(want, abs=1e-10)
            assert got.imag == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d, degree, parity", [
        (1, 24, "any"), (1, 9, "odd"), (2, 8, "any"), (2, 7, "odd"),
        (3, 6, "any"), (3, 5, "odd")])
    def test_contraction_matches_basis_loop(self, d, degree, parity):
        # the per-coordinate contraction against the per-basis-function loop
        # it replaced; on odd inputs the even coefficients vanish, and each
        # route leaves its own rounding residue (or an exact zero) there
        rng = np.random.default_rng(100 + 10 * d + degree)
        coeffs = {a: complex(*rng.standard_normal(2))
                  for a in enumerate_basis(d, degree - 2)
                  if parity == "any" or a.degree() % 2 == 1}
        base = CoefficientExpansion(d, HERMITE, coeffs)
        f = lambda pts: synthesize(base, pts)  # noqa: E731
        got = hermite_coefficients(f, d, degree)
        want = _basis_loop_coefficients(f, d, degree, degree + 20)
        scale = max(abs(c) for c in want.values())
        dev = max(abs(got.coeffs.get(a, 0.0) - c) for a, c in want.items())
        assert set(got.coeffs) <= set(want)
        assert dev <= 1e-13 * scale

    @pytest.mark.parametrize("degree, order", [(0, 1), (6, 26), (24, 44)])
    def test_folded_table_is_cached_and_read_only(self, degree, order):
        table = _folded_table(degree, order)
        assert _folded_table(degree, order) is table
        rule = gauss_hermite(order)
        want = hermite_values_1d(degree, rule.nodes) * (rule.weights * np.exp(rule.nodes**2))
        assert np.array_equal(table, want)
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        with pytest.raises(ValueError):
            table *= 2.0

    def test_non_finite_sample_reported(self):
        def f(pts):
            vals = np.ones(pts.shape[0])
            vals[3] = np.inf
            return vals

        with pytest.raises(InputDataError, match="node"):
            hermite_coefficients(f, 1, 2)


def _random_expansion(d, degree, parity, seed):
    """Random complex coefficients on the degree <= degree basis; with
    parity "odd" only odd total degrees, and with "empty" none at all."""
    rng = np.random.default_rng(seed)
    coeffs = {a: complex(*rng.standard_normal(2)) for a in enumerate_basis(d, degree)
              if parity == "any" or (parity == "odd" and a.degree() % 2 == 1)}
    return CoefficientExpansion(d, HERMITE, coeffs)


def _box(axis, d):
    """The tensor grid axis^d as (n, d) points, last coordinate fastest."""
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


class TestTensorValues:
    @pytest.mark.parametrize("d, degree", [(1, 24), (2, 9), (3, 5)])
    @pytest.mark.parametrize("parity", ["any", "odd", "empty"])
    def test_matches_synthesize(self, d, degree, parity):
        # the per-axis contraction against synthesize's per-term loop
        f = _random_expansion(d, degree, parity, 200 + 10 * d + degree)
        for nodes in (gauss_hermite(degree + 7).nodes, np.linspace(-5.0, 4.0, 13)):
            got = _tensor_values(f, nodes)
            assert got.shape == (len(nodes),) * d
            want = synthesize(f, _box(nodes, d))
            scale = max(np.max(np.abs(want)), 1e-300)
            assert np.max(np.abs(got.ravel() - want)) <= 1e-14 * scale
            if parity == "empty":
                assert not np.any(got)

    def test_sparse_high_degree_terms(self):
        # terms that leave most of the (N+1)^d block empty
        f = CoefficientExpansion(2, HERMITE, {(9, 0): 1.5, (0, 7): -2j, (3, 3): 0.25})
        nodes = np.linspace(-4.0, 4.0, 11)
        want = synthesize(f, _box(nodes, 2))
        assert np.max(np.abs(_tensor_values(f, nodes).ravel() - want)) <= \
            1e-14 * np.max(np.abs(want))

    def test_coefficient_block_over_the_budget_is_refused(self):
        # degree 100 at d = 3 fills a 101^3 block, just over the budget
        f = CoefficientExpansion(3, HERMITE, {(100, 0, 0): 1.0})
        t0 = time.perf_counter()
        with pytest.raises(UsageError, match=f"1030301 points.*{MAX_QUAD_NODES}"):
            hermite_coefficients(f, 3, 2, quad_order=3)
        assert time.perf_counter() - t0 < 1.0


class TestExpansionRoute:
    @pytest.mark.parametrize("d, degree, parity", [
        (1, 24, "any"), (1, 9, "odd"), (2, 8, "any"), (2, 7, "odd"),
        (3, 6, "any"), (3, 5, "odd"), (2, 4, "empty")])
    def test_matches_the_callback_route(self, d, degree, parity):
        f = _random_expansion(d, degree - 2, parity, 300 + 10 * d + degree)
        got = hermite_coefficients(f, d, degree)
        want = hermite_coefficients(lambda pts: synthesize(f, pts), d, degree)
        scale = max([abs(c) for c in want.coeffs.values()], default=1.0)
        keys = set(got.coeffs) | set(want.coeffs)
        assert max((abs(got.coeffs.get(a, 0) - want.coeffs.get(a, 0)) for a in keys),
                   default=0.0) <= 1e-14 * scale

    @pytest.mark.parametrize("d", [1, 2])
    def test_aliasing_past_the_rule_exactness(self, d):
        # h_7 against h_3 needs degree 10 > 2q - 1 = 9 from the 5-point rule,
        # so the output is not the input: it is the quadrature of samples
        f = CoefficientExpansion(d, HERMITE, {(7,) + (0,) * (d - 1): 1.0,
                                              (1,) * d: 0.5 - 0.5j})
        got = hermite_coefficients(f, d, 4, quad_order=5)
        want = hermite_coefficients(lambda pts: synthesize(f, pts), d, 4, quad_order=5)
        basis = enumerate_basis(d, 4)
        dev = max(abs(got.coeffs.get(a, 0) - want.coeffs.get(a, 0)) for a in basis)
        assert dev <= 1e-14 * max(abs(c) for c in want.coeffs.values())
        alias = (3,) + (0,) * (d - 1)
        assert abs(got.coeffs[alias]) > 0.1  # absent from the input
        assert abs(got.coeffs[(1,) * d] - (0.5 - 0.5j)) <= 1e-13

    def test_guards(self):
        f = CoefficientExpansion(2, HERMITE, {(1, 0): 1.0})
        with pytest.raises(UsageError, match="dimension 1"):
            hermite_coefficients(f, 1, 4)
        with pytest.raises(UsageError, match="hermite-side"):
            hermite_coefficients(f.with_side("fock"), 2, 4)

    def test_over_budget_rule_is_refused_on_both_routes(self):
        # 50^4 = 6,250,000 nodes: refused before anything is sampled
        f = CoefficientExpansion(4, HERMITE, {(1, 0, 0, 0): 1.0})
        for route in (f, lambda pts: synthesize(f, pts)):
            t0 = time.perf_counter()
            with pytest.raises(UsageError, match=f"6250000.*{MAX_QUAD_NODES}"):
                hermite_coefficients(route, 4, 30)
            assert time.perf_counter() - t0 < 1.0

    def test_overflow_is_an_input_error_on_both_routes(self):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.5e308, (1,): 1.5e308, (2,): 1.5e308})
        for route in (f, lambda pts: synthesize(f, pts)):
            with pytest.raises(InputDataError), np.errstate(over="ignore", invalid="ignore"):
                hermite_coefficients(route, 1, 4)


class TestSynthesize:
    def test_ground_state(self):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0})
        assert synthesize(f, [0.0]) == pytest.approx(math.pi ** -0.25)

    def test_linearity_at_origin(self):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0, (2,): 1.0})
        want = hermite_function((0,), [0.0]) + hermite_function((2,), [0.0])
        assert synthesize(f, [0.0]) == pytest.approx(want)

    def test_round_trip_h3(self):
        f = lambda pts: np.array([hermite_function((3,), p) for p in pts])
        exp = hermite_coefficients(f, 1, 6)
        grid = np.linspace(-3, 3, 25)[:, None]
        recon = synthesize(exp, grid)
        direct = np.array([hermite_function((3,), g) for g in grid])
        assert np.max(np.abs(recon - direct)) < 1e-10

    def test_analysis_synthesis_identity_on_expansions(self):
        rng = np.random.default_rng(11)
        coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(6)}
        f = CoefficientExpansion(1, HERMITE, coeffs)
        back = hermite_coefficients(lambda pts: synthesize(f, pts), 1, 6)
        for k, c in coeffs.items():
            assert back.coeffs[k] == pytest.approx(c, abs=1e-10)


class TestLadder:
    def test_creation_on_vacuum(self):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0})
        out = apply_ladder(f, LadderKind(CREATION, 0))
        assert out.coeffs == {(1,): pytest.approx(math.sqrt(2))}

    def test_creation_matches_quadrature(self):
        # (-d/dx + x) h_0 should be sqrt(2) h_1; check pointwise via a
        # central-difference derivative
        ts = np.linspace(-2, 2, 9)
        h = 1e-6
        for t in ts:
            deriv = (hermite_function((0,), [t + h]) - hermite_function((0,), [t - h])) / (2 * h)
            lhs = -deriv + t * hermite_function((0,), [t])
            assert lhs == pytest.approx(math.sqrt(2) * hermite_function((1,), [t]), abs=1e-8)

    def test_annihilation_on_vacuum(self):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0})
        out = apply_ladder(f, LadderKind(ANNIHILATION, 0))
        assert out.coeffs == {}

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_oscillator_from_ladders(self, n):
        f = CoefficientExpansion(1, HERMITE, {(n,): 1.0})
        a_adag = apply_ladder(apply_ladder(f, LadderKind(ANNIHILATION, 0)),
                              LadderKind(CREATION, 0))
        adag_a = apply_ladder(apply_ladder(f, LadderKind(CREATION, 0)),
                              LadderKind(ANNIHILATION, 0))
        half_sum = a_adag.plus(adag_a).scaled(0.5)
        assert half_sum.coeffs[(n,)] == pytest.approx(2 * n + 1)

    def test_commutator_is_two(self):
        # annihilation o creation - creation o annihilation = 2 per coordinate
        rng = np.random.default_rng(5)
        coeffs = {(k, m): complex(*rng.standard_normal(2))
                  for k in range(3) for m in range(3)}
        f = CoefficientExpansion(2, HERMITE, coeffs)
        for j in range(2):
            ca = apply_ladder(apply_ladder(f, LadderKind(CREATION, j)),
                              LadderKind(ANNIHILATION, j))
            ac = apply_ladder(apply_ladder(f, LadderKind(ANNIHILATION, j)),
                              LadderKind(CREATION, j))
            for key, c in coeffs.items():
                diff = ca.coeffs.get(key, 0.0) - ac.coeffs.get(key, 0.0)
                assert diff == pytest.approx(2 * c)

    def test_wrong_side_rejected(self):
        f = CoefficientExpansion(1, "fock", {(0,): 1.0})
        with pytest.raises(UsageError):
            apply_ladder(f, LadderKind(CREATION, 0))


class TestHermiteOperator:
    def test_ground_state_eigenvalue(self):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0})
        assert apply_hermite_operator(f).coeffs[(0,)] == pytest.approx(1.0)

    def test_n_three(self):
        f = CoefficientExpansion(1, HERMITE, {(3,): 2.0})
        assert apply_hermite_operator(f).coeffs[(3,)] == pytest.approx(14.0)

    def test_two_dimensional_tensor_eigenvalue(self):
        f = CoefficientExpansion(2, HERMITE, {(1, 1): 1.0})
        assert apply_hermite_operator(f).coeffs[(1, 1)] == pytest.approx(6.0)

    def test_agrees_with_ladder_composition(self):
        rng = np.random.default_rng(9)
        coeffs = {(k, m): complex(*rng.standard_normal(2))
                  for k in range(4) for m in range(4)}
        f = CoefficientExpansion(2, HERMITE, coeffs)
        via_r = apply_hermite_operator(f)
        acc = CoefficientExpansion(2, HERMITE, {})
        for j in range(2):
            a_adag = apply_ladder(apply_ladder(f, LadderKind(ANNIHILATION, j)),
                                  LadderKind(CREATION, j))
            adag_a = apply_ladder(apply_ladder(f, LadderKind(CREATION, j)),
                                  LadderKind(ANNIHILATION, j))
            acc = acc.plus(a_adag.plus(adag_a).scaled(0.5))
        for key in coeffs:
            assert acc.coeffs[key] == pytest.approx(via_r.coeffs[key])


def _probe_reference(f, n_max, grid):
    """Grid sup-norms of R^N f through synthesize, with the N-th iterate's
    coefficients c_a (2|a| + d)^N written out."""
    sups = []
    for n in range(n_max + 1):
        iterate = CoefficientExpansion(f.dimension, HERMITE, {
            a: c * (2 * a.degree() + f.dimension) ** n for a, c in f.coeffs.items()})
        sups.append(np.max(np.abs(synthesize(iterate, grid))))
    return np.array(sups)


class TestNormGrowthProbe:
    @pytest.mark.parametrize("d, degree, n_max", [(1, 10, 8), (1, 3, 20), (2, 5, 6)])
    def test_default_grid_matches_synthesis(self, d, degree, n_max):
        # the default grid is the box [-L, L]^d of 201 points per axis
        f = _random_expansion(d, degree, "any", 400 + 10 * d + degree)
        L = math.sqrt(4.0 * n_max + 2.0 * degree + 2.0)
        want = _probe_reference(f, n_max, _box(np.linspace(-L, L, 201), d))
        np.testing.assert_allclose(norm_growth_probe(f, n_max), want, rtol=1e-12)

    def test_default_grid_in_three_dimensions_is_refused(self):
        f = CoefficientExpansion(3, HERMITE, {(1, 0, 0): 1.0})
        t0 = time.perf_counter()
        with pytest.raises(UsageError, match=f"8120601 points.*{MAX_QUAD_NODES}"):
            norm_growth_probe(f, 4)
        assert time.perf_counter() - t0 < 1.0

    def test_given_grid_over_the_budget_is_refused(self):
        f = CoefficientExpansion(1, HERMITE, {(1,): 1.0})
        grid = np.broadcast_to(np.zeros(1), (MAX_QUAD_NODES + 1, 1))
        with pytest.raises(UsageError, match=str(MAX_QUAD_NODES + 1)):
            norm_growth_probe(f, 2, grid)

    def test_zero_expansion(self):
        f = CoefficientExpansion(2, HERMITE, {})
        np.testing.assert_array_equal(norm_growth_probe(f, 3), np.zeros(4))

    def test_ground_state_is_flat(self):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0})
        sups = norm_growth_probe(f, 6)
        assert np.allclose(sups, sups[0])

    def test_h5_geometric_ratio_eleven(self):
        f = CoefficientExpansion(1, HERMITE, {(5,): 1.0})
        sups = norm_growth_probe(f, 5)
        ratios = sups[1:] / sups[:-1]
        assert np.allclose(ratios, 11.0, rtol=1e-12)

    def test_mixed_expansion_matches_synthesis(self):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0, (2,): 1.0})
        grid = np.linspace(-6, 6, 301)[:, None]
        sups = norm_growth_probe(f, 4, grid)
        for n in range(5):
            iterate = CoefficientExpansion(1, HERMITE, {(0,): 1.0, (2,): 5.0**n})
            direct = np.max(np.abs(synthesize(iterate, grid)))
            assert sups[n] == pytest.approx(direct, rel=1e-12)
