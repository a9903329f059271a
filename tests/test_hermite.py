import math

import numpy as np
import pytest

from wickops.core import (HERMITE, CoefficientExpansion, InputDataError, UsageError,
                          enumerate_basis, gauss_hermite)
from wickops.hermite import (
    ANNIHILATION,
    CREATION,
    LadderKind,
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

    def test_non_finite_sample_reported(self):
        def f(pts):
            vals = np.ones(pts.shape[0])
            vals[3] = np.inf
            return vals

        with pytest.raises(InputDataError, match="node"):
            hermite_coefficients(f, 1, 2)


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


class TestNormGrowthProbe:
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
