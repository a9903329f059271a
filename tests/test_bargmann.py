import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickops.core import (FOCK, HERMITE, MAX_QUAD_ORDER, CoefficientExpansion, NumericalError,
                          UsageError, expansion_inner)
from wickops.hermite import (
    ANNIHILATION,
    CREATION,
    LadderKind,
    apply_ladder,
    hermite_function,
    synthesize,
)
from wickops.bargmann import (
    AccuracyWarning,
    _kernel_rules,
    bargmann_coeff,
    bargmann_integral,
    bargmann_kernel,
    evaluate_fock,
    fock_inner_quadrature,
    gaussian_plane_rule,
    reproducing_quadrature,
)


class TestBargmannKernel:
    def test_origin(self):
        assert bargmann_kernel([0.0], [0.0]) == pytest.approx(math.pi ** -0.25)

    def test_z_zero_reproduces_ground_state(self):
        for y in [-1.3, 0.4, 2.0]:
            assert bargmann_kernel([0.0], [y]) == pytest.approx(
                hermite_function((0,), [y]))

    def test_imaginary_z(self):
        # bilinear <i, i> = -1, so the exponent at y = 0 is +1/2
        assert bargmann_kernel([1j], [0.0]) == pytest.approx(
            math.pi ** -0.25 * math.exp(0.5))


class TestBargmannIntegral:
    @pytest.mark.parametrize("z", [0.3 + 0.1j, -1.0 + 0.8j, 1.5j])
    def test_ground_state_maps_to_one(self, z):
        f = lambda pts: np.array([hermite_function((0,), p) for p in pts])
        assert bargmann_integral(f, [z]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("z", [0.3 + 0.1j, -1.0 + 0.8j, 1.5j])
    def test_h1_maps_to_z(self, z):
        f = lambda pts: np.array([hermite_function((1,), p) for p in pts])
        assert bargmann_integral(f, [z]) == pytest.approx(z, abs=1e-10)

    def test_h2_at_one_plus_i(self):
        z = 1 + 1j
        f = lambda pts: np.array([hermite_function((2,), p) for p in pts])
        assert bargmann_integral(f, [z]) == pytest.approx(z**2 / math.sqrt(2), abs=1e-9)

    def test_two_dimensional_basis_map(self):
        z = np.array([0.4 + 0.2j, -0.3 + 0.5j])
        f = lambda pts: np.array([hermite_function((1, 2), p) for p in pts])
        want = z[0] * z[1] ** 2 / math.sqrt(2)
        assert bargmann_integral(f, z, quad_order=40) == pytest.approx(want, abs=1e-9)


class TestBatchedBargmannIntegral:
    @pytest.mark.parametrize("d, k", [(1, 8), (2, 5)])
    def test_rows_match_single_calls(self, d, k):
        rng = np.random.default_rng(50 + d)
        coeffs = {(n,) * d: complex(*rng.standard_normal(2)) for n in range(6)}
        f = CoefficientExpansion(d, HERMITE, coeffs)
        zs = rng.uniform(-2, 2, size=(k, d)) + 1j * rng.uniform(-2, 2, size=(k, d))
        calls = []

        def sample(pts):
            calls.append(len(pts))
            return synthesize(f, pts)

        order = 60 if d == 1 else 30
        batch = bargmann_integral(sample, zs, order)
        # one sample for the whole batch, on the nodes of both rules
        assert calls == [order ** d + (2 * order // 3) ** d]
        assert isinstance(batch, np.ndarray) and batch.shape == (k,)
        for z, row in zip(zs, batch):
            single = bargmann_integral(sample, z, order)
            assert isinstance(single, complex)
            assert abs(row - single) <= 1e-14 * abs(single)

    def test_kernel_batch_rows_are_single_kernels(self):
        rng = np.random.default_rng(53)
        zs = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        ys = rng.standard_normal((7, 2))
        table = bargmann_kernel(zs, ys)
        assert table.shape == (4, 7)
        for z, row in zip(zs, table):
            np.testing.assert_array_equal(row, bargmann_kernel(z, ys))
            assert row[2] == bargmann_kernel(z, ys[2])

    def test_empty_batch(self):
        f = lambda pts: synthesize(CoefficientExpansion(1, HERMITE, {(0,): 1.0}), pts)  # noqa: E731
        assert bargmann_integral(f, np.zeros((0, 1))).shape == (0,)

    def test_kernel_tables_over_the_budget_are_refused_before_sampling(self):
        # 10,001 points against the 60 + 40 nodes of the default rules
        def sample(pts):
            raise AssertionError(f"sampled on {len(pts)} nodes before the budget check")
        with pytest.raises(UsageError, match="10001 points against the 100 nodes .* over the "
                                             "budget of 1000000"):
            bargmann_integral(sample, np.zeros((10_001, 1), dtype=complex))
        assert [rule.order for rule in _kernel_rules(10_000, 1, 60)] == [60, 40]


class TestLargeZWarning:
    # h_3 -> e_3 at order 60 (largest node 10.16): exact to ~1e-15 for
    # |z| <= 8, off by 1.5e-3 at z = 12 and by 91% at z = 16
    @staticmethod
    def h3(pts):
        return np.array([hermite_function((3,), p) for p in pts])

    @pytest.mark.parametrize("z", [12.0, 16.0, -12.0, 12.0 + 5j, 30.0])
    def test_warns_when_peak_leaves_nodes(self, z):
        with pytest.warns(AccuracyWarning, match="largest node"):
            bargmann_integral(self.h3, [z])
        with pytest.warns(AccuracyWarning):
            bargmann_integral(self.h3, [[0.5], [z]])

    # off the real axis the quadrature cancels: h_3 -> e_3 at order 60 is off
    # by 7.4e-2 at 8i, 2.7e6 at 9i, 7.7e26 at 12i and 1.5e-8 at 8 e^{i pi/4}
    @pytest.mark.parametrize("z", [8j, 9j, 12j, 8 * np.exp(1j * np.pi / 4), -8j])
    def test_warns_when_the_rules_disagree(self, z):
        with pytest.warns(AccuracyWarning, match="order-60 and order-40 rules differ") as caught:
            bargmann_integral(self.h3, [z])
        assert "largest node" not in str(caught[0].message)
        # in a batch the message names the first point the rules disagree at
        with pytest.warns(AccuracyWarning, match=re.escape(f"at z = {[complex(z)]}")):
            bargmann_integral(self.h3, [[0.5], [z], [0.5j]])

    @pytest.mark.parametrize("z,disagree", [(12.0, True), (16.0, True), (30.0, False)])
    def test_the_estimate_and_the_peak_margin(self, z, disagree):
        # at 30 the integrand peaks far beyond the nodes and both rules see
        # almost nothing of it, so they agree: only the margin catches it
        with pytest.warns(AccuracyWarning, match="largest node") as caught:
            bargmann_integral(self.h3, [z])
        assert ("rules differ" in str(caught[0].message)) == disagree

    @pytest.mark.parametrize("r", [0.5, 2.0, 4.0])
    def test_silent_and_accurate_up_to_radius_four(self, r):
        zs = r * np.exp(2j * np.pi * np.arange(16) / 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            got = bargmann_integral(self.h3, [[0.0], [r], [-r]])
            on_circle = bargmann_integral(self.h3, zs[:, None])
        want = np.array([0.0, r, -r]) ** 3 / math.sqrt(6)
        assert np.max(np.abs(got - want)) <= 1e-13 * r**3
        assert np.max(np.abs(on_circle - zs**3 / math.sqrt(6))) <= 1e-13 * r**3

    def test_silent_up_to_radius_four_on_an_expansion_of_degree_24(self):
        # the degree of the benchmark's d = 1 expansions, whose cross-check
        # must not warn
        rng = np.random.default_rng(61)
        f = CoefficientExpansion(1, HERMITE, {(k,): complex(*rng.standard_normal(2))
                                              * math.exp(-0.3 * k) for k in range(25)})
        zs = (np.array([1.0, 2.0, 3.0, 4.0])[:, None]
              * np.exp(2j * np.pi * np.arange(16) / 16)).reshape(-1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            got = bargmann_integral(lambda pts: synthesize(f, pts), zs)
        want = evaluate_fock(bargmann_coeff(f), zs)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10

    def test_silent_and_accurate_on_the_real_axis_at_eight(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            got = bargmann_integral(self.h3, [[8.0], [-8.0]])
        assert np.max(np.abs(got - np.array([8.0, -8.0]) ** 3 / math.sqrt(6))) <= 1e-13 * 8**3

    def test_silent_where_the_transform_vanishes(self):
        # h_3 -> e_3 vanishes at 0: both rules give rounding residue there,
        # which is measured against the norm of f, not against the residue
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            assert abs(bargmann_integral(self.h3, [0.0])) <= 1e-15

    def test_silent_in_two_dimensions_inside_the_nodes(self):
        f = lambda pts: np.array([hermite_function((1, 2), p) for p in pts])  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            bargmann_integral(f, [3.0 + 1j, -2.0], quad_order=40)
        with pytest.warns(AccuracyWarning):
            bargmann_integral(f, [0.5, 9.0], quad_order=40)


class TestCoefficientTransform:
    def test_basis_map(self):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0})
        F = bargmann_coeff(f)
        assert F.side == FOCK and F.coeffs == {(0,): 1.0}

    def test_linearity(self):
        f = CoefficientExpansion(1, HERMITE, {(1,): 1j, (3,): 2.0})
        F = bargmann_coeff(f)
        assert F.coeffs == f.coeffs

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(11)}
        f = CoefficientExpansion(1, HERMITE, coeffs)
        assert bargmann_coeff(f).norm_squared() == f.norm_squared()

    def test_round_trip_and_side_guards(self):
        f = CoefficientExpansion(1, HERMITE, {(2,): 1.0})
        assert bargmann_coeff(f).with_side(HERMITE).coeffs == f.coeffs
        with pytest.raises(UsageError):
            bargmann_coeff(bargmann_coeff(f))


class TestEvaluateFock:
    def test_constant(self):
        F = CoefficientExpansion(1, FOCK, {(0,): 1.0})
        assert evaluate_fock(F, [2.0 + 1.0j]) == pytest.approx(1.0)

    def test_monomial(self):
        F = CoefficientExpansion(1, FOCK, {(2,): 1.0})
        assert evaluate_fock(F, [2.0]) == pytest.approx(4 / math.sqrt(2))

    @pytest.mark.parametrize("index, z", [
        ((171,), [2.0 + 1.0j]), ((171,), [-12.0 + 0.5j]),
        ((400,), [20.0 + 3.0j]), ((400,), [-5.0j]),
        ((100, 100), [7.0 + 2.0j, -5.0 + 6.0j]),
    ])
    def test_indices_past_the_factorials_range(self, index, z):
        # a! (a >= 171) and z^a are past float64's range, z^a / sqrt(a!) is not
        with mpmath.workdps(40):
            want = complex(mpmath.fprod(mpmath.mpc(zj) ** a / mpmath.sqrt(mpmath.factorial(a))
                                        for zj, a in zip(z, index)))
        assert 1e-300 < abs(want) < 1e300
        got = evaluate_fock(CoefficientExpansion(len(index), FOCK, {index: 1.0}), z)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_values_past_float64s_range_are_refused(self):
        # e_2600(40) is about 2.6e289, but the running product passes 1e308 on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"z = \[\(40\+0j\)\] is past float64"):
                evaluate_fock(CoefficientExpansion(1, FOCK, {(2600,): 1.0}), [40.0])

    def test_agreement_with_integral_realization(self):
        rng = np.random.default_rng(17)
        coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(6)}
        f = CoefficientExpansion(1, HERMITE, coeffs)
        F = bargmann_coeff(f)
        for _ in range(20):
            z = complex(*rng.uniform(-2 / math.sqrt(2), 2 / math.sqrt(2), size=2))
            via_integral = bargmann_integral(lambda pts: synthesize(f, pts), [z])
            assert evaluate_fock(F, [z]) == pytest.approx(via_integral, abs=1e-8)


class TestFockInnerQuadrature:
    def test_normalized_basis(self):
        e0 = CoefficientExpansion(1, FOCK, {(0,): 1.0})
        assert fock_inner_quadrature(e0, e0) == pytest.approx(1.0, abs=1e-10)

    def test_angular_orthogonality(self):
        e1 = CoefficientExpansion(1, FOCK, {(1,): 1.0})
        e2 = CoefficientExpansion(1, FOCK, {(2,): 1.0})
        assert fock_inner_quadrature(e1, e2) == pytest.approx(0.0, abs=1e-10)

    def test_degree_three_moment(self):
        e3 = CoefficientExpansion(1, FOCK, {(3,): 1.0})
        assert fock_inner_quadrature(e3, e3) == pytest.approx(1.0, abs=1e-10)

    def test_accuracy_warning_on_low_angular_order(self):
        e4 = CoefficientExpansion(1, FOCK, {(4,): 1.0})
        with pytest.warns(AccuracyWarning):
            fock_inner_quadrature(e4, e4, angular_order=6)


class TestGaussianPlaneRule:
    def test_cached_rule_is_read_only(self):
        points, weights = gaussian_plane_rule(40, 64)
        assert gaussian_plane_rule(40, 64)[0] is points
        for array in (points, weights):
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array *= 2.0
        u, lw = np.polynomial.laguerre.laggauss(40)
        assert np.array_equal(weights, np.repeat(lw / 64, 64))
        assert np.array_equal(points[::64], np.sqrt(u))

    def test_cache_is_bounded(self):
        assert gaussian_plane_rule.cache_info().maxsize is not None

    @pytest.mark.parametrize("orders", [(MAX_QUAD_ORDER + 1, 1), (1000, 1001)])
    def test_oversized_rule_is_refused_before_allocation(self, monkeypatch, orders):
        def unreachable(order):
            raise AssertionError("the rule was built")
        monkeypatch.setattr(np.polynomial.laguerre, "laggauss", unreachable)
        with pytest.raises(UsageError, match="over the budget"):
            gaussian_plane_rule(*orders)


class TestIsometry:
    def test_coefficient_isometry_and_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(11)}
            f = CoefficientExpansion(1, HERMITE, coeffs)
            F = bargmann_coeff(f)
            assert expansion_inner(F, F) == expansion_inner(f.with_side(FOCK),
                                                            f.with_side(FOCK))
            assert fock_inner_quadrature(F, F) == pytest.approx(
                expansion_inner(F, F), abs=1e-8)


    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def test_drawn_coefficient_map_is_an_isometry(self, data):
        # degrees below 32, so deg f + deg g < 64, the default angular order, and
        # every radial moment is exact for the 40-point radial rule
        coeffs = st.dictionaries(st.integers(0, 31).map(lambda k: (k,)),
                                 st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)),
                                 max_size=6)
        f, g = (CoefficientExpansion(1, HERMITE, data.draw(coeffs)) for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            quadrature = fock_inner_quadrature(bargmann_coeff(f), bargmann_coeff(g))
        scale = math.sqrt(f.norm_squared() * g.norm_squared())
        assert abs(quadrature - expansion_inner(f, g)) <= 1e-12 * scale


class TestLadderIntertwining:
    def test_creation_becomes_sqrt2_z_multiplication(self):
        rng = np.random.default_rng(31)
        coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(11)}
        f = CoefficientExpansion(1, HERMITE, coeffs)
        lhs = bargmann_coeff(apply_ladder(f, LadderKind(CREATION, 0)))
        # sqrt(2) z e_n = sqrt(2) sqrt(n+1) e_{n+1}
        rhs = {(k + 1,): math.sqrt(2 * (k + 1)) * c for (k,), c in coeffs.items()}
        for key, v in rhs.items():
            assert lhs.coeffs[key] == pytest.approx(v)
        assert set(lhs.coeffs) == set(rhs)

    def test_annihilation_becomes_sqrt2_derivative(self):
        rng = np.random.default_rng(37)
        coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(1, 11)}
        f = CoefficientExpansion(1, HERMITE, coeffs)
        lhs = bargmann_coeff(apply_ladder(f, LadderKind(ANNIHILATION, 0)))
        # sqrt(2) d/dz e_n = sqrt(2) sqrt(n) e_{n-1}
        rhs = {(k - 1,): math.sqrt(2 * k) * c for (k,), c in coeffs.items()}
        for key, v in rhs.items():
            assert lhs.coeffs[key] == pytest.approx(v)


class TestReproducingProperty:
    def test_quadrature_reproduces_evaluation(self):
        rng = np.random.default_rng(41)
        coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(8)}
        F = CoefficientExpansion(1, FOCK, coeffs)
        for z in [0.5 + 0.2j, -1.1 + 0.7j, 1.9j]:
            assert reproducing_quadrature(F, z) == pytest.approx(
                evaluate_fock(F, [z]), abs=1e-8)

    def test_warns_past_its_angular_order(self):
        # exact to rounding below the angular order 64; silently off at e_64 and
        # past it before the warning (7.4e-10 at n = 64, 2.2e-4 at n = 80)
        zs = [2.0, 3 + 1j, 1.5j, -2.5 + 0.5j]
        e63 = CoefficientExpansion(1, FOCK, {(63,): 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            assert max(abs(reproducing_quadrature(e63, z) - evaluate_fock(e63, [z]))
                       for z in zs) <= 1e-16
        for n in (64, 80):
            with pytest.warns(AccuracyWarning, match=f"angular order 64 <= degree {n}"):
                reproducing_quadrature(CoefficientExpansion(1, FOCK, {(n,): 1.0}), zs[0])
        with pytest.warns(AccuracyWarning):
            reproducing_quadrature(CoefficientExpansion(1, FOCK, {(6,): 1.0}), 1.0,
                                   angular_order=6)
