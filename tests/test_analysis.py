import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickops.core import (HERMITE, MAX_QUAD_NODES, CoefficientExpansion, InputDataError,
                          UsageError, basis_size, enumerate_basis)
from wickops.hermite import norm_growth_probe
from wickops.symbols import WickSymbol, wick_matrix
from wickops.analysis import (
    FLAT,
    H0,
    ROUMIEU,
    S_BRACKET,
    _roumieu_residual,
    classify_decay,
    default_diag_grid,
    fit_norm_growth,
    garding_check,
    shell_maxima,
)


def synthetic_roumieu(s, r, shells=64):
    coeffs = {(k,): math.exp(-r * k ** (1.0 / (2.0 * s))) for k in range(shells + 1)}
    return CoefficientExpansion(1, HERMITE, coeffs)


def _lstsq_roumieu_residual(ks, logm, s):
    """The least-squares route the closed form in _roumieu_residual replaced,
    kept as its oracle."""
    x = ks ** (1.0 / (2.0 * s))
    A = np.stack([np.ones_like(x), -x], axis=1)
    sol, *_ = np.linalg.lstsq(A, logm, rcond=None)
    logc, r = sol
    if r <= 0:
        r = 0.0
        logc = float(np.mean(logm))
    resid = logm - (logc - r * x)
    return float(np.sqrt(np.mean(resid**2))), float(r), float(logc)


@st.composite
def _shells(draw):
    """Distinct positive shell degrees, their log maxima (random or a decay
    law plus noise) and an s inside the golden-section bracket."""
    ks = np.array(sorted(draw(st.sets(st.integers(1, 60), min_size=4, max_size=30))), float)
    noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=ks.size, max_size=ks.size))
    if draw(st.booleans()):
        logm = 20.0 * np.array(noise) - 15.0
    else:
        rate, power = draw(st.floats(0.1, 3.0)), draw(st.floats(0.2, 2.0))
        logm = -rate * ks**power + 0.1 * np.array(noise)
    return ks, logm, draw(st.floats(*S_BRACKET))


def _decaying(family, s, r, noise):
    """Coefficients |c_k| = e^{noise_k} times the family's law at C = 1, k <= 24."""
    k = np.arange(len(noise))
    if family == ROUMIEU:
        law = -r * k ** (1.0 / (2.0 * s))
    else:
        law = k * math.log(r) - np.array([math.lgamma(n + 1.0) for n in k]) / (2.0 * s)
    return np.exp(law + np.array(noise))


class TestClassifyDecay:
    def test_pure_exponential_is_s_half(self):
        fit = classify_decay(synthetic_roumieu(0.5, 1.0))
        assert fit.family == ROUMIEU
        assert fit.parameter == pytest.approx(0.5, abs=0.05)
        assert fit.rate == pytest.approx(1.0, abs=0.05)

    def test_sqrt_exponent_is_s_one(self):
        fit = classify_decay(synthetic_roumieu(1.0, 1.0))
        assert fit.parameter == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_parameter_recovery_grid(self, s, r):
        fit = classify_decay(synthetic_roumieu(s, r))
        assert fit.family == ROUMIEU
        assert fit.parameter == pytest.approx(s, abs=0.05)

    def test_finite_expansion_is_h0(self):
        c = CoefficientExpansion(1, HERMITE, {(0,): 1.0, (3,): 2.0})
        fit = classify_decay(c)
        assert fit.family == H0
        assert fit.shells_used == 1

    @pytest.mark.parametrize("family", [ROUMIEU, FLAT])
    def test_three_positive_shells_and_the_constant_are_h0(self, family):
        # h0 is decided on the shells the fits use, those of degree k >= 1:
        # the constant shell once made this a refused fit of 3 shells
        c = CoefficientExpansion(1, HERMITE, {(k,): 1.0 for k in range(4)})
        fit = classify_decay(c, family)
        assert fit.family == H0
        assert fit.shells_used == 3

    def test_growing_shells_give_infinite_flat_sigma(self):
        # M_k = sqrt(k!) fits 1/(2 sigma) = -1/2, outside the family
        coeffs = {(k,): math.sqrt(math.factorial(k)) for k in range(9)}
        fit = classify_decay(CoefficientExpansion(1, HERMITE, coeffs), family=FLAT)
        assert fit.family == FLAT and fit.inconclusive
        assert fit.parameter == math.inf
        assert fit.rate == pytest.approx(1.0) and fit.shells_used == 8

    def test_flat_family_recovery(self):
        sigma, r = 1.0, 2.0
        coeffs = {(k,): r**k / math.gamma(k + 1.0) ** (1.0 / (2.0 * sigma))
                  for k in range(40)}
        fit = classify_decay(CoefficientExpansion(1, HERMITE, coeffs), family=FLAT)
        assert fit.family == FLAT
        assert fit.parameter == pytest.approx(sigma, abs=0.05)
        assert fit.rate == pytest.approx(r, rel=0.05)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_shells())
    def test_closed_form_line_matches_least_squares(self, case):
        ks, logm, s = case
        got, want = _roumieu_residual(ks, logm, s), _lstsq_roumieu_residual(ks, logm, s)
        # both routes fit the same line; compare its values at the shells
        scale = max(1.0, float(np.max(np.abs(logm))))
        x = ks ** (1.0 / (2.0 * s))
        assert abs(got[0] - want[0]) <= 1e-12 * scale
        assert abs(got[1] - want[1]) * (x[-1] - x[0]) <= 1e-10 * scale
        assert abs(got[2] - want[2]) <= 1e-10 * scale

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(family=st.sampled_from([ROUMIEU, FLAT]), s=st.floats(0.3, 2.0),
           r=st.floats(0.3, 2.0), log10_c=st.floats(-12.0, 8.0),
           noise=st.lists(st.floats(-0.3, 0.3), min_size=25, max_size=25))
    def test_scale_moves_only_the_prefactor(self, family, s, r, log10_c, noise):
        # a constant factor is a prefactor, not decay, so only log C may move
        c = 10.0**log10_c
        base = _decaying(family, s, r, noise)
        fit = classify_decay(CoefficientExpansion(1, HERMITE, {(k,): v for k, v in enumerate(base)}),
                             family)
        scaled = classify_decay(
            CoefficientExpansion(1, HERMITE, {(k,): c * v for k, v in enumerate(base)}), family)
        assert scaled.parameter == pytest.approx(fit.parameter, rel=1e-9)
        assert scaled.rate == pytest.approx(fit.rate, rel=1e-9)
        assert scaled.log_prefactor - fit.log_prefactor == pytest.approx(math.log(c), abs=1e-9)
        assert scaled.inconclusive == fit.inconclusive

    def test_unknown_family_rejected(self):
        c = synthetic_roumieu(1.0, 1.0)
        with pytest.raises(UsageError):
            classify_decay(c, family="gevrey")

    def test_shell_maxima(self):
        c = CoefficientExpansion(2, HERMITE, {(1, 0): 0.5, (0, 1): -2.0, (2, 0): 1j})
        assert shell_maxima(c) == {1: 2.0, 2: 1.0}


class TestGardingCheck:
    def test_oscillator_symbol_floor_one(self):
        a = WickSymbol(1, {((1,), (1,)): 2.0, ((0,), (0,)): 1.0})
        report = garding_check(a, [8, 16, 32])
        assert report.min_real_eigenvalues == pytest.approx([1.0, 1.0, 1.0])
        assert report.max_imag_norms == pytest.approx([0.0, 0.0, 0.0])
        assert report.diagonal_min == pytest.approx(1.0, abs=1e-10)
        assert report.stabilized

    def test_shifted_number_symbol_floor_minus_one(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0, ((0,), (0,)): -1.0})
        report = garding_check(a, [8, 16, 32])
        assert report.min_real_eigenvalues == pytest.approx([-1.0, -1.0, -1.0])
        assert report.diagonal_min == pytest.approx(-1.0, abs=1e-10)

    def test_pure_imaginary_constant(self):
        a = WickSymbol(1, {((0,), (0,)): 1j})
        report = garding_check(a, [8, 16])
        assert report.min_real_eigenvalues == pytest.approx([0.0, 0.0])
        assert report.max_imag_norms == pytest.approx([1.0, 1.0])

    def test_nonneg_diagonal_sums_stay_nonnegative(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            terms = {}
            for k in range(4):
                terms[((k,), (k,))] = rng.uniform(0, 3)
            a = WickSymbol(1, terms)
            report = garding_check(a, [6, 10])
            assert all(v >= -1e-10 for v in report.min_real_eigenvalues)

    def test_scaling_covariance(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0, ((1,), (0,)): 0.3,
                           ((0,), (1,)): 0.3})
        base = garding_check(a, [6, 10])
        scaled = garding_check(a.scaled(2.5), [6, 10])
        for b, s in zip(base.min_real_eigenvalues, scaled.min_real_eigenvalues):
            assert s == pytest.approx(2.5 * b, rel=1e-12)
        for b, s in zip(base.max_imag_norms, scaled.max_imag_norms):
            assert s == pytest.approx(2.5 * b, abs=1e-12)

    @pytest.mark.parametrize("c", [1.0, 1e-8])
    def test_stabilized_flag_does_not_depend_on_scale(self, c):
        # -c N has minima -8c and -16c: no plateau at any scale
        report = garding_check(WickSymbol(1, {((1,), (1,)): -c}), [8, 16])
        assert report.min_real_eigenvalues == pytest.approx([-8 * c, -16 * c])
        assert not report.stabilized

    def test_zero_symbol_is_stabilized(self):
        report = garding_check(WickSymbol(1, {}), [8, 16])
        assert report.min_real_eigenvalues == [0.0, 0.0]
        assert report.stabilized

    def test_one_truncation_is_not_stabilized(self):
        # stability compares the last two truncations, so one cannot show it
        report = garding_check(WickSymbol(1, {}), [8])
        assert report.min_real_eigenvalues == [0.0]
        assert not report.stabilized

    def test_diagonal_symbol_truncation_independent(self):
        a = WickSymbol(1, {((1,), (1,)): 3.0, ((0,), (0,)): -0.5})
        report = garding_check(a, [4, 8, 16])
        assert len(set(round(v, 12) for v in report.min_real_eigenvalues)) == 1

    @pytest.mark.parametrize("d,truncations", [(1, [3, 7, 12]), (2, [2, 4, 6])])
    def test_blocks_match_separately_built_matrices(self, d, truncations):
        rng = np.random.default_rng(5 + d)
        keys = [(tuple(rng.integers(0, 3, size=d)), tuple(rng.integers(0, 3, size=d)))
                for _ in range(6)]
        a = WickSymbol(d, {key: complex(*rng.standard_normal(2)) for key in keys})
        report = garding_check(a, truncations)
        for n, got_min, got_imag in zip(truncations, report.min_real_eigenvalues,
                                        report.max_imag_norms):
            size = len(enumerate_basis(d, n))
            M = wick_matrix(a, n).entries[:size, :size]
            herm = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
            skew = np.linalg.eigvalsh((M - M.conj().T) / 2j)
            assert got_min == pytest.approx(np.min(herm), abs=1e-12)
            assert got_imag == pytest.approx(np.max(np.abs(skew)), abs=1e-12)

    def test_truncations_must_increase(self):
        a = WickSymbol(1, {((0,), (0,)): 1.0})
        with pytest.raises(UsageError):
            garding_check(a, [8, 8])


@st.composite
def _wick_symbols(draw):
    """Small Wick symbols in d = 1 or 2, half of them Hermitian (a + a*)."""
    d = draw(st.integers(1, 2))
    index = st.tuples(*[st.integers(0, 2)] * d)
    value = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    a = WickSymbol(d, draw(st.dictionaries(st.tuples(index, index), value, max_size=5)))
    return a.plus(a.conjugate()) if draw(st.booleans()) else a


class TestGardingInterlacing:
    @settings(max_examples=40, deadline=None)
    @given(_wick_symbols())
    def test_spectral_bounds_are_monotone_across_truncations(self, a):
        # each truncation is a leading block of the next, so by Cauchy
        # interlacing the Hermitian part's minimum cannot rise and the skew
        # part's spectral norm cannot fall
        report = garding_check(a, range(7) if a.dimension == 1 else range(5))
        low, high = report.min_real_eigenvalues, report.max_imag_norms
        tol = 1e-10 * max([1.0, *map(abs, low), *high])
        assert all(later <= earlier + tol for earlier, later in zip(low, low[1:]))
        assert all(later >= earlier - tol for earlier, later in zip(high, high[1:]))


class TestGardingScale:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_wick_symbols(),
           st.one_of(st.sampled_from([-12.0, 8.0]), st.floats(-12, 8)).map(lambda e: 10.0**e))
    def test_report_scales_with_the_symbol(self, a, c):
        # eigenvalues and norms scale by c to eigen-solver rounding, about
        # eps times the matrix's norm; the plateau flag does not change
        truncations = [2, 4, 6] if a.dimension == 1 else [1, 2, 3]
        plain, scaled = garding_check(a, truncations), garding_check(a.scaled(c), truncations)
        M = wick_matrix(a, truncations[-1]).entries
        norm = np.max(np.abs(M), initial=0.0) * basis_size(a.dimension, truncations[-1])
        for got, want in [(scaled.min_real_eigenvalues, plain.min_real_eigenvalues),
                          (scaled.max_imag_norms, plain.max_imag_norms)]:
            assert np.max(np.abs(np.array(got) - c * np.array(want))) <= 1e-12 * c * norm
        # |w| <= DIAG_RADIUS = 4 on the diagonal grid
        terms = sum(abs(v) for v in a.terms.values()) * 4.0**a.total_degree
        assert abs(scaled.diagonal_min - c * plain.diagonal_min) <= 1e-13 * c * terms
        assert scaled.stabilized == plain.stabilized


class TestDiagGridBudget:
    def test_grid_sizes_below_the_budget(self):
        assert default_diag_grid(1).shape == (2112, 1)
        assert default_diag_grid(3).shape == (41**3, 3)

    def test_four_dimensional_grid_is_refused(self):
        with pytest.raises(UsageError, match=f"2825761 points.*{MAX_QUAD_NODES}"):
            default_diag_grid(4)
        a = WickSymbol(4, {((1, 0, 0, 0), (1, 0, 0, 0)): 1.0})
        with pytest.raises(UsageError):
            garding_check(a, [1, 2])


class TestFitNormGrowth:
    def test_flat_sequence(self):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0})
        norms = norm_growth_probe(f, 8)
        h, s, resid = fit_norm_growth(norms)
        assert abs(s) < 0.05
        assert h == pytest.approx(1.0, abs=0.1)

    def test_h5_geometric(self):
        f = CoefficientExpansion(1, HERMITE, {(5,): 1.0})
        norms = norm_growth_probe(f, 8)
        h, s, resid = fit_norm_growth(norms)
        assert abs(s) < 0.05
        assert h == pytest.approx(11.0, rel=0.1)

    def test_random_degree_ten_dominated_by_top_eigenvalue(self):
        rng = np.random.default_rng(53)
        coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(11)}
        f = CoefficientExpansion(1, HERMITE, coeffs)
        norms = norm_growth_probe(f, 20)
        # the tail ratio approaches the largest eigenvalue 2*10 + 1
        assert norms[-1] / norms[-2] == pytest.approx(21.0, rel=0.01)
        # the fit still sees the pre-asymptotic crossover, so looser bounds
        h, s, resid = fit_norm_growth(norms)
        assert abs(s) < 0.1
        assert h == pytest.approx(21.0, rel=0.3)

    def test_nonpositive_rejected(self):
        with pytest.raises(InputDataError):
            fit_norm_growth([1.0, 2.0, 0.0, 3.0])
