import functools
import math
import time
import tracemalloc
import warnings
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wickops import symbols
from wickops.bargmann import AccuracyWarning, evaluate_fock
from wickops.core import (
    FOCK,
    HERMITE,
    CoefficientExpansion,
    MultiIndex,
    NumericalError,
    UsageError,
    enumerate_basis,
)
from wickops.expansion import decompose, decomposition_matrix
from wickops.hermite import ANNIHILATION, CREATION, LadderKind, apply_ladder, synthesize
from wickops.symbols import (
    KOHN_NIRENBERG,
    BoundReport,
    MAX_MATRIX_ENTRIES,
    WEYL,
    OperatorMatrix,
    RealSymbol,
    ShubinWeight,
    WickSymbol,
    antiwick_matrix,
    enumerate_symbol_keys,
    japanese_bracket,
    kn_matrix,
    pair_grid,
    real_to_wick_symbol,
    shubin_estimate_check,
    symbol_bound_check,
    weyl_matrix,
    wick_apply_quadrature,
    wick_matrix,
)


def fock_basis_vector(n):
    return CoefficientExpansion(1, FOCK, {(n,): 1.0})


def _quantization_matrix(b, n_in):
    """The matrix of b in the quantization it is tagged with."""
    return kn_matrix(b, n_in) if b.quantization == KOHN_NIRENBERG else weyl_matrix(b, n_in)


class TestWickMatrix:
    def test_constant_symbol_is_identity(self):
        a = WickSymbol(1, {((0,), (0,)): 1.0})
        M = wick_matrix(a, 6)
        assert np.allclose(M.entries, np.eye(7))

    def test_number_symbol_is_diagonal(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0})
        M = wick_matrix(a, 8)
        want = np.zeros((10, 9))
        want[:9, :9] = np.diag(np.arange(9.0))
        assert np.allclose(M.entries, want)

    def test_conjw_symbol_is_subdiagonal(self):
        a = WickSymbol(1, {((0,), (1,)): 1.0})
        M = wick_matrix(a, 5)
        for g in range(1, 6):
            out = M.apply(fock_basis_vector(g))
            assert out.coeffs == {(g - 1,): pytest.approx(math.sqrt(g))}
        assert M.apply(fock_basis_vector(0)).coeffs == {}

    def test_point_symbol_rejected(self):
        a0 = WickSymbol(1, {((1,), (0,)): 1.0}, point_symbol=True)
        with pytest.raises(UsageError):
            wick_matrix(a0, 4)

    @pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 2), (2, 1), (3, 3), (1, 4)])
    def test_agrees_with_defining_integral(self, p, q):
        # quadrature of the defining integral as independent oracle
        a = WickSymbol(1, {((p,), (q,)): 1.0})
        M = wick_matrix(a, 8)
        for g in [0, 4, 8]:
            F = fock_basis_vector(g)
            for z in [0.4 + 0.3j, -0.7 - 0.2j]:
                direct = wick_apply_quadrature(a, F, z)
                closed = evaluate_fock(M.apply(F), z)
                assert abs(direct - closed) < 1e-8

    def test_random_polynomial_symbol_vs_quadrature(self):
        rng = np.random.default_rng(13)
        terms = {((p,), (q,)): complex(*rng.standard_normal(2))
                 for p in range(3) for q in range(3)}
        a = WickSymbol(1, terms)
        M = wick_matrix(a, 12)
        for g in [0, 5, 12]:
            F = fock_basis_vector(g)
            for z in [0.9 + 0.1j, -0.3 + 0.8j]:
                assert abs(wick_apply_quadrature(a, F, z)
                           - evaluate_fock(M.apply(F), z)) < 1e-8

    @pytest.mark.parametrize("symbol_degree", [0, 3])
    def test_quadrature_warns_past_its_angular_order(self, symbol_degree):
        # the default angular order is 128; F degree plus symbol degree must stay below it
        a = WickSymbol(1, {((0,), (symbol_degree,)): 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            wick_apply_quadrature(a, fock_basis_vector(127 - symbol_degree), 2.0)
        with pytest.warns(AccuracyWarning, match="angular order 128 <= combined degree 128"):
            wick_apply_quadrature(a, fock_basis_vector(128 - symbol_degree), 2.0)

    def test_commutator_sanity(self):
        # Op(z) o Op(conj w) - Op(conj w) o Op(z) = identity on the interior block
        z_sym = WickSymbol(1, {((1,), (0,)): 1.0})
        w_sym = WickSymbol(1, {((0,), (1,)): 1.0})
        n = 8
        # Op(z) o Op(wbar): differentiate on degrees <= n+1, then multiply
        mw_first = wick_matrix(w_sym, n + 1).entries            # (n+2, n+2)
        mz_after = wick_matrix(z_sym, n + 1).entries            # (n+3, n+2)
        prod_zw = mz_after @ mw_first
        mz_first = wick_matrix(z_sym, n + 1).entries            # (n+3, n+2)
        mw_after = wick_matrix(w_sym, n + 2).entries            # (n+3, n+3)
        prod_wz = mw_after @ mz_first
        n_in = len(enumerate_basis(1, n))
        comm = (prod_wz - prod_zw)[:n_in, :n_in]
        assert np.allclose(comm, np.eye(n_in), atol=1e-12)


class TestAntiwickMatrix:
    def test_constant_is_identity(self):
        a0 = WickSymbol(1, {((0,), (0,)): 1.0}, point_symbol=True)
        assert np.allclose(antiwick_matrix(a0, 6).entries, np.eye(7))

    def test_modulus_squared_shifted_diagonal(self):
        a0 = WickSymbol(1, {((1,), (1,)): 1.0}, point_symbol=True)
        M = antiwick_matrix(a0, 8)
        assert np.allclose(M.entries[:9, :9], np.diag(np.arange(1.0, 10.0)))

    def test_modulus_fourth(self):
        a0 = WickSymbol(1, {((2,), (2,)): 1.0}, point_symbol=True)
        M = antiwick_matrix(a0, 8)
        want = np.diag([(g + 1) * (g + 2) for g in range(9)]).astype(float)
        assert np.allclose(M.entries[:9, :9], want)

    def test_z_dependent_input_rejected(self):
        a = WickSymbol(1, {((1,), (0,)): 1.0})
        with pytest.raises(UsageError, match="wick_matrix"):
            antiwick_matrix(a, 4)

    def test_z_independent_wick_symbol_accepted(self):
        a = WickSymbol(1, {((0,), (1,)): 1.0})
        M = antiwick_matrix(a, 5)
        # a0 = conj(w): anti-Wick operator is d/dz, same as the Wick case here
        for g in range(1, 6):
            out = M.apply(fock_basis_vector(g))
            assert out.coeffs == {(g - 1,): pytest.approx(math.sqrt(g))}

    @pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (2, 2), (1, 2)])
    def test_agrees_with_defining_integral(self, p, q):
        a0 = WickSymbol(1, {((p,), (q,)): 1.0}, point_symbol=True)
        M = antiwick_matrix(a0, 6)
        for g in [0, 3, 6]:
            F = fock_basis_vector(g)
            for z in [0.5 - 0.4j, -0.2 + 0.9j]:
                assert abs(wick_apply_quadrature(a0, F, z)
                           - evaluate_fock(M.apply(F), z)) < 1e-8

    def test_positivity_for_squared_modulus_sums(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            terms = {}
            for sigma in [(0,), (1,), (2,), (3,)]:
                lam = rng.uniform(0, 2)
                terms[(sigma, sigma)] = terms.get((sigma, sigma), 0.0) + lam
            a0 = WickSymbol(1, terms, point_symbol=True)
            M = antiwick_matrix(a0, 10).entries[:11, :11]
            assert np.allclose(M, M.conj().T)
            assert np.min(np.linalg.eigvalsh(M)) >= -1e-10


class TestKnMatrix:
    def test_position_symbol_tridiagonal(self):
        b = RealSymbol(1, KOHN_NIRENBERG, {((1,), (0,)): 1.0})
        M = kn_matrix(b, 6)
        for n in range(7):
            col = M.apply(CoefficientExpansion(1, "hermite", {(n,): 1.0})).coeffs
            assert col.get((n + 1,), 0.0) == pytest.approx(math.sqrt((n + 1) / 2))
            if n > 0:
                assert col.get((n - 1,), 0.0) == pytest.approx(math.sqrt(n / 2))

    def test_position_matches_quadrature(self):
        # oracle: integral x h_n h_m dx by Gauss-Hermite with the weight folded
        from wickops.core import gauss_hermite
        from wickops.hermite import hermite_values_1d

        b = RealSymbol(1, KOHN_NIRENBERG, {((1,), (0,)): 1.0})
        M = kn_matrix(b, 5).entries
        rule = gauss_hermite(30)
        table = hermite_values_1d(6, rule.nodes)
        fold = rule.weights * np.exp(rule.nodes**2)
        for n in range(6):
            for m in range(7):
                want = float(np.sum(fold * rule.nodes * table[n] * table[m]))
                assert M[m, n].real == pytest.approx(want, abs=1e-10)
                assert M[m, n].imag == 0

    def test_momentum_matches_quadrature(self):
        # oracle: integral (-i h_n') h_m dx via the exact derivative expansion
        from wickops.core import gauss_hermite
        from wickops.hermite import hermite_values_1d

        b = RealSymbol(1, KOHN_NIRENBERG, {((0,), (1,)): 1.0})
        M = kn_matrix(b, 5).entries
        rule = gauss_hermite(30)
        table = hermite_values_1d(7, rule.nodes)
        fold = rule.weights * np.exp(rule.nodes**2)

        def deriv(n):
            out = -math.sqrt((n + 1) / 2) * table[n + 1]
            if n > 0:
                out = out + math.sqrt(n / 2) * table[n - 1]
            return out

        for n in range(6):
            for m in range(7):
                want = complex(np.sum(fold * (-1j) * deriv(n) * table[m]))
                assert M[m, n] == pytest.approx(want, abs=1e-10)

    def test_constant_is_identity(self):
        b = RealSymbol(1, KOHN_NIRENBERG, {((0,), (0,)): 1.0})
        assert np.allclose(kn_matrix(b, 5).entries, np.eye(6))

    def test_wrong_tag_rejected(self):
        b = RealSymbol(1, WEYL, {((1,), (0,)): 1.0})
        with pytest.raises(UsageError):
            kn_matrix(b, 4)


class TestWeylMatrix:
    def test_harmonic_oscillator_diagonal(self):
        b = RealSymbol(1, WEYL, {((2,), (0,)): 1.0, ((0,), (2,)): 1.0})
        M = weyl_matrix(b, 8)
        square = M.entries[:9, :9]
        assert np.allclose(square, np.diag(2.0 * np.arange(9) + 1.0), atol=1e-12)

    def test_xxi_is_symmetrized_product(self):
        b = RealSymbol(1, WEYL, {((1,), (1,)): 1.0})
        M = weyl_matrix(b, 6)
        # oracle: (xD + Dx)/2 assembled from the KN single-factor matrices
        bx = RealSymbol(1, KOHN_NIRENBERG, {((1,), (0,)): 1.0})
        bxi = RealSymbol(1, KOHN_NIRENBERG, {((0,), (1,)): 1.0})
        xd = kn_matrix(bx, 7).entries @ kn_matrix(bxi, 6).entries   # (9, 7)
        dx = kn_matrix(bxi, 7).entries @ kn_matrix(bx, 6).entries   # (9, 7)
        want = 0.5 * (xd + dx)
        assert np.allclose(M.entries, want, atol=1e-12)

    def test_hermitian_for_real_symbol(self):
        b = RealSymbol(1, WEYL, {((1,), (1,)): 1.0, ((2,), (0,)): 0.5,
                                 ((0,), (1,)): -1.0})
        square = weyl_matrix(b, 8).entries[:9, :9]
        assert np.allclose(square, square.conj().T, atol=1e-12)

    def test_single_factor_equals_kn(self):
        bw = RealSymbol(1, WEYL, {((1,), (0,)): 1.0})
        bk = RealSymbol(1, KOHN_NIRENBERG, {((1,), (0,)): 1.0})
        assert np.allclose(weyl_matrix(bw, 5).entries, kn_matrix(bk, 5).entries)

    def test_x301_equals_kn(self):
        # x^301 is the same operator X^301 in both quantizations, with
        # entries up to 1.66e307; the Weyl steps multiplied overflowed
        # unused columns by X's zeros, and refused it with NaNs
        w, k = (build(RealSymbol(1, quantization, {((301,), (0,)): 1.0}), 0).entries
                for build, quantization in [(weyl_matrix, WEYL), (kn_matrix, KOHN_NIRENBERG)])
        assert np.max(np.abs(k)) > 1e307
        assert np.max(np.abs(w - k)) <= 1e-14 * np.max(np.abs(k))


def _basis_index(d, n):
    """Position of each multi-index in enumerate_basis(d, n)."""
    return {alpha: i for i, alpha in enumerate(enumerate_basis(d, n))}


def _loop_matrix(symbol, n_in, antiwick):
    """Reference Wick / anti-Wick matrix by per-column loops with exact integer
    factorials: the term (p, q) sends e_g to
    top!/(top-q)! sqrt((g+p-q)!/g!) e_{g+p-q}, top = g (Wick) or g + p (anti-Wick)."""
    d = symbol.dimension
    n_out = n_in + max((p.degree() for p, _ in symbol.terms), default=0)
    out_index = _basis_index(d, n_out)
    basis_in = enumerate_basis(d, n_in)
    M = np.zeros((len(out_index), len(basis_in)), dtype=complex)
    for (p, q), c in symbol.terms.items():
        for col, g in enumerate(basis_in):
            top = g + p if antiwick else g
            if not top.dominates(q):
                continue
            target = g + p - q
            weight = math.prod(math.perm(t, k) for t, k in zip(top, q)) * math.sqrt(
                target.factorial() / g.factorial())
            M[out_index[target], col] += c * weight
    return M


def _fock_table_loop(p, q, L, antiwick):
    """The 1-d Fock factor table entry by entry, by the factorial formula."""
    T = np.zeros((L, L))
    for g in range(max(0, q - p), min(L, L + q - p)):
        top = g + p if antiwick else g
        if top >= q:
            T[g + p - q, g] = math.perm(top, q) * math.sqrt(
                math.factorial(g + p - q) / math.factorial(g))
    return T


def _provider_tables(diagonals, pairs, n_in, n_out):
    """The dense (n_out + 1, n_in + 1) 1-d factors of the pairs, rebuilt
    entry by entry from a provider's diagonals (pair, k, values), k = out - in."""
    pair, offset, values = diagonals(pairs)
    tables = np.zeros((len(pairs), n_out + 1, n_in + 1), dtype=values.dtype)
    for i, k, diagonal in zip(pair, offset, values):
        for g in range(n_in + 1):
            if 0 <= g + k <= n_out:
                tables[i, g + k, g] = diagonal[g]
    return tables


class TestFockTable:
    """The Fock provider's diagonals, rebuilt as tables, against the
    factorial loop, bitwise: one diagonal k = p - q per pair."""

    @pytest.mark.parametrize("antiwick", [False, True])
    def test_bitwise_against_factorial_loop(self, antiwick):
        for p, q, L in product(range(5), range(5), range(1, 41)):
            want = _fock_table_loop(p, q, L, antiwick)
            # every column range whose rows the table holds, n_in + p - q <= n_out
            last = L - 1 - max(0, p - q)
            for n_in in sorted({0, last // 2, last}) if last >= 0 else ():
                def diagonals(pairs):
                    return symbols._fock_diagonals(pairs, n_in, antiwick)
                assert diagonals([(p, q)])[1].tolist() == [p - q]
                got = _provider_tables(diagonals, [(p, q)], n_in, L - 1)[0]
                _assert_bitwise(got, want[:, :n_in + 1])

    def test_pairs_in_order(self):
        pairs = [(0, 0), (0, 3), (2, 1), (4, 0)]
        pair, offset, values = symbols._fock_diagonals(pairs, 2, False)
        assert pair.tolist() == [0, 1, 2, 3] and offset.tolist() == [0, -3, 1, 4]
        # the Wick factor of conj(w)^3 has no column of degree <= 2 to act on
        assert values.shape == (4, 3) and not values[1].any()

    def test_only_the_columns_in_use(self):
        # z^300 conj(w)^300 acts on no column of degree < 300: its factors
        # from degree 300 on overflow float64, and are never computed
        a = WickSymbol(1, {((300,), (300,)): 1.0, ((0,), (0,)): 2.0})
        M = wick_matrix(a, 8).entries
        np.testing.assert_array_equal(M, np.eye(309, 9) * 2.0)


class TestDenseDiagonals:
    """The Kohn-Nirenberg and Weyl provider against the dense X, D products
    it reads its diagonals from."""

    @pytest.mark.parametrize("quant", [KOHN_NIRENBERG, WEYL])
    def test_against_dense_products(self, quant):
        n_in, n_out = 4, 9
        X, D = symbols._position_momentum(n_out + 1)
        power = np.linalg.matrix_power

        def table(p, q):
            if quant == KOHN_NIRENBERG:
                return power(X, p) @ power(D, q)
            return sum(math.comb(p, k) * (power(X, k) @ power(D, q) @ power(X, p - k))
                       for k in range(p + 1)) / 2**p

        pairs = [(p, q) for p in range(5) for q in range(5) if p + q <= 5]
        pair, offset, values = symbols._dense_diagonals(pairs, n_in, n_out, table)
        # ascending in pair, then strictly in k; every diagonal has a non-zero
        assert np.all(np.diff(pair) >= 0)
        assert np.all(np.diff(offset)[np.diff(pair) == 0] > 0)
        assert values.any(axis=1).all()
        rebuilt = _provider_tables(
            lambda pairs: symbols._dense_diagonals(pairs, n_in, n_out, table), pairs, n_in, n_out)
        for tables, (p, q) in zip(rebuilt, pairs):
            # equal values, so equal bits wherever the entry is not zero
            assert np.array_equal(tables, table(p, q)[:, :n_in + 1]), (p, q)


def _position_momentum_loop(L):
    """X and D as the ladders' images of each unit vector h_g, one pair of
    apply_ladder calls per g."""
    ladders = {CREATION: np.zeros((L, L)), ANNIHILATION: np.zeros((L, L))}
    for g in range(L):
        unit = CoefficientExpansion(1, HERMITE, {(g,): 1.0})
        for kind, T in ladders.items():
            for (n,), v in apply_ladder(unit, LadderKind(kind)).coeffs.items():
                if n < L:
                    T[n, g] = v.real
    C, A = ladders[CREATION], ladders[ANNIHILATION]
    return (C + A) / 2, -0.5j * (A - C)


class TestPositionMomentum:
    def test_bitwise_against_unit_vector_loop(self):
        for L in range(1, 41):
            for got, want in zip(symbols._position_momentum(L), _position_momentum_loop(L)):
                assert got.dtype == want.dtype
                _assert_bitwise(got, want)

    def test_two_ladder_calls(self):
        with mock.patch.object(symbols, "apply_ladder", wraps=apply_ladder) as ladder:
            symbols._position_momentum(12)
        assert ladder.call_count == 2


def _power_table(X, D, p, q, quantization):
    """The 1-d factor of x^p xi^q from matrix powers: X^p D^q
    (Kohn-Nirenberg), or 2^-p sum_k C(p, k) X^k D^q X^(p-k) (Weyl)."""
    power = np.linalg.matrix_power
    if quantization == KOHN_NIRENBERG:
        return power(X, p) @ power(D, q)
    return sum(math.comb(p, k) * (power(X, k) @ power(D, q) @ power(X, p - k))
               for k in range(p + 1)) / 2**p


_EXPONENTS = st.integers(0, 5)


@st.composite
def _real_terms(draw):
    """(d, {(alpha, beta): c}), d <= 2, every exponent <= 5."""
    d = draw(st.integers(1, 2))
    index = st.tuples(*[_EXPONENTS] * d)
    keys = draw(st.lists(st.tuples(index, index), max_size=4, unique=True))
    return d, {key: draw(_VALUES) for key in keys}


class TestRealTablesAgainstPowers:
    """kn_matrix and weyl_matrix against the same assembly of tables built
    from matrix powers and the binomial Weyl sum, to 1e-14 of the largest
    entry."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_real_terms(), st.integers(0, 4), st.sampled_from([KOHN_NIRENBERG, WEYL]))
    def test_drawn_symbols(self, drawn, n_in, quantization):
        d, terms = drawn
        b = RealSymbol(d, quantization, terms)
        n_out = n_in + b.total_degree
        X, D = symbols._position_momentum(n_out + 1)

        def table(p, q):
            return _power_table(X, D, p, q, quantization)
        want = symbols._assemble(b.terms, d, n_in, n_out,
                                 lambda pairs: symbols._dense_diagonals(pairs, n_in, n_out, table),
                                 HERMITE).entries
        got = _quantization_matrix(b, n_in).entries
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(np.abs(want), initial=0.0)


class TestSymbolKeys:
    def test_plain_tuple_keys_become_multi_indices(self):
        plain = {((1, 0), (0, 2)): 1.5, ((0, 0), (1, 1)): -2j}
        wrapped = {(MultiIndex(a), MultiIndex(b)): c for (a, b), c in plain.items()}
        for make in (lambda t: WickSymbol(2, t), lambda t: WickSymbol(2, t, point_symbol=True),
                     lambda t: RealSymbol(2, WEYL, t)):
            got, want = make(plain).terms, make(wrapped).terms
            assert got == want
            assert all(type(k) is MultiIndex for key in got for k in key)

    @pytest.mark.parametrize("key", [((1, -1), (0, 0)), ((1,), (0, 0)), ((1, 0), (0, 0, 0)),
                                     (MultiIndex((1,)), MultiIndex((0, 0)))])
    def test_bad_keys_raise(self, key):
        for make in (WickSymbol, lambda d, terms: RealSymbol(d, WEYL, terms)):
            with pytest.raises(UsageError):
                make(2, {key: 1.0})

    def test_repr(self):
        terms = {((1, 0), (0, 2)): 1.5, ((0, 0), (1, 1)): -2j}
        assert repr(WickSymbol(2, terms)) == "WickSymbol(d=2, wick, terms=2)"
        assert repr(WickSymbol(2, terms, point_symbol=True)) == "WickSymbol(d=2, point, terms=2)"


class TestAssemblerAgainstLoops:
    """The array assembler against per-column loops: bitwise at d = 1, where
    the arithmetic is the same; to rounding level at d >= 2, where the
    factorial ratio is taken per coordinate."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("antiwick", [False, True])
    def test_random_symbols(self, d, antiwick):
        rng = np.random.default_rng(5 * d + antiwick)
        for _ in range(3):
            a = WickSymbol(d, _random_terms(rng, d, 6), point_symbol=antiwick)
            got = (antiwick_matrix if antiwick else wick_matrix)(a, 5).entries
            want = _loop_matrix(a, 5, antiwick)
            if d == 1:
                np.testing.assert_array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestMatrixBudget:
    @pytest.mark.parametrize("build", [
        lambda: wick_matrix(WickSymbol(3, {((1, 0, 0), (0, 0, 1)): 1.0}), 40),
        lambda: antiwick_matrix(WickSymbol(3, {((2, 0, 0), (0, 0, 0)): 1.0},
                                           point_symbol=True), 40),
        lambda: weyl_matrix(RealSymbol(2, WEYL, {((1, 0), (1, 0)): 1.0}), 300),
        # small matrices on huge coordinate tables: 1 column, 20,001^2 entries
        lambda: kn_matrix(RealSymbol(1, KOHN_NIRENBERG, {((20000,), (0,)): 1.0}), 0),
        lambda: wick_matrix(WickSymbol(1, {((20000,), (0,)): 1.0}), 0),
    ])
    def test_refused_before_allocation(self, build):
        t0 = time.perf_counter()
        with pytest.raises(UsageError, match=f"over the budget of {MAX_MATRIX_ENTRIES}"):
            build()
        assert time.perf_counter() - t0 < 1.0


def _gather_matrix(terms, d, n_in, n_out, diagonals, side):
    """Reference assembler, a dense per-term gather: every term adds c times
    the product over coordinates of its 1-d tables, rebuilt densely from the
    builder's diagonals and gathered at all (row, column) pairs of graded
    multi-indices, in term order."""
    rows = np.array(enumerate_basis(d, n_out), dtype=int).reshape(-1, d)
    cols = rows[: len(enumerate_basis(d, n_in))]
    tables = {}
    M = np.zeros((len(rows), len(cols)), dtype=complex)
    for (alpha, beta), c in terms.items():
        factor = None
        for j, pair in enumerate(zip(alpha, beta)):
            if pair not in tables:
                tables[pair] = _provider_tables(diagonals, [pair], n_in, n_out)[0]
            gathered = tables[pair][rows[:, j, None], cols[None, :, j]]
            factor = gathered if factor is None else factor * gathered
        M += c * factor
    return OperatorMatrix(d, n_in, n_out, side, M)


def _by_gather(build, symbol, n_in):
    """build(symbol, n_in) with the dense gather in place of the package's
    assembler: the builder's own 1-d tables, another route to the matrix."""
    with mock.patch.object(symbols, "_assemble", _gather_matrix):
        return build(symbol, n_in)


BUILDERS = {
    "wick": (wick_matrix, lambda d, terms: WickSymbol(d, terms)),
    "antiwick": (antiwick_matrix, lambda d, terms: WickSymbol(d, terms, point_symbol=True)),
    "kn": (kn_matrix, lambda d, terms: RealSymbol(d, KOHN_NIRENBERG, terms)),
    "weyl": (weyl_matrix, lambda d, terms: RealSymbol(d, WEYL, terms)),
}


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_VALUES = st.builds(complex, st.floats(-4, 4), st.floats(-4, 4))


@st.composite
def _drawn_terms(draw, max_d=3, degree=5, max_terms=6):
    """(d, {(alpha, beta): c}) with |alpha| + |beta| <= degree."""
    d = draw(st.integers(1, max_d))
    keys = draw(st.lists(st.sampled_from(enumerate_symbol_keys(d, degree)),
                         max_size=max_terms, unique=True))
    return d, {key: draw(_VALUES) for key in keys}


class TestScatterAgainstGather:
    """The scatter assembler against the dense gather, bitwise, on the tables
    of all four builders."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_drawn_terms(), st.integers(0, 6))
    def test_drawn_symbols(self, drawn, n_in):
        d, terms = drawn
        for build, make in BUILDERS.values():
            symbol = make(d, terms)
            _assert_bitwise(build(symbol, n_in).entries,
                            _by_gather(build, symbol, n_in).entries)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_empty_symbol(self, kind):
        build, make = BUILDERS[kind]
        M = build(make(2, {}), 3).entries
        assert M.shape == (10, 10) and not M.any()
        _assert_bitwise(M, _by_gather(build, make(2, {}), 3).entries)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("d,terms,n_in", [
        (1, {((25,), (3,)): 1.5 - 0.5j, ((2,), (24,)): -2.0, ((0,), (30,)): 1j}, 12),
        (2, {((9, 0), (7, 2)): 1.5 - 0.5j, ((0, 8), (1, 0)): -2.0, ((3, 3), (3, 3)): 0.25j}, 4),
    ])
    def test_high_degree_per_coordinate(self, kind, d, terms, n_in):
        build, make = BUILDERS[kind]
        symbol = make(d, terms)
        _assert_bitwise(build(symbol, n_in).entries, _by_gather(build, symbol, n_in).entries)


class TestWickSystem:
    """The to-wick system, built in one pass, against unit Wick matrices
    assembled one by one through the dense gather and stacked as columns."""

    @pytest.mark.parametrize("d,deg,n_probe", [(1, 1, 1), (1, 4, 6), (2, 3, 3), (2, 4, 5),
                                               (3, 2, 2)])
    def test_bitwise_against_stacked_unit_matrices(self, d, deg, n_probe):
        b = RealSymbol(d, WEYL, {((deg,) + (0,) * (d - 1), (0,) * d): 1.0})  # x_0^deg
        with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as solve:
            real_to_wick_symbol(b, n_probe)
        stacked = np.array([_by_gather(wick_matrix, WickSymbol(d, {key: 1.0}), n_probe)
                            .embedded(n_probe + deg).entries.ravel()
                            for key in enumerate_symbol_keys(d, deg)]).T
        _assert_bitwise(solve.call_args.args[0], stacked)

    def test_refused_before_allocation(self):
        # 70 unit matrices of 2145 x 1891 entries, each within the budget alone
        b = RealSymbol(2, WEYL, {((2, 0), (1, 1)): 1.0})
        t0 = time.perf_counter()
        with pytest.raises(UsageError, match=f"^283933650 entries .* over the budget of "
                                             f"{MAX_MATRIX_ENTRIES}"):
            real_to_wick_symbol(b, 60)
        assert time.perf_counter() - t0 < 1.0


class TestAssemblerScale:
    def test_thirty_coordinates(self):
        # a 496 x 31 matrix; a dense (n_out + 1)^d position table would hold 3^30
        d = 30
        a = WickSymbol(d, {(MultiIndex.unit(d, j), MultiIndex.unit(d, (j + 7) % d)): 1.0 + j
                           for j in range(d)})
        t0 = time.perf_counter()
        M = wick_matrix(a, 1).entries
        assert time.perf_counter() - t0 < 1.0
        assert M.shape == (496, 31)
        want = _loop_matrix(a, 1, False)
        assert np.max(np.abs(M - want)) <= 1e-14 * np.max(np.abs(want))

    def test_memory_of_a_many_term_weyl_symbol(self):
        # 210 terms of degree <= 6 at d = 2: a 703 x 496 matrix of 5.6 MB
        rng = np.random.default_rng(8)
        b = RealSymbol(2, WEYL, {key: complex(*rng.standard_normal(2))
                                 for key in enumerate_symbol_keys(2, 6)})
        tracemalloc.start()
        try:
            M = weyl_matrix(b, 30).entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * M.nbytes


# |c| log-uniform over twenty decades and at both ends, at any phase
_SCALES = st.builds(lambda e, phase: 10.0**e * complex(math.cos(phase), math.sin(phase)),
                    st.one_of(st.sampled_from([-12.0, 8.0]), st.floats(-12, 8)),
                    st.floats(0, 2 * math.pi))


class TestScale:
    """Results that are linear or homogeneous in the symbol stay so at every
    scale: nothing is cut off or floored at an absolute size."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_drawn_terms(degree=4), st.data(), _SCALES, st.integers(0, 4),
           st.sampled_from(["wick", "antiwick", "decomposition"]))
    def test_matrices_are_linear(self, first, data, c, n_in, kind):
        d, terms_a = first
        terms_b = data.draw(st.dictionaries(st.sampled_from(enumerate_symbol_keys(d, 4)), _VALUES,
                                            max_size=6))
        point = kind == "antiwick"
        a, b = (WickSymbol(d, terms, point_symbol=point) for terms in (terms_a, terms_b))
        if kind == "decomposition":
            def build(symbol):
                return decomposition_matrix(decompose(symbol, 1), n_in)
        else:
            def build(symbol):
                return (antiwick_matrix if point else wick_matrix)(symbol, n_in)
        pieces = [build(a), build(b), build(a.scaled(c).plus(b))]
        n_out = max(M.codomain_degree for M in pieces)
        A, B, combined = (M.embedded(n_out).entries for M in pieces)
        scale = max(np.max(np.abs(c * A), initial=0.0), np.max(np.abs(B), initial=0.0))
        assert np.max(np.abs(combined - (c * A + B)), initial=0.0) <= 1e-13 * scale

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_drawn_terms(max_d=2, degree=3), _SCALES, st.floats(0.5, 2.0),
           st.sampled_from(["gs", "shubin"]))
    def test_bound_check_sup_scales(self, drawn, c, radius, mode):
        d, terms = drawn
        a = WickSymbol(d, terms)
        grid = pair_grid(d, radius, 3)
        if mode == "gs":
            def sup(symbol):
                return symbol_bound_check(symbol, 0.5, 1.0, "loss", grid).sup
        else:
            def sup(symbol):
                return shubin_estimate_check(symbol, ShubinWeight(2.0), 2, 1, grid).sup
        base = sup(a)
        assert sup(a.scaled(c)) == pytest.approx(abs(c) * base, rel=1e-13, abs=0.0)


class TestAdjoint:
    """On the square block of degrees <= n, the matrix of the conjugate
    symbol is the conjugate transpose."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_drawn_terms(max_d=2, degree=4), st.integers(0, 5), st.booleans())
    def test_conjugate_symbol(self, drawn, n, antiwick):
        d, terms = drawn
        a = WickSymbol(d, terms, point_symbol=antiwick)
        build = antiwick_matrix if antiwick else wick_matrix
        size = len(enumerate_basis(d, n))
        M = build(a, n).entries[:size, :size]
        adjoint = build(a.conjugate(), n).entries[:size, :size]
        scale = max(1.0, np.max(np.abs(M), initial=0.0))
        assert np.max(np.abs(adjoint - M.conj().T), initial=0.0) <= 1e-12 * scale


def _ladder_dense(d, n, kind, j):
    """One ladder factor as a dense matrix on the hermite basis of degree <= n,
    column by column through apply_ladder (images past degree n dropped)."""
    index = _basis_index(d, n)
    M = np.zeros((len(index), len(index)))
    for gamma, col in index.items():
        image = apply_ladder(CoefficientExpansion(d, HERMITE, {gamma: 1.0}),
                             LadderKind(kind, j))
        for alpha, v in image.coeffs.items():
            if alpha in index:
                M[index[alpha], col] = v.real
    return M


def _word_average_matrix(b, n_in):
    """Reference real-side matrix on the full d-dimensional basis: per
    coordinate, the average over all interleavings of the position and
    momentum factors (Weyl), or the single word with positions left of
    momenta (Kohn-Nirenberg); x = (A+ + A)/2 and D = -i(A - A+)/2."""
    d = b.dimension
    n_out = n_in + b.total_degree
    size = len(enumerate_basis(d, n_out))
    factors = {}
    for j in range(d):
        up, down = (_ladder_dense(d, n_out, kind, j) for kind in (CREATION, ANNIHILATION))
        factors["x", j] = (up + down) / 2
        factors["D", j] = -0.5j * (down - up)
    total = np.zeros((size, size), dtype=complex)
    for (alpha, beta), c in b.terms.items():
        op = np.eye(size)
        for j in range(d):
            n = alpha[j] + beta[j]
            if b.quantization == WEYL:
                words = [["x" if i in xs else "D" for i in range(n)]
                         for xs in combinations(range(n), alpha[j])]
            else:
                words = [["x"] * alpha[j] + ["D"] * beta[j]]
            # a word acts right to left: its matrix is the product in word order
            op = sum(functools.reduce(np.matmul, [factors[f, j] for f in word], np.eye(size))
                     for word in words) / len(words) @ op
        total += c * op
    return total[:, : len(enumerate_basis(d, n_in))]


class TestWordAverageOracle:
    @pytest.mark.parametrize("quant", [KOHN_NIRENBERG, WEYL])
    @pytest.mark.parametrize("d", [1, 2])
    def test_every_monomial_to_degree_four(self, quant, d):
        for alpha, beta in enumerate_symbol_keys(d, 4):
            b = RealSymbol(d, quant, {(alpha, beta): 1.0})
            want = _word_average_matrix(b, 5)
            got = _quantization_matrix(b, 5).entries
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("quant", [KOHN_NIRENBERG, WEYL])
    def test_mixed_symbol(self, quant):
        rng = np.random.default_rng(4)
        b = RealSymbol(2, quant, _random_terms(rng, 2, 6, degree=2))
        want = _word_average_matrix(b, 3)
        assert np.max(np.abs(_quantization_matrix(b, 3).entries - want)) <= \
            1e-12 * np.max(np.abs(want))

    def test_x5_xi5_at_degree_16(self):
        b = RealSymbol(1, WEYL, {((5,), (5,)): 1.0})
        want = _word_average_matrix(b, 16)
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            got = weyl_matrix(b, 16).entries
            seconds.append(time.perf_counter() - t0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert min(seconds) < 0.05


class TestRealToWickSymbol:
    def test_position_symbol(self):
        b = RealSymbol(1, KOHN_NIRENBERG, {((1,), (0,)): 1.0})
        a = real_to_wick_symbol(b)
        s = 1 / math.sqrt(2)
        assert a.terms[((1,), (0,))] == pytest.approx(s)
        assert a.terms[((0,), (1,))] == pytest.approx(s)

    def test_momentum_symbol(self):
        b = RealSymbol(1, KOHN_NIRENBERG, {((0,), (1,)): 1.0})
        a = real_to_wick_symbol(b)
        s = 1 / math.sqrt(2)
        assert a.terms[((1,), (0,))] == pytest.approx(1j * s)
        assert a.terms[((0,), (1,))] == pytest.approx(-1j * s)

    def test_harmonic_oscillator(self):
        b = RealSymbol(1, WEYL, {((2,), (0,)): 1.0, ((0,), (2,)): 1.0})
        a = real_to_wick_symbol(b)
        assert a.terms[((1,), (1,))] == pytest.approx(2.0)
        assert a.terms[((0,), (0,))] == pytest.approx(1.0)
        M = wick_matrix(a, 8)
        assert np.allclose(M.entries[:9, :9], np.diag(2.0 * np.arange(9) + 1.0),
                           atol=1e-12)

    @pytest.mark.parametrize("quant", [KOHN_NIRENBERG, WEYL])
    @pytest.mark.parametrize("d", [1, 2])
    def test_correspondence_degree_three(self, quant, d):
        # every monomial of total degree <= 3: the Wick route reproduces the
        # quantization matrix entry-exactly
        for alpha, beta in enumerate_symbol_keys(d, 3):
            b = RealSymbol(d, quant, {(alpha, beta): 1.0})
            a = real_to_wick_symbol(b)
            n = 4
            target = _quantization_matrix(b, n)
            got = wick_matrix(a, n).embedded(target.codomain_degree)
            assert np.max(np.abs(got.entries - target.entries)) <= 1e-12


    def test_residual_over_the_tolerance_is_refused(self, monkeypatch):
        # a Weyl matrix off by 1e-6 of its largest entry in one place is the
        # matrix of no Wick symbol: the least-squares residual refuses it
        def perturbed(b, n_in):
            M = weyl_matrix(b, n_in)
            M.entries[0, 0] += 1e-6 * np.max(np.abs(M.entries))
            return M
        monkeypatch.setattr(symbols, "weyl_matrix", perturbed)
        with pytest.raises(NumericalError, match="no exact Wick symbol of degree 2 reproduces"):
            real_to_wick_symbol(RealSymbol(1, WEYL, {((2,), (0,)): 1.0, ((0,), (2,)): 1.0}))


@st.composite
def _integer_real_terms(draw):
    """(d, {(alpha, beta): c}), d <= 2, total degree <= 3, c a small integer
    times 1 or i: a partial cancellation cannot put an exact Wick
    coefficient near the cutoff."""
    d = draw(st.integers(1, 2))
    keys = draw(st.lists(st.sampled_from(enumerate_symbol_keys(d, 3)), max_size=5, unique=True))
    units = st.sampled_from([1, -1, 1j, -1j])
    return d, {key: draw(st.integers(1, 4)) * draw(units) for key in keys}


class TestToWickScale:
    """to-wick(c b) = c to-wick(b): the cutoff and the residual check are
    relative to the quantization matrix, so no scale drops or adds a term."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_integer_real_terms(), st.sampled_from([KOHN_NIRENBERG, WEYL]),
           st.floats(-15, 6))
    def test_scaled_symbol(self, drawn, quant, log_c):
        d, terms = drawn
        c = 10.0**log_c
        a = real_to_wick_symbol(RealSymbol(d, quant, terms))
        scaled = real_to_wick_symbol(RealSymbol(d, quant, {k: c * v for k, v in terms.items()}))
        assert scaled.terms.keys() == a.terms.keys()
        largest = max(map(abs, a.terms.values()), default=0.0)
        for key, value in a.terms.items():
            assert abs(scaled.terms[key] - c * value) <= 1e-12 * c * largest

    @pytest.mark.parametrize("c", [1e-15, 1e-13, 1.0, 1e6])
    def test_xxi_plus_one(self, c):
        # Weyl c (x xi + 1) is the Wick symbol c (1 + (i/2)(z^2 - conj(w)^2)): at
        # c = 1e-13 an absolute cutoff dropped every term, and at c = 1e6 a
        # residual of -1.85e-10 on (1, 1) was kept
        b = RealSymbol(1, WEYL, {((1,), (1,)): c, ((0,), (0,)): c})
        a = real_to_wick_symbol(b)
        want = {((0,), (0,)): c, ((2,), (0,)): 0.5j * c, ((0,), (2,)): -0.5j * c}
        assert a.terms.keys() == want.keys()
        for key, value in want.items():
            assert abs(a.terms[key] - value) <= 1e-12 * c

def _pair_tuples(dimension, radius, points_per_axis):
    """The grid as the list of (z, w) tuples pair_grid once returned: the
    oracle for the order of its arrays."""
    axis = np.linspace(-radius, radius, points_per_axis)
    singles = [np.array(p, dtype=complex)
               for p in product(*[[complex(x, y) for x in axis for y in axis]] * dimension)]
    return [(z, w) for z in singles for w in singles]


class TestPairGrid:
    @pytest.mark.parametrize("dimension,radius,points_per_axis",
                             [(1, 4.0, 7), (1, 2.5, 1), (1, 3.0, 4), (2, 4.0, 3), (2, 1.5, 4)])
    def test_arrays_follow_the_pair_list(self, dimension, radius, points_per_axis):
        pairs = _pair_tuples(dimension, radius, points_per_axis)
        z, w = pair_grid(dimension, radius, points_per_axis)
        assert z.dtype == w.dtype == complex
        assert z.shape == w.shape == (len(pairs), dimension)
        # bytes, so that signed zeros count too
        assert z.tobytes() == np.array([p[0] for p in pairs]).tobytes()
        assert w.tobytes() == np.array([p[1] for p in pairs]).tobytes()


class TestSymbolBoundCheck:
    def test_constant_gain_grows_with_radius(self):
        a = WickSymbol(1, {((0,), (0,)): 1.0})
        small = symbol_bound_check(a, 1.0, 1.0, "gain", pair_grid(1, radius=2, points_per_axis=5))
        large = symbol_bound_check(a, 1.0, 1.0, "gain", pair_grid(1, radius=4, points_per_axis=5))
        assert large.sup > small.sup > 1.0

    def test_constant_loss_bounded_by_one(self):
        a = WickSymbol(1, {((0,), (0,)): 1.0})
        report = symbol_bound_check(a, 1.0, 1.0, "loss", pair_grid(1, radius=4, points_per_axis=5))
        assert report.sup == pytest.approx(1.0)
        z, w = report.argmax
        assert abs(z[0]) == pytest.approx(0.0) and abs(w[0]) == pytest.approx(0.0)

    def test_number_symbol_loss_finite(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0})
        report = symbol_bound_check(a, 0.5, 1.0, "loss", pair_grid(1, radius=4, points_per_axis=7))
        assert np.isfinite(report.sup)
        # the polynomial loses to e^{-r(|z|^2+|w|^2)} well inside the grid
        assert report.sup < 10.0

    def test_empty_grid_rejected(self):
        a = WickSymbol(1, {((0,), (0,)): 1.0})
        with pytest.raises(UsageError):
            symbol_bound_check(a, 1.0, 1.0, "loss", (np.zeros((0, 1), complex),) * 2)


class TestShubinEstimateCheck:
    def test_constant_symbol_bounded(self):
        a = WickSymbol(1, {((0,), (0,)): 1.0})
        weight = ShubinWeight(t=2.0, rho=1.0)
        report = shubin_estimate_check(a, weight, 0, 0, pair_grid(1, radius=4, points_per_axis=5))
        assert report.sup <= 1.0 / weight.omega_complex([0.0]) + 1e-12

    def test_oscillator_symbol_order_zero(self):
        a = WickSymbol(1, {((1,), (1,)): 2.0, ((0,), (0,)): 1.0})
        weight = ShubinWeight(t=2.0, rho=1.0)
        report = shubin_estimate_check(a, weight, 0, 0, pair_grid(1, radius=4, points_per_axis=7))
        assert np.isfinite(report.sup)
        assert report.sup < 50.0

    def test_derivative_of_mixed_terms(self):
        # each coordinate of alpha and of beta takes its own falling factorial:
        # d_z^(1,0) dbar_w^(0,1) of z^(3,1) conj(w)^(0,2) is 3 * 2 z^(2,1) conj(w)^(0,1),
        # and the term with z^(0,1) has no z_0 to differentiate
        a = WickSymbol(2, {((3, 1), (0, 2)): 1.0, ((0, 1), (2, 2)): 5.0,
                           ((1, 2), (1, 1)): 2j})
        assert a.derivative((1, 0), (0, 1)).terms == {((2, 1), (0, 1)): 6.0,
                                                      ((0, 2), (1, 0)): 2j}
        assert a.derivative((2, 1), (0, 2)).terms == {((1, 0), (0, 0)): 6.0 * 1 * 2}

    def test_exact_derivative_order_one_one(self):
        a = WickSymbol(1, {((1,), (1,)): 2.0, ((0,), (0,)): 1.0})
        deriv = a.derivative((1,), (1,))
        assert deriv.terms == {((0,), (0,)): 2.0}
        weight = ShubinWeight(t=2.0, rho=1.0)
        report = shubin_estimate_check(a, weight, 2, 1, pair_grid(1, radius=4, points_per_axis=5))
        entries = {(tuple(e["alpha"]), tuple(e["beta"]), e["N"]): e["sup"]
                   for e in report.details}
        assert np.isfinite(entries[((1,), (1,), 0)])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_drawn_terms(max_d=2, degree=5, max_terms=12), st.integers(0, 3), st.integers(0, 2),
           st.floats(-2.0, 3.0), st.floats(0.0, 1.0), st.floats(0.5, 4.0), st.integers(1, 3))
    def test_report_bitwise_against_symbol_derivatives(self, drawn, max_order, n_decay, t, rho,
                                                       radius, points):
        # the term-wise derivative symbols, each evaluated on its own tables:
        # the route the power-table arrays replaced, kept as their oracle.
        # Up to 12 terms, since numpy's pairwise sums change lanes from 8 on.
        d, terms = drawn
        a = WickSymbol(d, terms)
        weight = ShubinWeight(t, rho)
        z, w = grid = pair_grid(d, radius, points)
        report = shubin_estimate_check(a, weight, max_order, n_decay, grid)
        gauss = np.exp(0.5 * np.linalg.norm(z - w, axis=1) ** 2)
        base = gauss * weight.omega_complex(math.sqrt(2.0) * np.conj(z))
        plus, minus = japanese_bracket(z + w), japanese_bracket(z - w)
        want = []
        for alpha, beta in enumerate_symbol_keys(d, max_order):
            values = np.abs(a.derivative(alpha, beta).evaluate(z, w))
            for N in range(n_decay + 1):
                ratio = values / (base * plus ** (-rho * (alpha.degree() + beta.degree()))
                                  * minus ** (-N))
                i = int(np.argmax(ratio))
                want.append({"alpha": tuple(alpha), "beta": tuple(beta), "N": N,
                             "sup": float(ratio[i]), "argmax": (tuple(z[i]), tuple(w[i]))})
        assert (report.to_json_dict()["details"]
                == BoundReport("", 0.0, None, details=want).to_json_dict()["details"])

    def test_japanese_bracket(self):
        assert japanese_bracket([0.0]) == pytest.approx(1.0)
        assert japanese_bracket([3.0 + 4.0j]) == pytest.approx(math.sqrt(26.0))
        assert isinstance(japanese_bracket([3.0 + 4.0j]), float)
        batch = japanese_bracket([[0.0, 0.0], [3.0 + 4.0j, 1.0]])
        assert batch == pytest.approx([1.0, math.sqrt(27.0)])

    def test_weight_is_row_wise_on_batches(self):
        weight = ShubinWeight(t=2.0)
        assert isinstance(weight.omega([1.0, 2.0]), float)
        assert weight.omega([[1.0, 2.0], [0.0, 0.0]]) == pytest.approx([6.0, 1.0])
        assert weight.omega_complex([[1.0 + 1.0j], [2.0j]]) == pytest.approx([3.0, 5.0])


def _plain_monomial(point, exponent) -> complex:
    out = 1.0 + 0.0j
    for x, n in zip(point, exponent):
        out *= complex(x) ** n
    return out


def _plain_symbol(terms, z, w) -> complex:
    """sum c z^alpha conj(w)^beta, one term and one coordinate at a time."""
    conj_w = [complex(x).conjugate() for x in w]
    return sum(c * _plain_monomial(z, alpha) * _plain_monomial(conj_w, beta)
               for (alpha, beta), c in terms.items())


def _batch_and_rows(f, *batches):
    """f on whole (n, ...) batches, and f on their rows, one point at a time."""
    return f(*batches), np.array([f(*row) for row in zip(*batches)])


def _random_terms(rng, d, n_terms, degree=3):
    keys = [(tuple(rng.integers(0, degree + 1, size=d)),
             tuple(rng.integers(0, degree + 1, size=d))) for _ in range(n_terms)]
    return {key: complex(*rng.standard_normal(2)) for key in keys}


class TestBatchEvaluation:
    """Batch evaluation against plain-Python complex sums; scalar calls are the
    batch's rows."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("point_symbol", [False, True])
    def test_symbol_matches_plain_sums(self, d, point_symbol):
        rng = np.random.default_rng(10 * d + point_symbol)
        a = WickSymbol(d, _random_terms(rng, d, 9), point_symbol=point_symbol)
        z = rng.standard_normal((7, d)) + 1j * rng.standard_normal((7, d))
        w = rng.standard_normal((7, d)) + 1j * rng.standard_normal((7, d))
        if point_symbol:
            batch = a.evaluate(w)
            want = [_plain_symbol(a.terms, wi, wi) for wi in w]
            singles = [a.evaluate(wi) for wi in w]
        else:
            batch = a.evaluate(z, w)
            want = [_plain_symbol(a.terms, zi, wi) for zi, wi in zip(z, w)]
            singles = [a.evaluate(zi, wi) for zi, wi in zip(z, w)]
        assert batch.shape == (7,)
        scale = max(abs(v) for v in want)
        assert np.max(np.abs(batch - np.array(want))) <= 1e-13 * scale
        assert all(isinstance(v, complex) for v in singles)
        # singles are the batch's rows up to rounding (see the drawn test below)
        a_abs = WickSymbol(d, {k: abs(c) for k, c in a.terms.items()}, point_symbol=point_symbol)
        abs_sums = (a_abs.evaluate(np.abs(w)) if point_symbol
                    else a_abs.evaluate(np.abs(z), np.abs(w))).real
        assert np.all(np.abs(np.array(singles) - batch) <= 1e-14 * abs_sums)
        np.testing.assert_array_equal(a.diagonal_value(w),
                                      a.evaluate(w) if point_symbol else a.evaluate(w, w))

    @pytest.mark.parametrize("d", [1, 2])
    def test_fock_matches_plain_sums(self, d):
        rng = np.random.default_rng(d)
        F = CoefficientExpansion(d, FOCK, {alpha: complex(*rng.standard_normal(2))
                                           for alpha in enumerate_basis(d, 6)})
        z = rng.standard_normal((7, d)) + 1j * rng.standard_normal((7, d))
        want = np.array([sum(c * _plain_monomial(zi, alpha) / math.sqrt(alpha.factorial())
                             for alpha, c in F.coeffs.items()) for zi in z])
        batch = evaluate_fock(F, z)
        assert np.max(np.abs(batch - want)) <= 1e-13 * np.max(np.abs(want))
        F_abs = CoefficientExpansion(d, FOCK, {k: abs(c) for k, c in F.coeffs.items()})
        abs_sums = evaluate_fock(F_abs, np.abs(z)).real
        singles = np.array([evaluate_fock(F, zi) for zi in z])
        assert np.all(np.abs(singles - batch) <= 1e-14 * abs_sums)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_drawn_terms(max_d=2, degree=4), st.booleans(), st.floats(-3, 3), st.data())
    def test_drawn_batches_are_their_rows(self, drawn, point_symbol, t, data):
        # numpy may round a batch and a single point differently (SIMD loops),
        # so rows agree to a few ulps of the sum of the absolute term values
        d, terms = drawn
        n = data.draw(st.integers(1, 5))
        z, w = (data.draw(hnp.arrays(complex, (n, d), elements=_VALUES)) for _ in range(2))
        x = z.real
        a = WickSymbol(d, terms, point_symbol=point_symbol)
        a_abs = WickSymbol(d, {k: abs(c) for k, c in terms.items()}, point_symbol=point_symbol)
        symbol_args = (w,) if point_symbol else (z, w)
        F = CoefficientExpansion(d, FOCK, {alpha: c for (alpha, _), c in terms.items()})
        F_abs = CoefficientExpansion(d, FOCK, {k: abs(c) for k, c in F.coeffs.items()})
        f = F.with_side(HERMITE)
        weight = ShubinWeight(t)
        for batch_and_rows, scale in [
                (_batch_and_rows(a.evaluate, *symbol_args),
                 a_abs.evaluate(*map(np.abs, symbol_args))),
                (_batch_and_rows(lambda p: evaluate_fock(F, p), z),
                 evaluate_fock(F_abs, np.abs(z))),
                # |h_alpha| <= 1
                (_batch_and_rows(lambda p: synthesize(f, p), x), sum(map(abs, f.coeffs.values()))),
                (_batch_and_rows(japanese_bracket, z), japanese_bracket(z)),
                (_batch_and_rows(weight.omega, x), weight.omega(x))]:
            batch, rows = batch_and_rows
            assert batch.shape == (n,)
            assert np.all(np.abs(rows - batch) <= 1e-14 * np.abs(scale))

    def test_point_dimension_mismatch_rejected(self):
        a = WickSymbol(2, {((1, 0), (0, 1)): 1.0})
        with pytest.raises(UsageError):
            a.evaluate(np.zeros((3, 1)), np.zeros((3, 1)))


class TestOperatorMatrixContainer:
    def test_embedded(self):
        a = WickSymbol(1, {((2,), (0,)): 1.0})
        M = wick_matrix(a, 3)
        E = M.embedded(7)
        assert E.entries.shape == (8, 4)
        assert np.allclose(E.entries[:6, :], M.entries)
        assert not E.entries[6:].any()

    def test_symbol_json_round_trip(self):
        a = WickSymbol(2, {((1, 0), (0, 1)): 1j}, point_symbol=True)
        a2 = WickSymbol.from_json_dict(a.to_json_dict())
        assert a2.point_symbol and a2.terms == a.terms
        b = RealSymbol(1, WEYL, {((1,), (1,)): -2.0})
        b2 = RealSymbol.from_json_dict(b.to_json_dict())
        assert b2.quantization == WEYL and b2.terms == b.terms
