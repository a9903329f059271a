import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickops import symbols
from wickops.core import FOCK, MultiIndex, UsageError
from wickops.symbols import (
    WEYL,
    OperatorMatrix,
    RealSymbol,
    WickSymbol,
    antiwick_matrix,
    enumerate_symbol_keys,
    real_to_wick_symbol,
    wick_matrix,
)
from wickops.expansion import (
    WickToAntiWickDecomposition,
    decompose,
    decomposition_matrix,
    diagonal_derivative_symbol,
    remainder_symbol,
    verify_decomposition,
)


class TestDiagonalDerivativeSymbol:
    def test_order_zero_is_diagonal_restriction(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0})
        a0 = diagonal_derivative_symbol(a, (0,))
        assert a0.point_symbol
        assert a0.terms == {((1,), (1,)): 1.0}  # |w|^2

    def test_first_order_kills_bilinear_term(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0})
        a1 = diagonal_derivative_symbol(a, (1,))
        assert a1.terms == {((0,), (0,)): 1.0}

    def test_second_degree_symbol(self):
        a = WickSymbol(1, {((2,), (2,)): 1.0})
        a1 = diagonal_derivative_symbol(a, (1,))
        assert a1.terms == {((1,), (1,)): pytest.approx(4.0)}  # 4|w|^2

    def test_two_dimensional(self):
        a = WickSymbol(2, {((1, 1), (1, 1)): 1.0})
        a11 = diagonal_derivative_symbol(a, (1, 1))
        assert a11.terms == {((0, 0), (0, 0)): pytest.approx(1.0)}


class TestRemainderSymbol:
    def test_order_zero_rejected(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0})
        with pytest.raises(UsageError):
            remainder_symbol(a, (0,))

    def test_bilinear_term_gives_constant(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0})
        b = remainder_symbol(a, (1,))
        assert b.terms == {((0,), (0,)): pytest.approx(1.0)}

    def test_zsquared_conjw_normal_orders_to_2z(self):
        # derivative 2(w + t(z-w)); the t-integral gives z + w in the first
        # slot, and the holomorphic w normal-orders to another z
        a = WickSymbol(1, {((2,), (1,)): 1.0})
        b = remainder_symbol(a, (1,))
        assert b.terms == {((1,), (0,)): pytest.approx(2.0)}

    def test_beta_weights_at_order_two(self):
        # weight 2 int (1-t) t^k dt = 2/((k+1)(k+2))
        from wickops.expansion import _beta_weight

        for k in range(5):
            assert _beta_weight(k, 2) == pytest.approx(2.0 / ((k + 1) * (k + 2)))


class TestDecompose:
    def test_bilinear_symbol_order_one(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0})
        decomp = decompose(a, 1)
        by_alpha = {tuple(t.alpha): t for t in decomp.main_terms}
        assert by_alpha[(0,)].symbol.terms == {((1,), (1,)): 1.0}
        assert by_alpha[(0,)].sign == 1
        assert by_alpha[(1,)].symbol.terms == {((0,), (0,)): pytest.approx(1.0)}
        assert by_alpha[(1,)].sign == -1
        assert all(not t.symbol.terms for t in decomp.remainder_terms)

    def test_constant_symbol(self):
        a = WickSymbol(1, {((0,), (0,)): 1.0})
        decomp = decompose(a, 1)
        by_alpha = {tuple(t.alpha): t for t in decomp.main_terms}
        assert by_alpha[(0,)].symbol.terms == {((0,), (0,)): 1.0}
        assert not by_alpha[(1,)].symbol.terms
        assert all(not t.symbol.terms for t in decomp.remainder_terms)

    def test_degree_two_symbol_order_two(self):
        a = WickSymbol(1, {((2,), (2,)): 1.0})
        decomp = decompose(a, 2)
        by_alpha = {tuple(t.alpha): t for t in decomp.main_terms}
        assert by_alpha[(0,)].symbol.terms == {((2,), (2,)): 1.0}          # |w|^4
        assert by_alpha[(1,)].symbol.terms == {((1,), (1,)): pytest.approx(4.0)}
        assert by_alpha[(2,)].symbol.terms == {((0,), (0,)): pytest.approx(4.0)}
        assert by_alpha[(2,)].alpha_factorial == 2
        assert all(not t.symbol.terms for t in decomp.remainder_terms)
        assert verify_decomposition(a, 2, 8) <= 1e-10

    def test_order_zero_extension_flagged(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0})
        decomp = decompose(a, 0)
        assert decomp.order_zero_extension
        assert len(decomp.remainder_terms) == 1


@st.composite
def _drawn_symbols(draw):
    """A Wick symbol at d = 1 or 2 with up to 5 terms of total degree <= 3."""
    d = draw(st.integers(1, 2))
    keys = draw(st.lists(st.sampled_from(enumerate_symbol_keys(d, 3)), max_size=5, unique=True))
    return WickSymbol(d, {key: draw(st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)))
                          for key in keys})


class TestVerifyDecomposition:
    def test_bilinear_symbol_exact(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0})
        assert verify_decomposition(a, 1, 8) <= 1e-12

    def test_constant_symbol_exact(self):
        a = WickSymbol(1, {((0,), (0,)): 1.0})
        for order in [1, 2, 3]:
            assert verify_decomposition(a, order, 6) == 0.0

    def test_remainder_active_regime(self):
        a = WickSymbol(1, {((2,), (2,)): 1.0})
        assert verify_decomposition(a, 1, 8) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2])
    def test_monomials_remainder_free(self, d):
        # exactness for all monomial symbols with degrees <= 3 at N >= min degree
        for p_deg, q_deg in product(range(4), range(4)):
            for p in _monomials(d, p_deg):
                for q in _monomials(d, q_deg):
                    a = WickSymbol(d, {(p, q): 1.0})
                    order = min(p_deg, q_deg)
                    if order == 0:
                        order = 1  # the decomposition needs order >= 1
                    decomp = decompose(a, order)
                    assert all(not t.symbol.terms for t in decomp.remainder_terms)
                    trunc = 5 if d == 2 else 8
                    assert verify_decomposition(a, order, trunc) <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_drawn_symbols(), st.integers(0, 3), st.integers(0, 6))
    def test_identity_at_drawn_orders_and_truncations(self, a, order, trunc):
        scale = max(1.0, np.max(np.abs(wick_matrix(a, trunc).entries), initial=0.0))
        assert verify_decomposition(a, order, trunc) <= 1e-12 * scale

    def test_remainder_necessity(self):
        # dropping an active remainder breaks the identity; keeping it restores it
        a = WickSymbol(1, {((2,), (2,)): 1.0})
        decomp = decompose(a, 1)
        assert any(t.symbol.terms for t in decomp.remainder_terms)
        lhs = wick_matrix(a, 8)
        rhs_full = decomposition_matrix(decomp, 8)
        rhs_dropped = decomposition_matrix(decomp, 8, include_remainder=False)
        n_out = max(lhs.codomain_degree, rhs_full.codomain_degree,
                    rhs_dropped.codomain_degree)
        full_dev = np.max(np.abs(lhs.embedded(n_out).entries
                                 - rhs_full.embedded(n_out).entries))
        dropped_dev = np.max(np.abs(lhs.embedded(n_out).entries
                                    - rhs_dropped.embedded(n_out).entries))
        assert full_dev <= 1e-10
        assert dropped_dev > 0.5

    def test_telescoping_consistency(self):
        # moving the |alpha| = N+1 layer between remainder and main sets is
        # entry-exact at matrix level
        rng = np.random.default_rng(19)
        terms = {((p,), (q,)): complex(*rng.standard_normal(2))
                 for p in range(3) for q in range(3)}
        a = WickSymbol(1, terms)
        for order in [1, 2]:
            m_low = decomposition_matrix(decompose(a, order), 8)
            m_high = decomposition_matrix(decompose(a, order + 1), 8)
            n_out = max(m_low.codomain_degree, m_high.codomain_degree)
            dev = np.max(np.abs(m_low.embedded(n_out).entries
                                - m_high.embedded(n_out).entries))
            assert dev <= 1e-10


def _per_term_matrix(decomp, n_in, include_remainder=True):
    """The decomposition's matrix term by term: one matrix per term, each
    embedded into the common codomain and added with its coefficient."""
    pieces = [(t.coefficient, antiwick_matrix(t.symbol, n_in)) for t in decomp.main_terms]
    if include_remainder:
        pieces += [(t.coefficient, wick_matrix(t.symbol, n_in)) for t in decomp.remainder_terms]
    n_out = max(M.codomain_degree for _, M in pieces)
    total = sum(c * M.embedded(n_out).entries for c, M in pieces)
    return OperatorMatrix(decomp.dimension, n_in, n_out, FOCK, total)


class TestFoldedDecompositionMatrix:
    """decomposition_matrix, which folds each group of terms into one symbol
    and builds one matrix per group, against the per-term sum."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_drawn_symbols(), st.integers(0, 3), st.integers(0, 6), st.booleans())
    def test_against_per_term_oracle(self, a, order, trunc, include_remainder):
        decomp = decompose(a, order)
        got = decomposition_matrix(decomp, trunc, include_remainder)
        want = _per_term_matrix(decomp, trunc, include_remainder)
        n_out = max(got.codomain_degree, want.codomain_degree)
        got, want = got.embedded(n_out).entries, want.embedded(n_out).entries
        scale = max(np.max(np.abs(got), initial=0.0), np.max(np.abs(want), initial=0.0))
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale

    def test_real_quantize_shape_makes_at_most_three_builds(self):
        # the to-wick symbol of four degree-3 Weyl monomials in d = 2, at the
        # order and truncation expand-antiwick uses for it
        b = RealSymbol(2, WEYL, {((2, 0), (1, 0)): 0.7, ((0, 1), (0, 2)): -1.3,
                                 ((1, 1), (0, 1)): 1.1, ((1, 0), (1, 1)): -0.6})
        a = real_to_wick_symbol(b)
        with mock.patch.object(symbols, "_assemble", wraps=symbols._assemble) as assemble:
            deviation = verify_decomposition(a, 2, 8)
        assert assemble.call_count <= 3
        assert deviation <= 1e-12

    def test_empty_decomposition_refused(self):
        a = WickSymbol(1, {((1,), (1,)): 1.0})
        with pytest.raises(UsageError, match="empty decomposition"):
            decomposition_matrix(WickToAntiWickDecomposition(1, 1, [], decompose(a, 1)
                                                             .remainder_terms), 4,
                                 include_remainder=False)
        with pytest.raises(UsageError, match="empty decomposition"):
            decomposition_matrix(WickToAntiWickDecomposition(1, 1, [], []), 4)

    def test_zero_symbol_gives_the_zero_square_matrix(self):
        M = decomposition_matrix(decompose(WickSymbol(2, {}), 2), 3)
        assert (M.domain_degree, M.codomain_degree) == (3, 3)
        assert M.entries.shape == (10, 10) and not M.entries.any()


def _monomials(d, degree):
    from wickops.core import enumerate_basis

    return [a for a in enumerate_basis(d, degree) if a.degree() == degree]


class TestMixedSymbolPipeline:
    def test_random_symbol_full_pipeline(self):
        rng = np.random.default_rng(43)
        terms = {((p,), (q,)): complex(*rng.standard_normal(2))
                 for p in range(3) for q in range(3)}
        a = WickSymbol(1, terms)
        for order in [1, 2, 3]:
            assert verify_decomposition(a, order, 8) <= 1e-9

    def test_two_dimensional_cross_terms(self):
        a = WickSymbol(2, {((1, 1), (1, 0)): 1.0, ((0, 1), (1, 1)): 0.5j})
        assert verify_decomposition(a, 2, 5) <= 1e-10
