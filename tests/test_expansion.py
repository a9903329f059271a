import math
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickops import symbols
from wickops.core import FOCK, MultiIndex, UsageError, enumerate_basis
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

    def test_zsquared_conjwsquared_at_first_order(self):
        # derivative 4 z conj(w); k = 0 keeps it, k = 1 adds 4 * 1/2
        a = WickSymbol(1, {((2,), (2,)): 1.0})
        b = remainder_symbol(a, (1,))
        assert b.terms == {((1,), (1,)): pytest.approx(4.0), ((0,), (0,)): pytest.approx(2.0)}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_closed_form_against_substitution_route(self, data):
        # z- and conj(w)-degrees up to 5 each; most exponents dominate alpha,
        # so the derivative keeps terms
        d = data.draw(st.integers(1, 3))
        alpha = data.draw(st.sampled_from([al for al in enumerate_basis(d, 4) if al.degree() >= 1]))
        slot = st.one_of(st.sampled_from(enumerate_basis(d, 5 - alpha.degree())).map(alpha.__add__),
                         st.sampled_from(enumerate_basis(d, 5)))
        keys = data.draw(st.lists(st.tuples(slot, slot), min_size=1, max_size=6, unique=True))
        a = WickSymbol(d, {key: data.draw(st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)))
                           for key in keys})
        got = remainder_symbol(a, alpha).terms
        want = _substitution_remainder(a, alpha)
        scale = max(abs(c) for c in want.values()) if want else 0.0
        assert set(got) <= set(want)
        for key, c in want.items():
            assert abs(got.get(key, 0.0) - c) <= 1e-13 * scale


def _substitution_remainder(a, alpha):
    """b_alpha by the defining integral, term by term: substitute the first
    slot w + t(z - w), expand in t, integrate each t-power by the Beta value
    |al| int (1-t)^{|al|-1} t^k dt = k! |al|! / (k + |al|)!, and normal-order
    the holomorphic w-factors z^p w^q conj(w)^r by [d, z] = 1."""
    alpha = MultiIndex(alpha)
    m = alpha.degree()
    triples = {}
    for (A, B), c in a.derivative(alpha, alpha).terms.items():
        # (w + t(z-w))^A = sum_j binom(A,j) t^|j| (z-w)^j w^{A-j}
        for j in product(*(range(aj + 1) for aj in A)):
            j = MultiIndex(j)
            weight = math.factorial(j.degree()) * math.factorial(m) / math.factorial(j.degree() + m)
            weight *= math.prod(math.comb(aj, jj) for aj, jj in zip(A, j))
            # (z-w)^j = sum_{l <= j} binom(j,l) z^l (-w)^{j-l}
            for l in product(*(range(jj + 1) for jj in j)):
                l = MultiIndex(l)
                sign = (-1) ** (j.degree() - l.degree())
                binom = math.prod(math.comb(jj, lj) for jj, lj in zip(j, l))
                key = (l, A - l, B)
                triples[key] = triples.get(key, 0.0) + c * weight * binom * sign
    out = {}
    for (p, q, r), c in triples.items():
        # d^r z^q = sum_k binom(r,k) q!/(q-k)! z^{q-k} d^{r-k}
        for k in product(*(range(min(qj, rj) + 1) for qj, rj in zip(q, r))):
            k = MultiIndex(k)
            factor = math.prod(math.comb(rj, kj) * math.perm(qj, kj)
                               for qj, rj, kj in zip(q, r, k))
            key = (p + (q - k), r - k)
            out[key] = out.get(key, 0.0) + c * factor
    return out


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
        assert verify_decomposition(a, decomp, 8) <= 1e-10

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
        assert verify_decomposition(a, decompose(a, 1), 8) <= 1e-12

    def test_constant_symbol_exact(self):
        a = WickSymbol(1, {((0,), (0,)): 1.0})
        for order in [1, 2, 3]:
            assert verify_decomposition(a, decompose(a, order), 6) == 0.0

    def test_remainder_active_regime(self):
        a = WickSymbol(1, {((2,), (2,)): 1.0})
        assert verify_decomposition(a, decompose(a, 1), 8) <= 1e-10

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
                    assert verify_decomposition(a, decomp, trunc) <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_drawn_symbols(), st.integers(0, 3), st.integers(0, 6))
    def test_identity_at_drawn_orders_and_truncations(self, a, order, trunc):
        scale = max(1.0, np.max(np.abs(wick_matrix(a, trunc).entries), initial=0.0))
        assert verify_decomposition(a, decompose(a, order), trunc) <= 1e-12 * scale

    @pytest.mark.parametrize("d,order", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_identity_with_normal_ordered_remainders(self, d, order):
        # a remainder term with k >= 1 in the closed form needs z- and
        # conj(w)-degrees above |alpha| = order + 1, so degree >= 2 order + 4
        rng = np.random.default_rng(23 + 10 * d + order)
        keys = [key for key in enumerate_symbol_keys(d, 2 * order + 4)
                if key[0].degree() > order + 1 and key[1].degree() > order + 1]
        a = WickSymbol(d, {key: complex(*rng.standard_normal(2)) for key in keys})
        decomp = decompose(a, order)
        # the k >= 1 terms lower both degrees, below what the derivative keeps
        assert any(p.degree() + q.degree() < a.total_degree - 2 * (order + 1)
                   for t in decomp.remainder_terms for p, q in t.symbol.terms)
        trunc = 6 if d == 2 else 10
        scale = np.max(np.abs(wick_matrix(a, trunc).entries))
        assert verify_decomposition(a, decomp, trunc) <= 1e-12 * scale

    def test_remainder_necessity(self):
        # dropping an active remainder breaks the identity; keeping it restores it
        a = WickSymbol(1, {((2,), (2,)): 1.0})
        decomp = decompose(a, 1)
        assert any(t.symbol.terms for t in decomp.remainder_terms)
        lhs = wick_matrix(a, 8)
        rhs_full = decomposition_matrix(decomp, 8)
        rhs_dropped = decomposition_matrix(replace(decomp, remainder_terms=[]), 8)
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


def _per_term_matrix(decomp, n_in):
    """The decomposition's matrix term by term: one matrix per term, each
    embedded into the common codomain and added with its coefficient."""
    pieces = [(t.coefficient, antiwick_matrix(t.symbol, n_in)) for t in decomp.main_terms]
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
        if not include_remainder:
            decomp = replace(decomp, remainder_terms=[])
        got = decomposition_matrix(decomp, trunc)
        want = _per_term_matrix(decomp, trunc)
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
            deviation = verify_decomposition(a, decompose(a, 2), 8)
        assert assemble.call_count <= 3
        assert deviation <= 1e-12

    def test_empty_decomposition_refused(self):
        with pytest.raises(UsageError, match="empty decomposition"):
            decomposition_matrix(WickToAntiWickDecomposition(1, 1, [], []), 4)

    def test_zero_symbol_gives_the_zero_square_matrix(self):
        M = decomposition_matrix(decompose(WickSymbol(2, {}), 2), 3)
        assert (M.domain_degree, M.codomain_degree) == (3, 3)
        assert M.entries.shape == (10, 10) and not M.entries.any()


def _monomials(d, degree):
    return [a for a in enumerate_basis(d, degree) if a.degree() == degree]


class TestMixedSymbolPipeline:
    def test_random_symbol_full_pipeline(self):
        rng = np.random.default_rng(43)
        terms = {((p,), (q,)): complex(*rng.standard_normal(2))
                 for p in range(3) for q in range(3)}
        a = WickSymbol(1, terms)
        for order in [1, 2, 3]:
            assert verify_decomposition(a, decompose(a, order), 8) <= 1e-9

    def test_two_dimensional_cross_terms(self):
        a = WickSymbol(2, {((1, 1), (1, 0)): 1.0, ((0, 1), (1, 1)): 0.5j})
        assert verify_decomposition(a, decompose(a, 2), 5) <= 1e-10
