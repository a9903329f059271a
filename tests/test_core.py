import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickops.core import (
    FOCK,
    HERMITE,
    MAX_QUAD_ORDER,
    CoefficientExpansion,
    MultiIndex,
    NumericalError,
    UsageError,
    _basis_array,
    _rank_table,
    _tensor_grid,
    basis_size,
    enumerate_basis,
    expansion_inner,
    gauss_hermite,
    grlex_key,
    tensor_rule,
)
from wickops.analysis import default_diag_grid
from wickops.symbols import pair_grid


class TestMultiIndex:
    def test_degree_and_factorial(self):
        a = MultiIndex((2, 3, 0))
        assert a.degree() == 5
        assert a.factorial() == 12

    def test_negative_entry_rejected(self):
        for entries in [(1, -1), [1, -1], (-2,)]:
            with pytest.raises(UsageError):
                MultiIndex(entries)

    def test_componentwise_arithmetic(self):
        assert MultiIndex((2, 1)) + MultiIndex((0, 3)) == (2, 4)
        assert MultiIndex((2, 1)) - MultiIndex((1, 1)) == (1, 0)
        for a, b in [((0, 1), (1, 0)), ((1,), (2,))]:
            with pytest.raises(UsageError):
                MultiIndex(a) - MultiIndex(b)
        for op in (MultiIndex.__add__, MultiIndex.__sub__):
            with pytest.raises(UsageError):
                op(MultiIndex((1, 1)), MultiIndex((1,)))
            with pytest.raises(UsageError):
                op(MultiIndex((1,)), (0, 0))

    def test_dominates(self):
        assert MultiIndex((2, 1)).dominates((2, 0))
        assert not MultiIndex((2, 1)).dominates((0, 2))
        assert not MultiIndex((2, 1)).dominates((1,))
        assert not MultiIndex((2,)).dominates((1, 0))

    def test_entries_become_ints(self):
        a = MultiIndex((1.0, 2))
        assert a == (1, 2)
        assert all(type(e) is int for e in a)
        assert all(type(e) is int for e in MultiIndex((1, 2)) + MultiIndex((0, 3)))
        assert MultiIndex(()) == ()

    def test_graded_lex_order(self):
        assert MultiIndex((1, 0)) < MultiIndex((0, 1))
        assert MultiIndex((0, 2)) < MultiIndex((3, 0))
        assert MultiIndex((2, 0)) < MultiIndex((1, 1)) < MultiIndex((0, 2))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 3).flatmap(
        lambda d: st.tuples(*[st.lists(st.integers(0, 3), min_size=d, max_size=d)] * 2)))
    def test_every_comparison_is_graded_lex(self, pair):
        # MultiIndex subclasses tuple: a comparison it did not define would
        # fall back to lexicographic order without a word
        a, b = map(MultiIndex, pair)
        ka, kb = grlex_key(a), grlex_key(b)
        assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)


class TestEnumerateBasis:
    def test_1d_grading(self):
        assert enumerate_basis(1, 2) == ((0,), (1,), (2,))

    def test_2d_degree_one(self):
        assert enumerate_basis(2, 1) == ((0, 0), (1, 0), (0, 1))

    def test_2d_degree_two_count(self):
        assert len(enumerate_basis(2, 2)) == 6

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 5, 16])
    def test_count_and_strict_increase(self, d, n):
        basis = enumerate_basis(d, n)
        assert len(basis) == math.comb(n + d, d)
        keys = [grlex_key(a) for a in basis]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))

    def test_prefix_property(self):
        short = enumerate_basis(3, 4)
        long = enumerate_basis(3, 7)
        assert long[: len(short)] == short

    @pytest.mark.parametrize("d, n", [(1, 0), (1, 24), (3, 6)])
    def test_basis_array_is_the_basis_and_read_only(self, d, n):
        cols = _basis_array(d, n)
        assert _basis_array(d, n) is cols
        assert cols.shape == (math.comb(n + d, d), d)
        assert np.array_equal(cols, np.array(enumerate_basis(d, n)))
        with pytest.raises(ValueError):
            cols[0, 0] = 1


class TestBasisSizeAndRank:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(11))
    def test_size_is_the_basis_length(self, d, n):
        assert basis_size(d, n) == len(enumerate_basis(d, n))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10), st.integers(0, 4))
    def test_rank_table_gives_each_enumerated_position(self, d, n, extra):
        # rows of degree <= n ranked with the table of a larger top, as
        # matrix assembly does for its codomain
        basis = np.array(enumerate_basis(d, n)).reshape(-1, d)
        suffix = np.cumsum(basis[:, ::-1], axis=1)[:, ::-1]
        ranks = _rank_table(d, n + extra)[suffix, np.arange(d)].sum(axis=1)
        assert ranks.tolist() == list(range(len(basis)))

    def test_rank_table_is_read_only(self):
        with pytest.raises(ValueError):
            _rank_table(3, 4)[1, 1] = 0

    @pytest.mark.parametrize("cached", [enumerate_basis, _basis_array, _rank_table])
    def test_basis_caches_are_bounded(self, cached):
        assert cached.cache_info().maxsize is not None


def _meshgrid_points(values, d):
    """The tensor grid as tensor_rule and default_diag_grid once built it."""
    grids = np.meshgrid(*([values] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _indices_pairs(d, radius, points_per_axis):
    """pair_grid's arrays as it once built them."""
    axis = np.linspace(-radius, radius, points_per_axis)
    values = np.empty((points_per_axis, points_per_axis), dtype=complex)
    values.real, values.imag = axis[:, None], axis[None, :]
    choice = np.indices((points_per_axis**2,) * d).reshape(d, -1).T
    singles = values.ravel()[choice]
    return np.repeat(singles, len(singles), axis=0), np.tile(singles, (len(singles), 1))


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestTensorGrid:
    """_tensor_grid against itertools.product, and the three grids built on
    it against the constructions they replaced, bit for bit."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=5), st.integers(1, 4),
           st.sampled_from([float, complex]))
    def test_every_tuple_in_product_order(self, values, d, dtype):
        values = np.array(values, dtype=dtype)
        want = np.array(list(itertools.product(values, repeat=d)), dtype=dtype)
        _assert_same_bytes(_tensor_grid(values, d, "a grid"), want)

    @pytest.mark.parametrize("order, d", [(1, 1), (7, 1), (26, 3), (5, 4), (2, 6), (1, 32)])
    def test_tensor_rule_points(self, order, d):
        rule = gauss_hermite(order)
        _assert_same_bytes(tensor_rule(rule, d)[0], _meshgrid_points(rule.nodes, d))

    @pytest.mark.parametrize("d", [33, 64])
    def test_tensor_rule_past_32_coordinates(self, d):
        # np.meshgrid broadcasts at most 32 arrays: a RuntimeError traceback
        points, weights = tensor_rule(gauss_hermite(1), d)
        assert points.shape == (1, d) and not points.any()
        assert weights.shape == (1,) and math.isclose(weights[0], math.pi ** (d / 2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_default_diag_grid(self, d):
        polar = default_diag_grid(1)[:, 0]
        coarse = polar[:: max(1, len(polar) // 40)]
        _assert_same_bytes(default_diag_grid(d), _meshgrid_points(coarse, d))

    @pytest.mark.parametrize("d, radius, points_per_axis",
                             [(1, 4.0, 7), (1, 2.5, 1), (2, 4.0, 3), (2, 1.5, 4), (3, 1.0, 2)])
    def test_pair_grid(self, d, radius, points_per_axis):
        for got, want in zip(pair_grid(d, radius, points_per_axis),
                             _indices_pairs(d, radius, points_per_axis)):
            _assert_same_bytes(got, want)

    def test_refusals_name_the_grid(self):
        with pytest.raises(UsageError, match="^the diagonal grid in dimension 4 has 2825761 "
                                             "points, over the budget of 1000000"):
            default_diag_grid(4)
        with pytest.raises(UsageError, match="^a grid in dimension 65 is over the budget of 64"):
            pair_grid(65, 4.0, 1)
        with pytest.raises(UsageError, match="^a tensor rule in dimension 2 has 1002001 points"):
            _tensor_grid(np.zeros(1001), 2, "a tensor rule")


def double_factorial_moment(k):
    """integral x^k e^{-x^2} dx: 0 for odd k, sqrt(pi) (k-1)!! / 2^{k/2} for even."""
    if k % 2 == 1:
        return 0.0
    return math.sqrt(math.pi) * math.prod(range(1, k, 2)) / 2 ** (k // 2)


class TestGaussHermite:
    def test_order_one(self):
        rule = gauss_hermite(1)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([math.sqrt(math.pi)])

    def test_order_two_nodes(self):
        # moment equations for a symmetric 2-point rule: w0 = w1 = sqrt(pi)/2,
        # 2 w x^2 = sqrt(pi)/2 -> x = 1/sqrt(2)
        rule = gauss_hermite(2)
        assert sorted(rule.nodes) == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert rule.weights == pytest.approx([math.sqrt(math.pi) / 2] * 2)

    def test_second_moment_order_five(self):
        rule = gauss_hermite(5)
        value = float(np.sum(rule.weights * rule.nodes**2))
        assert value == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-14)

    def test_weight_sum_and_symmetry(self):
        rule = gauss_hermite(13)
        assert float(np.sum(rule.weights)) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
        assert np.allclose(np.sort(rule.nodes), -np.sort(-rule.nodes)[::-1])

    @pytest.mark.parametrize("order", [1, 3, 6, 10])
    def test_exact_on_monomials(self, order):
        rule = gauss_hermite(order)
        for k in range(2 * order):
            approx = float(np.sum(rule.weights * rule.nodes**k))
            exact = double_factorial_moment(k)
            # scale for roundoff in the alternating sum of large summands
            scale = max(1.0, float(np.sum(rule.weights * np.abs(rule.nodes) ** k)))
            assert abs(approx - exact) <= 1e-12 * scale

    def test_cached_rule_is_read_only(self):
        rule = gauss_hermite(20)
        assert gauss_hermite(20) is rule
        for array in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array *= 2.0
        # a caller's failed writes leave every later call with the exact rule
        nodes, weights = np.polynomial.hermite.hermgauss(20)
        again = gauss_hermite(20)
        assert np.array_equal(again.nodes, nodes) and np.array_equal(again.weights, weights)

    def test_orders_without_a_finite_rule_are_refused(self):
        # hermgauss's float64 weights turn NaN from order 372 on
        assert np.all(np.isfinite(gauss_hermite(371).weights))
        with pytest.raises(NumericalError, match="not finite"):
            gauss_hermite(372)
        with pytest.raises(UsageError, match=str(MAX_QUAD_ORDER)):
            gauss_hermite(MAX_QUAD_ORDER + 1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tensor_rule_is_the_indexed_product(self, d):
        # the outer-product weights are bitwise the per-node product over a
        # gathered index grid, and points vary the last coordinate fastest
        rule = gauss_hermite(7)
        points, weights = tensor_rule(rule, d)
        grids = np.meshgrid(*([np.arange(7)] * d), indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=1)
        assert np.array_equal(points, rule.nodes[idx])
        assert np.array_equal(weights, np.prod(rule.weights[idx], axis=1))

    def test_tensor_rule_integrates_product(self):
        rule = gauss_hermite(6)
        points, weights = tensor_rule(rule, 2)
        approx = float(np.sum(weights * points[:, 0] ** 2 * points[:, 1] ** 4))
        assert approx == pytest.approx(
            double_factorial_moment(2) * double_factorial_moment(4), rel=1e-12)


class TestExpansionInner:
    def test_orthonormality(self):
        e0 = CoefficientExpansion(1, FOCK, {(0,): 1.0})
        e1 = CoefficientExpansion(1, FOCK, {(1,): 1.0})
        assert expansion_inner(e0, e0) == 1
        assert expansion_inner(e0, e1) == 0

    def test_sesquilinear_evaluation(self):
        f = CoefficientExpansion(1, FOCK, {(0,): 2.0, (1,): 1j})
        e1 = CoefficientExpansion(1, FOCK, {(1,): 1.0})
        assert expansion_inner(f, e1) == 1j
        assert expansion_inner(e1, f) == -1j

    def test_side_mismatch(self):
        f = CoefficientExpansion(1, FOCK, {(0,): 1.0})
        g = CoefficientExpansion(1, HERMITE, {(0,): 1.0})
        with pytest.raises(UsageError):
            expansion_inner(f, g)

    def test_dimension_mismatch(self):
        f = CoefficientExpansion(1, FOCK, {(0,): 1.0})
        g = CoefficientExpansion(2, FOCK, {(0, 0): 1.0})
        with pytest.raises(UsageError):
            expansion_inner(f, g)

    def test_positive_definite_on_random_expansions(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(8)}
            f = CoefficientExpansion(1, FOCK, coeffs)
            ip = expansion_inner(f, f)
            assert ip.imag == pytest.approx(0.0, abs=1e-14)
            assert ip.real > 0
            assert ip.real == pytest.approx(f.norm_squared())


class TestCoefficientExpansionContainer:
    def test_key_length_validated(self):
        with pytest.raises(UsageError):
            CoefficientExpansion(2, HERMITE, {(1,): 1.0})

    def test_json_round_trip(self):
        f = CoefficientExpansion(2, HERMITE, {(1, 0): 1 + 2j, (0, 2): -0.5})
        g = CoefficientExpansion.from_json_dict(f.to_json_dict())
        assert g.dimension == 2 and g.side == HERMITE
        assert g.coeffs == f.coeffs

    def test_degree_bound(self):
        f = CoefficientExpansion(1, HERMITE, {(0,): 1.0, (7,): 0.1})
        assert f.degree_bound == 7

    def test_repr(self):
        f = CoefficientExpansion(2, HERMITE, {(1, 0): 1.0, (0, 3): 2.0})
        assert repr(f) == ("CoefficientExpansion(dimension=2, side='hermite', terms=2, "
                           "degree_bound=3)")

    def test_multi_index_key_kept_as_is(self):
        alpha = MultiIndex((1, 2))
        f = CoefficientExpansion(2, HERMITE, {alpha: 1.0, (0, 1): 2.0})
        kept, wrapped = list(f.coeffs)
        assert kept is alpha
        assert type(wrapped) is MultiIndex and wrapped == (0, 1)
        with pytest.raises(UsageError):
            CoefficientExpansion(3, HERMITE, {alpha: 1.0})
