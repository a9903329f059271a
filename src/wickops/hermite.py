"""Real-side calculus: Hermite function evaluation, analysis/synthesis,
ladder operators and the harmonic-oscillator (Hermite) operator.

The L2-normalized Hermite functions are evaluated through the forward-stable
three-term recurrence

    h_0(t) = pi^{-1/4} e^{-t^2/2}
    h_{n+1}(t) = sqrt(2/(n+1)) t h_n(t) - sqrt(n/(n+1)) h_{n-1}(t)

and tensorized over coordinates, h_a(x) = prod_j h_{a_j}(x_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    HERMITE,
    MAX_POWER_ENTRIES,
    MAX_QUAD_NODES,
    CoefficientExpansion,
    InputDataError,
    MultiIndex,
    UsageError,
    _basis_array,
    _tensor_nodes,
    enumerate_basis,
    gauss_hermite,
    table_sum,
    tensor_rule,
)

CREATION = "creation"
ANNIHILATION = "annihilation"


@dataclass(frozen=True)
class LadderKind:
    """One ladder factor: creation A = -d/dx + x or annihilation A+ = d/dx + x,
    acting in a single coordinate."""

    kind: str
    coordinate: int = 0

    def __post_init__(self):
        if self.kind not in (CREATION, ANNIHILATION):
            raise UsageError(f"ladder kind must be '{CREATION}' or '{ANNIHILATION}'")
        if self.coordinate < 0:
            raise UsageError("ladder coordinate must be non-negative")


def hermite_values_1d(n_max: int, t) -> np.ndarray:
    """Table of h_0(t) .. h_{n_max}(t); shape (n_max + 1,) + t.shape.  Over
    MAX_POWER_ENTRIES entries, one per degree at least, it is refused."""
    t = np.asarray(t, dtype=float)
    size = (n_max + 1) * max(t.size, 1)
    if size > MAX_POWER_ENTRIES:
        raise UsageError(f"Hermite functions of degree <= {n_max} at {t.size} points take {size} "
                         f"entries, over the budget of {MAX_POWER_ENTRIES}; lower the degree")
    out = np.empty((n_max + 1,) + t.shape)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * t**2)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * t * out[0]
    for n in range(1, n_max):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * t * out[n]
                      - math.sqrt(n / (n + 1)) * out[n - 1])
    return out


def hermite_function(alpha, x) -> float:
    """Value of the d-dimensional Hermite function h_alpha at the point x."""
    alpha = MultiIndex(alpha)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(alpha) != x.shape[-1]:
        raise UsageError(f"index length {len(alpha)} != point dimension {x.shape[-1]}")
    value = 1.0
    for j, n in enumerate(alpha):
        value = value * hermite_values_1d(n, x[..., j])[n]
    return value


def _sample(f, points) -> np.ndarray:
    """Values of a vectorized callback on an (n, d) array of quadrature
    points; a result that is not n values is a UsageError."""
    vals = np.asarray(f(points), dtype=complex)
    if vals.shape != (points.shape[0],):
        raise UsageError(f"a callback on {points.shape[0]} points must return shape "
                         f"({points.shape[0]},), got {vals.shape}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise InputDataError(
            f"non-finite sample value at quadrature node {points[bad[0]].tolist()}")
    return vals


def hermite_coefficients(f, dimension: int, degree_bound: int,
                         quad_order: int | None = None) -> CoefficientExpansion:
    """Hermite coefficients c_a = integral f(x) h_a(x) dx for |a| <= degree_bound.

    f is a vectorized callback, taking an (n, d) array of points and
    returning n values, sampled at the nodes of a tensor Gauss-Hermite rule, or
    a hermite-side CoefficientExpansion, synthesized on the same nodes axis
    by axis.  Either way the coefficients are the quadrature of the samples:
    the e^{-|x|^2} weight is folded back in per coordinate, by contracting
    each axis with h_n(x_j) w_j e^{x_j^2}.  Exact (to round-off) whenever f
    is a polynomial times e^{-|x|^2/2} within the rule's degree of
    exactness; past it the coefficients alias, and accuracy degrades for
    slowly decaying f since no resampling is done.
    """
    if degree_bound < 0:
        raise UsageError(f"degree bound must be >= 0, got {degree_bound}")
    if quad_order is None:
        quad_order = degree_bound + 20
    if quad_order < degree_bound + 1:
        raise UsageError(
            f"quad_order {quad_order} too small for degree bound {degree_bound}")
    rule = gauss_hermite(quad_order)
    if isinstance(f, CoefficientExpansion):
        if f.side != HERMITE or f.dimension != dimension:
            raise UsageError(f"expected a hermite-side expansion in dimension {dimension}, "
                             f"got a {f.side}-side one in dimension {f.dimension}")
        _tensor_nodes(quad_order, dimension, "a tensor rule")
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            block = _tensor_values(f, rule.nodes)
        if not np.all(np.isfinite(block)):
            raise InputDataError("the expansion overflows at the quadrature nodes")
    else:
        points, _ = tensor_rule(rule, dimension)
        block = _sample(f, points).reshape((quad_order,) * dimension)
    # h_a is a product over coordinates and the rule a tensor product, so all
    # the sums are one contraction with the folded 1-d table per axis; each
    # pass moves the contracted axis to the end, leaving block[a_1, ..., a_d]
    table = _folded_table(degree_bound, quad_order)
    for _ in range(dimension):
        block = np.tensordot(block, table, axes=([0], [1]))
    values = block[tuple(_basis_array(dimension, degree_bound).T)]
    return CoefficientExpansion(dimension, HERMITE,
                                dict(zip(enumerate_basis(dimension, degree_bound),
                                         values.tolist())))


# Each table holds (degree_bound + 1) x order <= MAX_QUAD_ORDER^2 floats, which
# is 8 MB, so the cache holds at most 32 MB.
@lru_cache(maxsize=4)
def _folded_table(degree_bound: int, order: int) -> np.ndarray:
    """The (degree_bound + 1, order) table h_n(x_j) w_j e^{x_j^2} of the
    order-point Gauss-Hermite rule.  It is cached per (degree, order) and
    shared by every caller, so it is read-only."""
    rule = gauss_hermite(order)
    table = hermite_values_1d(degree_bound, rule.nodes) * (rule.weights * np.exp(rule.nodes**2))
    table.flags.writeable = False
    return table


def _tensor_values(f: CoefficientExpansion, nodes_1d) -> np.ndarray:
    """Values of sum c_a h_a on the tensor grid nodes_1d^d, as an array of
    shape (len(nodes_1d),) * d.

    h_a is a product over coordinates, so the coefficients are scattered
    into an (N+1)^d block and each axis is contracted with the 1-d table
    h_0 .. h_N; no (terms x points) table is built.  Blocks over the
    budgets of _tensor_nodes are refused, which with a grid inside the same
    budgets bounds every intermediate.
    """
    d, n = f.dimension, f.degree_bound
    _tensor_nodes(n + 1, d, f"the coefficient block of degree {n}")
    block = np.zeros((n + 1,) * d, dtype=complex)
    if f.coeffs:
        block[tuple(np.array(list(f.coeffs)).T)] = list(f.coeffs.values())
    table = hermite_values_1d(n, nodes_1d)
    for _ in range(d):
        block = np.tensordot(block, table, axes=([0], [0]))
    return block


def synthesize(f: CoefficientExpansion, x):
    """Pointwise sum c_a h_a(x); x may be a single point (d,) or a batch (n, d)."""
    if f.side != HERMITE:
        raise UsageError("synthesize expects a hermite-side expansion")
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != f.dimension:
        raise UsageError(f"point dimension {pts.shape[-1]} != expansion dimension {f.dimension}")
    tables = [hermite_values_1d(f.degree_bound, pts[:, j]).T for j in range(f.dimension)]
    total = table_sum(list(f.coeffs.values()), list(f.coeffs), tables)
    return complex(total[0]) if single else total


def apply_ladder(f: CoefficientExpansion, op: LadderKind) -> CoefficientExpansion:
    """Apply one creation/annihilation factor in coefficient space.

    Creation in coordinate j sends the h_a term to sqrt(2(a_j + 1)) h_{a+e_j};
    annihilation to sqrt(2 a_j) h_{a-e_j} (zero on the vacuum).
    """
    if f.side != HERMITE:
        raise UsageError("ladder operators act on hermite-side expansions")
    if op.coordinate >= f.dimension:
        raise UsageError(f"coordinate {op.coordinate} out of range for dimension {f.dimension}")
    e_j = MultiIndex.unit(f.dimension, op.coordinate)
    out = {}
    for alpha, c in f.coeffs.items():
        n = alpha[op.coordinate]
        if op.kind == CREATION:
            target = alpha + e_j
            out[target] = out.get(target, 0.0) + math.sqrt(2.0 * (n + 1)) * c
        else:
            if n == 0:
                continue
            target = alpha - e_j
            out[target] = out.get(target, 0.0) + math.sqrt(2.0 * n) * c
    return CoefficientExpansion(f.dimension, HERMITE, out)


def apply_hermite_operator(f: CoefficientExpansion) -> CoefficientExpansion:
    """Apply R = -Laplacian + |x|^2: the h_a term picks up the factor 2|a| + d."""
    if f.side != HERMITE:
        raise UsageError("the Hermite operator acts on hermite-side expansions")
    d = f.dimension
    return CoefficientExpansion(
        d, HERMITE, {a: (2 * a.degree() + d) * c for a, c in f.coeffs.items()})


# Points per axis of norm_growth_probe's default box grid.
_PROBE_POINTS = 201


def norm_growth_probe(f: CoefficientExpansion, n_max: int,
                      grid: np.ndarray | None = None) -> np.ndarray:
    """Grid sup-norms of R^N f for N = 0 .. n_max.

    R is applied in coefficient space (eigenvalue 2|a| + d per term) and each
    iterate is synthesized on the grid; the result feeds fit_norm_growth.
    The default grid is the box [-L, L]^d with L at the classical
    turning-point radius of the highest iterate, where Hermite mass
    concentrates, sampled axis by axis; a given (n, d) grid goes through
    synthesize.  A default grid or coefficient block over the budgets of
    _tensor_nodes, and more than MAX_QUAD_NODES samples in all, are refused
    before the radius is computed or any sample is taken.
    """
    if f.side != HERMITE:
        raise UsageError("norm_growth_probe expects a hermite-side expansion")
    if n_max < 0:
        raise UsageError(f"n_max must be >= 0, got {n_max}")
    if grid is None:
        n_points = _tensor_nodes(_PROBE_POINTS, f.dimension, "the probe grid")
        _tensor_nodes(f.degree_bound + 1, f.dimension,
                      f"the coefficient block of degree {f.degree_bound}")
    else:
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        n_points = grid.shape[0]
    if (n_max + 1) * n_points > MAX_QUAD_NODES:
        raise UsageError(f"the probe samples {n_max + 1} iterates on {n_points} points, over "
                         f"the budget of {MAX_QUAD_NODES} samples; lower n_max or pass a "
                         f"smaller grid")
    if grid is None:
        L = math.sqrt(4.0 * n_max + 2.0 * f.degree_bound + 2.0)
        axis = np.linspace(-L, L, _PROBE_POINTS)
        sample = lambda g: _tensor_values(g, axis)  # noqa: E731
    else:
        sample = lambda g: synthesize(g, grid)  # noqa: E731
    sups = np.empty(n_max + 1)
    iterate = f
    for n in range(n_max + 1):
        sups[n] = np.max(np.abs(sample(iterate)), initial=0.0)
        iterate = apply_hermite_operator(iterate)
    return sups
