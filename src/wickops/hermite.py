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

import numpy as np

from .core import (
    HERMITE,
    CalculusError,
    CoefficientExpansion,
    InputDataError,
    MultiIndex,
    UsageError,
    enumerate_basis,
    gauss_hermite,
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
    """Table of h_0(t) .. h_{n_max}(t); shape (n_max + 1,) + t.shape."""
    t = np.asarray(t, dtype=float)
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
    """Evaluate a callback at quadrature points, accepting either a vectorized
    callback over an (n, d) array or a per-point callable.  A CalculusError
    from the callback is its answer, not a sign that it is per-point."""
    try:
        vals = np.asarray(f(points), dtype=complex)
        if vals.shape != (points.shape[0],):
            raise ValueError
    except CalculusError:
        raise
    except Exception:
        vals = np.array([complex(f(p)) for p in points])
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise InputDataError(
            f"non-finite sample value at quadrature node {points[bad[0]].tolist()}")
    return vals


def hermite_coefficients(f, dimension: int, degree_bound: int,
                         quad_order: int | None = None) -> CoefficientExpansion:
    """Hermite coefficients c_a = integral f(x) h_a(x) dx for |a| <= degree_bound.

    The integral is computed with a tensor Gauss-Hermite rule by folding the
    e^{-|x|^2} weight: samples of f * h_a are multiplied by e^{|x|^2} at the
    nodes.  Exact (to round-off) whenever f is a polynomial times
    e^{-|x|^2/2} within the rule's degree of exactness; accuracy degrades for
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
    points, weights = tensor_rule(rule, dimension)
    fvals = _sample(f, points)
    # fold the Gaussian weight back in: integrand = f * h_a * e^{|x|^2} * e^{-|x|^2}
    base = weights * fvals * np.exp(np.sum(points**2, axis=1))
    # h_a is a product over coordinates and the rule a tensor product, so all
    # the sums are one contraction with the 1-d table per axis; each pass
    # moves the contracted axis to the end, leaving block[a_1, ..., a_d]
    table = hermite_values_1d(degree_bound, rule.nodes)
    block = base.reshape((quad_order,) * dimension)
    for _ in range(dimension):
        block = np.tensordot(block, table, axes=([0], [1]))
    basis = enumerate_basis(dimension, degree_bound)
    values = block[tuple(np.array(basis).T)]
    return CoefficientExpansion(dimension, HERMITE, dict(zip(basis, values)))


def synthesize(f: CoefficientExpansion, x):
    """Pointwise sum c_a h_a(x); x may be a single point (d,) or a batch (n, d)."""
    if f.side != HERMITE:
        raise UsageError("synthesize expects a hermite-side expansion")
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != f.dimension:
        raise UsageError(f"point dimension {pts.shape[-1]} != expansion dimension {f.dimension}")
    n_max = f.degree_bound
    tables = [hermite_values_1d(n_max, pts[:, j]) for j in range(f.dimension)]
    total = np.zeros(pts.shape[0], dtype=complex)
    for alpha, c in f.coeffs.items():
        h = np.ones(pts.shape[0])
        for j, n in enumerate(alpha):
            h = h * tables[j][n]
        total += c * h
    if single:
        return complex(total[0])
    return total


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


def default_probe_grid(dimension: int, n_max: int, degree_bound: int,
                       points_per_axis: int = 201) -> np.ndarray:
    """Box grid [-L, L]^d with L at the classical turning-point radius for the
    highest iterate; Hermite mass concentrates inside it."""
    L = math.sqrt(4.0 * n_max + 2.0 * degree_bound + 2.0)
    axis = np.linspace(-L, L, points_per_axis)
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def norm_growth_probe(f: CoefficientExpansion, n_max: int,
                      grid: np.ndarray | None = None) -> np.ndarray:
    """Grid sup-norms of R^N f for N = 0 .. n_max.

    R is applied in coefficient space (eigenvalue 2|a| + d per term) and each
    iterate is synthesized on the grid; the result feeds fit_norm_growth.
    """
    if f.side != HERMITE:
        raise UsageError("norm_growth_probe expects a hermite-side expansion")
    if grid is None:
        grid = default_probe_grid(f.dimension, n_max, f.degree_bound)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    n_deg = f.degree_bound
    tables = [hermite_values_1d(n_deg, grid[:, j]) for j in range(f.dimension)]
    rows = []
    eigs = []
    cs = []
    for alpha, c in f.coeffs.items():
        h = np.ones(grid.shape[0])
        for j, n in enumerate(alpha):
            h = h * tables[j][n]
        rows.append(h)
        eigs.append(2 * alpha.degree() + f.dimension)
        cs.append(c)
    if not rows:
        return np.zeros(n_max + 1)
    H = np.array(rows)
    eigs = np.array(eigs, dtype=float)
    cs = np.array(cs, dtype=complex)
    sups = np.empty(n_max + 1)
    for n in range(n_max + 1):
        vals = (cs * eigs**n) @ H
        sups[n] = np.max(np.abs(vals))
    return sups
