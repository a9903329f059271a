"""The Bargmann transform in both realizations (coefficient relabeling and
kernel integral), Fock-side evaluation, and quadrature oracles over the
Gaussian-weighted complex plane.

Two pairings on C^d are used and deliberately kept apart:

  * bilinear  <z, w> = sum z_j w_j          (Bargmann kernel)
  * sesquilinear (z, w) = sum z_j conj(w_j) (Fock inner products, Wick kernels)

Conflating them silently corrupts every kernel, so each function documents
which one it uses.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .core import (
    FOCK,
    HERMITE,
    MAX_QUAD_NODES,
    MAX_QUAD_ORDER,
    CoefficientExpansion,
    UsageError,
    _check_powers,
    gauss_hermite,
    table_sum,
    tensor_rule,
)
from .hermite import _sample


class AccuracyWarning(UserWarning):
    """A quadrature rule is too coarse for its integrand: the order is too
    low for the polynomial degrees present, or the integrand's peak lies
    outside the nodes."""


def _as_complex_vector(z) -> np.ndarray:
    return np.atleast_1d(np.asarray(z, dtype=complex))


def _as_complex_points(z, dimension: int):
    """z as an (n, d) batch of points, and whether it was a single point (d,)."""
    z = _as_complex_vector(z)
    points = np.atleast_2d(z)
    if points.ndim != 2 or points.shape[1] != dimension:
        raise UsageError(f"points of shape {z.shape} do not match dimension {dimension}")
    return points, z.ndim == 1


def bargmann_kernel(z, y):
    """Bargmann kernel pi^{-d/4} exp(-1/2(<z,z> + |y|^2) + sqrt(2) <z,y>).

    Uses the *bilinear* pairing.  z is a point (d,) or a batch (k, d), y a
    point (d,) or a batch (n, d); the result has z's batch axis first, then
    y's.  The exponent is accumulated first and exponentiated once, so
    moderate |z| (up to ~6) stays in range despite the e^{+sqrt(2) z.y}
    growth.
    """
    z = _as_complex_vector(z)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if z.ndim > 2 or z.shape[-1] != y.shape[-1]:
        raise UsageError("Bargmann kernel: dimension mismatch between z and y")
    d = z.shape[-1]
    z = z.reshape(z.shape[:-1] + (1,) * (y.ndim - 1) + (d,))
    # summed per coordinate: a (k, n, d) product would be d times the result
    bilinear = sum(z[..., j] * y[..., j] for j in range(d))
    exponent = (-0.5 * (np.sum(z * z, axis=-1) + np.sum(y * y, axis=-1))
                + math.sqrt(2.0) * bilinear)
    return np.pi ** (-d / 4.0) * np.exp(exponent)


# For f decaying like e^{-|y|^2/2} the integrand is a Gaussian of width
# 1/sqrt(2) peaked near y_j = Re z_j / sqrt(2); the rule resolves it while
# the peak lies five widths inside the largest node.  At order 60 (largest
# node 10.16) that is |Re z_j| <= 9.37: h_3 -> e_3 is exact to 4e-11 at
# z = 9 and off by 6.6e-8 at z = 10, 1.5e-3 at 12 and 91% at 16.  Far out,
# at z = 30, both rules below see almost nothing of the integrand and agree,
# so only this margin catches it.
_PEAK_MARGIN = 5.0 / math.sqrt(2.0)

# Largest relative distance between the order-q rule and the embedded
# order-2q/3 rule at which the result is trusted.  The distance is about the
# error of the cheaper rule, so it overstates that of the order-q result.
# For h_3 -> e_3 at order 60 (true relative error in brackets) it reads
# 9e-5 at z = 6i [2.4e-11] and 1e-5 at z = 8 [1e-15], but 8e7 at 8i
# [7.4e-2], 49 at 8 e^{i pi/4} [1.5e-8] and 0.59 at 12 [1.5e-3]; for
# expansions up to degree 30 it stays below 4e-8 at |z| <= 4.  The distance,
# |result| and the norm of f all scale with f, so it holds at every scale.
_RULE_AGREEMENT = 1e-3


def _kernel_quadrature(zs, points, weights, fvals) -> np.ndarray:
    """Tensor Gauss-Hermite sums of f(y) K(z, y) for each z of the (k, d)
    batch zs, with the e^{-|y|^2} weight folded back in."""
    integrand = fvals * bargmann_kernel(zs, points) * np.exp(np.sum(points**2, axis=1))
    return np.sum(weights * integrand, axis=1)


def bargmann_integral(f, z, quad_order: int = 60):
    """Quadrature value of the Bargmann transform integral of f at z; z may
    be a single point (d,), giving a complex, or a batch (k, d), giving an
    array.

    Tensor Gauss-Hermite in y with the e^{-|y|^2} weight folded back in, as
    in hermite_coefficients.  f is sampled once for the whole batch, on the
    nodes of the order-q rule and of an embedded order-2q/3 rule; the
    distance between the two results, relative to |result| or to the
    quadrature norm of f where the result is near zero, is an a-posteriori
    error estimate.  Warns with AccuracyWarning when the estimate exceeds
    _RULE_AGREEMENT at some z, or when the integrand's peak leaves the
    rule's node range.
    """
    z = _as_complex_vector(z)
    zs = np.atleast_2d(z)
    if zs.ndim != 2:
        raise UsageError(f"points of shape {z.shape} are neither (d,) nor (k, d)")
    d = zs.shape[1]
    rule = gauss_hermite(quad_order)
    coarse = gauss_hermite(max(1, 2 * quad_order // 3))
    points, weights = tensor_rule(rule, d)
    coarse_points, coarse_weights = tensor_rule(coarse, d)
    fvals, coarse_fvals = np.split(_sample(f, np.concatenate([points, coarse_points])),
                                   [len(points)])
    values = _kernel_quadrature(zs, points, weights, fvals)
    distance = np.abs(values - _kernel_quadrature(zs, coarse_points, coarse_weights,
                                                  coarse_fvals))
    # the norm of f, over its largest weighted sample so that no square overflows
    weighted = np.sqrt(weights * np.exp(np.sum(points**2, axis=1))) * np.abs(fvals)
    top = np.max(weighted, initial=0.0)
    norm = top * math.sqrt(np.sum((weighted / top) ** 2)) if top else 0.0
    unresolved = np.flatnonzero(distance > _RULE_AGREEMENT * np.maximum(np.abs(values), norm))
    peak = float(np.max(np.abs(zs.real), initial=0.0)) / math.sqrt(2.0)
    reasons = []
    if peak + _PEAK_MARGIN > rule.nodes[-1]:
        reasons.append(f"the integrand peaks near {peak:.3g}, within {_PEAK_MARGIN:.3g} of the "
                       f"largest node {rule.nodes[-1]:.3g} of the order-{quad_order} rule")
    if unresolved.size:
        reasons.append(f"the order-{quad_order} and order-{coarse.order} rules differ by more "
                       f"than {_RULE_AGREEMENT:g} relative at z = {zs[unresolved[0]].tolist()}")
    if reasons:
        warnings.warn("; ".join(reasons) + "; result may be inaccurate",
                      AccuracyWarning, stacklevel=2)
    return complex(values[0]) if z.ndim == 1 else values


def bargmann_coeff(f: CoefficientExpansion) -> CoefficientExpansion:
    """Coefficient realization of the transform: h_a -> e_a, coefficients kept.

    Isometric by construction (identical coefficient map on orthonormal
    bases)."""
    if f.side != HERMITE:
        raise UsageError("bargmann_coeff expects a hermite-side expansion")
    return f.with_side(FOCK)


def evaluate_fock(F: CoefficientExpansion, z):
    """Value sum c_a e_a(z) of a Fock-side expansion, e_a(z) = z^a / sqrt(a!);
    z may be a single point (d,), giving a complex, or a batch (n, d), giving
    an array.

    Each coordinate's e_n(z_j), n <= degree, is the running product of the
    factors z_j / sqrt(n), so neither z^n nor n! has to fit float64, only
    each e_n(z_j): their largest, about e^{|z_j|^2 / 2} at n = |z_j|^2,
    overflows from about |z_j| = 38 on.  Tables over MAX_POWER_ENTRIES
    entries are refused, as by power_tables."""
    if F.side != FOCK:
        raise UsageError("evaluate_fock expects a fock-side expansion")
    points, single = _as_complex_points(z, F.dimension)
    top = F.degree_bound
    _check_powers(points, top)
    factors = np.ones((F.dimension, len(points), top + 1), dtype=complex)
    factors[:, :, 1:] = points.T[:, :, None] / np.sqrt(np.arange(1, top + 1))
    values = table_sum(list(F.coeffs.values()), list(F.coeffs), np.cumprod(factors, axis=2))
    return complex(values[0]) if single else values


@lru_cache(maxsize=16)
def gaussian_plane_rule(radial_order: int = 40, angular_order: int = 64):
    """Quadrature (points, weights) for pi^{-1} * integral over C of
    g(w) e^{-|w|^2} dlambda(w), d = 1.

    Polar coordinates with the substitution u = r^2: Gauss-Laguerre radially
    (exact for even polynomial radial parts) and a uniform angular grid
    (exact for Fourier modes below angular_order).  Rules are cached and
    shared, so read-only; radial orders over MAX_QUAD_ORDER and rules of more
    than MAX_QUAD_NODES nodes are refused before allocation.
    """
    if radial_order < 1 or angular_order < 1:
        raise UsageError("quadrature orders must be >= 1")
    if radial_order > MAX_QUAD_ORDER:
        raise UsageError(f"radial order {radial_order} is over the budget of {MAX_QUAD_ORDER}")
    if radial_order * angular_order > MAX_QUAD_NODES:
        raise UsageError(f"a {radial_order} x {angular_order} plane rule has "
                         f"{radial_order * angular_order} nodes, over the budget of "
                         f"{MAX_QUAD_NODES}; lower the quadrature orders")
    u, lw = np.polynomial.laguerre.laggauss(radial_order)
    theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
    r = np.sqrt(u)
    points = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = np.broadcast_to(lw[:, None] / angular_order,
                              (radial_order, angular_order)).ravel().copy()
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


def fock_inner_quadrature(F: CoefficientExpansion, G: CoefficientExpansion,
                          radial_order: int = 40, angular_order: int = 64) -> complex:
    """A^2 inner product by polar quadrature, d = 1 cross-check path.

    Higher dimensions should use expansion_inner, which is exact.
    """
    if F.side != FOCK or G.side != FOCK:
        raise UsageError("fock_inner_quadrature expects fock-side expansions")
    if F.dimension != 1 or G.dimension != 1:
        raise UsageError("fock_inner_quadrature is a d = 1 oracle; use expansion_inner")
    if angular_order <= F.degree_bound + G.degree_bound:
        warnings.warn(
            f"angular order {angular_order} <= combined degree "
            f"{F.degree_bound + G.degree_bound}; result may be inaccurate",
            AccuracyWarning, stacklevel=2)
    points, weights = gaussian_plane_rule(radial_order, angular_order)
    Fv = evaluate_fock(F, points[:, None])
    Gv = evaluate_fock(G, points[:, None])
    return complex(np.sum(weights * Fv * np.conj(Gv)))


def reproducing_quadrature(F: CoefficientExpansion, z,
                           radial_order: int = 40, angular_order: int = 64) -> complex:
    """pi^{-1} * integral of F(w) e^{(z,w)} e^{-|w|^2} dlambda(w), d = 1.

    Equals F(z) for entire F; exists to catch pairing-convention bugs.  Uses
    the *sesquilinear* pairing.  Exact while angular_order > deg F; at the
    default order the error on e_64 is already 7e-10, so it warns with
    AccuracyWarning when angular_order <= deg F, as fock_inner_quadrature does.
    """
    if F.side != FOCK or F.dimension != 1:
        raise UsageError("reproducing_quadrature is a d = 1 fock-side oracle")
    if angular_order <= F.degree_bound:
        warnings.warn(f"angular order {angular_order} <= degree {F.degree_bound}; "
                      "result may be inaccurate", AccuracyWarning, stacklevel=2)
    z = complex(_as_complex_vector(z)[0])
    points, weights = gaussian_plane_rule(radial_order, angular_order)
    Fv = evaluate_fock(F, points[:, None])
    return complex(np.sum(weights * Fv * np.exp(z * np.conj(points))))
