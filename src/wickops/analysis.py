"""Decay classification of coefficient sequences and the numerical sharp
lower-bound (Garding-style) probe for Wick operators.

Decay families, driven by shell maxima M_k = max{|c_a| : |a| = k}:

  * roumieu_s:   |c_a| ~ C e^{-r |a|^{1/(2s)}}   (super-exponential scale)
  * flat_sigma:  |c_a| ~ C r^{|a|} a!^{-1/(2 sigma)}
  * h0:          finitely many shells; no fit is attempted.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    CoefficientExpansion,
    InputDataError,
    NumericalError,
    UsageError,
    _tensor_grid,
    basis_size,
)
from .symbols import WickSymbol, wick_matrix

ROUMIEU = "roumieu_s"
FLAT = "flat_sigma"
H0 = "h0"

MIN_SHELLS = 4


@dataclass
class DecayFit:
    family: str
    parameter: float  # s for roumieu, sigma for flat, 0 for h0
    rate: float       # r
    log_prefactor: float
    residual: float   # RMS on the log scale
    shells_used: int
    inconclusive: bool = False

    def to_json_dict(self) -> dict:
        # an infinite flat sigma is written as null, which strict JSON parsers read
        parameter = self.parameter if math.isfinite(self.parameter) else None
        return {**asdict(self), "parameter": parameter}


def shell_maxima(c: CoefficientExpansion) -> dict:
    """Nonzero shell maxima {k: max |c_a| over |a| = k}."""
    shells = {}
    for alpha, value in c.coeffs.items():
        k = alpha.degree()
        shells[k] = max(shells.get(k, 0.0), abs(value))
    return {k: v for k, v in sorted(shells.items()) if v > 0}


def _roumieu_residual(ks, logm, s):
    """Least-squares residual of log M_k ~ logC - r k^{1/(2s)} with r > 0.

    The line through (x, y) = (k^{1/(2s)}, log M_k) has the closed form
    r = -sum (x - mean x) y / sum (x - mean x)^2 and logC = mean y + r mean x.
    """
    x = ks ** (1.0 / (2.0 * s))
    n = x.size
    xbar = x.sum() / n
    dx = x - xbar
    r = -(dx @ logm) / (dx @ dx)
    logc = logm.sum() / n + r * xbar
    if r <= 0:
        # constrained fit: r -> 0 leaves only the constant model
        r = 0.0
        logc = float(np.mean(logm))
    resid = logm - (logc - r * x)
    return math.sqrt(resid @ resid / n), float(r), float(logc)


def _golden_section(f, lo, hi, tol):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


S_BRACKET = (0.1, 4.0)
# a tolerance on s, which does not change when the coefficients are scaled
# (that moves only log C), so it holds at every scale
S_TOL = 1e-3


def classify_decay(c: CoefficientExpansion, family: str = ROUMIEU) -> DecayFit:
    """Fit the requested decay family to the shell maxima of an expansion.

    Expansions with fewer than MIN_SHELLS nonzero shells of degree k >= 1,
    the shells the fits use, are classified as finite (family h0) without
    fitting; the families outside cannot be told apart from so little data.
    """
    if family not in (ROUMIEU, FLAT):
        raise UsageError(f"family must be '{ROUMIEU}' or '{FLAT}'")
    shells = shell_maxima(c)
    ks = np.array([k for k in shells if k > 0], dtype=float)
    if ks.size < MIN_SHELLS:
        return DecayFit(family=H0, parameter=0.0, rate=0.0, log_prefactor=0.0,
                        residual=0.0, shells_used=int(ks.size))
    logm = np.log(np.array([shells[int(k)] for k in ks]))
    if family == ROUMIEU:
        def objective(s):
            return _roumieu_residual(ks, logm, s)[0]
        s = _golden_section(objective, *S_BRACKET, S_TOL)
        residual, r, logc = _roumieu_residual(ks, logm, s)
        edge = (s - S_BRACKET[0] < 2 * S_TOL) or (S_BRACKET[1] - s < 2 * S_TOL)
        return DecayFit(family=ROUMIEU, parameter=float(s), rate=r, log_prefactor=logc,
                        residual=residual, shells_used=int(ks.size), inconclusive=edge)
    # flat family: log M_k ~ log C + k log r - (1/(2 sigma)) log k!, linear in
    # all three unknowns; the intercept keeps a constant factor out of r and sigma
    logfact = np.array([math.lgamma(k + 1.0) for k in ks])
    A = np.stack([np.ones_like(ks), ks, -logfact], axis=1)
    sol, *_ = np.linalg.lstsq(A, logm, rcond=None)
    logc, logr, inv2sigma = sol
    resid = logm - A @ sol
    residual = float(np.sqrt(np.mean(resid**2)))
    if inv2sigma <= 0:
        return DecayFit(family=FLAT, parameter=math.inf, rate=float(np.exp(logr)),
                        log_prefactor=float(logc), residual=residual,
                        shells_used=int(ks.size), inconclusive=True)
    sigma = 1.0 / (2.0 * inv2sigma)
    return DecayFit(family=FLAT, parameter=float(sigma), rate=float(np.exp(logr)),
                    log_prefactor=float(logc), residual=residual, shells_used=int(ks.size))


# ---------------------------------------------------------------------------
# sharp lower-bound probe
# ---------------------------------------------------------------------------

@dataclass
class GardingReport:
    """Truncation-by-truncation spectral data for the real-part lower bound
    and the imaginary-part bound of a Wick operator.

    diagonal_min is a grid estimate of min Re a(w, w), not a global minimum.
    """

    truncation_degrees: list
    min_real_eigenvalues: list
    max_imag_norms: list
    diagonal_min: float
    stabilized: bool
    grid_points: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


DIAG_RADIUS = 4.0
DIAG_RADII = 33
DIAG_ANGLES = 64


def default_diag_grid(dimension: int = 1):
    """Polar grid of DIAG_RADII radii up to DIAG_RADIUS by DIAG_ANGLES angles
    (d = 1); for d > 1 the d-fold product of a coarse 41-point polar grid,
    refused past d = 3 (2,825,761 points at d = 4) by _tensor_nodes before
    allocation."""
    radii = np.linspace(0.0, DIAG_RADIUS, DIAG_RADII)
    angles = 2.0 * np.pi * np.arange(DIAG_ANGLES) / DIAG_ANGLES
    pts_1d = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    if dimension == 1:
        return pts_1d[:, None]
    coarse = pts_1d[:: max(1, len(pts_1d) // 40)]
    return _tensor_grid(coarse, dimension, "the diagonal grid")


STABLE_REL = 0.05
STABLE_ABS = 1e-6


def garding_check(a: WickSymbol, truncations) -> GardingReport:
    """Spectral probe of the sharp lower-bound behavior across truncations.

    Per truncation N: take the square degree <= N block of wick_matrix(a, N),
    the minimum eigenvalue of its Hermitian part and the spectral norm of its
    skew part.  Stabilization is a plateau criterion on the last two minimum
    eigenvalues; the report never asserts a constant.  diagonal_min is taken
    on default_diag_grid.
    """
    if a.point_symbol:
        raise UsageError("garding_check applies to standard Wick symbols")
    truncations = [int(n) for n in truncations]
    if not truncations:
        raise UsageError("at least one truncation degree is required")
    if any(n2 <= n1 for n1, n2 in zip(truncations, truncations[1:])):
        raise UsageError("truncation degrees must be strictly increasing")
    diag_grid = default_diag_grid(a.dimension)
    # graded bases nest and the entries do not depend on the truncation, so
    # each truncation's square block is a leading block of the largest one
    largest = wick_matrix(a, truncations[-1]).entries
    min_real = []
    max_imag = []
    for n in truncations:
        size = basis_size(a.dimension, n)
        M = largest[:size, :size]
        herm = 0.5 * (M + M.conj().T)
        skew = (M - M.conj().T) / 2j
        try:
            min_real.append(float(np.min(np.linalg.eigvalsh(herm))))
            imag_eigs = np.linalg.eigvalsh(skew)
            max_imag.append(float(np.max(np.abs(imag_eigs))) if imag_eigs.size else 0.0)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigen-solve failed at truncation {n}") from exc
    diagonal_min = float(np.min(a.diagonal_value(diag_grid).real))
    if len(min_real) >= 2:
        last, prev = min_real[-1], min_real[-2]
        # the absolute floor scales with the symbol (sum |c|), so the flag
        # does not; <= keeps the zero symbol (floor 0) stabilized
        floor = STABLE_ABS * sum(abs(c) for c in a.terms.values())
        stabilized = (abs(last - prev) <= floor
                      or abs(last - prev) < STABLE_REL * max(abs(last), abs(prev)))
    else:
        stabilized = False
    return GardingReport(truncation_degrees=truncations,
                         min_real_eigenvalues=min_real,
                         max_imag_norms=max_imag,
                         diagonal_min=diagonal_min,
                         stabilized=stabilized,
                         grid_points=diag_grid.shape[0])


def fit_norm_growth(norms) -> tuple:
    """Fit log ||R^N f|| ~ N log h + 2 s log N! and return (h, s, residual)."""
    norms = np.asarray(norms, dtype=float)
    if norms.size < 4:
        raise InputDataError(f"need at least 4 norm values, got {norms.size}")
    if np.any(norms <= 0):
        raise InputDataError("norm sequence must be strictly positive")
    n = np.arange(norms.size, dtype=float)
    logfact = np.array([math.lgamma(k + 1.0) for k in n])
    A = np.stack([n, 2.0 * logfact], axis=1)
    # normalize by the N = 0 value so the two-parameter model is exact for
    # eigenvectors of R (pure geometric growth with arbitrary prefactor)
    y = np.log(norms / norms[0])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    logh, s = sol
    resid = y - A @ sol
    return float(np.exp(logh)), float(s), float(np.sqrt(np.mean(resid**2)))
