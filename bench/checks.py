"""Output checks for the benchmark workloads.

Every check recomputes the expected figure by a route of its own and never
calls into ``wickops``: graded bases are enumerated here, Wick matrices are
built from Kronecker products of 1-d ladder matrices, and grid suprema are
taken with vectorized numpy over the same grids the CLI uses.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

# Round-off for exact constructions is ~1e-13; these leave room for it only.
EXACT_TOL = 1e-9
RECOVER_TOL = 1e-10
CROSS_TOL = 1e-8
DEVIATION_TOL = 1e-8
FAMILY_PARAM_TOL = 2e-3


def graded_basis(d: int, degree: int) -> list:
    """Multi-indices of length d and degree <= degree: by total degree, ties
    with larger leading entries first."""
    out = []
    for n in range(degree + 1):
        shell = [a for a in itertools.product(range(n + 1), repeat=d) if sum(a) == n]
        out.extend(sorted(shell, reverse=True))
    return out


def symbol_terms(data: dict) -> dict:
    """{(alpha, beta): complex} from a symbol JSON object."""
    return {(tuple(t["alpha"]), tuple(t["beta"])): complex(*t["value"])
            for t in data["terms"]}


def expansion_coeffs(data: dict) -> dict:
    """{index: complex} from an expansion JSON object."""
    return {tuple(e["index"]): complex(*e["value"]) for e in data["coeffs"]}


def _scale(values) -> float:
    return max(1.0, float(np.max(np.abs(values)))) if np.size(values) else 1.0


def _close(got, want, tol) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# reference builders
# ---------------------------------------------------------------------------

def kron_wick_matrix(d: int, terms: dict, n_in: int, n_out: int) -> np.ndarray:
    """Wick matrix on the graded Fock basis from 1-d ladder matrices.

    z^alpha conj(w)^beta acts as (multiply by z)^alpha (d/dz)^beta; on
    e_n = z^n / sqrt(n!) these are the creation and annihilation matrices.
    The d-dimensional operator is the Kronecker product over coordinates.
    """
    size = n_out + 1
    up = np.diag(np.sqrt(np.arange(1.0, size)), -1)
    down = up.T
    full = np.zeros((size**d, size**d), dtype=complex)
    for (alpha, beta), c in terms.items():
        op = np.ones((1, 1))
        for a_j, b_j in zip(alpha, beta):
            op = np.kron(op, np.linalg.matrix_power(up, a_j) @ np.linalg.matrix_power(down, b_j))
        full += c * op
    weights = size ** np.arange(d - 1, -1, -1)
    rows = np.array(graded_basis(d, n_out)) @ weights
    cols = np.array(graded_basis(d, n_in)) @ weights
    return full[np.ix_(rows, cols)]


def _eval_terms(terms: dict, z, wbar) -> np.ndarray:
    """sum c z^alpha conj(w)^beta on arrays of shape (n, d)."""
    out = np.zeros(z.shape[0], dtype=complex)
    for (alpha, beta), c in terms.items():
        out += c * np.prod(z**np.array(alpha), axis=1) * np.prod(wbar**np.array(beta), axis=1)
    return out


def _derivative_terms(terms: dict, alpha, beta) -> dict:
    """Exact d_z^alpha dbar_w^beta of a polynomial symbol."""
    out = {}
    for (a, b), c in terms.items():
        if any(x < y for x, y in zip(a, alpha)) or any(x < y for x, y in zip(b, beta)):
            continue
        factor = 1
        for x, y in zip(a + b, alpha + beta):
            factor *= math.perm(x, y)
        key = (tuple(x - y for x, y in zip(a, alpha)), tuple(x - y for x, y in zip(b, beta)))
        out[key] = out.get(key, 0) + factor * c
    return out


def pair_arrays(d: int, radius: float, points_per_axis: int):
    """All (z, w) pairs of the Cartesian grid the CLI's bound checks use."""
    axis = np.linspace(-radius, radius, points_per_axis)
    plane = (axis[:, None] + 1j * axis[None, :]).ravel()
    singles = np.array(list(itertools.product(plane, repeat=d)), dtype=complex)
    n = singles.shape[0]
    return np.repeat(singles, n, axis=0), np.tile(singles, (n, 1))


def polar_diag_grid(radius=4.0, n_radii=33, n_angles=64) -> np.ndarray:
    """The d = 1 polar grid of the Garding diagonal probe, shape (n, 1)."""
    radii = np.linspace(0.0, radius, n_radii)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return (radii[:, None] * np.exp(1j * angles)[None, :]).reshape(-1, 1)


# ---------------------------------------------------------------------------
# fock-spectral
# ---------------------------------------------------------------------------

def check_garding(report: dict, terms: dict, truncations) -> list:
    r = report["result"]
    problems = []
    if r["truncation_degrees"] != list(truncations):
        problems.append(f"garding: truncations {r['truncation_degrees']} != {list(truncations)}")
    mins = r["min_real_eigenvalues"]
    # nested principal blocks of one Hermitian matrix: minima cannot rise
    for n, lo, hi in zip(truncations[1:], mins[1:], mins[:-1]):
        if lo > hi + EXACT_TOL * max(1.0, abs(hi)):
            problems.append(f"garding: minimum rises at truncation {n} ({hi} -> {lo})")
    imag = max(r["max_imag_norms"], default=0.0)
    if imag > EXACT_TOL * _scale(mins):
        problems.append(f"garding: Hermitian symbol has skew part of norm {imag}")
    grid = polar_diag_grid()
    want = float(np.min(_eval_terms(terms, grid, grid.conj()).real))
    if not _close(r["diagonal_min"], want, EXACT_TOL):
        problems.append(f"garding: diagonal_min {r['diagonal_min']} != {want}")
    if r["grid_points"] != grid.shape[0]:
        problems.append(f"garding: grid_points {r['grid_points']} != {grid.shape[0]}")
    return problems


def check_bound_gs(report: dict, terms: dict, d: int, s: float, r: float,
                   radius: float, points: int) -> list:
    """Loss-direction Gelfand-Shilov check: sup of |a| e^{-|z-w|^2/2 - r(|z|^{1/s}+|w|^{1/s})}."""
    z, w = pair_arrays(d, radius, points)
    nz = np.linalg.norm(z, axis=1)
    nw = np.linalg.norm(w, axis=1)
    exponent = -0.5 * np.linalg.norm(z - w, axis=1) ** 2 - r * (nz ** (1 / s) + nw ** (1 / s))
    want = float(np.max(np.abs(_eval_terms(terms, z, w.conj())) * np.exp(exponent)))
    res = report["result"]
    problems = []
    if not _close(res["sup"], want, EXACT_TOL):
        problems.append(f"bound-check gs: sup {res['sup']} != {want}")
    if res["params"]["grid_size"] != z.shape[0]:
        problems.append(f"bound-check gs: grid_size {res['params']['grid_size']} != {z.shape[0]}")
    return problems


def check_bound_shubin(report: dict, terms: dict, d: int, t: float, rho: float,
                       max_order: int, n_decay: int, radius: float, points: int) -> list:
    """Shubin-Wick ratios for every derivative order and decay exponent."""
    z, w = pair_arrays(d, radius, points)
    gauss = np.exp(0.5 * np.linalg.norm(z - w, axis=1) ** 2)
    omega = (1.0 + 2.0 * np.sum(np.abs(z) ** 2, axis=1)) ** (t / 2.0)
    plus = np.sqrt(1.0 + np.sum(np.abs(z + w) ** 2, axis=1))
    minus = np.sqrt(1.0 + np.sum(np.abs(z - w) ** 2, axis=1))
    want = {}
    for key in graded_basis(2 * d, max_order):
        alpha, beta = key[:d], key[d:]
        values = np.abs(_eval_terms(_derivative_terms(terms, alpha, beta), z, w.conj()))
        order = sum(key)
        for N in range(n_decay + 1):
            denom = gauss * omega * plus ** (-rho * order) * minus ** (-float(N))
            want[(alpha, beta, N)] = float(np.max(values / denom))
    res = report["result"]
    got = {(tuple(e["alpha"]), tuple(e["beta"]), e["N"]): e["sup"] for e in res["details"]}
    problems = []
    if set(got) != set(want):
        problems.append(f"bound-check shubin: detail keys {sorted(got)} != {sorted(want)}")
    for key in set(got) & set(want):
        if not _close(got[key], want[key], EXACT_TOL):
            problems.append(f"bound-check shubin: sup at {key} is {got[key]}, want {want[key]}")
    overall = max(want.values())
    if not _close(res["sup"], overall, EXACT_TOL):
        problems.append(f"bound-check shubin: sup {res['sup']} != {overall}")
    return problems


# ---------------------------------------------------------------------------
# real-quantize
# ---------------------------------------------------------------------------

def read_matrix_csv(path) -> np.ndarray:
    """Dense matrix from the CLI's row,col,re,im CSV rendering."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    body = np.array(rows[1:], dtype=float)
    shape = (int(body[:, 0].max()) + 1, int(body[:, 1].max()) + 1)
    M = np.zeros(shape, dtype=complex)
    M[body[:, 0].astype(int), body[:, 1].astype(int)] = body[:, 2] + 1j * body[:, 3]
    return M


def check_weyl_matrix(M: np.ndarray, d: int, n_in: int, n_out: int) -> list:
    """Shape of the exact Weyl matrix, and Hermitian square block (real symbol)."""
    shape = (len(graded_basis(d, n_out)), len(graded_basis(d, n_in)))
    if M.shape != shape:
        return [f"weyl-matrix: shape {M.shape} != {shape}"]
    block = M[: shape[1], :]
    asym = float(np.max(np.abs(block - block.conj().T)))
    if asym > EXACT_TOL * _scale(block):
        return [f"weyl-matrix: square block not Hermitian (max |M - M^H| = {asym:.3e})"]
    return []


def check_to_wick(wick_symbol: dict, weyl: np.ndarray, d: int, n_in: int, n_out: int) -> list:
    """The Wick operator of the converted symbol must reproduce the Weyl matrix
    (the Bargmann transform keeps coefficients, so the matrices coincide)."""
    terms = symbol_terms(wick_symbol)
    if wick_symbol["kind"] != "wick" or not terms:
        return [f"to-wick: expected a non-empty wick symbol, got kind {wick_symbol['kind']!r}"]
    if max(sum(a) for a, _ in terms) > n_out - n_in:
        return ["to-wick: symbol degree exceeds the Weyl symbol's"]
    M = kron_wick_matrix(d, terms, n_in, n_out)
    dev = float(np.max(np.abs(M - weyl)))
    if dev > EXACT_TOL * _scale(weyl):
        return [f"to-wick: Wick matrix differs from the Weyl matrix by {dev:.3e}"]
    return []


def check_wick_matrix(report: dict, wick_symbol: dict, n_in: int) -> list:
    r = report["result"]
    terms = symbol_terms(wick_symbol)
    d = wick_symbol["dimension"]
    n_out = n_in + max((sum(a) for a, _ in terms), default=0)
    if (r["n_in"], r["n_out"], r["side"]) != (n_in, n_out, "fock"):
        return [f"wick-matrix: degrees/side {(r['n_in'], r['n_out'], r['side'])} "
                f"!= {(n_in, n_out, 'fock')}"]
    want = kron_wick_matrix(d, terms, n_in, n_out)
    flat = np.array(r["entries"], dtype=float)
    if flat.shape != (want.size, 2):
        return [f"wick-matrix: {flat.shape[0]} entries, want {want.size}"]
    got = (flat[:, 0] + 1j * flat[:, 1]).reshape(want.shape)
    dev = float(np.max(np.abs(got - want)))
    if dev > EXACT_TOL * _scale(want):
        return [f"wick-matrix: differs from the Kronecker-product builder by {dev:.3e}"]
    return []


def check_expand(report: dict, d: int, order: int) -> list:
    problems = []
    dev = report["verification"]["max_deviation"]
    if not dev <= DEVIATION_TOL:
        problems.append(f"expand-antiwick: max_deviation {dev} > {DEVIATION_TOL}")
    r = report["result"]
    n_main = len(graded_basis(d, order))
    n_rem = len(graded_basis(d, order + 1)) - n_main
    if (len(r["main_terms"]), len(r["remainder_terms"])) != (n_main, n_rem):
        problems.append(f"expand-antiwick: {len(r['main_terms'])} main and "
                        f"{len(r['remainder_terms'])} remainder terms, want {n_main} and {n_rem}")
    return problems


# ---------------------------------------------------------------------------
# coeff-transform
# ---------------------------------------------------------------------------

def check_hermite_coeffs(report: dict, coeffs: dict, d: int, degree: int) -> list:
    """The quadrature must recover every generating coefficient (zero beyond
    the generating support) on the whole degree <= degree basis."""
    r = report["result"]
    got = expansion_coeffs(r)
    basis = graded_basis(d, degree)
    problems = []
    if r["side"] != "hermite" or set(got) - set(basis):
        problems.append("hermite-coeffs: wrong side or indices outside the basis")
    dev = max(abs(got.get(a, 0) - coeffs.get(a, 0)) for a in basis)
    if dev > RECOVER_TOL:
        problems.append(f"hermite-coeffs: d={d} coefficients off by {dev:.3e}")
    return problems


def check_bargmann(report: dict, coeffs: dict, n_points: int) -> list:
    r = report["result"]
    problems = []
    if r["side"] != "fock" or expansion_coeffs(r) != coeffs:
        problems.append("bargmann: the coefficient map must relabel h_a -> e_a unchanged")
    rows = report.get("cross_check", [])
    if len(rows) != n_points:
        problems.append(f"bargmann: {len(rows)} cross-check rows, want {n_points}")
    for row in rows:
        z = complex(*row["z"])
        direct = sum(c * z ** k[0] / math.sqrt(math.factorial(k[0])) for k, c in coeffs.items())
        via_coeff = complex(*row["coefficient_route"])
        via_integral = complex(*row["integral_route"])
        if not _close(via_coeff, direct, EXACT_TOL):
            problems.append(f"bargmann: F({z}) = {via_coeff}, want {direct}")
        if abs(via_coeff - via_integral) > CROSS_TOL or not row["abs_diff"] <= CROSS_TOL:
            problems.append(f"bargmann: routes disagree at z = {z} "
                            f"({abs(via_coeff - via_integral):.3e})")
    return problems


def check_classify(report: dict, family: str, parameter: float) -> list:
    r = report["result"]
    if r["family"] != family or r["inconclusive"]:
        return [f"classify: family {r['family']!r} (inconclusive={r['inconclusive']}), "
                f"want {family!r}"]
    if abs(r["parameter"] - parameter) > FAMILY_PARAM_TOL:
        return [f"classify: parameter {r['parameter']} != generating {parameter}"]
    return []
