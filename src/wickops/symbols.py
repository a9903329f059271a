"""The four quantizations on graded truncated bases: Wick, anti-Wick,
Kohn-Nirenberg and Weyl, plus the real-symbol -> Wick-symbol assignment and
grid-based symbol-class bound checkers.

Matrix conventions: operators are stored as rectangular matrices mapping
span{basis of degree <= N_in} into span{degree <= N_out}, with N_out chosen
so that polynomial operators are represented *exactly* (no truncation
error).  Square degree <= N_in blocks are sliced from the entries only where
spectra are wanted (analysis.garding_check).
"""

from __future__ import annotations

import math
import operator
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .core import (
    FOCK,
    HERMITE,
    CoefficientExpansion,
    InputDataError,
    MultiIndex,
    NumericalError,
    UsageError,
    _basis_array,
    _rank_table,
    _tensor_grid,
    _tensor_nodes,
    basis_size,
    enumerate_basis,
    grlex_key,
    json_index,
    json_int,
    json_value,
    power_tables,
    table_sum,
)
from .bargmann import (AccuracyWarning, gaussian_plane_rule, evaluate_fock, _as_complex_points,
                       _as_complex_vector)
from .hermite import ANNIHILATION, CREATION, LadderKind, apply_ladder

KOHN_NIRENBERG = "kohn_nirenberg"
WEYL = "weyl"

# most (derivative order, N) records shubin_estimate_check lists, each one
# pass over the grid and about 360 bytes of report
MAX_SHUBIN_DETAILS = 10_000

# largest matrix, 1-d coordinate table or to-wick system built, in entries;
# _assemble holds the complex matrix and blocks of a quarter of its entries,
# about twice the matrix's 160 MB at this size
MAX_MATRIX_ENTRIES = 10_000_000


class _TermSymbol:
    """Polynomial symbol sum c(alpha, beta) u^alpha v^beta in two d-tuples of
    variables, kept as {(alpha, beta): complex} without zero values.  The
    subclass gives the variables their meaning; its _KINDS maps each JSON
    "kind" it reads and writes to the constructor keywords of that kind.  A
    file without "kind" reads as "wick"."""

    def __init__(self, dimension, terms):
        if dimension < 1:
            raise UsageError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.terms = {}
        for (alpha, beta), value in dict(terms).items():
            if not isinstance(alpha, MultiIndex):
                alpha = MultiIndex(alpha)
            if not isinstance(beta, MultiIndex):
                beta = MultiIndex(beta)
            if len(alpha) != self.dimension or len(beta) != self.dimension:
                raise UsageError(f"symbol key ({alpha}, {beta}) has wrong length")
            value = complex(value)
            if value != 0:
                self.terms[(alpha, beta)] = value

    @property
    def kind(self) -> str:
        """The JSON kind whose constructor keywords this symbol carries."""
        return next(kind for kind, keywords in self._KINDS.items()
                    if all(getattr(self, k) == v for k, v in keywords.items()))

    @property
    def total_degree(self) -> int:
        return max((a.degree() + b.degree() for a, b in self.terms), default=0)

    def to_json_dict(self) -> dict:
        items = sorted(self.terms.items(), key=lambda kv: (grlex_key(kv[0][0]), grlex_key(kv[0][1])))
        return {
            "dimension": self.dimension,
            "kind": self.kind,
            "terms": [{"alpha": list(a), "beta": list(b), "value": [c.real, c.imag]}
                      for (a, b), c in items],
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            kind = data.get("kind", "wick")
            if kind not in cls._KINDS:
                raise InputDataError(f"{cls.__name__} kind {kind!r} is not one of "
                                     f"{', '.join(cls._KINDS)}")
            terms = {(json_index(t["alpha"]), json_index(t["beta"])): json_value(t["value"])
                     for t in data["terms"]}
            return cls(json_int(data["dimension"]), terms=terms, **cls._KINDS[kind])
        except (KeyError, TypeError, ValueError, IndexError, UsageError) as exc:
            raise InputDataError(f"malformed symbol JSON: {exc}") from exc


class WickSymbol(_TermSymbol):
    """Polynomial Wick symbol a(z, w) = sum c(alpha, beta) z^alpha conj(w)^beta.

    With point_symbol=True the same container holds an anti-Wick point symbol
    a0(w) = sum c(sigma, tau) w^sigma conj(w)^tau (no z dependence); the
    first key slot is then the holomorphic w-exponent.
    """

    _KINDS = {"wick": {"point_symbol": False}, "antiwick": {"point_symbol": True}}

    def __init__(self, dimension, terms, point_symbol=False):
        super().__init__(dimension, terms)
        self.point_symbol = bool(point_symbol)

    @property
    def z_degree(self) -> int:
        return max((a.degree() for a, _ in self.terms), default=0)

    def evaluate(self, z, w=None):
        """a(z, w); for point symbols call with a single argument a0(w).
        Single (d,) points give a complex, (n, d) batches an array."""
        if self.point_symbol:
            if w is not None:
                raise UsageError("point symbols take a single argument")
            w = z
        elif w is None:
            raise UsageError("Wick symbols take two arguments (z, w)")
        z, z_single = _as_complex_points(z, self.dimension)
        w, w_single = _as_complex_points(w, self.dimension)
        # a single z or w broadcasts against the other's batch in table_sum
        values = table_sum(list(self.terms.values()), *self._power_tables(z, w))
        return complex(values[0]) if z_single and w_single else values

    def _power_tables(self, z, w):
        """The terms' (k, 2d) exponents and the power tables of the (n, d)
        batches z and conj(w), as table_sum takes them; the tables' budget is
        checked before any exponent becomes a C integer."""
        top = max(map(max, chain.from_iterable(self.terms)), default=0)
        tables = power_tables(z, top) + power_tables(np.conj(w), top)
        return np.array(list(self.terms), dtype=np.intp).reshape(-1, 2 * self.dimension), tables

    def diagonal_value(self, w):
        """a(w, w), the diagonal restriction appearing in the Garding hypothesis;
        w is a single point or a batch, as in evaluate."""
        return self.evaluate(w) if self.point_symbol else self.evaluate(w, w)

    def derivative(self, alpha, beta) -> "WickSymbol":
        """Exact term-wise derivative d_z^alpha dbar_w^beta of a standard symbol;
        a factor past float64's range is a NumericalError."""
        if self.point_symbol:
            raise UsageError("derivative in (z, conj w) applies to standard Wick symbols")
        alpha = MultiIndex(alpha)
        beta = MultiIndex(beta)
        out = {}
        for (a, b), c in self.terms.items():
            if not (a.dominates(alpha) and b.dominates(beta)):
                continue
            # a!/(a - alpha)! b!/(b - beta)!, over the 2d coordinates of (a, b)
            factor = math.prod(map(math.perm, (*a, *b), (*alpha, *beta)))
            key = (a - alpha, b - beta)
            try:
                out[key] = out.get(key, 0.0) + factor * c
            except OverflowError as exc:  # factor is past float64's range
                raise NumericalError(f"a factor of the derivative of order ({alpha}, {beta}) "
                                     f"is past float64's range") from exc
        return WickSymbol(self.dimension, out)

    def scaled(self, factor) -> "WickSymbol":
        return WickSymbol(self.dimension,
                          {k: factor * v for k, v in self.terms.items()},
                          point_symbol=self.point_symbol)

    def plus(self, other) -> "WickSymbol":
        if other.dimension != self.dimension or other.point_symbol != self.point_symbol:
            raise UsageError("cannot add symbols of different dimension or kind")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return WickSymbol(self.dimension, out, point_symbol=self.point_symbol)

    def conjugate(self) -> "WickSymbol":
        """Symbol of the adjoint operator: conj(c), slots swapped."""
        return WickSymbol(self.dimension,
                          {(b, a): np.conj(c) for (a, b), c in self.terms.items()},
                          point_symbol=self.point_symbol)

    def __repr__(self):
        tag = "point" if self.point_symbol else "wick"
        return f"WickSymbol(d={self.dimension}, {tag}, terms={len(self.terms)})"


class RealSymbol(_TermSymbol):
    """Polynomial real-side symbol b(x, xi) = sum c(alpha, beta) x^alpha xi^beta
    with a quantization tag (Kohn-Nirenberg or Weyl)."""

    _KINDS = {"kn": {"quantization": KOHN_NIRENBERG}, "weyl": {"quantization": WEYL}}

    def __init__(self, dimension, quantization, terms):
        if quantization not in (KOHN_NIRENBERG, WEYL):
            raise UsageError(f"quantization must be '{KOHN_NIRENBERG}' or '{WEYL}'")
        super().__init__(dimension, terms)
        self.quantization = quantization


@dataclass
class OperatorMatrix:
    """Dense complex matrix between graded truncated bases.

    Rows index the codomain basis (degree <= codomain_degree), columns the
    domain basis (degree <= domain_degree), both in graded-lex order.
    """

    dimension: int
    domain_degree: int
    codomain_degree: int
    basis_side: str
    entries: np.ndarray

    def __post_init__(self):
        n_in = basis_size(self.dimension, self.domain_degree)
        n_out = basis_size(self.dimension, self.codomain_degree)
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (n_out, n_in):
            raise UsageError(
                f"matrix shape {self.entries.shape} does not match bases ({n_out}, {n_in})")

    def embedded(self, codomain_degree: int) -> "OperatorMatrix":
        """Zero-pad rows up to a larger codomain degree (graded bases nest)."""
        if codomain_degree < self.codomain_degree:
            raise UsageError("cannot embed into a smaller codomain")
        n_out = basis_size(self.dimension, codomain_degree)
        padded = np.zeros((n_out, self.entries.shape[1]), dtype=complex)
        padded[: self.entries.shape[0], :] = self.entries
        return OperatorMatrix(self.dimension, self.domain_degree, codomain_degree,
                              self.basis_side, padded)

    def apply(self, f: CoefficientExpansion) -> CoefficientExpansion:
        if f.side != self.basis_side or f.dimension != self.dimension:
            raise UsageError("expansion does not match the matrix bases")
        if f.degree_bound > self.domain_degree:
            raise UsageError("expansion degree exceeds the matrix domain")
        out = self.entries @ f.dense(self.domain_degree)
        basis = enumerate_basis(self.dimension, self.codomain_degree)
        # the constructor drops the zero entries
        return CoefficientExpansion(self.dimension, self.basis_side, dict(zip(basis, out)))

    def to_json_dict(self) -> dict:
        """The JSON fields; the entries are one [re, im] pair per entry, rows
        in order, as an (n, 2) float64 array, maybe a view."""
        pairs = np.ascontiguousarray(self.entries, dtype=complex).view(float).reshape(-1, 2)
        return {
            "dimension": self.dimension,
            "n_in": self.domain_degree,
            "n_out": self.codomain_degree,
            "side": self.basis_side,
            "entries": pairs,
        }


@dataclass(frozen=True)
class ShubinWeight:
    """Power weight omega(x) = <x>^t with decay exponent rho in [0, 1].

    <x> = (1 + |x|^2)^{1/2}; power weights are automatically v-moderate with
    v = <.>^{|t|}.
    """

    t: float
    rho: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise UsageError(f"rho must lie in [0, 1], got {self.rho}")

    def omega(self, x):
        """omega(x) for a point (d,), as a float, or row-wise for a batch (n, d)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        values = (1.0 + np.sum(x**2, axis=-1)) ** (self.t / 2.0)
        return float(values) if x.ndim == 1 else values

    def omega_complex(self, z):
        """omega through the identification C^d ~ R^{2d} (real and imaginary
        parts stacked); row-wise for a batch (n, d)."""
        z = _as_complex_vector(z)
        return self.omega(np.concatenate([z.real, z.imag], axis=-1))


def japanese_bracket(v):
    """<v> = (1 + |v|^2)^{1/2} of a real or complex vector, or row-wise of a batch."""
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    values = np.sqrt(1.0 + np.sum(np.abs(v) ** 2, axis=-1))
    return float(values) if v.ndim == 1 else values


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------

def _check_matrix_size(d: int, n_in: int, n_out: int, copies: int = 1) -> int:
    """Column count of the matrix between the graded bases of degrees <= n_in
    and <= n_out; `copies` such matrices and their (n_out + 1)^2-entry coordinate
    tables are refused over MAX_MATRIX_ENTRIES entries before any is built."""
    if n_in < 0:
        raise UsageError(f"n_in must be >= 0, got {n_in}")
    n_rows, n_cols = basis_size(d, n_out), basis_size(d, n_in)
    size = max(copies * n_rows * n_cols, (n_out + 1) ** 2)
    if size > MAX_MATRIX_ENTRIES:
        raise UsageError(f"{size} entries ({copies} x {n_rows} x {n_cols} matrix, {n_out + 1} x "
                         f"{n_out + 1} coordinate tables) are over the budget of "
                         f"{MAX_MATRIX_ENTRIES}; lower the degree")
    return n_cols


def _entries(keys, d, n_in, n_out, diagonals):
    """Non-zero entries (key number, row, col, factor) of the matrices
    prod_j T(alpha_j, beta_j), one per key (alpha, beta), from degrees <= n_in
    to <= n_out, in key order and in blocks of max(M.size / 4, 2^16) entries.
    T(p, q) is the 1-d factor of the pair (p, q), indexed [out degree, in
    degree], and diagonals(pairs) gives those of a list of pairs as their
    non-zero diagonals k = out - in: arrays (pair, k, values), ascending in
    pair and then in k, values[i] being diagonal i on the column degrees
    0 .. n_in.  One diagonal per coordinate sends column g to row g + k,
    factors in coordinate order."""
    # columns g, their suffix sums g_j + ... + g_{d-1}, and the closed-form
    # graded rank that turns a row's suffix sums into its position
    cols, below = _basis_array(d, n_in), _rank_table(d, n_out)
    col_suffix = np.cumsum(cols[:, ::-1], axis=1)[:, ::-1]
    # each key's (p, q) pair per coordinate, numbered in sorted order
    key_pairs = [pq for alpha, beta in keys for pq in zip(alpha, beta)]
    pairs = sorted(set(key_pairs))
    number = {pq: i for i, pq in enumerate(pairs)}
    pair_of = np.fromiter(map(number.__getitem__, key_pairs), np.intp).reshape(-1, d)
    pair, offset, values = diagonals(pairs)
    per_pair = np.bincount(pair, minlength=len(pairs))
    count, first = per_pair[pair_of], (np.cumsum(per_pair) - per_pair)[pair_of]
    # each key with each choice of diagonals, the last coordinate's fastest
    total = count.prod(axis=1)
    key = np.repeat(np.arange(len(keys)), total)
    local = np.arange(len(key)) - np.repeat(np.cumsum(total) - total, total)
    stride = np.ones_like(count)
    stride[:, :-1] = np.cumprod(count[:, :0:-1], axis=1)[:, ::-1]
    diag = first[key] + local[:, None] // stride[key] % count[key]
    shift = np.cumsum(offset[diag][:, ::-1], axis=1)[:, ::-1]
    step = max(1, max(basis_size(d, n_out) * len(cols) // 4, 2**16) // len(cols))
    for start in range(0, len(key), step):
        block = diag[start:start + step]
        factor = values[block[:, 0, None], cols[None, :, 0]]
        for j in range(1, d):
            factor = factor * values[block[:, j, None], cols[None, :, j]]
        i, col = np.nonzero(factor)
        row = below[col_suffix[col] + shift[start + i], np.arange(d)].sum(axis=1)
        yield key[start + i], row, col, factor[i, col]


def _assemble(terms, d, n_in, n_out, diagonals, side) -> OperatorMatrix:
    """Matrix of sum c * prod_j T(alpha_j, beta_j) over the terms
    {(alpha, beta): c}, diagonals as in _entries, scattered with np.add.at in
    term order: each entry sums the products a dense per-term sum would.  A
    matrix with an entry past float64's range is a NumericalError."""
    n_cols = _check_matrix_size(d, n_in, n_out)
    M = np.zeros((basis_size(d, n_out), n_cols), dtype=complex)
    c = np.array(list(terms.values()), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for term, row, col, factor in _entries(list(terms), d, n_in, n_out, diagonals):
            np.add.at(M.reshape(-1), row * n_cols + col, c[term] * factor)
    if not np.isfinite(M.view(float)).all():
        raise NumericalError("the matrix entries overflow float64; scale the symbol down or "
                             "lower the degree")
    return OperatorMatrix(d, n_in, n_out, side, M)


@lru_cache(maxsize=256)
def _fock_diagonal(p: int, q: int, n_cols: int, antiwick: bool) -> np.ndarray:
    """The one non-zero diagonal of the 1-d factor of the term (p, q) in the
    closed forms of wick_matrix and antiwick_matrix,
    e_g -> [top!/(top-q)!] sqrt((g+p-q)! / g!) e_{g+p-q} when top >= q, with
    top = g (Wick) or g + p (anti-Wick), on the columns g = 0 .. n_cols - 1
    (0 below g = q - p); cached, so read-only.  A factor whose computation
    overflows float64 is a NumericalError."""
    diag = np.zeros(n_cols)
    try:
        for g in range(max(0, q - p), n_cols):
            top = g + p if antiwick else g
            if top >= q:
                ratio = math.factorial(g + p - q) / math.factorial(g)
                diag[g] = math.perm(top, q) * math.sqrt(ratio)
    except OverflowError:  # an integer too large for a float
        diag[g] = math.inf
    bad = np.flatnonzero(~np.isfinite(diag))
    if bad.size:
        raise NumericalError(f"the matrix factor of the term ({p}, {q}) at degree "
                             f"{bad[0]} overflows float64; lower the degree")
    diag.flags.writeable = False
    return diag


def _fock_diagonals(pairs, n_in: int, antiwick: bool):
    """The Fock factors of the pairs (p, q) as _entries takes them: the one
    diagonal k = p - q of each, from _fock_diagonal, on the column degrees
    0 .. n_in."""
    values = np.array([_fock_diagonal(p, q, n_in + 1, antiwick) for p, q in pairs])
    offset = np.array([p - q for p, q in pairs], dtype=np.intp)
    return np.arange(len(pairs)), offset, values.reshape(len(pairs), n_in + 1)


def _fock_matrix(a: WickSymbol, n_in: int, antiwick: bool) -> OperatorMatrix:
    """Wick or anti-Wick matrix of the terms of a, degrees <= n_in to <= n_in
    + z_degree.  Terms with beta_j - alpha_j > n_in in some coordinate send
    every column to 0, as coordinate j's Fock factor acts on no column of
    degree <= n_in, so they are dropped: their offsets need not fit an intp."""
    acting = {(s, t): c for (s, t), c in a.terms.items() if max(map(operator.sub, t, s)) <= n_in}
    return _assemble(acting, a.dimension, n_in, n_in + a.z_degree,
                     lambda pairs: _fock_diagonals(pairs, n_in, antiwick), FOCK)


def wick_matrix(a: WickSymbol, n_in: int) -> OperatorMatrix:
    """Exact matrix of the Wick operator of a polynomial symbol.

    The monomial z^alpha conj(w)^beta acts normal-ordered as
    (multiply by z^alpha) o (d/dz)^beta, giving

        e_g -> [g!/(g-b)!] sqrt((g-b+a)! / g!) e_{g-b+a}   when g >= b,

    a product of such factors over the coordinates.  Columns span degrees
    <= n_in; rows extend to n_in + z_degree so the matrix is exact on its
    domain.
    """
    if a.point_symbol:
        raise UsageError("point symbols are anti-Wick data; use antiwick_matrix")
    return _fock_matrix(a, n_in, False)


def antiwick_matrix(a0: WickSymbol, n_in: int) -> OperatorMatrix:
    """Exact matrix of the anti-Wick operator of a polynomial point symbol.

    Gaussian-moment evaluation: for a0 = w^s conj(w)^t,

        e_g -> d^t [z^{s+g}] / sqrt(g!)
             = [(s+g)!/(s+g-t)!] sqrt((s+g-t)! / g!) e_{s+g-t}  when s+g >= t,

    a product of such factors over the coordinates.  A z-free Wick symbol
    is used as given: its first key slot, 0, is the w-exponent.
    """
    if not a0.point_symbol and a0.z_degree > 0:
        raise UsageError("symbol depends on z; use wick_matrix")
    return _fock_matrix(a0, n_in, True)


def _position_momentum(L: int):
    """1-d position X = (C + A)/2 and momentum D = -i d/dx = -i(A - C)/2 as
    (L, L) matrices on h_0 .. h_{L-1}, read off one apply_ladder call per
    ladder on h_0 + ... + h_{L-1} (C creation, A annihilation): C sends h_g
    only to h_{g+1} and A only to h_{g-1}, so the images do not overlap."""
    units = CoefficientExpansion(1, HERMITE, {(g,): 1.0 for g in range(L)})
    up, down = (apply_ladder(units, LadderKind(kind)).coeffs for kind in (CREATION, ANNIHILATION))
    C = np.diag([up[(n,)].real for n in range(1, L)], -1)
    A = np.diag([down[(n,)].real for n in range(L - 1)], 1)
    return (C + A) / 2, -0.5j * (A - C)


def _dense_diagonals(pairs, n_in: int, n_out: int, table):
    """The dense factors table(p, q), n_out + 1 rows by n_in + 1 columns or
    more, of the pairs as _entries takes them: their non-zero diagonals on
    the column degrees 0 .. n_in, found in one pass over all pairs."""
    tables = np.array([table(p, q)[:, :n_in + 1] for p, q in pairs]).reshape(
        len(pairs), n_out + 1, n_in + 1)
    pair, out, g = np.nonzero(tables)
    kept = np.zeros((len(pairs), n_in + n_out + 1), dtype=bool)
    kept[pair, out - g + n_in] = True
    pair, shifted = np.nonzero(kept)
    out = np.arange(n_in + 1) + shifted[:, None] - n_in
    values = np.where((out >= 0) & (out <= n_out),
                      tables[pair[:, None], out.clip(0, n_out), np.arange(n_in + 1)], 0)
    return pair, shifted - n_in, values


_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _log_top(g: int, k: int) -> float:
    """log of sqrt((g + k)! / (g! 2^k)), the modulus of the entry that a
    product of k factors X or D sends from h_g to h_{g+k}."""
    return (math.lgamma(g + k + 1) - math.lgamma(g + 1) - k * math.log(2)) / 2


def _real_matrix(b: RealSymbol, n_in: int, quantization: str) -> OperatorMatrix:
    if b.quantization != quantization:
        raise UsageError(f"symbol is not tagged {quantization}")
    n_out = n_in + b.total_degree
    _check_matrix_size(b.dimension, n_in, n_out)
    X, D = _position_momentum(n_out + 1)
    weyl = quantization == WEYL

    def table(p, q):
        # row g + p + q of column g is i^q sqrt((g + p + q)! / (g! 2^(p + q))),
        # growing with g: from the first g where it is past float64's range,
        # the columns overflow, and no product is run
        bad = [bisect_left(range(n_in + 1), True,
                           key=lambda g: _log_top(g, p + q) > _LOG_FLOAT_MAX)]
        if bad[0] > n_in:
            # Op(x c) = X Op(c) (Kohn-Nirenberg) or (X Op(c) + Op(c) X)/2 (Weyl);
            # each step moves the degree by one, so columns <= n_in stay exact, and
            # with s steps left those <= n_in + s suffice: no unused column is read
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                T = np.linalg.matrix_power(D, q)[:, :n_in + p + 1]
                for s in reversed(range(p)):
                    kept = T[:, :n_in + s + 1]
                    T = (X @ kept + T @ X[:n_in + s + 2, :n_in + s + 1]) / 2 if weyl else X @ kept
            bad = np.flatnonzero(~np.isfinite(T).all(axis=0))
        if len(bad):
            raise NumericalError(f"the matrix factor of the term ({p}, {q}) at degree "
                                 f"{bad[0]} overflows float64; lower the exponents or the degree")
        return T
    return _assemble(b.terms, b.dimension, n_in, n_out,
                     lambda pairs: _dense_diagonals(pairs, n_in, n_out, table), HERMITE)


def kn_matrix(b: RealSymbol, n_in: int) -> OperatorMatrix:
    """Exact matrix of the Kohn-Nirenberg quantization sum c x^alpha D^beta
    (all position factors to the left of all momentum factors).

    Each coordinate contributes the 1-d table X^a D^b, built from D^b by a
    steps of T <- X T, with X and D the 1-d position and momentum matrices
    read off the ladder operators; truncated at n_out = n_in + total degree,
    their products are exact on the domain.  A table that overflows float64
    on the domain is a NumericalError.
    """
    return _real_matrix(b, n_in, KOHN_NIRENBERG)


def weyl_matrix(b: RealSymbol, n_in: int) -> OperatorMatrix:
    """Exact matrix of the Weyl quantization.

    Each coordinate contributes the 1-d table of the Weyl-ordered product
    of x^a xi^b, built from D^b by a steps of T <- (X T + T X)/2: the Moyal
    product with a linear symbol has no higher terms, so Op^w(x c) =
    (X Op^w(c) + Op^w(c) X)/2.  In closed form this is the
    symmetric-ordering identity

        Op^w(x^a xi^b) = 2^{-a} sum_k binom(a, k) X^k D^b X^{a-k},

    with X and D as in kn_matrix (factors in distinct coordinates commute).
    Equivalent to the double integral formula for polynomial symbols; the
    cost is polynomial in the degree.
    """
    return _real_matrix(b, n_in, WEYL)


def enumerate_symbol_keys(d: int, degree: int):
    """All (alpha, beta) with |alpha| + |beta| <= degree, in a fixed graded
    order (split halves of length-2d multi-indices)."""
    return [(MultiIndex(pair[:d]), MultiIndex(pair[d:]))
            for pair in enumerate_basis(2 * d, degree)]


def real_to_wick_symbol(b: RealSymbol, n_probe: int | None = None) -> WickSymbol:
    """The unique polynomial Wick symbol whose Wick operator matches the
    Bargmann conjugation of Op(b) (identity on coefficients).

    Solved as an exact linear system: unknown coefficients on all monomials
    of total degree <= deg(b), whose unit Wick matrices are built in one pass,
    equations from the quantization matrix built at degree n_probe.  The
    residual check and the cutoff below which a coefficient is dropped are
    1e-9 and 1e-12 of the matrix's largest entry.
    """
    deg = b.total_degree
    if n_probe is None:
        n_probe = deg
    if n_probe < deg:
        raise UsageError(f"n_probe {n_probe} below symbol degree {deg}")
    d, n_out = b.dimension, n_probe + deg
    # checked before the basis_size(2 * d, deg) keys are listed
    n_cols = _check_matrix_size(d, n_probe, n_out, basis_size(2 * d, deg))
    keys = enumerate_symbol_keys(d, deg)
    A = np.zeros((len(keys), basis_size(d, n_out) * n_cols), dtype=complex).T
    for key, row, col, factor in _entries(keys, d, n_probe, n_out,
                                          lambda pairs: _fock_diagonals(pairs, n_probe, False)):
        A[row * n_cols + col, key] = factor
    quantize = kn_matrix if b.quantization == KOHN_NIRENBERG else weyl_matrix
    # the quantization matrix's codomain is n_probe + deg = n_out
    rhs = quantize(b, n_probe).entries.ravel()
    coeffs, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    # both tolerances are relative to the quantization matrix, so that the
    # result scales with the symbol
    residual = np.max(np.abs(A @ coeffs - rhs), initial=0.0)
    scale = np.max(np.abs(rhs), initial=0.0)
    if residual > 1e-9 * scale:
        raise NumericalError(
            f"no exact Wick symbol of degree {deg} reproduces the quantization matrix "
            f"(residual {residual:.3e}); this signals an upstream matrix bug")
    terms = {}
    for (alpha, beta), c in zip(keys, coeffs):
        if abs(c) > 1e-12 * scale:
            terms[(alpha, beta)] = complex(c)
    return WickSymbol(d, terms)


# ---------------------------------------------------------------------------
# quadrature oracles for the defining integrals (d = 1)
# ---------------------------------------------------------------------------

def wick_apply_quadrature(a: WickSymbol, F: CoefficientExpansion, z,
                          radial_order: int = 60, angular_order: int = 128) -> complex:
    """Direct quadrature of pi^{-1} integral a(z,w) F(w) e^{(z-w,w)} dlambda(w),
    d = 1.  Independent route used to validate the closed-form matrices.

    The angular rule is exact for Fourier modes below angular_order, and the
    integrand carries modes up to deg F + deg a; past that the result is
    silently off (about 1e-11 at F degree 140 with the default order), so
    it warns with AccuracyWarning when angular_order <= deg F + deg a."""
    if a.dimension != 1 or F.dimension != 1:
        raise UsageError("quadrature oracle is d = 1 only")
    if F.side != FOCK:
        raise UsageError("oracle expects a fock-side expansion")
    degree = F.degree_bound + a.total_degree
    if angular_order <= degree:
        warnings.warn(f"angular order {angular_order} <= combined degree {degree}; "
                      "result may be inaccurate", AccuracyWarning, stacklevel=2)
    z = _as_complex_vector(z)
    points, weights = gaussian_plane_rule(radial_order, angular_order)
    nodes = points[:, None]
    av = a.evaluate(nodes) if a.point_symbol else a.evaluate(z, nodes)
    Fv = evaluate_fock(F, nodes)
    return complex(np.sum(weights * av * Fv * np.exp(z[0] * np.conj(points))))


# ---------------------------------------------------------------------------
# symbol-class bound checkers (grid evidence, never proofs)
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Grid supremum of a bound ratio plus the maximizing point.

    A finite supremum is evidence for a symbol-class hypothesis on the grid
    only; membership over all of C^{2d} is never claimed.
    """

    description: str
    sup: float
    argmax: tuple | None
    params: dict = field(default_factory=dict)
    details: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        def enc(zw):
            if zw is None:
                return None
            z, w = zw
            z = _as_complex_vector(z)
            w = _as_complex_vector(w)
            return {"z": [[c.real, c.imag] for c in z],
                    "w": [[c.real, c.imag] for c in w]}
        return {
            "description": self.description,
            "sup": self.sup,
            "argmax": enc(self.argmax),
            "params": self.params,
            "details": [
                {**{k: v for k, v in entry.items() if k != "argmax"},
                 "argmax": enc(entry.get("argmax"))}
                for entry in self.details
            ],
        }


def pair_grid(dimension: int = 1, radius: float = 4.0, points_per_axis: int = 7):
    """Cartesian grid of (z, w) pairs in C^d x C^d as two (n, d) complex
    arrays z and w, pair i being (z[i], w[i]); desk-scale default.

    z varies slowest, then w; within a point the coordinates in order, and
    within a coordinate the real part before the imaginary part.  The
    points_per_axis^4 values of (z_j, w_j) per coordinate are checked by
    _tensor_nodes before allocation."""
    if points_per_axis < 1:
        raise UsageError(f"a grid needs at least 1 point per axis, got {points_per_axis}")
    _tensor_nodes(points_per_axis ** 4, dimension, "a grid")
    if not math.isfinite(2.0 * radius):  # the axis's length
        raise UsageError(f"a grid of radius {radius:g} overflows float64; use a smaller radius")
    axis = np.linspace(-radius, radius, points_per_axis)
    values = np.empty((points_per_axis, points_per_axis), dtype=complex)
    values.real, values.imag = axis[:, None], axis[None, :]
    singles = _tensor_grid(values.ravel(), dimension, "a grid")
    return np.repeat(singles, len(singles), axis=0), np.tile(singles, (len(singles), 1))


def _require_finite(values, what, z, w):
    """Raise NumericalError, naming the grid radius, unless all values are finite."""
    if not np.all(np.isfinite(values)):
        radius = float(np.max(np.abs(np.concatenate([z, w]).view(float))))
        raise NumericalError(
            f"{what} is not finite on the grid of radius {radius:g}; use a smaller grid")


def symbol_bound_check(a: WickSymbol, s: float, r: float, direction: str,
                       grid) -> BoundReport:
    """Grid supremum of |a(z,w)| against the Gaussian-modulated bound
    e^{1/2 |z-w|^2 -+ r(|z|^{1/s} + |w|^{1/s})}, on the pairs of the arrays
    grid = (z, w), as pair_grid returns them.

    direction 'gain' tests the decaying bound (ratio multiplies by
    e^{+r(...)}), 'loss' the growing one (ratio multiplies by e^{-r(...)}).
    """
    if s < 0.5:
        raise UsageError(f"s must be >= 1/2, got {s}")
    if r <= 0:
        raise UsageError(f"r must be > 0, got {r}")
    if direction not in ("gain", "loss"):
        raise UsageError("direction must be 'gain' or 'loss'")
    z, w = grid
    if len(z) == 0:
        raise UsageError("bound check requires a non-empty grid")
    sign = +1.0 if direction == "gain" else -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = (-0.5 * np.linalg.norm(z - w, axis=1) ** 2
                    + sign * r * (np.linalg.norm(z, axis=1) ** (1.0 / s)
                                  + np.linalg.norm(w, axis=1) ** (1.0 / s)))
        ratio = np.abs(a.evaluate(z, w)) * np.exp(exponent)
    _require_finite(ratio, "the bound ratio", z, w)
    i = int(np.argmax(ratio))
    return BoundReport(
        description=f"symbol bound check ({direction})",
        sup=float(ratio[i]), argmax=(tuple(z[i]), tuple(w[i])),
        params={"s": s, "r": r, "direction": direction, "grid_size": len(z)})


def shubin_estimate_check(a: WickSymbol, weight: ShubinWeight, max_order: int,
                          n_decay: int, grid) -> BoundReport:
    """Grid suprema of the Shubin-Wick estimate ratios

        |d_z^alpha dbar_w^beta a| /
        (e^{1/2|z-w|^2} omega(sqrt2 conj z) <z+w>^{-rho|a+b|} <z-w>^{-N})

    for all derivative orders |alpha + beta| <= max_order and N <= n_decay.
    Derivatives of polynomial symbols are exact (term-wise); omega of a
    complex argument goes through the R^{2d} realification.  grid is the
    pair of arrays (z, w) of symbol_bound_check.
    """
    if a.point_symbol:
        raise UsageError("Shubin estimates apply to standard Wick symbols")
    if max_order < 0 or n_decay < 0:
        raise UsageError(f"max_order and n_decay must be >= 0, got {max_order} and {n_decay}")
    d = a.dimension
    n_details = basis_size(2 * d, max_order) * (n_decay + 1)
    if n_details > MAX_SHUBIN_DETAILS:
        raise UsageError(f"{n_details} estimate records (derivative orders <= {max_order} in "
                         f"dimension {d}, N <= {n_decay}) are over the budget of "
                         f"{MAX_SHUBIN_DETAILS}; lower the maximum order or n_decay")
    z, w = grid
    if len(z) == 0:
        raise UsageError("bound check requires a non-empty grid")
    with np.errstate(over="ignore"):
        gauss = np.exp(0.5 * np.linalg.norm(z - w, axis=1) ** 2)
    _require_finite(gauss, "the exponential weight", z, w)
    with np.errstate(over="ignore"):
        base = gauss * weight.omega_complex(math.sqrt(2.0) * np.conj(z))
    _require_finite(base, f"the weighted bound (t = {weight.t:g})", z, w)
    if not np.all(base > 0):
        raise NumericalError(f"the weight (t = {weight.t:g}) underflows to 0 on the grid; "
                             f"use a larger t or a smaller grid")
    plus = japanese_bracket(z + w)
    minus = japanese_bracket(z - w)
    # d_z^o dbar_w^o' of c z^e conj(w)^e' is perm(e, o) c z^(e - o) conj(w)^(e' - o'):
    # perm(e, o) = 0 drops the term, and one pair of power tables serves every
    # order o; each factor is an exact integer, rounded once, as in derivative
    terms = list(a.terms)
    keys, orders = enumerate_basis(2 * d, max_order), _basis_array(2 * d, max_order)
    factor = np.ones((len(keys), len(terms)), dtype=object)
    for j, column in enumerate(zip(*map(chain.from_iterable, terms))):
        perms = np.array([[math.perm(e, o) for e in column] for o in range(max_order + 1)],
                         dtype=object)
        factor = factor * perms[orders[:, j]]
    try:
        # a coefficient that overflows makes its ratios non-finite, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = factor.astype(float) * np.array(list(a.terms.values()), dtype=complex)
    except OverflowError as exc:
        raise NumericalError(f"a derivative of order <= {max_order} has a factor over "
                             f"float64's range; lower the maximum order") from exc
    details = []
    # values that overflow make their ratios non-finite, refused below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        exponents, tables = a._power_tables(_as_complex_points(z, d)[0],
                                            _as_complex_points(w, d)[0])
        for key, o, keep, c in zip(keys, orders, factor > 0, coeffs):
            values = np.abs(table_sum(c[keep], exponents[keep] - o, tables))
            bound = base * plus ** (-weight.rho * sum(key))
            for N in range(n_decay + 1):
                ratio = values / (bound * minus ** (-N))
                _require_finite(ratio, "the estimate ratio", z, w)
                i = int(np.argmax(ratio))
                details.append({"alpha": key[:d], "beta": key[d:], "N": N,
                                "sup": float(ratio[i]), "argmax": (tuple(z[i]), tuple(w[i]))})
    best = max(details, key=lambda entry: entry["sup"])
    return BoundReport(
        description="Shubin-Wick estimate check",
        sup=best["sup"], argmax=best["argmax"],
        params={"t": weight.t, "rho": weight.rho,
                "max_order": max_order, "n_decay": n_decay, "grid_size": len(z)},
        details=details)
