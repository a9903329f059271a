"""Multi-index arithmetic, graded bases, Gauss-Hermite quadrature and the
sparse coefficient-expansion container shared by the real and complex sides.

Every basis (Hermite functions on the real side, normalized monomials on the
Fock side) is indexed by multi-indices in graded lexicographic order: total
degree first, ties broken so that weight on earlier coordinates comes first,
e.g. for d = 2 the order starts (0,0), (1,0), (0,1), (2,0), (1,1), (0,2).
All matrices in the package index rows and columns by this order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

HERMITE = "hermite"
FOCK = "fock"

# Largest tensor quadrature rule built, in nodes; beyond it the node arrays
# and the sampled integrand grow without bound.
MAX_QUAD_NODES = 1_000_000

# Most coordinates a tensor rule spans: numpy arrays have at most 64 axes,
# and the rule's node grid and sampled block take one per coordinate.
MAX_TENSOR_DIMENSION = 64

# Largest 1-d Gauss-Hermite order built, since hermgauss solves an
# order x order eigenproblem.  Orders from 372 on already give NaN weights in
# float64, which gauss_hermite refuses too.
MAX_QUAD_ORDER = 1000

# Largest basis enumerate_basis lists, in entries (length x d): each
# multi-index is a tuple of Python ints, so this is about 100 MB.
MAX_BASIS_ENTRIES = 1_000_000

# Largest table of powers built, in entries: power_tables builds one complex
# (points x (degree + 1)) table per coordinate, 160 MB at this size.
MAX_POWER_ENTRIES = 10_000_000

__all__ = [
    "CalculusError",
    "UsageError",
    "InputDataError",
    "NumericalError",
    "MultiIndex",
    "grlex_key",
    "enumerate_basis",
    "QuadratureRule",
    "gauss_hermite",
    "tensor_rule",
    "table_sum",
    "power_tables",
    "CoefficientExpansion",
    "expansion_inner",
    "HERMITE",
    "FOCK",
]


class CalculusError(Exception):
    """Base class for package errors."""


class UsageError(CalculusError):
    """Caller violated a precondition (wrong side, mismatched dimensions, ...)."""


class InputDataError(CalculusError):
    """Supplied data is malformed or produced non-finite samples."""


class NumericalError(CalculusError):
    """A numerical routine failed (eigen-solve, inconsistent linear system)."""


class MultiIndex(tuple):
    """Tuple of non-negative integers with graded-lexicographic ordering.

    Addition and subtraction are componentwise; subtraction raises if any
    entry would go negative.
    """

    def __new__(cls, entries):
        entries = tuple(map(int, entries))
        if min(entries, default=0) < 0:
            raise UsageError(f"multi-index entries must be non-negative, got {entries}")
        return super().__new__(cls, entries)

    def degree(self) -> int:
        return sum(self)

    def factorial(self) -> int:
        return math.prod(map(math.factorial, self))

    def dominates(self, other) -> bool:
        """Componentwise self >= other (both derivatives and shifts need this)."""
        return len(self) == len(other) and all(map(operator.ge, self, other))

    def __add__(self, other):
        if len(self) != len(other):
            raise UsageError("multi-index dimension mismatch in addition")
        return MultiIndex(map(operator.add, self, other))

    def __sub__(self, other):
        if len(self) != len(other):
            raise UsageError("multi-index dimension mismatch in subtraction")
        return MultiIndex(map(operator.sub, self, other))

    def __lt__(self, other):
        return grlex_key(self) < grlex_key(other)

    def __le__(self, other):
        return grlex_key(self) <= grlex_key(other)

    def __gt__(self, other):
        return grlex_key(self) > grlex_key(other)

    def __ge__(self, other):
        return grlex_key(self) >= grlex_key(other)

    @staticmethod
    def unit(d: int, j: int) -> "MultiIndex":
        return MultiIndex(int(i == j) for i in range(d))

    @staticmethod
    def zero(d: int) -> "MultiIndex":
        return MultiIndex((0,) * d)


def grlex_key(alpha):
    """Sort key realizing the graded lexicographic order."""
    return (sum(alpha), tuple(-a for a in alpha))


def _fixed_degree(d, n):
    """The multi-indices of length d and degree n in graded-lex order, as
    lists, by stars and bars: star i at slot s of the n + d - 1 has s - i
    bars before it, so it counts towards coordinate s - i, and star slots in
    lexicographic order put the first coordinate's largest value first."""
    for stars in combinations(range(n + d - 1), n):
        alpha = [0] * d
        for i, s in enumerate(stars):
            alpha[s - i] += 1
        yield alpha


def basis_size(d: int, degree_bound: int) -> int:
    """len(enumerate_basis(d, degree_bound)), in closed form; it is at least
    2^min(d, degree_bound), so past 2^64 it is refused before math.comb."""
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if degree_bound < 0:
        raise UsageError(f"degree bound must be >= 0, got {degree_bound}")
    if min(degree_bound, d) > 64:
        raise UsageError(f"the basis of degree <= {degree_bound} in dimension {d} has over "
                         f"2^64 elements, over every budget; lower the degree or the dimension")
    return math.comb(degree_bound + d, d)


@lru_cache(maxsize=64)
def enumerate_basis(d: int, degree_bound: int) -> tuple:
    """All multi-indices of length d and degree <= degree_bound, graded-lex.

    The list for bound N is a prefix of the list for any bound M > N, which
    is what makes zero-padding of operator matrices a pure row extension.
    Bases of more than MAX_BASIS_ENTRIES entries (length x d) are refused
    before any is built.
    """
    entries = basis_size(d, degree_bound) * d  # refuses d < 1 and degree_bound < 0
    if entries > MAX_BASIS_ENTRIES:
        raise UsageError(f"the basis of degree <= {degree_bound} in dimension {d} has "
                         f"{entries} entries, over the budget of {MAX_BASIS_ENTRIES}; "
                         f"lower the degree or the dimension")
    out = []
    for n in range(degree_bound + 1):
        out.extend(MultiIndex(a) for a in _fixed_degree(d, n))
    return tuple(out)


@lru_cache(maxsize=64)
def _rank_table(d: int, top: int) -> np.ndarray:
    """Closed-form graded rank, table[s, j] = #{length d - j, degree < s} for
    s <= top: g of degree <= top sits at position sum_j table[g_j + ... +
    g_{d-1}, j] of enumerate_basis.  Cached and shared, so read-only."""
    table = np.array([[math.comb(s - 1 + m, m) if s else 0 for m in range(d, 0, -1)]
                      for s in range(top + 1)], dtype=np.intp)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _basis_array(d: int, degree_bound: int) -> np.ndarray:
    """enumerate_basis(d, degree_bound) as a (len, d) integer array.  It is
    cached and shared by every caller, so it is read-only."""
    out = np.array(enumerate_basis(d, degree_bound), dtype=np.intp).reshape(-1, d)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule for the weight e^{-x^2} on the real line."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule (weight e^{-x^2}), exact on degree <= 2*order - 1.

    numpy's hermgauss runs the Golub-Welsch symmetric tridiagonal
    eigen-solve internally.  Rules are cached per order and every caller
    shares one, so its node and weight arrays are read-only.  Orders over
    MAX_QUAD_ORDER and rules that are not finite in float64 are refused.
    """
    if order < 1:
        raise UsageError(f"quadrature order must be >= 1, got {order}")
    if order > MAX_QUAD_ORDER:
        raise UsageError(f"quadrature order {order} is over the budget of {MAX_QUAD_ORDER}")
    try:
        # overflow and underflow show up as non-finite entries, checked below
        with np.errstate(all="ignore"):
            nodes, weights = np.polynomial.hermite.hermgauss(order)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hermgauss is robust
        raise NumericalError(f"Gauss-Hermite construction failed at order {order}") from exc
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise NumericalError(f"the order-{order} Gauss-Hermite rule is not finite in "
                             f"float64; lower the quadrature order")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


def _tensor_nodes(q: int, d: int, name: str) -> int:
    """Point count q^d of the d-fold tensor grid of q values per coordinate,
    named `name` in its refusals: grids over MAX_TENSOR_DIMENSION
    coordinates or MAX_QUAD_NODES points are refused, so callers check
    before they allocate anything of that size."""
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if d > MAX_TENSOR_DIMENSION:  # before q^d, an integer of d log2(q) bits
        raise UsageError(f"{name} in dimension {d} is over the budget of "
                         f"{MAX_TENSOR_DIMENSION} coordinates")
    # from q = 2^64 on, q^d is over the budget and may have more digits than str prints
    n_points = q ** d if q < 2**64 else None
    if n_points is None or n_points > MAX_QUAD_NODES:
        raise UsageError(f"{name} in dimension {d} has {n_points or 'over 2^64'} points, over the "
                         f"budget of {MAX_QUAD_NODES}; use fewer points per coordinate or fewer "
                         f"coordinates")
    return n_points


def _tensor_grid(values, d: int, name: str) -> np.ndarray:
    """Every d-tuple of the 1-d array values as a (q^d, d) array, the first
    coordinate varying slowest; refused by _tensor_nodes, named `name`,
    before allocation."""
    q = len(values)
    _tensor_nodes(q, d, name)
    return np.stack([np.tile(np.repeat(values, q ** (d - 1 - j)), q ** j) for j in range(d)],
                    axis=1)


def tensor_rule(rule: QuadratureRule, d: int):
    """Tensorize a 1-d rule over d coordinates.

    Returns (points, weights): points has shape (order^d, d) with the last
    coordinate varying fastest, so a node-indexed array reshapes to
    (order,) * d; weights is the product weight.  Rules of more than
    MAX_QUAD_NODES nodes are refused before allocation.
    """
    points = _tensor_grid(rule.nodes, d, "a tensor rule")
    weights = reduce(np.multiply.outer, [rule.weights] * d).ravel()
    return points, weights


def table_sum(coeffs, exponents, tables) -> np.ndarray:
    """Batch values of a sum of products of 1-d basis values: for k
    coefficients, (k, m) integer exponents and m tables, tables[j] being the
    (n, top + 1) values of coordinate j's 1-d basis at n points, entry i of
    the (n,) result is sum_k c_k prod_j tables[j][i, e_kj].  A table of one
    row broadcasts against the others.

    The coefficient is multiplied in first and the coordinates in order, and
    each row is summed over k in one np.sum; the gathered columns are
    C-contiguous, so the sum's rounding does not depend on the tables'
    memory layout."""
    exponents = np.asarray(exponents, dtype=np.intp).reshape(len(coeffs), len(tables))
    values = np.asarray(coeffs, dtype=complex)
    for j, table in enumerate(tables):
        values = values * np.take(table, exponents[:, j], axis=1)
    return np.sum(values, axis=1)


def power_tables(points, top: int) -> list:
    """The (n, top + 1) tables points[:, j] ** (0 .. top) of an (n, d) batch
    of complex points, one per coordinate, for table_sum.  Tables over
    MAX_POWER_ENTRIES entries are refused before allocation."""
    _check_powers(points, top)
    return [points[:, j, None] ** np.arange(top + 1) for j in range(points.shape[1])]


def _check_powers(points, top: int):
    """Refuse tables of degree top over MAX_POWER_ENTRIES entries on the
    (n, d) points before top becomes a C integer."""
    size = points.shape[0] * (top + 1)
    if size > MAX_POWER_ENTRIES:
        raise UsageError(f"powers of {points.shape[0]} points up to degree {top} take {size} "
                         f"entries, over the budget of {MAX_POWER_ENTRIES}; lower the degree "
                         f"or use fewer points")


def json_int(value) -> int:
    """Integer read from input JSON: an int, or a float of integral value.  A
    bool, a non-finite or fractional number and any other type raise
    ValueError, which each reader reports as an input-data error."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{value!r} is not an integer")


def json_index(entries) -> MultiIndex:
    """Multi-index read from input JSON; a bad entry is an input-data error."""
    try:
        return MultiIndex(map(json_int, entries))
    except (UsageError, TypeError, ValueError) as exc:
        raise InputDataError(f"bad multi-index {entries!r} in input JSON: {exc}") from exc


def json_value(pair) -> complex:
    """Finite complex number read from an input JSON [re, im] pair."""
    value = complex(pair[0], pair[1])
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise InputDataError(f"non-finite value {list(pair)} in input JSON")
    return value


class CoefficientExpansion:
    """Finite map multi-index -> complex coefficient, on one side of the
    Bargmann transform.

    On the hermite side the expansion means sum_a c_a h_a; on the fock side
    sum_a c_a e_a with e_a(z) = z^a / sqrt(a!).  Both bases are orthonormal,
    so the squared norm is sum |c_a|^2 on either side.
    """

    def __init__(self, dimension, side, coeffs):
        if dimension < 1:
            raise UsageError(f"dimension must be >= 1, got {dimension}")
        if side not in (HERMITE, FOCK):
            raise UsageError(f"side must be '{HERMITE}' or '{FOCK}', got {side!r}")
        self.dimension = int(dimension)
        self.side = side
        clean = {}
        for alpha, value in dict(coeffs).items():
            if not isinstance(alpha, MultiIndex):
                alpha = MultiIndex(alpha)
            if len(alpha) != self.dimension:
                raise UsageError(
                    f"index {alpha} has length {len(alpha)}, expected {self.dimension}")
            value = complex(value)
            if value != 0:
                clean[alpha] = value
        self.coeffs = clean

    @property
    def degree_bound(self) -> int:
        """Max degree present (0 for the zero expansion)."""
        if not self.coeffs:
            return 0
        return max(a.degree() for a in self.coeffs)

    def norm_squared(self) -> float:
        return float(sum(abs(v) ** 2 for v in self.coeffs.values()))

    def with_side(self, side) -> "CoefficientExpansion":
        return CoefficientExpansion(self.dimension, side, self.coeffs)

    def scaled(self, factor) -> "CoefficientExpansion":
        return CoefficientExpansion(
            self.dimension, self.side, {a: factor * v for a, v in self.coeffs.items()})

    def plus(self, other) -> "CoefficientExpansion":
        if other.dimension != self.dimension or other.side != self.side:
            raise UsageError("cannot add expansions with different dimension or side")
        out = dict(self.coeffs)
        for a, v in other.coeffs.items():
            out[a] = out.get(a, 0.0) + v
        return CoefficientExpansion(self.dimension, self.side, out)

    def dense(self, degree_bound=None) -> np.ndarray:
        """Coefficient vector over the graded basis up to degree_bound."""
        n = self.degree_bound if degree_bound is None else degree_bound
        return np.array([self.coeffs.get(a, 0) for a in enumerate_basis(self.dimension, n)],
                        dtype=complex)

    def to_json_dict(self) -> dict:
        items = sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0]))
        return {
            "dimension": self.dimension,
            "side": self.side,
            "coeffs": [
                {"index": list(a), "value": [v.real, v.imag]} for a, v in items
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "CoefficientExpansion":
        try:
            coeffs = {json_index(entry["index"]): json_value(entry["value"])
                      for entry in data["coeffs"]}
            return cls(json_int(data["dimension"]), data["side"], coeffs)
        except (KeyError, TypeError, ValueError, IndexError, UsageError) as exc:
            raise InputDataError(f"malformed expansion JSON: {exc}") from exc

    def __repr__(self):
        return (f"CoefficientExpansion(dimension={self.dimension}, side={self.side!r}, "
                f"terms={len(self.coeffs)}, degree_bound={self.degree_bound})")


def expansion_inner(f: CoefficientExpansion, g: CoefficientExpansion) -> complex:
    """Sesquilinear inner product sum_a c_f(a) * conj(c_g(a)).

    Valid on either side since both bases are orthonormal; conjugate-linear
    in the second slot.
    """
    if f.dimension != g.dimension:
        raise UsageError("expansion dimensions differ")
    if f.side != g.side:
        raise UsageError("expansions live on different sides of the transform")
    small, large = (f.coeffs, g.coeffs) if len(f.coeffs) <= len(g.coeffs) else (g.coeffs, f.coeffs)
    total = 0.0 + 0.0j
    for a in small:
        if a in large:
            total += f.coeffs.get(a, 0.0) * np.conj(g.coeffs.get(a, 0.0))
    return complex(total)
