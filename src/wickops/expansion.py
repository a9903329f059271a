"""Exact decomposition of a Wick operator into anti-Wick operators plus a
remainder of Wick operators.

For a polynomial symbol a and an integer order N the identity

    Op(a) = sum_{|al| <= N} (-1)^{|al|}/al! Op_aw(a_al)
          + sum_{|al| = N+1} (-1)^{|al|}/al! Op(b_al)

holds with

    a_al(w)   = d_z^al dbar_w^al a (w, w)
    b_al(z,w) = |al| int_0^1 (1-t)^{|al|-1} d_z^al dbar_w^al a (w+t(z-w), w) dt.

For polynomials everything is computed symbolically.  Each b_al has a
closed form in the terms of d_z^al dbar_w^al a (see remainder_symbol), so
the identity is machine-checkable to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from .core import FOCK, MultiIndex, NumericalError, UsageError, basis_size, enumerate_basis
from .symbols import OperatorMatrix, WickSymbol, antiwick_matrix, wick_matrix

# most terms decompose lists (alpha with |alpha| <= order + 1, each a symbol and
# a record in the report), and most a remainder symbol's closed form sums
MAX_DECOMPOSITION_TERMS = 10_000


@dataclass(frozen=True)
class DecompositionTerm:
    """One signed, factorial-weighted symbol in the decomposition; the full
    coefficient in front of the operator is sign / alpha_factorial."""

    alpha: MultiIndex
    symbol: WickSymbol
    sign: int
    alpha_factorial: int

    @property
    def coefficient(self) -> float:
        return self.sign / self.alpha_factorial


@dataclass
class WickToAntiWickDecomposition:
    order: int
    dimension: int
    main_terms: list
    remainder_terms: list
    order_zero_extension: bool = False

    def to_json_dict(self) -> dict:
        def enc(term):
            return {"alpha": list(term.alpha), "sign": term.sign,
                    "alpha_factorial": term.alpha_factorial,
                    "symbol": term.symbol.to_json_dict()}
        return {
            "order": self.order,
            "dimension": self.dimension,
            "order_zero_extension": self.order_zero_extension,
            "main_terms": [enc(t) for t in self.main_terms],
            "remainder_terms": [enc(t) for t in self.remainder_terms],
        }


def diagonal_derivative_symbol(a: WickSymbol, alpha) -> WickSymbol:
    """a_al(w) = d_z^al dbar_w^al a (w, w): differentiate term-wise; setting
    z := w turns each z-exponent into the holomorphic w-exponent, which is
    the first key slot of a point symbol."""
    if a.point_symbol:
        raise UsageError("diagonal derivatives apply to standard Wick symbols")
    return WickSymbol(a.dimension, a.derivative(alpha, alpha).terms, point_symbol=True)


def remainder_symbol(a: WickSymbol, alpha) -> WickSymbol:
    """b_al as a polynomial Wick symbol in standard (z, conj w) form.

    With m = |al|, a term c' z^A' conj(w)^B' of d_z^al dbar_w^al a gives

        c' sum_{k <= min(A', B')} binom(A', k) binom(B', k) k! m/(m + |k|)
           z^{A'-k} conj(w)^{B'-k}.

    Derivation: ((1-t)w + tz)^A' = sum_l binom(A', l) t^|l| (1-t)^{|A'-l|}
    z^l w^{A'-l}.  The holomorphic factor w^{A'-l} multiplies the integrand
    of the defining integral, so [d, z] = 1 normal-orders w^{A'-l} conj(w)^B'
    into sum_k binom(B', k) (A'-l)!/(A'-l-k)! z^{A'-l-k} conj(w)^{B'-k}; with
    z^l in front the power z^{A'-k} no longer depends on l, and
    binom(A', l) (A'-l)!/(A'-l-k)! = binom(A', k) k! binom(A'-k, l).  The
    t-integral m int (1-t)^{m-1+|A'-l|} t^|l| dt is a Beta value depending
    on |l| only; summing binom(A'-k, l) over |l| = j (Vandermonde) and then
    over j (hockey stick) leaves m/(m + |k|).
    """
    if a.point_symbol:
        raise UsageError("remainder symbols apply to standard Wick symbols")
    alpha = MultiIndex(alpha)
    m = alpha.degree()
    if m < 1:
        raise UsageError("remainder terms require |alpha| >= 1")
    derived = a.derivative(alpha, alpha).terms
    n_terms = sum(math.prod(min(aj, bj) + 1 for aj, bj in zip(A, B)) for A, B in derived)
    if n_terms > MAX_DECOMPOSITION_TERMS:  # before any range below is built
        raise UsageError(f"the remainder symbol of order {alpha} is a sum of more than "
                         f"{MAX_DECOMPOSITION_TERMS} terms; lower the symbol's degree")
    out = {}
    for (A, B), c in derived.items():
        for k in product(*(range(min(aj, bj) + 1) for aj, bj in zip(A, B))):
            k = MultiIndex(k)
            count = 1
            for aj, bj, kj in zip(A, B, k):
                count *= math.comb(aj, kj) * math.comb(bj, kj) * math.factorial(kj)
            key = (A - k, B - k)
            try:
                out[key] = out.get(key, 0.0) + c * (count * m / (m + k.degree()))
            except OverflowError as exc:  # count is past float64's range
                raise NumericalError(f"a factor of the remainder symbol of order {alpha} is "
                                     f"past float64's range") from exc
    return WickSymbol(a.dimension, out)


def decompose(a: WickSymbol, order: int) -> WickToAntiWickDecomposition:
    """Assemble the full decomposition at the given order.

    order = 0 is permitted as an extension (remainder at |alpha| = 1) and
    flagged in the result.  Decompositions of more than
    MAX_DECOMPOSITION_TERMS terms are refused before any is listed."""
    if a.point_symbol:
        raise UsageError("decompose applies to standard Wick symbols")
    if order < 0:
        raise UsageError(f"order must be >= 0, got {order}")
    d = a.dimension
    n_terms = basis_size(d, order + 1)
    if n_terms > MAX_DECOMPOSITION_TERMS:
        raise UsageError(f"{n_terms} decomposition terms (multi-indices of degree <= "
                         f"{order + 1} in dimension {d}) are over the budget of "
                         f"{MAX_DECOMPOSITION_TERMS}; lower the order")
    # in graded order the indices of degree order + 1 are the suffix
    basis, split = enumerate_basis(d, order + 1), basis_size(d, order)

    def terms(symbol_of, alphas):
        return [DecompositionTerm(alpha, symbol_of(a, alpha), (-1) ** alpha.degree(),
                                  alpha.factorial()) for alpha in alphas]
    main = terms(diagonal_derivative_symbol, basis[:split])
    remainder = terms(remainder_symbol, basis[split:])
    return WickToAntiWickDecomposition(order=order, dimension=d,
                                       main_terms=main, remainder_terms=remainder,
                                       order_zero_extension=(order == 0))


def decomposition_matrix(decomp: WickToAntiWickDecomposition, n_in: int) -> OperatorMatrix:
    """Signed, weighted matrix sum of the decomposition on a common shape.

    Both quantizations are linear in the symbol, so the main terms fold into
    one point symbol for one antiwick_matrix and the remainder terms into one
    Wick symbol for one wick_matrix; a fold without terms is not built."""
    groups = [(decomp.main_terms, antiwick_matrix), (decomp.remainder_terms, wick_matrix)]
    folds = [(reduce(WickSymbol.plus, [t.symbol.scaled(t.coefficient) for t in terms]), build)
             for terms, build in groups if terms]
    if not folds:
        raise UsageError("empty decomposition")
    pieces = [build(symbol, n_in) for symbol, build in folds if symbol.terms]
    n_out = max((M.codomain_degree for M in pieces), default=n_in)
    total = np.zeros((basis_size(decomp.dimension, n_out), basis_size(decomp.dimension, n_in)),
                     dtype=complex)
    for M in pieces:
        total[: M.entries.shape[0]] += M.entries
    return OperatorMatrix(decomp.dimension, n_in, n_out, FOCK, total)


def verify_decomposition(a: WickSymbol, decomp: WickToAntiWickDecomposition,
                         trunc_degree: int) -> float:
    """Max entrywise deviation between wick_matrix(a) and the matrix of its
    decomposition decomp, on a common rectangular shape spanning degrees
    <= trunc_degree."""
    lhs = wick_matrix(a, trunc_degree)
    rhs = decomposition_matrix(decomp, trunc_degree)
    n_out = max(lhs.codomain_degree, rhs.codomain_degree)
    diff = lhs.embedded(n_out).entries - rhs.embedded(n_out).entries
    return float(np.max(np.abs(diff))) if diff.size else 0.0
