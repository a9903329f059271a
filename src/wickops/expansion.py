"""Exact decomposition of a Wick operator into anti-Wick operators plus a
remainder of Wick operators.

For a polynomial symbol a and an integer order N the identity

    Op(a) = sum_{|al| <= N} (-1)^{|al|}/al! Op_aw(a_al)
          + sum_{|al| = N+1} (-1)^{|al|}/al! Op(b_al)

holds with

    a_al(w)   = d_z^al dbar_w^al a (w, w)
    b_al(z,w) = |al| int_0^1 (1-t)^{|al|-1} d_z^al dbar_w^al a (w+t(z-w), w) dt.

For polynomials everything is computed symbolically: the t-integrals reduce
to the Beta identity |al| int (1-t)^{|al|-1} t^k dt = k! |al|! / (k+|al|)!,
so the identity is machine-checkable to round-off.

The substituted first slot w + t(z - w) introduces *holomorphic* w-dependence
into b_al.  Internally those terms are tracked with triple exponents
(z, holomorphic w, conj w); since a holomorphic-w factor simply multiplies
the integrand of the defining integral, the commutation rule [d, z] = 1
normal-orders the result back into a standard (z, conj w) Wick symbol with
the same operator, which is what remainder_symbol returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from .core import FOCK, MultiIndex, UsageError, enumerate_basis
from .symbols import (
    OperatorMatrix,
    WickSymbol,
    _falling_multi,
    antiwick_matrix,
    wick_matrix,
)


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
    """a_al(w) = d_z^al dbar_w^al a (w, w): differentiate term-wise, then set
    z := w by merging the z-exponent into the holomorphic w-exponent."""
    if a.point_symbol:
        raise UsageError("diagonal derivatives apply to standard Wick symbols")
    alpha = MultiIndex(alpha)
    deriv = a.derivative(alpha, alpha)
    terms = {}
    for (p, b), c in deriv.terms.items():
        key = (p, b)  # z^p -> w^p on the diagonal: holomorphic slot of the point symbol
        terms[key] = terms.get(key, 0.0) + c
    return WickSymbol(a.dimension, terms, point_symbol=True)


def _beta_weight(k: int, m: int) -> float:
    """|al| int_0^1 (1-t)^{|al|-1} t^k dt with m = |al| >= 1."""
    return math.factorial(k) * math.factorial(m) / math.factorial(k + m)


def _normal_order(dimension, triple_terms) -> WickSymbol:
    """Collapse triple-exponent terms z^p w^q conj(w)^r into the standard
    (z, conj w) form with the same Wick operator, via d^r z^q ordering."""
    out = {}
    for (p, q, r), c in triple_terms.items():
        ranges = [range(min(qj, rj) + 1) for qj, rj in zip(q, r)]
        for k in product(*ranges):
            k = MultiIndex(k)
            factor = 1
            for kj, qj, rj in zip(k, q, r):
                factor *= math.comb(rj, kj) * (math.factorial(qj) // math.factorial(qj - kj))
            key = (p + (q - k), r - k)
            out[key] = out.get(key, 0.0) + c * factor
    return WickSymbol(dimension, out)


def remainder_symbol(a: WickSymbol, alpha) -> WickSymbol:
    """b_al as a polynomial Wick symbol (normal-ordered standard form).

    Term-wise: differentiate, substitute the first slot w + t(z - w) (the
    conj slot stays w, per the displayed formula), expand in t, and apply
    the exact Beta identity to each t-power.
    """
    if a.point_symbol:
        raise UsageError("remainder symbols apply to standard Wick symbols")
    alpha = MultiIndex(alpha)
    m = alpha.degree()
    if m < 1:
        raise UsageError("remainder terms require |alpha| >= 1")
    d = a.dimension
    triples = {}
    for (A, B), c in a.terms.items():
        if not (A.dominates(alpha) and B.dominates(alpha)):
            continue
        dc = c * _falling_multi(A, alpha) * _falling_multi(B, alpha)
        Ap = A - alpha
        Bp = B - alpha
        # (w + t(z-w))^Ap = sum_m binom(Ap,m) t^|m| (z-w)^m w^{Ap-m}
        m_ranges = [range(aj + 1) for aj in Ap]
        for mm in product(*m_ranges):
            mm = MultiIndex(mm)
            binom_m = 1
            for aj, mj in zip(Ap, mm):
                binom_m *= math.comb(aj, mj)
            weight = _beta_weight(mm.degree(), m)
            # (z-w)^m = sum_{l <= m} binom(m,l) z^l (-w)^{m-l}
            l_ranges = [range(mj + 1) for mj in mm]
            for ll in product(*l_ranges):
                ll = MultiIndex(ll)
                binom_l = 1
                for mj, lj in zip(mm, ll):
                    binom_l *= math.comb(mj, lj)
                sign = (-1) ** (mm.degree() - ll.degree())
                key = (ll, Ap - ll, Bp)
                triples[key] = triples.get(key, 0.0) + dc * binom_m * binom_l * sign * weight
    return _normal_order(d, triples)


def decompose(a: WickSymbol, order: int) -> WickToAntiWickDecomposition:
    """Assemble the full decomposition at the given order.

    order = 0 is permitted as an extension (remainder at |alpha| = 1) and
    flagged in the result."""
    if a.point_symbol:
        raise UsageError("decompose applies to standard Wick symbols")
    if order < 0:
        raise UsageError(f"order must be >= 0, got {order}")
    d = a.dimension
    main = []
    for alpha in enumerate_basis(d, order):
        symbol = diagonal_derivative_symbol(a, alpha)
        main.append(DecompositionTerm(alpha, symbol, (-1) ** alpha.degree(),
                                      alpha.factorial()))
    remainder = []
    for alpha in enumerate_basis(d, order + 1):
        if alpha.degree() != order + 1:
            continue
        symbol = remainder_symbol(a, alpha)
        remainder.append(DecompositionTerm(alpha, symbol, (-1) ** alpha.degree(),
                                           alpha.factorial()))
    return WickToAntiWickDecomposition(order=order, dimension=d,
                                       main_terms=main, remainder_terms=remainder,
                                       order_zero_extension=(order == 0))


def decomposition_matrix(decomp: WickToAntiWickDecomposition, n_in: int,
                         include_remainder: bool = True) -> OperatorMatrix:
    """Signed, weighted matrix sum of the decomposition on a common shape.

    Both quantizations are linear in the symbol, so the main terms fold into
    one point symbol for one antiwick_matrix and the remainder terms into one
    Wick symbol for one wick_matrix; a fold without terms is not built."""
    groups = [(decomp.main_terms, antiwick_matrix)]
    if include_remainder:
        groups.append((decomp.remainder_terms, wick_matrix))
    folds = [(reduce(WickSymbol.plus, [t.symbol.scaled(t.coefficient) for t in terms]), build)
             for terms, build in groups if terms]
    if not folds:
        raise UsageError("empty decomposition")
    pieces = [build(symbol, n_in) for symbol, build in folds if symbol.terms]
    n_out = max((M.codomain_degree for M in pieces), default=n_in)
    total = np.zeros((len(enumerate_basis(decomp.dimension, n_out)),
                      len(enumerate_basis(decomp.dimension, n_in))), dtype=complex)
    for M in pieces:
        total[: M.entries.shape[0]] += M.entries
    return OperatorMatrix(decomp.dimension, n_in, n_out, FOCK, total)


def verify_decomposition(a: WickSymbol, order: int, trunc_degree: int) -> float:
    """Max entrywise deviation between wick_matrix(a) and its decomposition,
    on a common rectangular shape spanning degrees <= trunc_degree."""
    lhs = wick_matrix(a, trunc_degree)
    decomp = decompose(a, order)
    rhs = decomposition_matrix(decomp, trunc_degree)
    n_out = max(lhs.codomain_degree, rhs.codomain_degree)
    diff = lhs.embedded(n_out).entries - rhs.embedded(n_out).entries
    return float(np.max(np.abs(diff))) if diff.size else 0.0
