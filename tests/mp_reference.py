"""A 40-digit mpmath reference for the four quantization matrices and for
the Wick symbols of the Kohn-Nirenberg and Weyl quantizations.

Each matrix is built from its definition, independently of wickops, which
this module never imports: Wick and anti-Wick matrices from their factorial
closed forms on the Fock basis e_g = z^g / sqrt(g!), Kohn-Nirenberg and Weyl
matrices from the operator products X^a D^b and

    Op^w(x^a xi^b) = 2^{-a} sum_k C(a, k) X^k D^b X^{a-k}

on the Hermite functions h_g, with X h_g = sqrt((g+1)/2) h_{g+1} +
sqrt(g/2) h_{g-1} and D = -i d/dx.  Symbols are given as d and a dict
{(alpha, beta): complex}; a matrix maps the graded basis of degree <= n_in
into that of degree <= n_out, rows and columns in graded order (by degree,
ties broken with larger leading entries first).

Wick symbols come from normal ordering on the Fock side, where the position
and momentum of each coordinate are X = (z + d)/sqrt(2) and
D = i(z - d)/sqrt(2), d = d/dz (Folland, Harmonic Analysis in Phase Space,
1989, ch. 1-2).  A normal-ordered operator sum c z^p d^q has the Wick symbol
sum c z^p conj(w)^q.
"""

import itertools
import math

import mpmath
import numpy as np

MP = mpmath.MPContext()
MP.dps = 40


def graded_basis(d, n):
    """The multi-indices of degree <= n in graded order."""
    return sorted((a for a in itertools.product(range(n + 1), repeat=d) if sum(a) <= n),
                  key=lambda a: (sum(a), [-x for x in a]))


def _fock_factor(p, q, g, antiwick):
    """[(out degree, factor)] of z^p (d/dz)^q (Wick) or (d/dz)^q z^p
    (anti-Wick) on e_g, or [] where it is 0."""
    top = g + p if antiwick else g
    if top < q:
        return []
    out = g + p - q
    return [(out, MP.factorial(top) / MP.factorial(top - q) * MP.sqrt(
        MP.factorial(out) / MP.factorial(g)))]


def _hermite_columns(p, q, n_in, n_out, weyl):
    """Columns g = 0 .. n_in of the 1-d table of x^p xi^q, as lists of
    n_out + 1 values: X^p D^q (Kohn-Nirenberg) or the symmetric sum (Weyl)."""
    half = [MP.sqrt(MP.mpf(n) / 2) for n in range(n_out + 2)]

    def apply(v, times, momentum):
        for _ in range(times):
            w = [MP.mpc(0)] * len(v)
            for n, c in enumerate(v):
                up, down = (MP.j * c, -MP.j * c) if momentum else (c, c)
                if n + 1 < len(v):
                    w[n + 1] += up * half[n + 1]
                if n:
                    w[n - 1] += down * half[n]
            v = w
        return v

    columns = []
    for g in range(n_in + 1):
        e = [MP.mpc(int(n == g)) for n in range(n_out + 1)]
        if not weyl:
            columns.append(apply(apply(e, q, True), p, False))
            continue
        total = [MP.mpc(0)] * (n_out + 1)
        for k in range(p + 1):
            v = apply(apply(apply(e, p - k, False), q, True), k, False)
            total = [t + math.comb(p, k) * x for t, x in zip(total, v)]
        columns.append([t / 2**p for t in total])
    return columns


def _assemble(d, terms, n_in, n_out, factor):
    """Dense matrix (list of rows of mpc) of sum c prod_j T(alpha_j, beta_j),
    factor(p, q, g) listing the (out degree, value) pairs of column g of the
    1-d table T(p, q)."""
    rows, cols = graded_basis(d, n_out), graded_basis(d, n_in)
    position = {a: i for i, a in enumerate(rows)}
    M = [[MP.mpc(0)] * len(cols) for _ in rows]
    for (alpha, beta), c in terms.items():
        c = MP.mpc(complex(c).real, complex(c).imag)
        for col, g in enumerate(cols):
            per_coordinate = [factor(p, q, gj) for p, q, gj in zip(alpha, beta, g)]
            for choice in itertools.product(*per_coordinate):
                out = tuple(o for o, _ in choice)
                M[position[out]][col] += c * MP.fprod(v for _, v in choice)
    return M


def fock_matrix(d, terms, n_in, antiwick):
    """(n_out, matrix) of the Wick operator of sum c z^alpha conj(w)^beta
    (antiwick False) or the anti-Wick operator of the point symbol
    sum c w^alpha conj(w)^beta (antiwick True)."""
    n_out = n_in + max((sum(a) for a, _ in terms), default=0)
    return n_out, _assemble(d, terms, n_in, n_out,
                            lambda p, q, g: _fock_factor(p, q, g, antiwick))


def real_matrix(d, terms, n_in, weyl):
    """(n_out, matrix) of the Kohn-Nirenberg (weyl False) or Weyl
    quantization of sum c x^alpha xi^beta."""
    n_out = n_in + max((sum(a) + sum(b) for a, b in terms), default=0)
    tables = {}

    def factor(p, q, g):
        if (p, q) not in tables:
            tables[p, q] = _hermite_columns(p, q, n_in, n_out, weyl)
        return [(out, v) for out, v in enumerate(tables[p, q][g]) if v != 0]
    return n_out, _assemble(d, terms, n_in, n_out, factor)


def _normal_product(left, right):
    """Normal-ordered product of two 1-d operators {(p, q): c}, c z^p d^q:
    (z^p d^q)(z^r d^s) = sum_k C(q, k) r!/(r-k)! z^(p+r-k) d^(q+s-k)."""
    out = {}
    for (p, q), c in left.items():
        for (r, s), e in right.items():
            for k in range(min(q, r) + 1):
                key = (p + r - k, q + s - k)
                out[key] = out.get(key, 0) + c * e * math.comb(q, k) * math.perm(r, k)
    return out


def _ordered_monomial(p, q, weyl):
    """The 1-d operator of x^p xi^q, normal-ordered: X^p D^q (Kohn-Nirenberg),
    or from W = D^q by p steps W <- (X W + W X)/2 (Weyl)."""
    root = MP.sqrt(2)
    X = {(1, 0): 1 / root, (0, 1): 1 / root}
    D = {(1, 0): MP.j / root, (0, 1): -MP.j / root}
    W = {(0, 0): MP.mpc(1)}
    for _ in range(q):
        W = _normal_product(D, W)
    for _ in range(p):
        left = _normal_product(X, W)
        if weyl:
            right = _normal_product(W, X)
            left = {k: (left.get(k, 0) + right.get(k, 0)) / 2 for k in left.keys() | right.keys()}
        W = left
    return W


def wick_symbol(d, terms, weyl):
    """{(alpha, beta): mpc} of the Wick symbol sum c z^alpha conj(w)^beta of
    the Kohn-Nirenberg (weyl False) or Weyl quantization of
    sum c x^alpha xi^beta; coordinates multiply."""
    out = {}
    for (alpha, beta), c in terms.items():
        c = MP.mpc(complex(c).real, complex(c).imag)
        per_coordinate = [_ordered_monomial(p, q, weyl).items() for p, q in zip(alpha, beta)]
        for choice in itertools.product(*per_coordinate):
            key = (tuple(p for (p, _), _ in choice), tuple(q for (_, q), _ in choice))
            out[key] = out.get(key, 0) + c * MP.fprod(v for _, v in choice)
    return {key: v for key, v in out.items() if v != 0}


def ulps_off(entries, reference) -> float:
    """Largest |entry - reference| in ulps of the reference's largest entry
    (0 for a zero matrix that is matched exactly)."""
    largest = max((abs(x) for row in reference for x in row), default=MP.mpf(0))
    error = max((abs(MP.mpc(complex(e).real, complex(e).imag) - x)
                 for got, want in zip(np.asarray(entries).tolist(), reference)
                 for e, x in zip(got, want)), default=MP.mpf(0))
    if largest == 0:
        return 0.0 if error == 0 else math.inf
    return float(error / np.spacing(float(largest)))
