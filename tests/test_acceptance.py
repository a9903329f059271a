"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single pass/fail line
(with its runtime) even under capture, and enforces the stated tolerance and
runtime budget.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from wickops.core import (
    FOCK,
    HERMITE,
    CoefficientExpansion,
    MultiIndex,
    enumerate_basis,
    expansion_inner,
)
from wickops.hermite import (
    ANNIHILATION,
    CREATION,
    LadderKind,
    apply_ladder,
    hermite_function,
)
from wickops.bargmann import (
    bargmann_coeff,
    bargmann_integral,
    fock_inner_quadrature,
)
from wickops.symbols import (
    RealSymbol,
    WickSymbol,
    antiwick_matrix,
    kn_matrix,
    real_to_wick_symbol,
    weyl_matrix,
    wick_matrix,
)
from wickops.expansion import decompose, verify_decomposition
from wickops.analysis import H0, classify_decay, garding_check
from wickops.cli import _selftest_cases


class Criterion:
    """Times a block and prints one uncapturable pass/fail line."""

    def __init__(self, name, budget, capfd):
        self.name = name
        self.budget = budget
        self.capfd = capfd

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        with self.capfd.disabled():
            print(f"[acceptance] {self.name}: {status} ({elapsed:.2f}s, budget {self.budget:g}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s"
        return False


def monomials(d, max_degree):
    return [a for a in enumerate_basis(d, max_degree)]


def embedded_deviation(m1, m2):
    n_out = max(m1.codomain_degree, m2.codomain_degree)
    return float(np.max(np.abs(m1.embedded(n_out).entries - m2.embedded(n_out).entries)))


def test_criterion_1_basis_map(capfd):
    with Criterion("1 basis-map identity", 5.0, capfd):
        rng = np.random.default_rng(101)
        for alpha in range(9):
            f = lambda pts, a=alpha: np.array([hermite_function((a,), p) for p in pts])
            for _ in range(20):
                r = 2.0 * math.sqrt(rng.uniform(0, 1))
                theta = rng.uniform(0, 2 * math.pi)
                z = r * complex(math.cos(theta), math.sin(theta))
                got = bargmann_integral(f, [z])
                want = z**alpha / math.sqrt(math.factorial(alpha))
                assert abs(got - want) <= 1e-8


def test_criterion_2_isometry(capfd):
    with Criterion("2 isometry", 30.0, capfd):
        rng = np.random.default_rng(102)
        for _ in range(50):
            coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(11)}
            f = CoefficientExpansion(1, HERMITE, coeffs)
            F = bargmann_coeff(f)
            assert expansion_inner(F, F) == expansion_inner(
                f.with_side(FOCK), f.with_side(FOCK))
            assert abs(fock_inner_quadrature(F, F) - expansion_inner(F, F)) <= 1e-8


def test_criterion_3_ladder_intertwining(capfd):
    with Criterion("3 ladder intertwining", 5.0, capfd):
        mult_z = wick_matrix(WickSymbol(1, {((1,), (0,)): math.sqrt(2)}), 10)
        deriv = wick_matrix(WickSymbol(1, {((0,), (1,)): math.sqrt(2)}), 10)
        for n in range(11):
            f = CoefficientExpansion(1, HERMITE, {(n,): 1.0})
            up = bargmann_coeff(apply_ladder(f, LadderKind(CREATION, 0)))
            assert set(up.coeffs) == {(n + 1,)}
            assert up.coeffs[(n + 1,)] == pytest.approx(
                mult_z.entries[n + 1, n], rel=1e-15)
            down = bargmann_coeff(apply_ladder(f, LadderKind(ANNIHILATION, 0)))
            if n == 0:
                assert not down.coeffs
            else:
                assert set(down.coeffs) == {(n - 1,)}
                assert down.coeffs[(n - 1,)] == pytest.approx(
                    deriv.entries[n - 1, n], rel=1e-15)


def test_criterion_4_quantization_correspondence(capfd):
    with Criterion("4 quantization correspondence", 10.0, capfd):
        for d in (1, 2):
            trunc = 8 if d == 1 else 5
            for kind, builder in (("kohn_nirenberg", kn_matrix), ("weyl", weyl_matrix)):
                for alpha in monomials(d, 3):
                    for beta in monomials(d, 3 - alpha.degree()):
                        b = RealSymbol(d, kind, {(alpha, beta): 1.0})
                        direct = builder(b, trunc)
                        a = real_to_wick_symbol(b)
                        via_wick = wick_matrix(a, trunc)
                        assert embedded_deviation(direct, via_wick) <= 1e-12
            # harmonic oscillator, Weyl side
            terms = {}
            for j in range(d):
                x2 = MultiIndex.zero(d) + MultiIndex.unit(d, j) + MultiIndex.unit(d, j)
                terms[(x2, MultiIndex.zero(d))] = 1.0
                terms[(MultiIndex.zero(d), x2)] = 1.0
            b = RealSymbol(d, "weyl", terms)
            a = real_to_wick_symbol(b)
            want = {(MultiIndex.zero(d), MultiIndex.zero(d)): float(d)}
            for j in range(d):
                e = MultiIndex.unit(d, j)
                want[(e, e)] = 2.0
            assert set(a.terms) == set(want)
            for key, v in want.items():
                assert a.terms[key] == pytest.approx(v, abs=1e-10)
            M = wick_matrix(a, 6).entries
            basis = enumerate_basis(d, 6)
            diag = np.array([2 * g.degree() + d for g in basis], dtype=float)
            assert np.max(np.abs(M[: len(basis)] - np.diag(diag))) <= 1e-12


def test_criterion_5_decomposition_exactness(capfd):
    with Criterion("5 decomposition exactness", 30.0, capfd):
        for d in (1, 2):
            trunc = 8 if d == 1 else 5
            for p in monomials(d, 3):
                for q in monomials(d, 3 - 0):
                    a = WickSymbol(d, {(p, q): 1.0})
                    free_order = max(1, min(p.degree(), q.degree()))
                    assert verify_decomposition(a, decompose(a, free_order), trunc) <= 1e-10
                    assert verify_decomposition(a, decompose(a, 1), trunc) <= 1e-10


def test_criterion_6_antiwick_positivity(capfd):
    with Criterion("6 anti-Wick positivity", 30.0, capfd):
        rng = np.random.default_rng(106)
        sigmas = [(0,), (1,), (2,), (3,)]
        for _ in range(20):
            lam = rng.uniform(0, 2, size=len(sigmas))
            terms = {}
            for s, l in zip(sigmas, lam):
                key = (MultiIndex(s), MultiIndex(s))
                terms[key] = terms.get(key, 0.0) + l
            a0 = WickSymbol(1, terms, point_symbol=True)
            for trunc in (8, 16):
                M = antiwick_matrix(a0, trunc).entries[:trunc + 1, :trunc + 1]
                eigs = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
                assert eigs.min() >= -1e-10


def test_criterion_7_garding_probe(capfd):
    with Criterion("7 sharp Garding probe", 60.0, capfd):
        a = WickSymbol(1, {((1,), (1,)): 2.0, ((0,), (0,)): 1.0})
        rep = garding_check(a, [8, 16, 32])
        assert rep.min_real_eigenvalues == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)
        a = WickSymbol(1, {((1,), (1,)): 1.0, ((0,), (0,)): -1.0})
        rep = garding_check(a, [8, 16, 32])
        assert rep.min_real_eigenvalues == pytest.approx([-1.0, -1.0, -1.0], abs=1e-10)

        rng = np.random.default_rng(107)
        for _ in range(10):
            # sum of squares |c0 + c1 z|^2 terms: nonnegative on the diagonal
            terms = {}
            for _ in range(2):
                c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                for (p, cp), (q, cq) in product(enumerate(c), repeat=2):
                    key = (MultiIndex((p,)), MultiIndex((q,)))
                    terms[key] = terms.get(key, 0.0) + cp * np.conj(cq)
            a = WickSymbol(1, terms)
            # grid check that the diagonal symbol really is nonnegative
            for w in np.linspace(-3, 3, 13):
                for v in np.linspace(-3, 3, 13):
                    val = a.evaluate([complex(w, v)], [complex(w, v)])
                    assert val.real >= -1e-10 and abs(val.imag) <= 1e-10
            rep = garding_check(a, [8, 16, 32])
            last, prev = rep.min_real_eigenvalues[-1], rep.min_real_eigenvalues[-2]
            assert abs(last - prev) <= 0.05 * max(abs(last), abs(prev), 1e-6)
            assert rep.stabilized


def test_criterion_8_decay_classifier(capfd):
    with Criterion("8 decay classifier", 30.0, capfd):
        for s in (0.5, 1.0, 2.0):
            for r in (0.5, 1.0, 2.0):
                coeffs = {(k,): math.exp(-r * k ** (1.0 / (2.0 * s)))
                          for k in range(65)}
                fit = classify_decay(CoefficientExpansion(1, HERMITE, coeffs))
                assert abs(fit.parameter - s) <= 0.05
        finite = CoefficientExpansion(1, HERMITE, {(0,): 1.0, (2,): -0.3})
        assert classify_decay(finite).family == H0


def test_criterion_9_selftest_oracles(capfd):
    with Criterion("9 selftest oracles", 30.0, capfd):
        checks = _selftest_cases()
        assert checks, "selftest produced no checks"
        failed = [name for name, dev, tol, ok in checks if not ok]
        assert not failed, f"selftest failures: {failed}"
