"""The four quantization matrices, decomposition_matrix and
real_to_wick_symbol against the 40-digit mpmath reference of mp_reference,
to a bound in ulps of the reference's largest entry or coefficient.

Each bound is the largest deviation measured on 6,000 random symbols of the
drawn kind (d <= 2, up to 3 terms, exponents <= 2 per coordinate,
coefficients of modulus 0.5 .. 2, n_in <= 3) times 1.5, rounded up to a half
ulp: 2.24 ulps for wick_matrix, 2.36 for antiwick_matrix, 4.72 for kn_matrix
and 3.21 for weyl_matrix.  decomposition_matrix, at orders 0 .. 2 and n_in
the largest |beta| or one more, came within 67.9 ulps of the Wick matrix
(bound 102), and real_to_wick_symbol within 112,794 ulps for
Kohn-Nirenberg and 44,481 for Weyl symbols (bounds 169,200 and 66,800,
rounded up to a hundred): that is the least-squares solve's noise.  A factor
rounded through float32 is off by about 10^8 ulps.
"""

import pytest
from hypothesis import given, settings, strategies as st

import mp_reference
from wickops.expansion import decompose, decomposition_matrix
from wickops.symbols import (KOHN_NIRENBERG, WEYL, RealSymbol, WickSymbol, antiwick_matrix,
                             enumerate_symbol_keys, kn_matrix, real_to_wick_symbol, weyl_matrix,
                             wick_matrix)

# name: (wickops builder on d, terms and n_in, reference on the same, ulp bound)
BUILDERS = {
    "wick": (lambda d, t, n: wick_matrix(WickSymbol(d, t), n),
             lambda d, t, n: mp_reference.fock_matrix(d, t, n, antiwick=False), 3.5),
    "antiwick": (lambda d, t, n: antiwick_matrix(WickSymbol(d, t, point_symbol=True), n),
                 lambda d, t, n: mp_reference.fock_matrix(d, t, n, antiwick=True), 4.0),
    "kn": (lambda d, t, n: kn_matrix(RealSymbol(d, KOHN_NIRENBERG, t), n),
           lambda d, t, n: mp_reference.real_matrix(d, t, n, weyl=False), 7.5),
    "weyl": (lambda d, t, n: weyl_matrix(RealSymbol(d, WEYL, t), n),
             lambda d, t, n: mp_reference.real_matrix(d, t, n, weyl=True), 5.0),
}


@st.composite
def _symbols(draw):
    """(d, {(alpha, beta): c}, n_in)."""
    d = draw(st.integers(1, 2))
    index = st.tuples(*[st.integers(0, 2)] * d)
    terms = draw(st.dictionaries(st.tuples(index, index),
                                 st.complex_numbers(min_magnitude=0.5, max_magnitude=2),
                                 min_size=1, max_size=3))
    return d, terms, draw(st.integers(0, 3))


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(symbol=_symbols())
def test_matrix_is_within_its_ulp_bound_of_the_reference(name, symbol):
    build, reference, bound = BUILDERS[name]
    d, terms, n_in = symbol
    M = build(d, terms, n_in)
    n_out, want = reference(d, terms, n_in)
    assert M.codomain_degree == n_out
    assert M.entries.shape == (len(want), len(want[0]))
    assert mp_reference.ulps_off(M.entries, want) <= bound


def test_reference_knows_the_oscillator():
    # Weyl x^2 + xi^2 is 2N + 1 on h_g, and Wick z conj(w) is N on e_g
    n_out, M = mp_reference.real_matrix(1, {((2,), (0,)): 1.0, ((0,), (2,)): 1.0}, 3, weyl=True)
    assert n_out == 5
    assert [[complex(x) for x in row] for row in M] == [
        [complex(2 * g + 1) if g == col else 0j for col in range(4)] for g in range(6)]
    n_out, M = mp_reference.fock_matrix(1, {((1,), (1,)): 1.0}, 2, antiwick=False)
    assert [[complex(x) for x in row] for row in M] == [
        [complex(g) if g == col else 0j for col in range(3)] for g in range(4)]


TO_WICK_BOUNDS = {KOHN_NIRENBERG: 169_200, WEYL: 66_800}


@pytest.mark.parametrize("quantization", [KOHN_NIRENBERG, WEYL])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(symbol=_symbols())
def test_to_wick_is_within_its_ulp_bound_of_the_reference(quantization, symbol):
    # every monomial of degree <= deg, so that the solver's noise counts where
    # the exact coefficient is 0
    d, terms, _ = symbol
    got = real_to_wick_symbol(RealSymbol(d, quantization, terms))
    want = mp_reference.wick_symbol(d, terms, weyl=quantization == WEYL)
    keys = [(tuple(a), tuple(b)) for a, b in
            enumerate_symbol_keys(d, max(sum(a) + sum(b) for a, b in terms))]
    assert want.keys() <= set(keys)
    off = mp_reference.ulps_off([[got.terms.get(key, 0) for key in keys]],
                                [[want.get(key, mp_reference.MP.mpc(0)) for key in keys]])
    assert off <= TO_WICK_BOUNDS[quantization]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(symbol=_symbols(), order=st.integers(0, 2))
def test_decomposition_matrix_is_within_its_ulp_bound_of_the_wick_matrix(symbol, order):
    # every term acts on some column of degree >= |beta|, so the reference is
    # not 0, and its largest entry sets the ulp
    d, terms, extra = symbol
    n_in = max(sum(b) for _, b in terms) + extra % 2
    M = decomposition_matrix(decompose(WickSymbol(d, terms), order), n_in)
    n_out, want = mp_reference.fock_matrix(d, terms, n_in, antiwick=False)
    # the decomposition's codomain may be the larger: the reference's rows are 0 there
    n_out = max(n_out, M.codomain_degree)
    want += [[mp_reference.MP.mpc(0)] * len(want[0])
             for _ in range(len(mp_reference.graded_basis(d, n_out)) - len(want))]
    off = mp_reference.ulps_off(M.embedded(n_out).entries, want)
    assert off <= 102

