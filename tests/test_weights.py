"""Parameter validation, weights, moments, seeds.

The Meixner moment checks use an independent in-test oracle: for
alpha = gamma the n-th moment collapses to

    m_n = (1-c)^(-beta) * sum_j S(n,j) (beta)_j (c/(1-c))^j

with S(n,j) the Stirling numbers of the second kind — exact rational
arithmetic throughout, no package code involved.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypopq as H
from hypopq.errors import InvalidParam
from hypopq.weights import (
    Lattice,
    Params,
    _moment_list,
    initial_xy,
    moment,
    shifted_params,
    weight_sequence,
)

from conftest import (
    asym_params,
    exact_weight,
    meixner_moment_exact,
    meixner_params,
)

F = Fraction


# -------------------------------------------------------------------- Params


def test_params_validation():
    with pytest.raises(InvalidParam):
        Params(F(0), F(1), F(1), F(1, 2))
    with pytest.raises(InvalidParam):
        Params(F(1), F(-2), F(1), F(1, 2))
    with pytest.raises(InvalidParam):
        Params(F(1), F(1), F(1), F(1))  # c = 1 excluded
    with pytest.raises(InvalidParam):
        Params(F(1), F(1), F(1), F(0))
    with pytest.raises(InvalidParam):
        Params(1.5, F(1), F(1), F(1, 2))  # binary floats rejected
    p = Params("3/2", 3, F(1, 3), "0.5")  # strings and ints parse exactly
    assert p.alpha == F(3, 2) and p.c == F(1, 2)


def test_params_shifted_admissibility():
    # requires alpha-gamma+1 > 0, beta-gamma+1 > 0, 2-gamma > 0
    asym_params(Lattice.SHIFTED)  # fine: gamma = 1/3
    with pytest.raises(InvalidParam):
        Params(F(1), F(1), F(2), F(1, 2), Lattice.SHIFTED)  # 2-gamma = 0
    with pytest.raises(InvalidParam):
        Params(F(3), F(3), F(5, 2), F(1, 2), Lattice.SHIFTED)
    with pytest.raises(InvalidParam):
        Params(F(1, 3), F(3), F(3, 2), F(1, 2), Lattice.SHIFTED)


def test_lattice_parse():
    assert Lattice.parse("standard") is Lattice.STANDARD
    assert Lattice.parse("shifted") is Lattice.SHIFTED
    with pytest.raises(InvalidParam):
        Lattice.parse("diagonal")


def test_params_helpers():
    p = asym_params()
    assert not p.is_meixner
    assert meixner_params().is_meixner
    q = p.swapped()
    assert (q.alpha, q.beta) == (p.beta, p.alpha)
    assert q.swapped().key() == p.key()
    assert p.key() == (F(3, 2), F(3), F(1, 3), F(1, 2), Lattice.STANDARD)


def test_shifted_params_transform():
    sp = shifted_params(asym_params(Lattice.SHIFTED))
    assert (sp.alpha, sp.beta, sp.gamma, sp.c) == (F(13, 6), F(11, 3), F(5, 3), F(1, 2))
    assert sp.lattice is Lattice.STANDARD


# ------------------------------------------------------------------- weights


def test_weight_sequence_basics(ctx256):
    p = asym_params()
    w = weight_sequence(p, 4, ctx256)
    assert len(w) == 5
    assert w[0] == 1
    want1 = ctx256.real(p.alpha * p.beta * p.c / p.gamma)
    assert abs(w[1] - want1) < ctx256.mp.ldexp(1, -246)
    with pytest.raises(InvalidParam):
        weight_sequence(p, -1, ctx256)


@settings(max_examples=40, deadline=None)
@given(
    a=st.fractions(min_value=F(1, 4), max_value=F(5)),
    b=st.fractions(min_value=F(1, 4), max_value=F(5)),
    g=st.fractions(min_value=F(1, 4), max_value=F(5)),
    c=st.fractions(min_value=F(1, 10), max_value=F(9, 10)),
    k=st.integers(min_value=0, max_value=8),
)
def test_weight_matches_exact_rational(a, b, g, c, k):
    ctx = H.PrecisionCtx(bits=128)
    p = Params(a, b, g, c)
    w = weight_sequence(p, k, ctx)
    want = ctx.real(exact_weight(p, k))
    assert abs(w[k] - want) <= abs(want) * ctx.mp.ldexp(1, -100)


# ------------------------------------------------- m_0 as a Gauss 2F1 series
# m_0 = sum_k w_k is 2F1(alpha, beta; gamma; c).


def _mp_hyp2f1(p, ctx):
    """2F1(alpha, beta; gamma; c) on mpmath's global context at 320 bits."""
    with mpmath.workprec(320):
        a, b, g, c = (
            mpmath.mpf(v.numerator) / v.denominator for v in (p.alpha, p.beta, p.gamma, p.c)
        )
        return ctx.real(mpmath.hyp2f1(a, b, g, c))


def test_hyp2f1_binomial_identity(ctx256):
    # 2F1(a, b; b; z) = (1-z)^(-a):  2F1(2, 5; 5; 1/2) = 4
    got = moment(Params(2, 5, 5, F(1, 2)), 0, ctx256)
    assert abs(got - 4) < ctx256.mp.ldexp(1, -240)


def test_hyp2f1_against_mpmath(ctx256):
    # c = 15/16 takes the deterministically raised term cap
    p = Params(F(13, 4), F(5, 2), F(17, 4), F(15, 16))
    want = _mp_hyp2f1(p, ctx256)
    got = moment(p, 0, ctx256)
    assert abs(got - want) <= abs(want) * ctx256.mp.ldexp(1, -240)


# ------------------------------------------------------------------- moments


def test_meixner_moments_integer_case(ctx256):
    # beta=2, c=1/2: m_0..m_4 = 4, 8, 32, 176, 1232 (exact oracle above)
    p = meixner_params(beta=F(2), c=F(1, 2))
    for n, want in enumerate([4, 8, 32, 176, 1232]):
        assert meixner_moment_exact(F(2), F(1, 2), n) == want  # oracle self-check
        got = moment(p, n, ctx256)
        assert abs(got - want) < 1e-70, (n, got)


def test_meixner_moments_beta5(ctx256):
    p = meixner_params(beta=F(5), c=F(1, 4))
    for n in range(6):
        want = ctx256.real(meixner_moment_exact(F(5), F(1, 4), n))
        got = moment(p, n, ctx256)
        assert abs(got - want) <= abs(want) * ctx256.mp.ldexp(1, -240)


def test_moment_zero_is_hyp2f1(ctx256):
    p = asym_params()
    m0 = moment(p, 0, ctx256)
    assert abs(m0 - _mp_hyp2f1(p, ctx256)) < ctx256.mp.ldexp(1, -246)


def _nsum_moments(p, count):
    """m_0 .. m_{count-1} as mpmath.nsum of k^n w_k on mpmath's own context."""
    with mpmath.workprec(320):
        a, b, g, c = (
            mpmath.mpf(v.numerator) / v.denominator for v in (p.alpha, p.beta, p.gamma, p.c)
        )
        w = [mpmath.mpf(1)]

        def term(n):
            def f(k):
                k = int(k)
                while len(w) <= k:
                    j = len(w) - 1
                    w.append(w[j] * (a + j) * (b + j) * c / ((g + j) * (j + 1)))
                return k**n * w[k]

            return f

        # the terms decay geometrically, so plain summation suffices; the
        # term cap is lifted because c = 15/16 needs about 5000 terms
        return [
            mpmath.nsum(term(n), [0, mpmath.inf], method="direct", maxterms=10**5)
            for n in range(count)
        ]


@pytest.mark.parametrize(
    "p",
    [
        asym_params(),
        Params(F(13, 4), F(5, 2), F(17, 4), F(15, 16)),
        Params(F(1, 3), F(1, 2), F(20), F(1, 16)),
    ],
    ids=["asym", "gamma>1,c=15/16", "gamma=20,c=1/16"],
)
def test_moments_match_nsum(p, ctx256):
    # away from alpha = gamma the Pearson recurrence carries the subtractive
    # -(gamma-1) m_{n+1} term; check m_0 .. m_21 against direct summation.
    # For gamma = 20, c = 1/16 that term cancels some 50 bits by n = 21,
    # which the moments must make up with extra working precision.
    got = [moment(p, n, ctx256) for n in range(22)]
    for n, want in enumerate(_nsum_moments(p, 22)):
        want = ctx256.real(want)
        assert abs(got[n] - want) <= abs(want) * ctx256.mp.ldexp(1, -240), n


def test_moment_guards(ctx256):
    with pytest.raises(InvalidParam):
        moment(asym_params(), -1, ctx256)
    with pytest.raises(InvalidParam):
        moment(asym_params(Lattice.SHIFTED), 0, ctx256)


def test_moment_swap_invariance(ctx128):
    p = asym_params()
    q = p.swapped()
    for n in range(7):
        assert moment(p, n, ctx128) == moment(q, n, ctx128)  # bit-identical


def test_moment_table(ctx256):
    # the moment batch is prefix-stable: growing it leaves m_0 .. m_9 bit-identical
    p = asym_params()
    table = _moment_list(p, 10, ctx256)
    assert len(table) == 10
    assert _moment_list(p, 18, ctx256)[:10] == table


# ----------------------------------------------------------------- potential


def test_potential_matches_weight_ratio(ctx256):
    # the discrete potential u(k) = -1 + (gamma+k-1) k / (c (alpha+k-1)(beta+k-1)),
    # exact here, equals -(w_k - w_{k-1}) / w_k along weight_sequence
    p = asym_params()
    w = weight_sequence(p, 6, ctx256)
    for k in range(1, 7):
        u = -1 + (p.gamma + k - 1) * k / (p.c * (p.alpha + k - 1) * (p.beta + k - 1))
        got = -(w[k] - w[k - 1]) / w[k]
        want = ctx256.real(u)
        assert abs(got - want) < abs(want) * ctx256.mp.ldexp(1, -230)


# --------------------------------------------------------------------- seeds


X0_ASYM_30 = "1.20163602798102373669025828666"  # frozen from the oracle below


def test_initial_xy_golden(ctx256):
    p = asym_params()
    x0, y0 = initial_xy(p, ctx256)
    assert y0 == 0
    # independent oracle: m_1/m_0 - ((a+b)c - g)/(1-c) via mpmath's hyp2f1
    with mpmath.workprec(320):
        a, b, g, c = (mpmath.mpf(3) / 2, mpmath.mpf(3), mpmath.mpf(1) / 3, mpmath.mpf(1) / 2)
        m0 = mpmath.hyp2f1(a, b, g, c)
        m1 = c * a * b / g * mpmath.hyp2f1(a + 1, b + 1, g + 1, c)
        want = m1 / m0 - ((a + b) * c - g) / (1 - c)
        assert mpmath.nstr(want, 30) == X0_ASYM_30
    assert abs(x0 - ctx256.real(want)) < ctx256.mp.ldexp(1, -240)
    assert ctx256.mp.nstr(x0, 30) == X0_ASYM_30


def test_initial_xy_meixner_closed_form(ctx256):
    # alpha = gamma: x_0 = (gamma - alpha c)/(1 - c) = gamma
    p = meixner_params()
    x0, _ = initial_xy(p, ctx256)
    assert abs(x0 - 3) < 1e-70


def test_initial_xy_shifted_offset(ctx256):
    p = asym_params(Lattice.SHIFTED)
    x0s, y0s = initial_xy(p, ctx256)
    x0t, _ = initial_xy(shifted_params(p), ctx256)
    assert y0s == 0
    assert x0s == x0t + ctx256.real(p.gamma) - 1
