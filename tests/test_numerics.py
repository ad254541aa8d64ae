"""Precision contexts, the seed-series stopping rule, stencil derivatives."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypopq as H
from hypopq.errors import (
    DomainExceeded,
    InvalidParam,
    NonConvergent,
    StepTooSmall,
)
from hypopq.numerics import (
    PrecisionCtx,
    bits_for_digits,
    central_derivative,
    default_step,
    digits_for_bits,
)
from hypopq.weights import Params, _seed_sums


# ---------------------------------------------------------------- contexts


def test_ctx_validation():
    with pytest.raises(InvalidParam):
        PrecisionCtx(bits=23)
    with pytest.raises(InvalidParam):
        PrecisionCtx(bits=256.0)  # floats rejected even when integral
    with pytest.raises(InvalidParam):
        PrecisionCtx(bits=64, guard_bits=-1)
    with pytest.raises(InvalidParam):
        PrecisionCtx(bits=64, series_max_terms=0)
    assert PrecisionCtx(bits=24).bits == 24


def test_ctx_isolated_from_global_mp(ctx256):
    # the package must never depend on (or mutate) mpmath.mp
    before = mpmath.mp.prec
    x = ctx256.real(Fraction(1, 3))
    assert mpmath.mp.prec == before
    assert x.context.prec == 256


def test_with_bits_preserves_policy():
    ctx = PrecisionCtx(bits=64, guard_bits=32, series_max_terms=500)
    c2 = ctx.with_bits(128)
    assert (c2.bits, c2.guard_bits, c2.series_max_terms) == (128, 32, 500)


def test_real_conversions(ctx256):
    mp = ctx256.mp
    assert ctx256.real(7) == 7
    assert ctx256.real("3/2") == mp.mpf(3) / 2
    assert ctx256.real("0.5") == mp.mpf(1) / 2
    assert ctx256.real(0.5) == mp.mpf(1) / 2
    # Fraction conversion is correctly rounded: within 1 ulp of the quotient
    third = ctx256.real(Fraction(1, 3))
    err = abs(third - mp.mpf(1) / 3)
    assert err <= mp.ldexp(1, -255)
    with pytest.raises(InvalidParam):
        ctx256.real(object())


def test_real_cross_context_rerounds(ctx256, ctx128):
    x = ctx256.real(Fraction(1, 3))
    y = ctx128.real(x)
    assert y == ctx128.real(Fraction(1, 3))  # rounded once, to 128 bits


def test_real_is_deterministic(ctx256):
    a = ctx256.real("1/7")
    b = ctx256.real(Fraction(1, 7))
    assert a == b and a._mpf_ == b._mpf_


# ----------------------------------------------------- decimal round-trips


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(min_value=-(10**18), max_value=10**18),
    den=st.integers(min_value=1, max_value=10**12),
)
def test_to_decimal_round_trips(num, den):
    ctx = PrecisionCtx(bits=128)
    x = ctx.real(Fraction(num, den))
    s = ctx.to_decimal(x)
    assert ctx.real(s) == x


def test_to_decimal_explicit_digits(ctx256):
    x = ctx256.real(Fraction(1, 3))
    s = ctx256.to_decimal(x, digits=10)
    assert s.startswith("0.3333333333")
    assert len(s) <= 14  # "0." + 10 digits + slack for exponent-free form


def test_to_decimal_default_digit_count(ctx256):
    # ceil(256*log10(2)) + 2 = 80 significant digits
    s = ctx256.to_decimal(ctx256.real(Fraction(2, 3)))
    mantissa = s.split(".")[1]
    assert len(mantissa) >= 78


# ----------------------------------------------------- seed-series summation
# The moment seeds m_0, m_1 are the one place a series is summed.  For
# (alpha, beta, gamma, c) = (1, 1, 2, 1/2) the weights are w_k = 2^-k / (k+1),
# so m_0 = 2 log 2 and m_1 = 2 - 2 log 2.

LOG2_SERIES = Params(1, 1, 2, Fraction(1, 2))


def _log2(ctx):
    # independent oracle: mpmath's global context
    with mpmath.workprec(300):
        return ctx.real(mpmath.log(2))


def test_sum_series_log2(ctx256):
    m0, _ = _seed_sums(LOG2_SERIES, ctx256)
    got = ctx256.mp.make_mpf(m0)
    assert abs(got - 2 * _log2(ctx256)) < ctx256.mp.ldexp(1, -250)


def test_sum_series_nonconvergent():
    # 80 bits need about 75 terms of the 2^-k series
    ctx = PrecisionCtx(bits=64, series_max_terms=50)
    with pytest.raises(NonConvergent):
        _seed_sums(LOG2_SERIES, ctx)


def test_sum_series_survives_interior_dip(ctx256):
    # the m_1 series opens with 0 * w_0 = 0, below the cutoff once; the
    # three-in-a-row rule must not stop there (m_1 would read 0)
    _, m1 = _seed_sums(LOG2_SERIES, ctx256)
    got = ctx256.mp.make_mpf(m1)
    assert abs(got - (2 - 2 * _log2(ctx256))) < ctx256.mp.ldexp(1, -250)


# --------------------------------------------------------------- stencils


def test_default_step(ctx256):
    assert default_step(ctx256) == ctx256.mp.ldexp(1, -64)


def test_central_derivative_order1_accuracy(ctx256):
    mp = ctx256.mp
    h = mp.ldexp(1, -30)
    got = central_derivative(mp.sin, mp.mpf(1) / 3, h, 1, ctx256)
    want = mp.cos(mp.mpf(1) / 3)
    assert abs(got - want) < mp.mpf(10) ** -35  # O(h^4) ~ 1e-36


def test_central_derivative_order2_accuracy(ctx256):
    mp = ctx256.mp
    h = mp.ldexp(1, -30)
    got = central_derivative(mp.sin, mp.mpf(1) / 3, h, 2, ctx256)
    want = -mp.sin(mp.mpf(1) / 3)
    assert abs(got - want) < mp.mpf(10) ** -33


def test_central_derivative_halving_ratio(ctx512):
    # O(h^4): halving h shrinks the error by ~16
    mp = ctx512.mp
    x0 = mp.mpf(1) / 3
    want = mp.cos(x0)
    errs = []
    for e in (-20, -21):
        got = central_derivative(mp.sin, x0, mp.ldexp(1, e), 1, ctx512)
        errs.append(abs(got - want))
    ratio = errs[0] / errs[1]
    assert 14 < ratio < 18


def test_central_derivative_guards(ctx256):
    mp = ctx256.mp
    f = mp.sin
    with pytest.raises(InvalidParam):
        central_derivative(f, 0.5, mp.ldexp(1, -30), 3, ctx256)
    with pytest.raises(InvalidParam):
        central_derivative(f, 0.5, mp.mpf(0), 1, ctx256)
    with pytest.raises(StepTooSmall):
        central_derivative(f, 0.5, mp.ldexp(1, -200), 1, ctx256)
    with pytest.raises(DomainExceeded):
        central_derivative(f, 0.5, mp.mpf(1) / 3, 1, ctx256, domain=(0, 1))
    # ok when the stencil fits
    central_derivative(f, 0.5, mp.ldexp(1, -10), 1, ctx256, domain=(0, 1))


# ------------------------------------------------------------ conversions


def test_digit_bit_conversions():
    assert bits_for_digits(10) == 34
    assert bits_for_digits(50) == 167
    assert digits_for_bits(256) == 77
    # round trip never loses digits
    for d in (5, 10, 20, 50, 100):
        assert digits_for_bits(bits_for_digits(d)) >= d
