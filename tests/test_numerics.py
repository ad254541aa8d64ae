"""Precision contexts, the pair kernel, the seed-series stopping rule, stencil
derivatives."""

import ast
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_add, mpf_div, mpf_sub, round_nearest

import hypopq as H
from hypopq.errors import (
    DomainExceeded,
    InvalidParam,
    NonConvergent,
    StepTooSmall,
)
from hypopq.numerics import (
    GUARD_BITS,
    PrecisionCtx,
    _ZERO,
    _exact_fraction,
    _from_real,
    _neg,
    _normalized,
    _quotient,
    _round,
    _sum,
    _times,
    _window,
    bits_for_digits,
    central_derivative,
    default_step,
    digits_for_bits,
    stencil_nodes,
)
from hypopq.toda_sigma import clear_cache
from hypopq.weights import Params, _effective_cap, _seed_sums, moment


# ---------------------------------------------------------------- contexts


def test_ctx_validation():
    with pytest.raises(InvalidParam):
        PrecisionCtx(bits=23)
    with pytest.raises(InvalidParam):
        PrecisionCtx(bits=256.0)  # floats rejected even when integral
    assert PrecisionCtx(bits=24).bits == 24


def test_ctx_isolated_from_global_mp(ctx256):
    # the package must never depend on (or mutate) mpmath.mp
    before = mpmath.mp.prec
    x = ctx256.real(Fraction(1, 3))
    assert mpmath.mp.prec == before
    assert x.context.prec == 256


def test_with_bits_preserves_policy():
    assert PrecisionCtx(bits=64).with_bits(128) == PrecisionCtx(bits=128)


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


@pytest.mark.parametrize("text", ["1/0", "abc", "", "  ", "1/x", "3 / 4"])
def test_real_refuses_unparsable_strings(ctx256, text):
    # the same error as any other unsupported value, not ZeroDivisionError
    # or ValueError
    with pytest.raises(InvalidParam):
        ctx256.real(text)


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


# ------------------------------------------------------------ pair kernel


@st.composite
def _kernel_case(draw):
    """A precision and three signed pairs of ``prec + n`` bits, n in
    0..prec+8; about half of them lie exactly halfway between two
    ``prec``-bit values."""
    prec = draw(st.integers(24, 1024))

    def pair():
        n = draw(st.integers(0, prec + 8))
        top = draw(st.integers(1 << prec - 1, (1 << prec) - 1))
        low = (1 << n) // 2 if draw(st.booleans()) else draw(st.integers(0, (1 << n) - 1))
        return draw(st.sampled_from((1, -1))) * ((top << n) + low), draw(st.integers(-1500, 1500))

    return prec, pair(), pair(), pair()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_kernel_case())
def test_pair_kernel_matches_libmp(case):
    # the oracle's bit-identity with libmp rests on these: _round is
    # from_man_exp, _quotient is mpf_div and an exact _sum rounded once is
    # mpf_add / mpf_sub, ties to even included; the exponents drawn lie in
    # -1500..1500, so no sum here spans its 3000-bit window and each is exact
    prec, x, y, t = case
    rnd, span = round_nearest, 3000

    def raw(v):
        return from_man_exp(*v)  # exact

    assert raw(_round(x, prec)) == from_man_exp(*x, prec, rnd)
    for num in (x, _times(t, y)):  # t y / y is t, often a tie
        assert raw(_quotient(num, y, prec)) == mpf_div(raw(num), raw(y), prec, rnd)
    for u in (y, _neg(x), _sum([t, _neg(x)], floor=span)):  # x + u: any, zero, t
        assert raw(_round(_sum([x, u], floor=span), prec)) == mpf_add(raw(x), raw(u), prec, rnd)
        assert raw(_round(_sum([x, _neg(u)], floor=span), prec)) == mpf_sub(
            raw(x), raw(u), prec, rnd)


def _windowed_sum(terms, floor):
    """``_sum``'s documented rule in Fractions: ``(value, cut)``.  The cut is
    the lowest exponent of a nonzero term, raised to ``floor`` bits below the
    highest; each nonzero term is floored to a multiple of ``2^cut``, and the
    multiples add up exactly."""
    live = [(m, e) for m, e in terms if m]
    if not live:
        return Fraction(0), None
    es = [e for _, e in live]
    cut = max(min(es), max(es) - floor)
    unit = Fraction(2) ** cut
    return sum(Fraction(m) * Fraction(2) ** e // unit for m, e in live) * unit, cut


@st.composite
def _sum_case(draw):
    """Up to six signed pairs, a fifth of them zero (``_ZERO`` or a zero
    mantissa at a low exponent), with exponents spread over 800 bits, and a
    window of 0..200 bits: most lists span more than the window."""

    def term():
        e = draw(st.integers(-400, 400))
        if draw(st.integers(0, 4)):
            return draw(st.integers(-(1 << 200), 1 << 200).filter(bool)), e
        return draw(st.sampled_from((_ZERO, (0, e))))

    return [term() for _ in range(draw(st.integers(0, 6)))], draw(st.integers(0, 200))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_sum_case())
@example(([_ZERO, (0, -5)], 8))
@example(([(3, 0), (-3, 0), (1, -40)], 8))  # the cut floors 2^-40 away
@example(([(-1, -40), (1, 0)], 8))  # and -2^-40 to -2^-8
def test_sum_window_rule(case):
    # the recursion's sums take the window 4 prec + 64, and no orbit of the
    # tests or the benchmark spans it: this is the one check of the cut
    terms, floor = case
    value, cut = _windowed_sum(terms, floor)
    got = _sum(terms, floor=floor)
    if value:
        assert got[1] == cut and got[0] * Fraction(2) ** cut == value
    else:
        assert got == _ZERO


def test_sum_cuts_before_it_aligns():
    # terms 2^24 bits apart at a 100-bit window: the pass must stop before it
    # aligns them, or it builds a 2^24-bit integer (2 MiB) that the cut then
    # throws away; a seed of 2^(2^33) would need gigabytes
    gap = 1 << 24
    tracemalloc.start()
    try:
        for terms in ([(1, gap), (1, 0)], [(1, 0), (1, gap)], [(1, 0), (3, 5), (1, gap)]):
            assert _sum(terms, floor=100) == (1 << 100, gap - 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < gap // 64


# ----------------------------------------------------- seed-series summation
# The moment seeds m_0, m_1 are the one place a series is summed.  For
# (alpha, beta, gamma, c) = (1, 1, 2, 1/2) the weights are w_k = 2^-k / (k+1),
# so m_0 = 2 log 2 and m_1 = 2 - 2 log 2.

LOG2_SERIES = Params(1, 1, 2, Fraction(1, 2))
PREC256 = 256 + GUARD_BITS  # the seed sums' working precision at 256 bits


def _log2(ctx):
    # independent oracle: mpmath's global context
    with mpmath.workprec(300):
        return ctx.real(mpmath.log(2))


def test_sum_series_log2(ctx256):
    m0, _ = _seed_sums(LOG2_SERIES, PREC256)
    got = ctx256.mp.make_mpf(from_man_exp(*m0))
    assert abs(got - 2 * _log2(ctx256)) < ctx256.mp.ldexp(1, -250)


def test_sum_series_nonconvergent(monkeypatch):
    # 80 bits need about 75 terms of the 2^-k series; a cap of 50 refuses them
    monkeypatch.setattr("hypopq.weights._effective_cap", lambda c, prec: 50)
    clear_cache()
    try:
        with pytest.raises(NonConvergent):
            _seed_sums(LOG2_SERIES, 64 + GUARD_BITS)
    finally:
        clear_cache()


def test_series_over_term_budget_refused():
    # c = 1 - 1e-9 would need about 2.3e11 terms at 272 bits; refused before
    # any summing
    with pytest.raises(NonConvergent, match="over the budget of 100000000"):
        _effective_cap(Fraction(999999999, 10**9), 272)


def test_sum_series_survives_interior_dip(ctx256):
    # the m_1 series opens with 0 * w_0 = 0, below the cutoff once; the
    # three-in-a-row rule must not stop there (m_1 would read 0)
    _, m1 = _seed_sums(LOG2_SERIES, PREC256)
    got = ctx256.mp.make_mpf(from_man_exp(*m1))
    assert abs(got - (2 - 2 * _log2(ctx256))) < ctx256.mp.ldexp(1, -250)


def test_sum_series_dip_then_growth():
    # w_1 is about 2^-114 of w_0, then the terms grow by about 15x per step
    # and the sums end near 2^126: a fixed-point pass scaled for w_0 keeps
    # too few bits of the small terms, so it must widen and redo the pass
    a, b, g, c = Fraction(1, 2**120), 64, 1, Fraction(15, 16)
    m0, m1 = _seed_sums(Params(a, b, g, c), PREC256)
    with mpmath.workprec(900):
        ar, cr = mpmath.ldexp(1, -120), mpmath.mpf(15) / 16
        ref = (mpmath.hyp2f1(ar, b, g, cr),
               cr * ar * b / g * mpmath.hyp2f1(ar + 1, b + 1, g + 1, cr))
        for got, want in zip((m0, m1), ref):
            assert abs(mpmath.mpf(got) / want - 1) < mpmath.ldexp(1, -250)


def test_series_cap_grows_with_the_bits_at_any_c():
    # w_k = c^k / (k+1), so m_0 = -log(1 - c) / c; at c = 9/10 and 16,000
    # bits the series runs to about 105,000 terms, over the 100,000 that once
    # capped it for every c <= 0.9
    ctx = PrecisionCtx(16000)
    got = moment(Params(1, 1, 2, Fraction(9, 10)), 0, ctx)
    with mpmath.workprec(16100):
        want = 10 * mpmath.log(10) / 9
        assert abs(mpmath.mpf(got) / want - 1) < mpmath.ldexp(1, -15990)


def test_series_cap_for_c_below_float_range():
    # c underflows to 0.0 as a float: the geometric factor needs no terms
    assert _effective_cap(Fraction(1, 10**400), 272) == 100000


@pytest.mark.parametrize("args", [
    (Fraction(13, 4), Fraction(5, 2), Fraction(17, 4), Fraction(15, 16)),
    (Fraction(1, 2**120), 64, 1, Fraction(15, 16)),
])
def test_sum_series_swap_bit_identical(args):
    p = Params(*args)
    assert _seed_sums(p, PREC256) == _seed_sums(p.swapped(), PREC256)


def _reference_seed_sums(params, prec):
    """The W chain of ``_seed_sums`` as its docstring defines it, with each
    ``num_k`` and ``den_k`` formed by products and every quotient taken on
    the whole ``den_k``; also the most terms a pass summed."""
    p, most = params, 0
    (pa, qa), (pb, qb), (pg, qg), (pc, qc) = (
        (q.numerator, q.denominator) for q in (p.alpha, p.beta, p.gamma, p.c)
    )
    num_c, den_c = pc * qg, qc * qa * qb
    cap = _effective_cap(p.c, prec)
    frac = prec + 2 * cap.bit_length()
    while True:
        s0 = s1 = e0 = e1 = run0 = run1 = k = err = 0
        w = 1 << frac
        while run0 < 3 or run1 < 3:
            if k >= cap:
                raise NonConvergent(f"moment series exceeded {cap} terms")
            if run0 < 3:
                s0 += w
                e0 += err
                run0 = run0 + 1 if w << prec <= s0 else 0
            if run1 < 3:
                t = k * w
                s1 += t
                e1 += k * err
                run1 = run1 + 1 if t << prec <= s1 else 0
            num = (pa + k * qa) * (pb + k * qb) * num_c
            den = (pg + k * qg) * (k + 1) * den_c
            w = w * num // den
            err = 1 - (-err * num // den)
            k += 1
        most = max(most, k)
        if e0 << prec + 1 <= s0 and e1 << prec + 1 <= s1:
            return (_round((s0, -frac), prec), _round((s1, -frac), prec)), most
        frac += max(e.bit_length() + prec + 2 - s.bit_length() for s, e in ((s0, e0), (s1, e1)))


H40 = Fraction(1, 2**40)  # the stencil step of acceptance criteria 05-07


@pytest.mark.parametrize("prec", [40, 272, 528, 1040])
def test_seed_sums_match_reference_chain(prec):
    # the kernel steps num_k and den_k by differences and divides c's power
    # of two out with a shift; every sum must equal the reference's bit for
    # bit: stencil nodes (c's denominator 2^40 or more), an odd denominator
    # (no shift), and the dip-then-growth set, whose pass is redone wider
    cases = [Params(Fraction(7, 3), Fraction(5, 4), Fraction(3, 2), c0 + j * H40)
             for c0 in (Fraction(1, 2), Fraction(3, 8)) for j in (-2, -1, 1, 2)]
    cases += [Params(Fraction(13, 4), Fraction(5, 2), Fraction(17, 4), Fraction(3, 7)),
              Params(Fraction(1, 2**120), 64, 1, Fraction(15, 16))]
    for p in cases:
        assert _seed_sums.__wrapped__(p, prec) == _reference_seed_sums(p, prec)[0], p


@pytest.mark.parametrize("p", [LOG2_SERIES, Params(Fraction(7, 3), Fraction(5, 4), Fraction(3, 2),
                                                   Fraction(3, 4) + 2 * H40)])
def test_seed_sums_cap_edge(p, monkeypatch):
    # at a cap of exactly the terms the series needs the sums come back; one
    # fewer raises NonConvergent
    want, terms = _reference_seed_sums(p, 272)
    monkeypatch.setattr("hypopq.weights._effective_cap", lambda c, prec: terms)
    assert _seed_sums.__wrapped__(p, 272) == want
    monkeypatch.setattr("hypopq.weights._effective_cap", lambda c, prec: terms - 1)
    with pytest.raises(NonConvergent):
        _seed_sums.__wrapped__(p, 272)


# ------------------------------------------------------- the one residual
# numerics._normalized forms the difference of the pair terms' sums and the
# largest term exactly, and rounds their quotient once: the path that every
# residual suite shares.


def _pair_value(v):
    return Fraction(v[0]) * Fraction(2) ** v[1] if v[0] else Fraction(0)


def _exact_normalized(ctx, lhs, rhs):
    """|sum(lhs) - sum(rhs)| / max |term| in Fractions, rounded once to nearest."""
    fl, fr = ([_pair_value(t) for t in ts] for ts in (lhs, rhs))
    top = max(map(abs, fl + fr), default=0)
    return ctx.real(abs(sum(fl) - sum(fr)) / top) if top else ctx.mp.zero


@st.composite
def _residual_case(draw):
    """A precision and two lists of signed pairs of up to ``prec`` bits, a
    fifth of them zero, with exponents inside the exact sums' window; half
    the time the right side ends with the left side's sum rounded to
    ``prec``, so that the residual is a rounding error."""
    prec = draw(st.integers(24, 512))

    def terms(lo):
        out = []
        for _ in range(draw(st.integers(lo, 5))):
            m = draw(st.integers(-(1 << prec) + 1, (1 << prec) - 1)) if draw(
                st.integers(0, 4)) else 0
            out.append((m, draw(st.integers(-prec - 32, prec + 32))) if m else _ZERO)
        return out

    lhs, rhs = terms(0), terms(1)
    if draw(st.booleans()):
        rhs.append(_round(_sum(lhs, floor=_window(prec)), prec))
    return prec, lhs, rhs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_residual_case())
def test_normalized_residual_is_exact_ratio_rounded_once(case):
    prec, lhs, rhs = case
    ctx = PrecisionCtx(prec)
    got = _normalized(ctx.mp, lhs, rhs)
    assert got._mpf_ == _exact_normalized(ctx, lhs, rhs)._mpf_
    assert _normalized(ctx.mp, lhs[::-1], rhs[::-1])._mpf_ == got._mpf_


def test_normalized_residual_ignores_term_order(ctx128):
    # summed in mpf, the first order reads 2^-200 (6.2e-61) and the second 0
    mp = ctx128.mp
    one, tiny = (1, 0), (1, -200)
    first = _normalized(mp, [one, _neg(one), tiny], [])
    second = _normalized(mp, [one, tiny, _neg(one)], [])
    assert first._mpf_ == second._mpf_ == mp.ldexp(1, -200)._mpf_


def test_normalized_residual_of_zero_terms(ctx128):
    mp = ctx128.mp
    assert _normalized(mp, [_ZERO, (0, -5)], [_ZERO]) == 0
    assert _normalized(mp, [], [(3, 0)]) == 1


def test_only_numerics_reads_the_raw_number_format():
    # mpmath's raw format (mpmath.libmp and the _mpf_ tuples) has one reader
    readers = set()
    for path in sorted(Path(H.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = []
            if (any(n == "mpmath.libmp" or n.startswith("mpmath.libmp.") for n in names)
                    or isinstance(node, ast.Attribute) and node.attr == "_mpf_"
                    or isinstance(node, ast.Constant) and node.value == "_mpf_"):
                readers.add(path.name)
    assert readers == {"numerics.py"}


# --------------------------------------------------------------- stencils


def test_default_step(ctx256):
    assert default_step(ctx256) == ctx256.mp.ldexp(1, -64)


def _sin_at(ctx, c0, h):
    """sin at the stencil nodes of (c0, h), as BigReals of ``ctx``."""
    return [ctx.mp.sin(ctx.real(t)) for t in stencil_nodes(c0, h, ctx)]


def test_central_derivative_order1_accuracy(ctx256):
    mp = ctx256.mp
    h = mp.ldexp(1, -30)
    got = central_derivative(_sin_at(ctx256, mp.mpf(1) / 3, h), h, 1, ctx256)
    want = mp.cos(mp.mpf(1) / 3)
    assert abs(got - want) < mp.mpf(10) ** -35  # O(h^4) ~ 1e-36


def test_central_derivative_order2_accuracy(ctx256):
    mp = ctx256.mp
    h = mp.ldexp(1, -30)
    got = central_derivative(_sin_at(ctx256, mp.mpf(1) / 3, h), h, 2, ctx256)
    want = -mp.sin(mp.mpf(1) / 3)
    assert abs(got - want) < mp.mpf(10) ** -33


def test_central_derivative_halving_ratio(ctx512):
    # O(h^4): halving h shrinks the error by ~16
    mp = ctx512.mp
    x0 = mp.mpf(1) / 3
    want = mp.cos(x0)
    errs = []
    for e in (-20, -21):
        h = mp.ldexp(1, e)
        got = central_derivative(_sin_at(ctx512, x0, h), h, 1, ctx512)
        errs.append(abs(got - want))
    ratio = errs[0] / errs[1]
    assert 14 < ratio < 18


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("as_pair", [False, True])
def test_central_derivative_rounds_once_on_exact_nodes(order, as_pair):
    # c0 = 1/3 is not dyadic: the nodes are the exact Fractions c0 + j h,
    # and the combination of the node values is rounded once; order 1 does
    # not read the centre's value
    ctx = PrecisionCtx(128)
    c0, h = Fraction(1, 3), Fraction(1, 2**20)
    nodes = stencil_nodes(c0, h, ctx)
    assert all(isinstance(t, Fraction) for t in nodes)
    assert nodes == [c0 + j * h for j in range(-2, 3)]
    values = [ctx.real(t) ** 3 / 7 for t in nodes]  # BigReals, rounded to 128 bits
    v = dict(zip(range(-2, 3), map(_exact_fraction, values)))
    if as_pair:
        values = [_from_real(x) for x in values]
    if order == 1:
        values[2] = None
        want = (-v[2] + 8 * v[1] - 8 * v[-1] + v[-2]) / (12 * h)
    else:
        want = (-v[2] + 16 * v[1] - 30 * v[0] + 16 * v[-1] - v[-2]) / (12 * h * h)
    assert central_derivative(values, h, order, ctx)._mpf_ == ctx.real(want)._mpf_


def test_central_derivative_guards(ctx256):
    # the node guards run in stencil_nodes, before any value is computed
    mp = ctx256.mp
    with pytest.raises(InvalidParam):
        central_derivative([0] * 5, mp.ldexp(1, -30), 3, ctx256)
    with pytest.raises(InvalidParam):
        stencil_nodes(0.5, mp.mpf(0), ctx256)
    with pytest.raises(StepTooSmall):
        stencil_nodes(0.5, mp.ldexp(1, -200), ctx256)
    with pytest.raises(DomainExceeded):
        stencil_nodes(0.5, mp.mpf(1) / 3, ctx256)  # leaves (0, 1)
    # ok when the stencil fits
    assert stencil_nodes(0.5, mp.ldexp(1, -10), ctx256)[4] == Fraction(1, 2) + Fraction(2, 1024)


# ------------------------------------------------------------ conversions


def test_digit_bit_conversions():
    assert bits_for_digits(10) == 34
    assert bits_for_digits(50) == 167
    assert digits_for_bits(256) == 77
    # round trip never loses digits
    for d in (5, 10, 20, 50, 100):
        assert digits_for_bits(bits_for_digits(d)) >= d
