"""The pair of nonlinear difference relations: stepping, iteration, residuals.

Ground truth for every orbit check is the moment-quotient oracle: the
recursion must reproduce, step by step, the (x, y) sequence derived from
Hankel determinants.  The degenerate alpha == gamma case has a known exact
orbit (x_n = gamma, y_n = -n gamma) and doubles as the singularity probe:
the generic step would divide 0/0 there.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, from_rational, round_nearest, to_rational

import hypopq as H
from hypopq.asymptotics import perturbation_study
from hypopq.dpainleve import (
    _dp1,
    _dp2,
    _first_kind,
    _invariants,
    _monitor_trips,
    _second_kind,
    dp_residuals,
    iterate,
)
from hypopq.errors import InvalidParam, PrecisionExhausted, SingularStep
from hypopq.numerics import GUARD_BITS, _pair
from hypopq.oracle import XYSeq, coeffs_oracle, xy_from_coeffs
from hypopq.weights import Lattice, Params, initial_xy

from conftest import asym_params, meixner_params, sym_params

F = Fraction


# ------------------------------------------------------------- single steps


def _raw_pair(ctx, v):
    return _pair(ctx.real(v)._mpf_)


def dp1_step(p, n, x_n, y_n, ctx):
    """y_{n+1} from (x_n, y_n): one first-kind step of the kernel iterate runs."""
    k = _invariants(p, ctx)
    return ctx.mp.make_mpf(from_man_exp(*_dp1(k, p, n, _raw_pair(ctx, x_n), _raw_pair(ctx, y_n))))


def dp2_step(p, m, x_prev, y_m, ctx):
    """x_m from (x_{m-1}, y_m): one second-kind step of the kernel iterate runs."""
    k = _invariants(p, ctx)
    return ctx.mp.make_mpf(from_man_exp(*_dp2(k, m, _raw_pair(ctx, x_prev), _raw_pair(ctx, y_m))))


def test_steps_reproduce_oracle_orbit(ctx256):
    p = asym_params()
    xy = xy_from_coeffs(coeffs_oracle(p, 12, ctx256))
    for n in range(8):
        y1 = dp1_step(p, n, xy.x[n], xy.y[n], ctx256)
        assert abs(y1 - xy.y[n + 1]) < 1e-60, n
        x1 = dp2_step(p, n + 1, xy.x[n], y1, ctx256)
        assert abs(x1 - xy.x[n + 1]) < 1e-55, n


def test_dp1_step_singular_on_meixner(ctx256):
    # x_0 = gamma makes both sides vanish identically
    p = meixner_params()
    x0, y0 = initial_xy(p, ctx256)
    with pytest.raises(SingularStep) as exc:
        dp1_step(p, 0, x0, y0, ctx256)
    assert exc.value.which == "P"
    assert exc.value.index == 0
    assert "closed form" in str(exc.value)


def test_dp2_step_guards(ctx256):
    p = asym_params()
    # craft y so the linearizing denominator D = y(m+mm) + m(...) vanishes:
    # at m=1 both coefficients are rational, solve for y exactly
    a, b, g, c = F(3, 2), F(3), F(1, 3), F(1, 2)
    mm = 1 + a + b - g - 1
    y_sing = -((1 + a + b) * mm - a * b + g) / (1 + mm)
    with pytest.raises(SingularStep) as exc:
        dp2_step(p, 1, F(1), y_sing, ctx256)
    assert exc.value.which == "D"


def test_dp2_step_singular_shift(ctx256):
    # x_prev chosen as -Y_1 exactly (computed from the same formulas)
    p = asym_params()
    mp = ctx256.mp
    a, b, g, c = p.as_reals(ctx256)
    y = mp.mpf(1)
    m = 1
    mm = m + a + b - g - 1
    D = y * (m + mm) + m * ((m + a + b) * mm - a * b + g)
    Y = (y * y + y * (m * mm - a * b + g) - a * b * m * mm) / D
    with pytest.raises(SingularStep) as exc:
        dp2_step(p, 1, -Y, y, ctx256)
    assert exc.value.which == "x_prev+Y"


def test_dp2_guard_policies_differ(ctx128):
    # p = (1, 1, 1, 1/2): at m = 1, y = -3/2 the linearizing denominator D
    # is exactly 0.  The step refuses it; the residual records inf there
    # only because the division raised, and still checks m = 2 (D = 8).
    p = Params(1, 1, 1, F(1, 2))
    one = ctx128.mp.mpf(1)
    xy = XYSeq(p, [one] * 3, [ctx128.real(v) for v in (0, F(-3, 2), -2)],
               [ctx128.real(v) for v in range(4)], ctx128)
    rep = dp_residuals(xy)
    assert dict(rep.by_name("dp2")) == {1: ctx128.mp.inf, 2: 0}
    with pytest.raises(SingularStep) as exc:
        dp2_step(p, 1, 1, F(-3, 2), ctx128)
    assert exc.value.which == "D"


# ------------------------------------------------------ Fraction reference
# Each kernel expression, written as the relations read, in exact Fractions
# of the same raw inputs and rounded once to nearest: the kernels must match
# it bit for bit, and iterate must reproduce the orbits the step makes of
# these expressions in operator form.


def _fraction_expressions(a, b, g, n, x, y, y_next):
    """P, Q and the quartic of the first kind at n, and D, numY and the
    quartic of the second kind at m = n + 1 with y = y_next."""
    ab = a * b
    P = y - ab + (a + b + n) * x - x * x
    Q = y_next - ab + (a + b + n + 1) * x - x * x
    quart1 = (x - 1) * (x - a) * (x - b) * (x - g)
    m, y = n + 1, y_next
    mm = m + a + b - g - 1
    D = y * (m + mm) + m * ((m + a + b) * mm - ab + g)
    numY = y * y + y * (m * mm - ab + g) - ab * m * mm
    quart2 = ((y + m * a) * (y + m * b) * (y + m * g - (g - a) * (g - b))
              * (y + m - (1 - a) * (1 - b)))
    return P, Q, quart1, D, numY, quart2


def _kernel_inputs(p, ctx):
    """(n, x, y, y_next) as raw mpfs: the orbit's own triples, and x on each
    root 1, alpha, beta, gamma of the quartic, y_next on each root of the
    second-kind quartic's factors."""
    xy = iterate(p, 60, ctx)
    out = [(n, xy.x[n], xy.y[n], xy.y[n + 1]) for n in range(len(xy.x) - 1)]
    a, b, g, _ = (F(*to_rational(v._mpf_)) for v in p.as_reals(ctx))
    for n in (0, 1, 7):
        m = n + 1
        ys = (-m * a, -m * b, (g - a) * (g - b) - m * g, (1 - a) * (1 - b) - m)
        for x, y_next in zip((1, a, b, g), ys):
            out.append((n, ctx.real(x), xy.y[n], ctx.real(y_next)))
    return out


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
@pytest.mark.parametrize(
    "p",
    [
        asym_params(),
        Params(F(5, 6), F(1, 2), F(5, 6), F(3, 8), Lattice.SHIFTED),
        Params(F(2, 3), 2, 1, F(3, 4), Lattice.SHIFTED),  # x_0 lands on a root
    ],
    ids=["standard", "shifted", "singular-shifted"],
)
def test_kernel_expressions_round_once(p, bits):
    ctx = H.PrecisionCtx(bits=bits)
    k = _invariants(p, ctx)
    a, b, g, _ = (F(*to_rational(v._mpf_)) for v in p.as_reals(ctx))
    for n, x, y, y_next in _kernel_inputs(p, ctx):
        px, py, pyn = (_pair(v._mpf_) for v in (x, y, y_next))
        got = (*_first_kind(k, n, px, py, pyn), *_second_kind(k, n + 1, pyn))
        exact = _fraction_expressions(a, b, g, n, *(F(*to_rational(v._mpf_))
                                                    for v in (x, y, y_next)))
        for name, pair, q in zip(("P", "Q", "quartic", "D", "numY", "quartic2"), got, exact):
            want = from_rational(q.numerator, q.denominator, bits, round_nearest)
            assert from_man_exp(*pair) == want, (name, n, x, y_next)



def _ref_orbit(p, N, ctx):
    """The orbit in operator form over exact Fractions of the stored values:
    each expression, quotient and difference is rounded once to nearest."""
    mp, prec = ctx.mp, ctx.bits
    a, b, g, c = (F(*to_rational(v._mpf_)) for v in p.as_reals(ctx))
    eps = F(1, 2 ** (prec - GUARD_BITS))

    def raw(q):
        return from_rational(q.numerator, q.denominator, prec, round_nearest)

    def rnd(q):
        return F(*to_rational(raw(q)))

    x0, y0 = initial_xy(p, ctx)
    x, y, S = [x0], [y0], [mp.mpf(0), x0]
    for n in range(N):
        xn, yn = (F(*to_rational(v._mpf_)) for v in (x[n], y[n]))
        P, Q, quart = map(rnd, _fraction_expressions(a, b, g, n, xn, yn, 0)[:3])
        if abs(c * P) <= eps * abs(quart):
            return x, y, S, n
        y1 = rnd(rnd(quart / (c * P)) - Q)
        D, numY, quart = map(rnd, _fraction_expressions(a, b, g, n, xn, yn, y1)[3:])
        if abs(D) <= eps * max(1, abs(numY)):
            return x, y, S, n
        rhs, den = quart / (D * D), xn + numY / D
        if abs(den) <= eps * max(1, abs(rhs)):
            return x, y, S, n
        x1 = mp.make_mpf(raw(rnd(rhs / den) - rnd(numY / D)))
        x.append(x1)
        y.append(mp.make_mpf(raw(y1)))
        S.append(S[-1] + x1)
    return x, y, S, None


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
@pytest.mark.parametrize(
    "p",
    [
        asym_params(),
        Params(F(5, 6), F(1, 2), F(5, 6), F(3, 8), Lattice.SHIFTED),
        Params(F(2, 3), 2, 1, F(3, 4), Lattice.SHIFTED),  # x_0 lands on a root
    ],
    ids=["standard", "shifted", "singular-shifted"],
)
def test_iterate_bit_identical_to_operator_form(p, bits):
    ctx = H.PrecisionCtx(bits=bits)
    xy = iterate(p, 240, ctx)
    x, y, S, failure = _ref_orbit(p, 240, ctx)
    assert xy.failure_index == failure
    assert [v._mpf_ for v in xy.x] == [v._mpf_ for v in x]
    assert [v._mpf_ for v in xy.y] == [v._mpf_ for v in y]
    assert [v._mpf_ for v in xy.S] == [v._mpf_ for v in S]

# ------------------------------------------------------------------ iterate


def test_iterate_matches_oracle(ctx256):
    # the shifted sets run the recursion on their own parameters; the oracle
    # goes through the standard-lattice transform
    for p in (
        asym_params(),
        asym_params(Lattice.SHIFTED),
        Params(F(5, 6), F(1, 2), F(5, 6), F(3, 8), Lattice.SHIFTED),
    ):
        xy_rec = iterate(p, 20, ctx256)
        xy_ora = xy_from_coeffs(coeffs_oracle(p, 20, ctx256))
        assert xy_rec.failure_index is None
        assert xy_rec.precision_suspect_at is None
        for n in range(21):
            assert abs(xy_rec.x[n] - xy_ora.x[n]) < 1e-50, (p, n)
            assert abs(xy_rec.y[n] - xy_ora.y[n]) < 1e-50, (p, n)
            assert abs(xy_rec.S[n + 1] - xy_ora.S[n + 1]) < 1e-48, (p, n)


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_iterate_steps_through_exact_root(bits):
    # x_0 is the quartic's root alpha = 2/3 in exact arithmetic, so P and the
    # quartic both vanish at n = 0; exact sums keep their quotient, y_1, right
    p = Params(F(2, 3), 2, 1, F(3, 4), Lattice.SHIFTED)
    ref = xy_from_coeffs(coeffs_oracle(p, 20, H.PrecisionCtx(bits=512)))
    xy = iterate(p, 20, H.PrecisionCtx(bits=bits))
    assert xy.failure_index is None
    assert xy.precision_suspect_at is None
    for n in range(1, 10):
        assert abs(xy.x[n] - ref.x[n]) < 1e-30, n


def test_iterate_meixner_closed_orbit(ctx256):
    # the orbit pins at gamma on the standard lattice, at 1 on the shifted one
    for p in (meixner_params(), Params(1, F(1, 2), F(5, 6), F(3, 8), Lattice.SHIFTED)):
        xlim = 1 if p.lattice is Lattice.SHIFTED else ctx256.real(p.gamma)
        xy = iterate(p, 30, ctx256)
        assert xy.failure_index is None
        for n in range(31):
            assert xy.x[n] == xlim
            assert xy.y[n] == -n * xlim
        # but a custom seed takes the generic path and hits the singularity
        x0, y0 = initial_xy(p, ctx256)
        xy2 = iterate(p, 30, ctx256, seed=(x0, y0))
        assert xy2.failure_index == 0
        with pytest.raises(SingularStep):
            iterate(p, 30, ctx256, seed=(x0, y0), strict=True)


def test_iterate_from_a_huge_seed_stays_small(ctx128):
    # x_0 = 2^(2^24): the first step's sums span about 2^26 bits, and each is
    # cut to the window before it is aligned, so the step refuses at once
    # without building integers of that size
    seed = (ctx128.mp.ldexp(1, 1 << 24), ctx128.mp.zero)
    tracemalloc.start()
    try:
        xy = iterate(asym_params(), 10, ctx128, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xy.failure_index == 0 and len(xy.x) == 1
    assert peak < 1 << 20


def test_iterate_explicit_canonical_seed_is_identical(ctx256):
    p = asym_params()
    x0, y0 = initial_xy(p, ctx256)
    a_ = iterate(p, 15, ctx256)
    b_ = iterate(p, 15, ctx256, seed=(x0, y0))
    assert [v._mpf_ for v in a_.x] == [v._mpf_ for v in b_.x]
    assert [v._mpf_ for v in a_.y] == [v._mpf_ for v in b_.y]


def test_iterate_shifted_lattice_offsets(ctx256):
    p = asym_params(Lattice.SHIFTED)
    xy = iterate(p, 12, ctx256)
    from hypopq.weights import shifted_params

    base = iterate(shifted_params(p), 12, ctx256)
    t = ctx256.real(p.gamma) - 1
    for n in range(13):
        assert abs(xy.x[n] - (base.x[n] + t)) < 1e-70
        assert abs(xy.y[n] - (base.y[n] - n * t)) < 1e-70
    # S is re-accumulated from the mapped x values
    assert abs(xy.S[13] - sum(xy.x, ctx256.mp.mpf(0))) < 1e-65


def test_iterate_low_precision_failure_index():
    # at 26 bits the asym orbit degenerates: a singular step ends the run
    p = asym_params()
    xy = iterate(p, 120, H.PrecisionCtx(bits=26))
    assert xy.failure_index == 34
    assert len(xy.x) == 35  # prefix up to the failure
    with pytest.raises(SingularStep):
        iterate(p, 120, H.PrecisionCtx(bits=26), strict=True)


def test_iterate_monitor_marks_suspect():
    # at 24 bits the monitor trips first (n=9), long before the singular step
    p = asym_params()
    xy = iterate(p, 120, H.PrecisionCtx(bits=24))
    assert xy.precision_suspect_at == 9
    assert xy.failure_index is not None
    with pytest.raises(PrecisionExhausted):
        iterate(p, 120, H.PrecisionCtx(bits=24), strict=True)
    # at 30 bits a singular step ends the run before the monitor trips
    xy30 = iterate(p, 120, H.PrecisionCtx(bits=30))
    assert xy30.precision_suspect_at is None
    assert xy30.failure_index == 57


def test_iterate_validation(ctx256):
    with pytest.raises(InvalidParam):
        iterate(asym_params(), -1, ctx256)
    empty = iterate(asym_params(), 0, ctx256)
    assert len(empty.x) == 1 and len(empty.S) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_seeds_refused(ctx128, bad):
    # libmp stores NaN and the infinities with a zero mantissa; read as pairs
    # they must not pass for zero (x_0 = nan used to run the orbit of x_0 = 0)
    p, v = Params(F(3, 2), 3, F(1, 3), F(1, 2)), ctx128.mp.mpf(bad)
    for seed in ((v, ctx128.mp.mpf(0)), (ctx128.real(F(6, 5)), v)):
        with pytest.raises(InvalidParam):
            iterate(p, 3, ctx128, seed=seed)
    with pytest.raises(InvalidParam):
        perturbation_study(p, [F(1, 10**6)], 3, ctx128, seed_x0=float(bad))
    xy = iterate(p, 3, ctx128)
    x = list(xy.x)
    x[2] = ctx128.mp.nan
    with pytest.raises(InvalidParam):
        dp_residuals(XYSeq(p, x, xy.y, xy.S, ctx128))


@settings(max_examples=10, deadline=None)
@given(
    a=st.fractions(min_value=F(1, 2), max_value=F(3)),
    b=st.fractions(min_value=F(1, 2), max_value=F(3)),
    g=st.fractions(min_value=F(1, 2), max_value=F(3)),
    c=st.fractions(min_value=F(1, 4), max_value=F(3, 4)),
)
def test_iterate_swap_symmetry(a, b, g, c):
    # the weight is symmetric in alpha <-> beta, so the orbit must be too
    ctx = H.PrecisionCtx(bits=192)
    p = Params(a, b, g, c)
    s = iterate(p, 10, ctx)
    t = iterate(p.swapped(), 10, ctx)
    n = min(len(s.x), len(t.x))
    for k in range(n):
        assert abs(s.x[k] - t.x[k]) <= 1e-40 * max(1, abs(s.x[k]))


# ---------------------------------------------------------------- residuals


def test_dp_residuals_tiny_on_oracle_orbit(ctx256):
    p = asym_params()
    coeffs = coeffs_oracle(p, 25, ctx256)
    xy = xy_from_coeffs(coeffs)
    rep = dp_residuals(xy, coeffs)
    assert set(rep.names()) == {
        "dp1",
        "dp2",
        "y_pair_sum",
        "a2_difference",
        "a2x_difference",
        "a2_x_product",
        "a2_x_sum",
    }
    assert rep.max_residual() < 1e-60
    # entry ranges: dp1 has N entries (0..N-1), dp2 has N (1..N)
    assert [n for n, _ in rep.by_name("dp1")][:3] == [0, 1, 2]
    assert [n for n, _ in rep.by_name("dp2")][0] == 1


def test_dp_residuals_cross_entries_index_by_index(ctx256):
    # after dp1 and dp2, the cross entries run index by index, each index
    # in _cross_terms' order, as the ladder and Toda suites report theirs;
    # the first two reach n + 1, the last two n - 1 and a2x_difference both
    N = 6
    ahead, behind = ("y_pair_sum", "a2_difference"), ("a2_x_product", "a2_x_sum")
    coeffs = coeffs_oracle(asym_params(), N, ctx256)
    rep = dp_residuals(xy_from_coeffs(coeffs), coeffs)
    assert {e.name for e in rep.entries[:2 * N]} == {"dp1", "dp2"}
    want = [(name, n) for n in range(N + 1) for name in (*ahead, "a2x_difference", *behind)
            if (n < N or name in behind) and (n >= 1 or name in ahead)]
    assert [(e.name, e.n) for e in rep.entries[2 * N:]] == want


def test_dp_residuals_without_coeffs(ctx256):
    p = asym_params()
    rep = dp_residuals(iterate(p, 10, ctx256))
    assert set(rep.names()) == {"dp1", "dp2"}
    assert rep.max_residual() < 1e-60


def test_dp_residuals_meixner_exact_zero(ctx256):
    # the closed orbit satisfies the first-kind relation exactly (0 = 0)
    p = meixner_params()
    rep = dp_residuals(iterate(p, 10, ctx256))
    for _, value in rep.by_name("dp1"):
        assert value == 0


def test_dp_residuals_shifted_lattice(ctx256):
    p = asym_params(Lattice.SHIFTED)
    coeffs = coeffs_oracle(p, 15, ctx256)
    rep = dp_residuals(xy_from_coeffs(coeffs), coeffs)
    assert rep.max_residual() < 1e-60


def test_dp_residuals_detect_tampering(ctx256):
    # perturbing one y by 1e-5 must push residuals above 1e-8 at that index
    p = asym_params()
    coeffs = coeffs_oracle(p, 12, ctx256)
    xy = xy_from_coeffs(coeffs)
    bad_y = list(xy.y)
    bad_y[6] += ctx256.mp.mpf("1e-5")
    tampered = XYSeq(p, list(xy.x), bad_y, list(xy.S), ctx256)
    rep = dp_residuals(tampered, coeffs)
    hits = [n for n, v in rep.by_name("dp1") if n in (5, 6) and v > 1e-8]
    assert hits, "dp1 residual did not react to the perturbation"
    assert rep.max_residual() > 1e-8


def test_monitor_reacts_to_corruption(ctx256):
    # unit check of the internal monitor on the orbit's pairs: a clean orbit
    # does not trip, a corrupted one (x_9 off by 1e-3 relative) does
    p = asym_params()
    xy = iterate(p, 12, ctx256)
    k = _invariants(p, ctx256)
    x, y, S = ([_raw_pair(ctx256, v) for v in seq] for seq in (xy.x, xy.y, xy.S))
    assert not _monitor_trips(k, x, y, S, 9)
    x[9] = _raw_pair(ctx256, xy.x[9] * (1 + ctx256.mp.mpf("1e-3")))
    assert _monitor_trips(k, x, y, S, 9)


# ------------------------------------ cross-identities against exact Fractions
# The five identities as the paper writes them, with (1-c)/c, evaluated in
# Fractions of the stored values and of the parameters rounded to the
# context: the monitor's trips and dp_residuals' cross entries must follow
# from these exact ratios.


def _fraction_cross(a, b, g, c, n, x, y, S, b_n, a2_n, a2_next):
    """(lhs, rhs) of each cross-identity at n, as the old mpf suite wrote it."""
    q = (1 - c) / c
    out = {}
    if a2_next is not None:
        out["y_pair_sum"] = ([y[n + 1], y[n]], [-q * b_n * x[n], a * b, -g / c, q * S[n + 1]])
        out["a2_difference"] = ([q * a2_next, -q * a2_n], [y[n + 1], -y[n], b_n, a + b + n])
    if n < 1:
        return out
    if a2_next is not None:
        out["a2x_difference"] = ([q * a2_next * x[n + 1], -q * a2_n * x[n - 1]],
                                 [-b_n * (y[n + 1] - y[n]), a * b, -y[n]])
    out["a2_x_product"] = ([q * q * a2_n * x[n] * x[n - 1]],
                           [y[n] * (y[n] - a * b + g / c), -(y[n] - a * b) * q * S[n]])
    out["a2_x_sum"] = ([q * q * a2_n * (x[n] + x[n - 1])],
                       [-y[n] * (n * (1 + c) / c + a + b - (g + 1) / c), (a * b - g) * n / c,
                        (a + b + n) * q * S[n]])
    return out


def _fraction_ratio(lhs, rhs):
    top = max(abs(t) for t in lhs + rhs)
    return abs(sum(lhs) - sum(rhs)) / top if top else F(0)


_CROSS_SETS = [
    asym_params(),
    asym_params(Lattice.SHIFTED),
    Params(F(7, 2), F(7, 2), F(1, 2), F(7, 8), Lattice.SHIFTED),
    Params(4, F(1, 3), F(8, 3), F(3, 16)),
    Params(F(10, 3), 2, 4, F(1, 16)),
    Params(F(13, 4), F(5, 2), F(17, 4), F(15, 16)),
    Params(F(1, 3), F(7, 2), 4, F(1, 16)),
    Params(F(2, 3), 2, 1, F(3, 4), Lattice.SHIFTED),
    Params(F(5, 6), F(1, 2), F(5, 6), F(3, 8), Lattice.SHIFTED),
    Params(F(3, 4), F(7, 2), F(3, 2), F(1, 4), Lattice.SHIFTED),
]


@pytest.mark.parametrize("bits", [24, 128, 256])
def test_cross_identities_match_fraction_reference(bits):
    # the two 24-bit sets (7/2, 7/2, 1/2, 7/8, shifted) and (4, 1/3, 8/3,
    # 3/16) sit near the threshold: the monitor on rounded mpf terms tripped
    # at 29 and 19 there, the exact ratios first pass 1e-6 never and at 9
    ctx = H.PrecisionCtx(bits=bits)
    for p in _CROSS_SETS:
        xy = iterate(p, 60, ctx)
        a, b, g, c = (F(*to_rational(v._mpf_)) for v in p.as_reals(ctx))
        x, y, S = ([F(*to_rational(v._mpf_)) for v in seq] for seq in (xy.x, xy.y, xy.S))

        def coeffs(n):  # (a2_n, b_n) from (x, y, S), exactly
            return (c / (1 - c) * (y[n] + S[n] + n * (n + a + b - g - 1) / (1 - c)),
                    x[n] + (n + (n + a + b) * c - g) / (1 - c))

        def worst(m):
            (a2m, bm), (a2m1, _) = coeffs(m), coeffs(m + 1)
            terms = _fraction_cross(a, b, g, c, m, x, y, S, bm, a2m, a2m1)
            return max(_fraction_ratio(*t) for t in terms.values())

        trip = next((m for m in range(9, len(x) - 1, 10) if worst(m) > F(1, 10**6)), None)
        assert xy.precision_suspect_at == trip, (p, bits)

        cs = H.coeffs_from_xy(xy)
        a2, bb = ([F(*to_rational(v._mpf_)) for v in seq] for seq in (cs.a2, cs.b))
        rep = dp_residuals(xy, cs)
        N = xy.N
        for n in range(N + 1):
            terms = _fraction_cross(a, b, g, c, n, x, y, S, bb[n], a2[n],
                                    a2[n + 1] if n < N else None)
            for name, (lhs, rhs) in terms.items():
                r = _fraction_ratio(lhs, rhs)
                got = dict(rep.by_name(name))[n]
                assert got._mpf_ == from_rational(r.numerator, r.denominator, bits,
                                                  round_nearest), (p, bits, name, n)
