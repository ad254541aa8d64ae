"""The pair of nonlinear difference relations: stepping, iteration, residuals.

Ground truth for every orbit check is the moment-quotient oracle: the
recursion must reproduce, step by step, the (x, y) sequence derived from
Hankel determinants.  The degenerate alpha == gamma case has a known exact
orbit (x_n = gamma, y_n = -n gamma) and doubles as the singularity probe:
the generic step would divide 0/0 there.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypopq as H
from hypopq.dpainleve import (
    _monitor_residual,
    dp1_step,
    dp2_step,
    dp_residuals,
    iterate,
)
from hypopq.errors import InvalidParam, PrecisionExhausted, SingularStep
from hypopq.oracle import XYSeq, coeffs_oracle, xy_from_coeffs
from hypopq.weights import Lattice, Params, initial_xy

from conftest import asym_params, meixner_params, sym_params

F = Fraction


# ------------------------------------------------------------- single steps


def test_steps_reproduce_oracle_orbit(ctx256):
    p = asym_params()
    xy = xy_from_coeffs(p, coeffs_oracle(p, 12, ctx256), ctx256)
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
    with pytest.raises(InvalidParam):
        dp2_step(p, 0, 1, 1, ctx256)
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
    rep = dp_residuals(p, xy)
    assert dict(rep.by_name("dp2")) == {1: ctx128.mp.inf, 2: 0}
    with pytest.raises(SingularStep) as exc:
        dp2_step(p, 1, 1, F(-3, 2), ctx128)
    assert exc.value.which == "D"


# ------------------------------------------------------------------ iterate


def test_iterate_matches_oracle(ctx256):
    p = asym_params()
    xy_rec = iterate(p, 20, ctx256)
    xy_ora = xy_from_coeffs(p, coeffs_oracle(p, 20, ctx256), ctx256)
    assert xy_rec.failure_index is None
    assert xy_rec.precision_suspect_at is None
    for n in range(21):
        assert abs(xy_rec.x[n] - xy_ora.x[n]) < 1e-50, n
        assert abs(xy_rec.y[n] - xy_ora.y[n]) < 1e-50, n
        assert abs(xy_rec.S[n + 1] - xy_ora.S[n + 1]) < 1e-48, n


def test_iterate_meixner_closed_orbit(ctx256):
    p = meixner_params()
    xy = iterate(p, 30, ctx256)
    g = ctx256.real(p.gamma)
    assert xy.failure_index is None
    for n in range(31):
        assert xy.x[n] == g
        assert xy.y[n] == -n * g
    # but a custom seed takes the generic path and hits the singularity
    x0, y0 = initial_xy(p, ctx256)
    xy2 = iterate(p, 30, ctx256, seed=(x0, y0))
    assert xy2.failure_index == 0
    with pytest.raises(SingularStep):
        iterate(p, 30, ctx256, seed=(x0, y0), strict=True)


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
    # 30 bits survives longer; the mark moves out accordingly
    xy30 = iterate(p, 120, H.PrecisionCtx(bits=30))
    assert xy30.precision_suspect_at == 49


def test_iterate_validation(ctx256):
    with pytest.raises(InvalidParam):
        iterate(asym_params(), -1, ctx256)
    empty = iterate(asym_params(), 0, ctx256)
    assert len(empty.x) == 1 and len(empty.S) == 2


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
    xy = xy_from_coeffs(p, coeffs, ctx256)
    rep = dp_residuals(p, xy, coeffs)
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


def test_dp_residuals_without_coeffs(ctx256):
    p = asym_params()
    rep = dp_residuals(p, iterate(p, 10, ctx256))
    assert set(rep.names()) == {"dp1", "dp2"}
    assert rep.max_residual() < 1e-60


def test_dp_residuals_meixner_exact_zero(ctx256):
    # the closed orbit satisfies the first-kind relation exactly (0 = 0)
    p = meixner_params()
    rep = dp_residuals(p, iterate(p, 10, ctx256))
    for _, value in rep.by_name("dp1"):
        assert value == 0


def test_dp_residuals_shifted_lattice(ctx256):
    p = asym_params(Lattice.SHIFTED)
    coeffs = coeffs_oracle(p, 15, ctx256)
    rep = dp_residuals(p, xy_from_coeffs(p, coeffs, ctx256), coeffs)
    assert rep.max_residual() < 1e-60


def test_dp_residuals_detect_tampering(ctx256):
    # perturbing one y by 1e-5 must push residuals above 1e-8 at that index
    p = asym_params()
    coeffs = coeffs_oracle(p, 12, ctx256)
    xy = xy_from_coeffs(p, coeffs, ctx256)
    bad_y = list(xy.y)
    bad_y[6] += ctx256.mp.mpf("1e-5")
    tampered = XYSeq(p, list(xy.x), bad_y, list(xy.S), ctx256)
    rep = dp_residuals(p, tampered, coeffs)
    hits = [n for n, v in rep.by_name("dp1") if n in (5, 6) and v > 1e-8]
    assert hits, "dp1 residual did not react to the perturbation"
    assert rep.max_residual() > 1e-8


def test_monitor_reacts_to_corruption(ctx256):
    # unit check of the internal monitor: a clean orbit scores ~0, a
    # corrupted one above the 1e-6 threshold
    p = asym_params()
    xy = iterate(p, 12, ctx256)
    mp = ctx256.mp
    a, b, g, c = p.as_reals(ctx256)
    clean = _monitor_residual(mp, a, b, g, c, xy.x, xy.y, xy.S, 9)
    assert clean < 1e-60
    bad_x = list(xy.x)
    bad_x[9] *= 1 + mp.mpf("1e-3")
    dirty = _monitor_residual(mp, a, b, g, c, bad_x, xy.y, xy.S, 9)
    assert dirty > 1e-6
