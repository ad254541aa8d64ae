"""Nonlinear difference recursion for the Painleve variables (x_n, y_n).

The pair of first-order relations below propagates (x_n, y_n) without ever
touching a moment determinant, which makes it both the fast path and the
thing most worth double-checking:

  * first kind:  a quadratic factor times its shift equals a fixed quartic
    in x_n, solved here for y_{n+1};
  * second kind: a rational map giving x_m from (x_{m-1}, y_m).

Seeds are x_0 = m_1/m_0 - ((alpha+beta)c - gamma)/(1-c), y_0 = 0.  Both
relations, and everything built on them here, take the same form with the
original parameters on the shifted lattice k + 1 - gamma.  The steps run on
raw libmp values with the operations of the mpf operator form, in the same
order and rounding, so every orbit is bit-identical to that form.
"""

from __future__ import annotations

from itertools import accumulate

from mpmath.libmp import (fone, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt,
                          mpf_le, mpf_mul, mpf_mul_int, mpf_shift, mpf_sub, round_nearest)

from .errors import InvalidParam, PrecisionExhausted, SingularStep
from .numerics import GUARD_BITS
from .oracle import XYSeq, _coeffs_at, _common_measure
from .reporting import ResidualReport, normalized_residual
from .weights import Lattice, initial_xy

_rnd = round_nearest
_MONITOR_EVERY = 10
_MONITOR_THRESHOLD = "1e-6"
# Report order of the cross-identities: each group runs over its indices
# before the next starts.
_CROSS_ORDER = (
    ("y_pair_sum", "a2_difference"),
    ("a2x_difference",),
    ("a2_x_product", "a2_x_sum"),
)


def _invariants(ctx, a, bta, g, c):
    """Raw ``(prec, alpha, beta, gamma, c, eps, alpha beta, alpha + beta,
    (gamma-alpha)(gamma-beta), (1-alpha)(1-beta))`` from the reals ``a, bta, g,
    c``: the loop invariants at ``prec = ctx.bits``, with the step guards'
    ``eps = 2^-(bits - GUARD_BITS)`` (:data:`numerics.GUARD_BITS`)."""
    prec = ctx.bits
    a, bta, g, c = a._mpf_, bta._mpf_, g._mpf_, c._mpf_
    gab = mpf_mul(mpf_sub(g, a, prec, _rnd), mpf_sub(g, bta, prec, _rnd), prec, _rnd)
    oab = mpf_mul(mpf_sub(fone, a, prec, _rnd), mpf_sub(fone, bta, prec, _rnd), prec, _rnd)
    eps = mpf_shift(fone, -(prec - GUARD_BITS))
    ab, apb = mpf_mul(a, bta, prec, _rnd), mpf_add(a, bta, prec, _rnd)
    return prec, a, bta, g, c, eps, ab, apb, gab, oab


def _negligible(v, w, k, floor_one=False):
    """The step guards' test ``|v| <= eps |w|``, or ``eps max(1, |w|)``."""
    w = mpf_abs(w)
    if floor_one and not mpf_gt(w, fone):
        w = fone
    return mpf_le(mpf_abs(v), mpf_mul(k[5], w, k[0], _rnd))


def _first_kind(k, n, x, y, y_next=fzero):
    """Raw ``(P, Q, quartic)`` of the first-kind relation ``P Q = quartic``
    at index n, with ``P = y - alpha beta + (alpha+beta+n) x - x^2``, ``Q`` the
    same form at ``n + 1`` and ``y_next``, and the quartic
    ``(x-1)(x-alpha)(x-beta)(x-gamma)/c``.  ``y_next = 0`` leaves the part of
    Q free of y_{n+1}.  ``k`` holds the :func:`_invariants`; each operation
    rounds to nearest at ``k[0]`` bits, in the order the formulas are written."""
    prec, a, bta, g, c, _, ab, apb = k[:8]
    s = mpf_add(apb, from_int(n), prec, _rnd)
    xx = mpf_mul(x, x, prec, _rnd)
    sx, s1x = mpf_mul(s, x, prec, _rnd), mpf_mul(mpf_add(s, fone, prec, _rnd), x, prec, _rnd)
    P = mpf_sub(mpf_add(mpf_sub(y, ab, prec, _rnd), sx, prec, _rnd), xx, prec, _rnd)
    Q = mpf_sub(mpf_add(mpf_sub(y_next, ab, prec, _rnd), s1x, prec, _rnd), xx, prec, _rnd)
    quart = mpf_sub(x, fone, prec, _rnd)
    for r in (a, bta, g):
        quart = mpf_mul(quart, mpf_sub(x, r, prec, _rnd), prec, _rnd)
    return P, Q, mpf_div(quart, c, prec, _rnd)


def _dp1(k, params, n, x, y):
    """Advance the first-kind relation: raw y_{n+1} from raw (x_n, y_n).

    The left side factors as P * (P + x_n), P = y_n - alpha*beta
    + (alpha+beta+n) x_n - x_n^2; when |P| underflows relative to the
    quartic right side the division is refused with SingularStep.
    """
    P, Q, rhs = _first_kind(k, n, x, y)
    if _negligible(P, rhs, k):
        msg = f"first-kind factor vanished at n={n}"
        if params.is_meixner:
            msg += ("; the Meixner form pins x_n at its limit (gamma, or 1 on the shifted "
                    "lattice), making both sides identically zero (closed form applies)")
        raise SingularStep(msg, index=n, which="P")
    return mpf_sub(mpf_div(rhs, P, k[0], _rnd), Q, k[0], _rnd)


def _second_kind(k, m, y):
    """Raw ``(D, numY, quartic)`` of the second-kind relation at index m:
    ``(x_m + Y)(x_{m-1} + Y) = quartic / D^2`` with ``Y = numY / D``.  With
    ``mm = m + a + b - g - 1`` (a, b, g = alpha, beta, gamma), ``D = y (m + mm)
    + m ((m + a + b) mm - ab + g)``, ``numY = y^2 + y (m mm - ab + g) - ab m mm``
    and quartic ``(y + ma)(y + mb)(y + mg - (g-a)(g-b))(y + m - (1-a)(1-b))``;
    raw as in :func:`_first_kind`."""
    prec, a, bta, g, _, _, ab, _, gab, oab = k
    fm = from_int(m)
    mab = mpf_add(mpf_add(a, fm, prec, _rnd), bta, prec, _rnd)
    mm = mpf_sub(mpf_sub(mab, g, prec, _rnd), fone, prec, _rnd)
    t = mpf_add(mpf_sub(mpf_mul(mab, mm, prec, _rnd), ab, prec, _rnd), g, prec, _rnd)
    D = mpf_mul(y, mpf_add(mm, fm, prec, _rnd), prec, _rnd)
    D = mpf_add(D, mpf_mul_int(t, m, prec, _rnd), prec, _rnd)
    t = mpf_add(mpf_sub(mpf_mul_int(mm, m, prec, _rnd), ab, prec, _rnd), g, prec, _rnd)
    numY = mpf_add(mpf_mul(y, y, prec, _rnd), mpf_mul(y, t, prec, _rnd), prec, _rnd)
    numY = mpf_sub(numY, mpf_mul(mpf_mul_int(ab, m, prec, _rnd), mm, prec, _rnd), prec, _rnd)
    ya, yb, yg = [mpf_add(y, mpf_mul_int(r, m, prec, _rnd), prec, _rnd) for r in (a, bta, g)]
    quart = mpf_mul(mpf_mul(ya, yb, prec, _rnd), mpf_sub(yg, gab, prec, _rnd), prec, _rnd)
    t = mpf_sub(mpf_add(y, fm, prec, _rnd), oab, prec, _rnd)
    return D, numY, mpf_mul(quart, t, prec, _rnd)


def _dp2(k, m, x_prev, y):
    """Advance the second-kind relation: raw x_m from raw (x_{m-1}, y_m).

    Two denominators can vanish: the linearizing factor D and the shifted
    unknown x_{m-1} + Y_m.  Each raises SingularStep with ``which`` naming
    the culprit.
    """
    prec = k[0]
    D, numY, quart = _second_kind(k, m, y)
    if _negligible(D, numY, k, floor_one=True):
        raise SingularStep(f"linearizing denominator vanished at m={m}", index=m, which="D")
    Y = mpf_div(numY, D, prec, _rnd)
    rhs = mpf_div(quart, mpf_mul(D, D, prec, _rnd), prec, _rnd)
    den = mpf_add(x_prev, Y, prec, _rnd)
    if _negligible(den, rhs, k, floor_one=True):
        raise SingularStep(f"x_prev + Y vanished at m={m}", index=m, which="x_prev+Y")
    return mpf_sub(mpf_div(rhs, den, prec, _rnd), Y, prec, _rnd)


def _cross_terms(a, bta, g, c, n, x, y, S, b_n, a2_n, a2_next=None):
    """Additive terms ``(lhs, rhs)`` of the five cross-identities tying
    (x, y, S) to (a2, b) at index n, by name.

    An identity that reaches past the data is left out: those that need
    index n+1 appear only when ``a2_next`` (a2 at n+1) is given, and those
    that need n-1 only for n >= 1.
    """
    q = (1 - c) / c
    out = {}
    if a2_next is not None:
        out["y_pair_sum"] = (
            [y[n + 1], y[n]],
            [-q * b_n * x[n], a * bta, -g / c, q * S[n + 1]],
        )
        out["a2_difference"] = (
            [q * a2_next, -q * a2_n],
            [y[n + 1], -y[n], b_n, a + bta + n],
        )
    if n < 1:
        return out
    if a2_next is not None:
        out["a2x_difference"] = (
            [q * a2_next * x[n + 1], -q * a2_n * x[n - 1]],
            [-b_n * (y[n + 1] - y[n]), a * bta, -y[n]],
        )
    out["a2_x_product"] = (
        [q * q * a2_n * x[n] * x[n - 1]],
        [y[n] * (y[n] - a * bta + g / c), -(y[n] - a * bta) * q * S[n]],
    )
    out["a2_x_sum"] = (
        [q * q * a2_n * (x[n] + x[n - 1])],
        [
            -y[n] * (n * (1 + c) / c + a + bta - (g + 1) / c),
            (a * bta - g) * n / c,
            (a + bta + n) * q * S[n],
        ],
    )
    return out


def _monitor_residual(mp, a, bta, g, c, x, y, S, m):
    """Max of the five cross-identity residuals at index m (1 <= m < len-1),
    with a2 and b reconstructed from (x, y, S) at m and m+1 only.

    The a2-difference relation is identically satisfied under this
    reconstruction (it telescopes), so the signal comes from the other
    four; it is kept for uniformity and costs nothing.
    """
    a2m, bm = _coeffs_at(mp, a, bta, g, c, x, y, S, m)
    a2m1, _ = _coeffs_at(mp, a, bta, g, c, x, y, S, m + 1)
    terms = _cross_terms(a, bta, g, c, m, x, y, S, bm, a2m, a2m1)
    return max(normalized_residual(mp, lhs, rhs) for lhs, rhs in terms.values())


def _targets(params, ctx):
    """(x-limit, limit of y_n + n * x-limit) for the lattice at hand."""
    k, mk = _invariants(ctx, *params.as_reals(ctx)), ctx.mp.make_mpf
    if params.lattice is Lattice.SHIFTED:
        return mk(fone), mk(k[9])  # 1, (1-alpha)(1-beta)
    return mk(k[3]), mk(k[8])  # gamma, (gamma-alpha)(gamma-beta)


def iterate(params, N: int, ctx, seed=None, strict: bool = False) -> XYSeq:
    """Run the difference recursion to index N, on either lattice.

    Canonical seeds (seed=None) come from the first two moments.  A custom
    seed is a pair (x0, y0), used as given.  The steps and the monitor take
    ``params`` as given on both lattices; only the canonical seed of a
    shifted set goes through the standard-lattice transform
    (:func:`initial_xy`).  On a singular step the prefix computed so far
    is returned with ``failure_index`` set (or the SingularStep is raised
    when strict=True).  For canonical runs a consistency monitor evaluates
    the five nonlinear cross-identities every ten steps; the first index
    where any exceeds 1e-6 is recorded as ``precision_suspect_at`` (raised as
    PrecisionExhausted when strict=True).  The monitor is a coarse guard:
    it flags garbage orbits but not the first few corrupted digits.
    """
    if N < 0:
        raise InvalidParam("N must be >= 0")
    mp = ctx.mp
    canonical = seed is None
    if canonical and params.is_meixner:
        # The orbit is a fixed point of the first-kind quartic: x_n is the
        # x-limit (gamma, or 1 on the shifted lattice) and y_n = -n x_n,
        # exactly.  The generic step would divide 0/0 here.
        xv, _ = _targets(params, ctx)
        x = [xv] * (N + 1)
        y = [-mp.mpf(n) * xv for n in range(N + 1)]
        return XYSeq(params, x, y, [mp.mpf(0), *accumulate(x)], ctx)

    x0, y0 = initial_xy(params, ctx) if canonical else (ctx.real(seed[0]), ctx.real(seed[1]))

    a, bta, g, c = params.as_reals(ctx)
    k = _invariants(ctx, a, bta, g, c)
    threshold = mp.mpf(_MONITOR_THRESHOLD)
    x, y, S = [x0], [y0], [mp.mpf(0), x0]
    failure = suspect = None
    xr, yr, sr = x0._mpf_, y0._mpf_, x0._mpf_  # raw between steps
    for n in range(N):
        try:
            yr = _dp1(k, params, n, xr, yr)
            xr = _dp2(k, n + 1, xr, yr)
        except SingularStep:
            if strict:
                raise
            failure = n
            break
        sr = mpf_add(sr, xr, ctx.bits, _rnd)
        x.append(mp.make_mpf(xr))
        y.append(mp.make_mpf(yr))
        S.append(mp.make_mpf(sr))
        j = n + 1
        if canonical and suspect is None and j >= 2 and j % _MONITOR_EVERY == 0:
            if _monitor_residual(mp, a, bta, g, c, x, y, S, j - 1) > threshold:
                suspect = j - 1
                if strict:
                    raise PrecisionExhausted(
                        f"consistency monitor tripped at n={suspect}: "
                        f"the orbit no longer satisfies the cross-identities "
                        f"at {ctx.bits} bits"
                    )
    return XYSeq(params, x, y, S, ctx, failure_index=failure, precision_suspect_at=suspect)


def dp_residuals(xy: XYSeq, coeffs=None) -> ResidualReport:
    """Residuals of both difference relations along a computed orbit, for
    its measure ``xy.params`` and at its precision ``xy.ctx``.

    Base entries "dp1" and "dp2" need only (x, y).  A CoeffSeq of the same
    params and ctx (else ``InvalidParam``) adds five cross-identities tying
    (x, y, S) to (a2, b).  All residuals are normalized by the largest
    additive term.  The relations take the same parameter form on both
    lattices, so no transform is applied here.
    """
    params, ctx = (xy.params, xy.ctx) if coeffs is None else _common_measure(xy, coeffs)
    mp = ctx.mp
    a, bta, g, c = params.as_reals(ctx)
    k = _invariants(ctx, a, bta, g, c)
    prec, mk = ctx.bits, mp.make_mpf
    rep = ResidualReport(ctx=ctx)
    N = xy.N
    x, y, S = xy.x, xy.y, xy.S
    for n in range(N):
        P, Q, rhs = _first_kind(k, n, x[n]._mpf_, y[n]._mpf_, y[n + 1]._mpf_)
        rep.add("dp1", n, normalized_residual(mp, [mk(mpf_mul(P, Q, prec, _rnd))], [mk(rhs)]))
    for m in range(1, N + 1):
        D, numY, quart = _second_kind(k, m, ctx.real(y[m])._mpf_)
        try:
            Y = mpf_div(numY, D, prec, _rnd)
        except ZeroDivisionError:
            rep.add("dp2", m, mp.inf)
            continue
        rhs = mpf_div(quart, mpf_mul(D, D, prec, _rnd), prec, _rnd)
        xm, xp = [mpf_add(v._mpf_, Y, prec, _rnd) for v in (x[m], x[m - 1])]
        rep.add("dp2", m, normalized_residual(mp, [mk(mpf_mul(xm, xp, prec, _rnd))], [mk(rhs)]))

    if coeffs is None:
        return rep
    a2, b = coeffs.a2, coeffs.b
    NN = min(N, coeffs.N)
    terms = [
        _cross_terms(a, bta, g, c, n, x, y, S, b[n], a2[n], a2[n + 1] if n < NN else None)
        for n in range(NN + 1)
    ]
    for names in _CROSS_ORDER:
        for n, found in enumerate(terms):
            for name in names:
                if name in found:
                    rep.add(name, n, normalized_residual(mp, *found[name]))
    return rep
