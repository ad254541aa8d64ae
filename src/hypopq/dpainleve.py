"""Nonlinear difference recursion for the Painleve variables (x_n, y_n).

The pair of first-order relations below propagates (x_n, y_n) without ever
touching a moment determinant, which makes it both the fast path and the
thing most worth double-checking:

  * first kind:  a quadratic factor times its shift equals a fixed quartic
    in x_n, solved here for y_{n+1};
  * second kind: a rational map giving x_m from (x_{m-1}, y_m).

Seeds are x_0 = m_1/m_0 - ((alpha+beta)c - gamma)/(1-c), y_0 = 0.
"""

from __future__ import annotations

from .errors import InvalidParam, PrecisionExhausted, SingularStep
from .oracle import XYSeq, _coeffs_at
from .reporting import ResidualReport, normalized_residual
from .weights import Lattice, initial_xy, shifted_params

_MONITOR_EVERY = 10
_MONITOR_THRESHOLD = "1e-6"
# Report order of the cross-identities: each group runs over its indices
# before the next starts.
_CROSS_ORDER = (
    ("y_pair_sum", "a2_difference"),
    ("a2x_difference",),
    ("a2_x_product", "a2_x_sum"),
)


def _first_kind(a, bta, g, c, n, x, y, y_next=0):
    """``(P, Q, quartic)`` of the first-kind relation ``P Q = quartic`` at
    index n, with ``P = y - alpha beta + (alpha+beta+n) x - x^2``, ``Q`` the
    same form at ``n + 1`` and ``y_next``, and the quartic
    ``(x-1)(x-alpha)(x-beta)(x-gamma)/c``.  ``y_next = 0`` leaves the part
    of Q free of y_{n+1}.
    """
    s = a + bta + n
    ab, xx = a * bta, x * x
    P = y - ab + s * x - xx
    Q = y_next - ab + (s + 1) * x - xx
    return P, Q, (x - 1) * (x - a) * (x - bta) * (x - g) / c


def dp1_step(params, n: int, x_n, y_n, ctx):
    """Advance the first-kind relation: returns y_{n+1} given (x_n, y_n).

    The left side factors as P * (P + x_n), P = y_n - alpha*beta
    + (alpha+beta+n) x_n - x_n^2; when |P| underflows relative to the
    quartic right side the division is refused with SingularStep.
    """
    mp = ctx.mp
    a, bta, g, c = params.as_reals(ctx)
    x_n = ctx.real(x_n)
    y_n = ctx.real(y_n)
    P, Q, rhs = _first_kind(a, bta, g, c, n, x_n, y_n)
    eps = mp.ldexp(1, -(ctx.bits - ctx.guard_bits))
    if abs(P) <= eps * abs(rhs):
        msg = f"first-kind factor vanished at n={n}"
        if params.is_meixner:
            msg += (
                "; alpha == gamma or beta == gamma pins x_n at gamma, "
                "making both sides identically zero (closed form applies)"
            )
        raise SingularStep(msg, index=n, which="P")
    return rhs / P - Q


def _second_kind(a, bta, g, m, y):
    """``(D, numY, quartic)`` of the second-kind relation at index m:
    ``(x_m + Y)(x_{m-1} + Y) = quartic / D^2`` with ``Y = numY / D``.
    """
    mm = m + a + bta - g - 1
    D = y * (m + mm) + m * ((m + a + bta) * mm - a * bta + g)
    numY = y * y + y * (m * mm - a * bta + g) - a * bta * m * mm
    quart = (
        (y + m * a)
        * (y + m * bta)
        * (y + m * g - (g - a) * (g - bta))
        * (y + m - (1 - a) * (1 - bta))
    )
    return D, numY, quart


def dp2_step(params, m: int, x_prev, y_m, ctx):
    """Advance the second-kind relation: returns x_m given (x_{m-1}, y_m).

    Two denominators can vanish: the linearizing factor D and the shifted
    unknown x_{m-1} + Y_m.  Each raises SingularStep with ``which`` naming
    the culprit.
    """
    if m < 1:
        raise InvalidParam("second-kind step needs m >= 1")
    mp = ctx.mp
    a, bta, g, c = params.as_reals(ctx)
    x_prev = ctx.real(x_prev)
    y = ctx.real(y_m)
    eps = mp.ldexp(1, -(ctx.bits - ctx.guard_bits))
    D, numY, quart = _second_kind(a, bta, g, m, y)
    if abs(D) <= eps * max(mp.mpf(1), abs(numY)):
        raise SingularStep(
            f"linearizing denominator vanished at m={m}", index=m, which="D"
        )
    Y = numY / D
    rhs = quart / (D * D)
    den = x_prev + Y
    if abs(den) <= eps * max(mp.mpf(1), abs(rhs)):
        raise SingularStep(
            f"x_prev + Y vanished at m={m}", index=m, which="x_prev+Y"
        )
    return rhs / den - Y


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


def _with_sums(params, x, y, ctx, failure=None, suspect=None):
    """XYSeq of (x, y) with its running sums S[n] = x[0] + ... + x[n-1]."""
    S = [ctx.mp.mpf(0)]
    for xi in x:
        S.append(S[-1] + xi)
    return XYSeq(params, x, y, S, ctx, failure, suspect)


def iterate(params, N: int, ctx, seed=None, strict: bool = False) -> XYSeq:
    """Run the difference recursion to index N.

    Canonical seeds (seed=None) come from the first two moments.  A custom
    seed is a pair (x0, y0).  On a singular step the prefix computed so far
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

    if params.lattice is Lattice.SHIFTED:
        # Identical recursion on the transformed standard parameters; map
        # back with x -> x + (gamma-1), y -> y - n(gamma-1).
        tparams = shifted_params(params)
        tshift = ctx.real(params.gamma) - 1
        if seed is None:
            inner = iterate(tparams, N, ctx, None, strict)
        else:
            sx, sy = ctx.real(seed[0]), ctx.real(seed[1])
            inner = iterate(tparams, N, ctx, (sx - tshift, sy), strict)
        x = [xi + tshift for xi in inner.x]
        y = [inner.y[n] - n * tshift for n in range(len(inner.y))]
        return _with_sums(
            params, x, y, ctx, inner.failure_index, inner.precision_suspect_at
        )

    canonical = seed is None
    if canonical and params.is_meixner:
        # The orbit is a fixed point of the first-kind quartic: x_n = gamma,
        # y_n = -n*gamma, exactly.  The generic step would divide 0/0 here.
        gv = ctx.real(params.gamma)
        x = [gv] * (N + 1)
        y = [-mp.mpf(n) * gv for n in range(N + 1)]
        return _with_sums(params, x, y, ctx)

    if canonical:
        x0, y0 = initial_xy(params, ctx)
    else:
        x0, y0 = ctx.real(seed[0]), ctx.real(seed[1])

    a, bta, g, c = params.as_reals(ctx)
    threshold = mp.mpf(_MONITOR_THRESHOLD)
    x = [x0]
    y = [y0]
    S = [mp.mpf(0), x0]
    failure = None
    suspect = None
    for n in range(N):
        try:
            y1 = dp1_step(params, n, x[n], y[n], ctx)
            x1 = dp2_step(params, n + 1, x[n], y1, ctx)
        except SingularStep:
            if strict:
                raise
            failure = n
            break
        x.append(x1)
        y.append(y1)
        S.append(S[-1] + x1)
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
    return XYSeq(
        params=params,
        x=x,
        y=y,
        S=S,
        ctx=ctx,
        failure_index=failure,
        precision_suspect_at=suspect,
    )


def dp_residuals(params, xy: XYSeq, coeffs=None, ctx=None) -> ResidualReport:
    """Residuals of both difference relations along a computed orbit.

    Base entries "dp1" and "dp2" need only (x, y).  Passing the matching
    CoeffSeq adds five cross-identities tying (x, y, S) to (a2, b).  All
    residuals are normalized by the largest additive term.  The relations
    take the same parameter form on both lattices, so no transform is
    applied here.
    """
    if ctx is None:
        ctx = xy.ctx
    mp = ctx.mp
    a, bta, g, c = params.as_reals(ctx)
    rep = ResidualReport(params=params, ctx=ctx)
    N = xy.N
    x, y, S = xy.x, xy.y, xy.S

    for n in range(N):
        P, Q, rhs = _first_kind(a, bta, g, c, n, x[n], y[n], y[n + 1])
        rep.add("dp1", n, normalized_residual(mp, [P * Q], [rhs]))
    for m in range(1, N + 1):
        D, numY, quart = _second_kind(a, bta, g, m, ctx.real(y[m]))
        try:
            Y = numY / D
        except ZeroDivisionError:
            rep.add("dp2", m, mp.inf)
            continue
        rhs = quart / (D * D)
        rep.add("dp2", m, normalized_residual(mp, [(x[m] + Y) * (x[m - 1] + Y)], [rhs]))

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
