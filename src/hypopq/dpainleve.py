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
signed ``(mantissa, exponent)`` integer pairs of :mod:`numerics`' kernel,
as the oracle's kernels do: each of P, Q, D, numY, the two quartics and
S_{n+1} = S_n + x_n is an exact sum of exact products, rounded once to
nearest.  The orbit stays in pairs until :func:`iterate` returns, and then
each x_n, y_n and S_n becomes a BigReal once.  The five cross-identities
are written once, on the same pairs multiplied through by c^2 or c(1-c),
and shared by the consistency monitor and :func:`dp_residuals`, through
the one residual of :mod:`numerics`: the monitor decides its 1e-6 test
exactly on integers, and each residual of the suite is rounded once.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import InvalidParam, PrecisionExhausted, SingularStep
from .numerics import (GUARD_BITS, _ZERO, _below, _from_real, _neg, _negligible, _normalized,
                       _quotient, _rational_pair, _residual, _round, _scaled, _sum, _times,
                       _to_real, _window)
from .oracle import XYSeq, _common_measure
from .reporting import ResidualReport
from .weights import Lattice, initial_xy

_MONITOR_EVERY = 10
# The monitor trips where a normalized residual exceeds 1 / _MONITOR_INVERSE.
_MONITOR_INVERSE = 10**6
_ONE = (1, 0)
# Report order of the cross-identities: each group runs over its indices
# before the next starts.
_CROSS_ORDER = (
    ("y_pair_sum", "a2_difference"),
    ("a2x_difference",),
    ("a2_x_product", "a2_x_sum"),
)


def _invariants(params, ctx):
    """The loop invariants at ``prec = ctx.bits``: ``(prec, window, eps, c,
    first, second)``.  ``window`` (:func:`numerics._window`) is the exponent
    window of every sum; ``eps`` is the exponent of the step guards'
    ``2^-(bits - GUARD_BITS)`` (:data:`numerics.GUARD_BITS`).  The rest are
    exact pairs of a, b, g, c: alpha, beta, gamma and c rounded to ``prec``
    (:func:`numerics._rational_pair`).
    ``first = (ab, apb, q3, q2, q1, q0)``, with ``ab = a b``, ``apb = a + b``
    and the coefficients of the first-kind quartic
    ``(x-1)(x-a)(x-b)(x-g) = x^4 + q3 x^3 + q2 x^2 + q1 x + q0``.
    ``second = (ab, apb, h, k1, k2, k3, g, g1, go, k4, k5)``: ``h = a + b - g``,
    ``k1 = apb h - ab + g``, ``k2 = g - ab``, ``k3 = ab h`` and, with
    ``gab = (g-a)(g-b)`` and ``oab = (1-a)(1-b)``, ``g1 = g + 1``,
    ``go = gab + oab``, ``k4 = g oab + gab`` and ``k5 = gab oab``."""
    prec = ctx.bits
    raw = [_rational_pair(q, prec) for q in (params.alpha, params.beta, params.gamma, params.c)]
    s = max(0, *(-e for _, e in raw))
    # a = A / 2^s and so on: each invariant is an integer over a power of 2^s
    A, B, G, C = (m << e + s for m, e in raw)
    O, AB, APB, GAB = 1 << s, A * B, A + B, (G - A) * (G - B)
    H, OAB = APB - G, (O - A) * (O - B)
    q = [1]  # the quartic's coefficients, highest power first
    for r in (O, A, B, G):
        q = [u - r * v for u, v in zip(q + [0], [0] + q)]

    def pair(num, k):  # num / 2^(k s)
        return (num, -k * s) if num else _ZERO

    first = (pair(AB, 2), pair(APB, 1), *(pair(u, j) for j, u in enumerate(q) if j))
    second = (pair(AB, 2), pair(APB, 1), pair(H, 1), pair(APB * H - AB + G * O, 2),
              pair(G * O - AB, 2), pair(AB * H, 3), pair(G, 1), pair(G + O, 1),
              pair(GAB + OAB, 2), pair(G * OAB + GAB * O, 3), pair(GAB * OAB, 4))
    return prec, _window(prec), GUARD_BITS - prec, pair(C, 1), first, second


def _first_kind(k, n, x, y, y_next=_ZERO):
    """``(P, Q, quartic)`` of the first-kind relation ``c P Q = quartic`` at
    index n, as pairs: ``P = y - ab + (a+b+n) x - x^2``, ``Q`` the same form
    at ``n + 1`` and ``y_next``, and ``quartic = (x-1)(x-a)(x-b)(x-g)``
    (a, b, g = alpha, beta, gamma).  ``y_next = 0`` leaves the part of Q free
    of y_{n+1}.  ``k`` holds the :func:`_invariants`; each of the three is
    the exact value on the pairs given, rounded once to ``k[0]`` bits."""
    prec, window, _, _, (ab, apb, q3, q2, q1, q0), _ = k
    xx = _times(x, x)
    common = [_neg(ab), _times(apb, x), _scaled(n, x), _neg(xx)]
    P = _round(_sum([y, *common], floor=window), prec)
    Q = _round(_sum([y_next, x, *common], floor=window), prec)
    quart = [_times(xx, xx), _times(q3, _times(xx, x)), _times(q2, xx), _times(q1, x), q0]
    return P, Q, _round(_sum(quart, floor=window), prec)


def _dp1(k, params, n, x, y):
    """Advance the first-kind relation: y_{n+1} from (x_n, y_n), as pairs.

    The relation reads c P Q = quartic with P = y_n - alpha*beta
    + (alpha+beta+n) x_n - x_n^2; when |c P| underflows relative to the
    quartic the division is refused with SingularStep.
    ``y_{n+1} = quartic / (c P) - Q``, Q free of y_{n+1}: the quotient is
    rounded once, and then the difference.
    """
    P, Q, quart = _first_kind(k, n, x, y)
    prec, window, eps, c = k[:4]
    cP = _times(c, P)
    if _negligible(cP, quart, eps):
        msg = f"first-kind factor vanished at n={n}"
        if params.is_meixner:
            msg += ("; the Meixner form pins x_n at its limit (gamma, or 1 on the shifted "
                    "lattice), making both sides identically zero (closed form applies)")
        raise SingularStep(msg, index=n, which="P")
    return _round(_sum([_quotient(quart, cP, prec), _neg(Q)], floor=window), prec)


def _second_kind(k, m, y):
    """``(D, numY, quartic)`` of the second-kind relation at index m, as
    pairs: ``(x_m + Y)(x_{m-1} + Y) = quartic / D^2`` with ``Y = numY / D``.
    With ``mm = m + a + b - g - 1`` (a, b, g = alpha, beta, gamma),
    ``D = y (m + mm) + m ((m + a + b) mm - ab + g)``,
    ``numY = y^2 + y (m mm - ab + g) - ab m mm`` and quartic
    ``(y + ma)(y + mb)(y + mg - (g-a)(g-b))(y + m - (1-a)(1-b))``; each is
    the exact value rounded once, as in :func:`_first_kind`.  D and numY are
    expanded in ``h = mm - m + 1``, and the quartic's two pairs of factors
    in y, with the :func:`_invariants`."""
    prec, window, _, _, _, (ab, apb, h, k1, k2, k3, g, g1, go, k4, k5) = k
    yy, yh, m1, m2 = _times(y, y), _times(y, h), m * (m - 1), m * m
    D = _round(_sum([_scaled(2 * m - 1, y), yh, (m * m1, 0), _scaled(m2, h),
                    _scaled(m, k1), _scaled(m1, apb)], floor=window), prec)
    numY = _round(_sum([yy, _scaled(m, yh), _scaled(m1, y), _times(y, k2),
                       _scaled(-m, k3), _scaled(-m1, ab)], floor=window), prec)
    left = _sum([yy, _scaled(m, _times(apb, y)), _scaled(m2, ab)], floor=window)
    right = _sum([yy, _scaled(m, _times(g1, y)), _neg(_times(go, y)), _scaled(m2, g),
                  _scaled(-m, k4), k5], floor=window)
    return D, numY, _round(_times(left, right), prec)


def _dp2(k, m, x_prev, y):
    """Advance the second-kind relation: x_m from (x_{m-1}, y_m), as pairs.

    Two denominators can vanish: the linearizing factor D and the shifted
    unknown x_{m-1} + Y_m.  Each raises SingularStep with ``which`` naming
    the culprit.  With ``E = x_{m-1} D + numY = D (x_{m-1} + Y)``, the guard
    ``|x_{m-1} + Y| <= eps max(1, |quartic| / D^2)`` is tested as
    ``|E D| <= eps max(D^2, |quartic|)``.  ``x_m = quartic / (D E) - Y``:
    each quotient is rounded once, and then their difference.
    """
    prec, window, eps = k[:3]
    D, numY, quart = _second_kind(k, m, y)
    if _negligible(D, numY if _below(_ONE, numY) else _ONE, eps):
        raise SingularStep(f"linearizing denominator vanished at m={m}", index=m, which="D")
    E = _sum([_times(x_prev, D), numY], floor=window)
    ED, DD = _times(E, D), _times(D, D)
    if _negligible(ED, quart if _below(DD, quart) else DD, eps):
        raise SingularStep(f"x_prev + Y vanished at m={m}", index=m, which="x_prev+Y")
    Y = _quotient(numY, D, prec)
    return _round(_sum([_quotient(quart, ED, prec), _neg(Y)], floor=window), prec)


def _cross_terms(k, n, x, y, S, A, B, A_next=None):
    """Additive terms ``(lhs, rhs)`` of the five cross-identities tying
    (x, y, S) to (a2, b) at index n, by name, as exact pairs.

    ``x``, ``y`` and ``S`` map the indices n-1 .. n+1 to pairs; with
    ``d = 1 - c``, ``A = d^2 a2_n``, ``B = c d b_n`` and ``A_next = d^2
    a2_{n+1}``.  Each identity, as written with ``(1-c)/c``, is multiplied
    through by c^2 or by c d, so every term is a polynomial in pairs and
    the ratio |sum(lhs) - sum(rhs)| / max |term| (:func:`numerics._residual`) is
    unchanged.  An identity that reaches past the data is left out: those
    that need index n+1 appear only when ``A_next`` is given, and those
    that need n-1 only for n >= 1.
    """
    _, window, _, c, (ab, apb, *_), second = k
    g, g1 = second[6:8]
    d = _sum([_ONE, _neg(c)])
    cc, cd = _times(c, c), _times(c, d)
    cdn = _times(cd, _sum([apb, (n, 0)]))  # c d (a + b + n)
    xn, yn, out = x[n], y[n], {}
    if A_next is not None:
        y1 = y[n + 1]
        out["y_pair_sum"] = (
            [_times(cc, y1), _times(cc, yn)],
            [_neg(_times(B, xn)), _times(cc, ab), _neg(_times(c, g)), _times(cd, S[n + 1])],
        )
        out["a2_difference"] = (
            [A_next, _neg(A)],
            [_times(cd, y1), _neg(_times(cd, yn)), B, cdn],
        )
    if n < 1:
        return out
    x_prev = x[n - 1]
    if A_next is not None:
        out["a2x_difference"] = (
            [_times(A_next, x[n + 1]), _neg(_times(A, x_prev))],
            [_neg(_times(B, _sum([y1, _neg(yn)], floor=window))), _times(cd, ab),
             _neg(_times(cd, yn))],
        )
    yab = _sum([yn, _neg(ab)], floor=window)
    out["a2_x_product"] = (
        [_times(A, _times(xn, x_prev))],
        [_times(yn, _sum([_times(cc, yab), _times(c, g)], floor=window)),
         _neg(_times(yab, _times(cd, S[n])))],
    )
    out["a2_x_sum"] = (
        [_times(A, _sum([xn, x_prev], floor=window))],
        [_neg(_times(yn, _sum([_scaled(n, _sum([c, cc])), _times(cc, apb), _neg(_times(c, g1))],
                              floor=window))),
         _scaled(n, _times(c, _sum([ab, _neg(g)]))),
         _times(cdn, S[n])],
    )
    return out


def _monitor_trips(k, x, y, S, m):
    """Whether any of the five cross-identities at index m (1 <= m <
    len(x) - 1) has a normalized residual above 10^-6, that is
    ``10^6 |sum(lhs) - sum(rhs)| > max |term|``, decided on integers.

    ``x``, ``y`` and ``S`` are the orbit's pairs; only those at m-1 .. m+1
    are read.  ``A = d^2 a2`` and ``B = c d b`` (d = 1 - c) are rebuilt from
    them at m and m+1 by the map of :func:`oracle.coeffs_from_xy`
    multiplied through, with no division:
    ``A = c (d (y + S) + n (n - 1 + a + b - g))`` and
    ``B = c (d x + n + (n + a + b) c - g)``.  Every sum is exact while its
    terms' exponents lie within the step's window (:func:`_invariants`).
    Under this reconstruction the a2-difference residual is only the
    rounding of S_{m+1} = S_m + x_m.
    """
    _, window, _, c, (_, apb, *_), second = k
    g, d = second[6], _sum([_ONE, _neg(c)])

    def a2(n):
        return _times(c, _sum([_times(d, y[n]), _times(d, S[n]), (n * (n - 1), 0),
                               _scaled(n, apb), _scaled(-n, g)], floor=window))

    B = _times(c, _sum([_times(d, x[m]), (m, 0), _scaled(m, c), _times(apb, c), _neg(g)],
                       floor=window))
    for lhs, rhs in _cross_terms(k, m, x, y, S, a2(m), B, a2(m + 1)).values():
        diff, top = _residual(lhs, rhs, window)
        if not _below(_scaled(_MONITOR_INVERSE, diff), top):
            return True
    return False


def _targets(params, ctx):
    """(x-limit, limit of y_n + n * x-limit) for the lattice at hand."""
    a, bta, g, _ = params.as_reals(ctx)
    if params.lattice is Lattice.SHIFTED:
        return ctx.mp.mpf(1), (1 - a) * (1 - bta)
    return g, (g - a) * (g - bta)


def iterate(params, N: int, ctx, seed=None, strict: bool = False) -> XYSeq:
    """Run the difference recursion to index N, on either lattice.

    Canonical seeds (seed=None) come from the first two moments.  A custom
    seed is a pair (x0, y0), used as given.  The steps and the monitor take
    ``params`` as given on both lattices; only the canonical seed of a
    shifted set goes through the standard-lattice transform
    (:func:`initial_xy`).  The steps keep the orbit as pairs, and x, y and S
    become BigReals once, when the run returns.  On a singular step the
    prefix computed so far is returned with ``failure_index`` set (or the
    SingularStep is raised when strict=True).  For canonical runs a
    consistency monitor evaluates the five nonlinear cross-identities on the
    pairs every ten steps; the first index where any exceeds 1e-6 is
    recorded as ``precision_suspect_at`` (raised as PrecisionExhausted when
    strict=True).  The monitor is a coarse guard: it flags garbage orbits
    but not the first few corrupted digits.
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

    k = _invariants(params, ctx)
    xp, yp = _from_real(x0), _from_real(y0)
    x, y, S = [xp], [yp], [_ZERO, xp]
    failure = suspect = None
    for n in range(N):
        try:
            yp = _dp1(k, params, n, xp, yp)
            xp = _dp2(k, n + 1, xp, yp)
        except SingularStep:
            if strict:
                raise
            failure = n
            break
        x.append(xp)
        y.append(yp)
        # S_n and x_n are prec-bit pairs: cut in the window, the sum still rounds exactly
        S.append(_round(_sum([S[-1], xp], floor=k[1]), ctx.bits))
        j = n + 1
        if canonical and suspect is None and j >= 2 and j % _MONITOR_EVERY == 0:
            if _monitor_trips(k, x, y, S, j - 1):
                suspect = j - 1
                if strict:
                    raise PrecisionExhausted(
                        f"consistency monitor tripped at n={suspect}: "
                        f"the orbit no longer satisfies the cross-identities "
                        f"at {ctx.bits} bits"
                    )
    x, y, S = ([_to_real(mp, v) for v in seq] for seq in (x, y, S))
    return XYSeq(params, x, y, S, ctx, failure_index=failure, precision_suspect_at=suspect)


def dp_residuals(xy: XYSeq, coeffs=None) -> ResidualReport:
    """Residuals of both difference relations along a computed orbit, for
    its measure ``xy.params`` and at its precision ``xy.ctx``.

    Base entries "dp1" and "dp2" need only (x, y).  A CoeffSeq of the same
    params and ctx (else ``InvalidParam``) adds five cross-identities tying
    (x, y, S) to (a2, b) (:func:`_cross_terms`, which the monitor shares).
    Every residual is |sum(lhs) - sum(rhs)| over the largest additive term,
    both exact on the pairs of the stored values, as one quotient rounded
    once (:func:`numerics._normalized`, as for every residual suite).  The
    relations take the same parameter form on both lattices, so
    no transform is applied here.
    """
    params, ctx = (xy.params, xy.ctx) if coeffs is None else _common_measure(xy, coeffs)
    mp = ctx.mp
    k = _invariants(params, ctx)
    window, _, cp = k[1:4]

    def pairs(seq):
        return [_from_real(ctx.real(v)) for v in seq]

    rep = ResidualReport(ctx=ctx)
    N = xy.N
    px, py = pairs(xy.x), pairs(xy.y)
    for n in range(N):
        P, Q, quart = _first_kind(k, n, px[n], py[n], py[n + 1])
        rep.add("dp1", n, _normalized(mp, [_times(_times(cp, P), Q)], [quart]))
    for m in range(1, N + 1):
        D, numY, quart = _second_kind(k, m, py[m])
        if not D[0]:  # Y = numY / D is undefined
            rep.add("dp2", m, mp.inf)
            continue
        lhs = _times(*(_sum([_times(v, D), numY], floor=window) for v in (px[m], px[m - 1])))
        rep.add("dp2", m, _normalized(mp, [lhs], [quart]))

    if coeffs is None:
        return rep
    NN = min(N, coeffs.N)
    pS, a2, b = pairs(xy.S), pairs(coeffs.a2[:NN + 1]), pairs(coeffs.b[:NN + 1])
    d = _sum([_ONE, _neg(cp)])
    dd, cd = _times(d, d), _times(cp, d)
    ratios = [
        {name: _normalized(mp, *terms) for name, terms in _cross_terms(
            k, n, px, py, pS, _times(dd, a2[n]), _times(cd, b[n]),
            _times(dd, a2[n + 1]) if n < NN else None).items()}
        for n in range(NN + 1)
    ]
    for names in _CROSS_ORDER:
        for n, found in enumerate(ratios):
            for name in names:
                if name in found:
                    rep.add(name, n, found[name])
    return rep
