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
exactly on integers, and each residual of the suite, formed on the stored
values as they are, is rounded once.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import InvalidParam, PrecisionExhausted, SingularStep
from .numerics import (GUARD_BITS, _ZERO, _below, _from_real, _normalized, _quotient,
                       _rational_pair, _residual, _round, _sum, _to_real, _window)
from .oracle import XYSeq, _common_measure
from .reporting import ResidualReport
from .weights import Lattice, initial_xy

_MONITOR_EVERY = 10
# The monitor trips where a normalized residual exceeds 1 / _MONITOR_INVERSE.
_MONITOR_INVERSE = 10**6
_ONE = (1, 0)


def _invariants(params, ctx):
    """The loop invariants at ``prec = ctx.bits``: ``(prec, window, eps, c,
    first, second, d, cross)``.  ``window`` (:func:`numerics._window`) is the exponent
    window of every sum; ``eps`` is the exponent of the step guards'
    ``2^-(bits - GUARD_BITS)`` (:data:`numerics.GUARD_BITS`).  The rest are
    exact pairs of a, b, g, c: alpha, beta, gamma and c rounded to ``prec``
    (:func:`numerics._rational_pair`), and ``d = 1 - c``.
    ``first = (ab, apb, q3, q2, q1, q0)``, with ``ab = a b``, ``apb = a + b``
    and the coefficients of the first-kind quartic
    ``(x-1)(x-a)(x-b)(x-g) = x^4 + q3 x^3 + q2 x^2 + q1 x + q0``.
    ``second = (ab, apb, h, k1, k2, k3, g, g1, go, k4, k5)``: ``h = a + b - g``,
    ``k1 = apb h - ab + g``, ``k2 = g - ab``, ``k3 = ab h`` and, with
    ``gab = (g-a)(g-b)`` and ``oab = (1-a)(1-b)``, ``g1 = g + 1``,
    ``go = gab + oab``, ``k4 = g oab + gab`` and ``k5 = gab oab``, and
    ``cross = (c + c^2, ab - g, c g, c^2 ab, c d ab)``."""
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
    c, d = pair(C, 1), pair(O - C, 1)
    cross = (pair(C * O + C * C, 2), pair(AB - G * O, 2), pair(C * G, 2), pair(C * C * AB, 4),
             pair(C * (O - C) * AB, 4))
    return prec, _window(prec), GUARD_BITS - prec, c, first, second, d, cross


def _first_kind(k, n, x, y, y_next=_ZERO):
    """``(P, Q, quartic)`` of the first-kind relation ``c P Q = quartic`` at
    index n, as pairs: ``P = y - ab + (a+b+n) x - x^2``, ``Q`` the same form
    at ``n + 1`` and ``y_next``, and ``quartic = (x-1)(x-a)(x-b)(x-g)``
    (a, b, g = alpha, beta, gamma).  ``y_next = 0`` leaves the part of Q free
    of y_{n+1}.  ``k`` holds the :func:`_invariants`; each of the three is
    the exact value on the pairs given, rounded once to ``k[0]`` bits."""
    prec, window, _, _, ((mab, eab), (mapb, eapb), (m3, e3), (m2, e2), (m1, e1), q0) = k[:5]
    mx, ex = x
    mxx, exx = mx * mx, 2 * ex
    common = [(-mab, eab), (mapb * mx, eapb + ex), (n * mx, ex), (-mxx, exx)]
    P = _round(_sum([y, *common], floor=window), prec)
    Q = _round(_sum([y_next, x, *common], floor=window), prec)
    quart = [(mxx * mxx, 2 * exx), (m3 * mxx * mx, e3 + exx + ex), (m2 * mxx, e2 + exx),
             (m1 * mx, e1 + ex), q0]
    return P, Q, _round(_sum(quart, floor=window), prec)


def _dp1(k, params, n, x, y):
    """Advance the first-kind relation: y_{n+1} from (x_n, y_n), as pairs.

    The relation reads c P Q = quartic with P = y_n - alpha*beta
    + (alpha+beta+n) x_n - x_n^2; when |c P| underflows relative to the
    quartic the division is refused with SingularStep.
    ``y_{n+1} = quartic / (c P) - Q``, Q free of y_{n+1}: the quotient is
    rounded once, and then the difference.
    """
    P, (mQ, eQ), quart = _first_kind(k, n, x, y)
    prec, window, eps, (mc, ec) = k[:4]
    cP = mc * P[0], ec + P[1]
    if _below(cP, (quart[0], quart[1] + eps)):  # |c P| <= 2^eps |quartic|
        msg = f"first-kind factor vanished at n={n}"
        if params.is_meixner:
            msg += ("; the Meixner form pins x_n at its limit (gamma, or 1 on the shifted "
                    "lattice), making both sides identically zero (closed form applies)")
        raise SingularStep(msg, index=n, which="P")
    return _round(_sum([_quotient(quart, cP, prec), (-mQ, eQ)], floor=window), prec)


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
    prec, window, _, _, _, ((mab, eab), (mapb, eapb), (mh, eh), (mk1, ek1), (mk2, ek2),
                            (mk3, ek3), (mg, eg), (mg1, eg1), (mgo, ego), (mk4, ek4), k5) = k[:6]
    my, ey = y
    myy, eyy, myh, eyh, m1, m2 = my * my, 2 * ey, my * mh, ey + eh, m * (m - 1), m * m
    D = _round(_sum([((2 * m - 1) * my, ey), (myh, eyh), (m * m1, 0), (m2 * mh, eh),
                     (m * mk1, ek1), (m1 * mapb, eapb)], floor=window), prec)
    numY = _round(_sum([(myy, eyy), (m * myh, eyh), (m1 * my, ey), (my * mk2, ey + ek2),
                        (-m * mk3, ek3), (-m1 * mab, eab)], floor=window), prec)
    ml, el = _sum([(myy, eyy), (m * mapb * my, eapb + ey), (m2 * mab, eab)], floor=window)
    mr, er = _sum([(myy, eyy), (m * mg1 * my, eg1 + ey), (-mgo * my, ego + ey), (m2 * mg, eg),
                   (-m * mk4, ek4), k5], floor=window)
    return D, numY, _round((ml * mr, el + er), prec)


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
    mw, ew = numY if _below(_ONE, numY) else _ONE
    if _below(D, (mw, ew + eps)):  # |D| <= 2^eps max(1, |numY|)
        raise SingularStep(f"linearizing denominator vanished at m={m}", index=m, which="D")
    (mD, eD), (mx, ex) = D, x_prev
    mE, eE = _sum([(mx * mD, ex + eD), numY], floor=window)
    ED, DD = (mE * mD, eE + eD), (mD * mD, 2 * eD)
    mw, ew = quart if _below(DD, quart) else DD
    if _below(ED, (mw, ew + eps)):
        raise SingularStep(f"x_prev + Y vanished at m={m}", index=m, which="x_prev+Y")
    mY, eY = _quotient(numY, D, prec)
    return _round(_sum([_quotient(quart, ED, prec), (-mY, eY)], floor=window), prec)


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
    that need n-1 only for n >= 1.  Pairs are written out as ``(m, e)``:
    a trailing 0 marks index n-1 and a 1 index n+1."""
    _, window, _, (mc, ec), ((mab, eab), (mapb, eapb), *_), second, (md, ed), cross = k
    mg1, eg1 = second[7]
    # c + c^2, ab - g, c g, c^2 ab and c d ab
    (mcpc, ecpc), (mag, eag), (mcg, ecg), (mccab, eccab), (mcdab, ecdab) = cross
    mcc, ecc, mcd, ecd = mc * mc, 2 * ec, mc * md, ec + ed
    mabn, eabn = _sum([(mapb, eapb), (n, 0)], floor=window)
    mcdn, ecdn = mcd * mabn, ecd + eabn  # c d (a + b + n)
    (mx, ex), (my, ey), (mS, eS), (mA, eA), (mB, eB) = x[n], y[n], S[n], A, B
    out = {}
    if A_next is not None:
        (my1, ey1), (mS1, eS1) = y[n + 1], S[n + 1]
        out["y_pair_sum"] = (
            [(mcc * my1, ecc + ey1), (mcc * my, ecc + ey)],
            [(-mB * mx, eB + ex), (mccab, eccab), (-mcg, ecg), (mcd * mS1, ecd + eS1)],
        )
        out["a2_difference"] = (
            [A_next, (-mA, eA)],
            [(mcd * my1, ecd + ey1), (-mcd * my, ecd + ey), B, (mcdn, ecdn)],
        )
    if n < 1:
        return out
    mx0, ex0 = x[n - 1]
    if A_next is not None:
        (mA1, eA1), (mx1, ex1) = A_next, x[n + 1]
        mdy, edy = _sum([(my1, ey1), (-my, ey)], floor=window)
        out["a2x_difference"] = (
            [(mA1 * mx1, eA1 + ex1), (-mA * mx0, eA + ex0)],
            [(-mB * mdy, eB + edy), (mcdab, ecdab), (-mcd * my, ecd + ey)],
        )
    mya, eya = _sum([(my, ey), (-mab, eab)], floor=window)  # y - ab
    mw, ew = _sum([(mcc * mya, ecc + eya), (mcg, ecg)], floor=window)
    out["a2_x_product"] = (
        [(mA * mx * mx0, eA + ex + ex0)],
        [(my * mw, ey + ew), (-mya * mcd * mS, eya + ecd + eS)],
    )
    mw, ew = _sum([(n * mcpc, ecpc), (mcc * mapb, ecc + eapb), (-mc * mg1, ec + eg1)],
                  floor=window)
    mxs, exs = _sum([(mx, ex), (mx0, ex0)], floor=window)
    out["a2_x_sum"] = (
        [(mA * mxs, eA + exs)],
        [(-my * mw, ey + ew), (n * mc * mag, ec + eag), (mcdn * mS, ecdn + eS)],
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
    _, window, _, (mc, ec), (_, (mapb, eapb), *_), second, (md, ed), _ = k
    mg, eg = second[6]

    def a2(n):
        (my, ey), (mS, eS) = y[n], S[n]
        mt, et = _sum([(md * my, ed + ey), (md * mS, ed + eS), (n * (n - 1), 0),
                       (n * mapb, eapb), (-n * mg, eg)], floor=window)
        return mc * mt, ec + et

    mx, ex = x[m]
    mt, et = _sum([(md * mx, ed + ex), (m, 0), (m * mc, ec), (mapb * mc, eapb + ec), (-mg, eg)],
                  floor=window)
    for lhs, rhs in _cross_terms(k, m, x, y, S, a2(m), (mc * mt, ec + et), a2(m + 1)).values():
        (mr, er), top = _residual(lhs, rhs, window)
        if not _below((_MONITOR_INVERSE * mr, er), top):
            return True
    return False


def _targets(params, ctx):
    """(x-limit, limit of y_n + n * x-limit) for the lattice at hand."""
    a, bta, g, _ = params.as_reals(ctx)
    xl = ctx.mp.mpf(1) if params.lattice is Lattice.SHIFTED else g
    return xl, (xl - a) * (xl - bta)


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
    (x, y, S) to (a2, b), index by index in :func:`_cross_terms`' order.
    Every residual is |sum(lhs) - sum(rhs)| over the largest additive term,
    both exact on the pairs of the stored values, as one quotient rounded
    once (:func:`numerics._normalized`, as for every residual suite).  The
    relations take the same parameter form on both lattices, so
    no transform is applied here.
    """
    params, ctx = (xy.params, xy.ctx) if coeffs is None else _common_measure(xy, coeffs)
    mp = ctx.mp
    k = _invariants(params, ctx)
    window, (mc, ec), (md, ed) = k[1], k[3], k[6]
    rep = ResidualReport(ctx=ctx)
    N = xy.N
    px, py = list(map(_from_real, xy.x)), list(map(_from_real, xy.y))
    for n in range(N):
        (mP, eP), (mQ, eQ), quart = _first_kind(k, n, px[n], py[n], py[n + 1])
        rep.add("dp1", n, _normalized(mp, [(mc * mP * mQ, ec + eP + eQ)], [quart]))
    for m in range(1, N + 1):
        D, numY, quart = _second_kind(k, m, py[m])
        if not D[0]:  # Y = numY / D is undefined
            rep.add("dp2", m, mp.inf)
            continue
        (mD, eD), (mx, ex), (mx0, ex0) = D, px[m], px[m - 1]
        mE, eE = _sum([(mx * mD, ex + eD), numY], floor=window)
        mF, eF = _sum([(mx0 * mD, ex0 + eD), numY], floor=window)
        rep.add("dp2", m, _normalized(mp, [(mE * mF, eE + eF)], [quart]))

    if coeffs is None:
        return rep
    NN = min(N, coeffs.N)
    pS = list(map(_from_real, xy.S))
    A = [(md * md * m, 2 * ed + e) for m, e in map(_from_real, coeffs.a2[:NN + 1])]
    B = [(mc * md * m, ec + ed + e) for m, e in map(_from_real, coeffs.b[:NN + 1])]
    for n in range(NN + 1):
        for name, terms in _cross_terms(k, n, px, py, pS, A[n], B[n],
                                        A[n + 1] if n < NN else None).items():
            rep.add(name, n, _normalized(mp, *terms))
    return rep
