"""Moment-determinant route to the recurrence coefficients.

Everything here is driven by quotients of leading principal minors of the
two moment matrices (plain and first-column-shifted).  Gautschi's Chebyshev
algorithm produces both families of quotients at once in O(N^2) operations
from the power moments (two lattice series, then the Pearson recurrence).
From the seed sums to the agreement check every number is an integer pair of
:mod:`numerics`' kernel: each moment, element, quotient or difference is
the exact value on the stored pairs, rounded once, and so is each value of
the affine maps and the ladder.  Only rational constants in and sequences
out cross the boundary to BigReals, by :mod:`numerics`' conversions.

The oracle is deliberately redundant: every sequence is computed at the
requested precision and again at twice the precision, and the two runs must
agree to at least ten significant digits before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidParam, PoleHit, PrecisionExhausted
from .numerics import (_ZERO, GUARD_BITS, _below, _exact_fraction, _from_real, _neg, _normalized,
                       _over, _quotient, _rational_pair, _round, _sum, _to_real)
from .reporting import ResidualReport
from .weights import Lattice, _moment_batch_raw, shifted_params


@dataclass(frozen=True)
class CoeffSeq:
    """Recurrence data a2[n] = a_n^2 (a2[0] == 0) and b[n] for n <= N."""

    params: object
    a2: list
    b: list
    ctx: object = field(repr=False)

    def __post_init__(self):
        assert len(self.a2) == len(self.b)

    @property
    def N(self):
        return len(self.b) - 1


@dataclass(frozen=True)
class LadderSeq:
    params: object
    u: list
    v: list
    r: list
    s: list
    ctx: object = field(repr=False)


@dataclass(frozen=True)
class XYSeq:
    """Painleve variables plus the running sum S[n] = sum_{k<n} x[k]."""

    params: object
    x: list
    y: list
    S: list
    ctx: object = field(repr=False)
    failure_index: int | None = None
    precision_suspect_at: int | None = None

    def __post_init__(self):
        assert len(self.x) == len(self.y)
        assert len(self.S) == len(self.x) + 1

    @property
    def N(self):
        return len(self.x) - 1


def _chebyshev_quotients(moments, N, bits):
    """Gautschi's Chebyshev algorithm (*Orthogonal Polynomials: Computation
    and Approximation*, 2004, 2.1.7) on the pairs ``m_0 .. m_{2N+1}``, at
    ``prec = bits + GUARD_BITS``:

        sigma_{k,l} = sigma_{k-1,l+1} - b_{k-1} sigma_{k-1,l} - a2_{k-1} sigma_{k-2,l}
        a2[k] = sigma_{k,k} / sigma_{k-1,k-1}
        b[k]  = sigma_{k,k+1} / sigma_{k,k} - sigma_{k-1,k} / sigma_{k-1,k-1}

    from ``sigma_{-1,l} = 0`` and ``sigma_{0,l} = m_l``, for k <= l <= 2N+1-k.
    Each sigma is the exact value of its three mantissa products, aligned at
    their lowest exponent (written out here, as it is the hot loop), rounded
    once by :func:`numerics._round`; each quotient, and each ``b[k]`` as the
    exact difference of two, is rounded once.  Returns (a2, b) of length N+1
    as pairs rounded to ``bits``.  Rows are built in a fixed order, so
    growing N leaves the leading quotients bit-identical.  A zero diagonal
    entry raises ``ZeroDivisionError``.
    """
    prec = bits + GUARD_BITS
    top = 2 * N + 2
    prev, row = [_ZERO] * top, list(moments[:top])
    diag = row[0]
    q = _quotient(row[1], diag, prec)
    a2_k, b_k = _ZERO, q
    a2, b = [_ZERO], [_round(q, bits)]
    for k in range(1, N + 1):
        (mb, eb), (ma, ea) = b_k, a2_k
        new = [_ZERO] * top
        for l in range(k, top - k):
            (m1, e1), (m2, e2), (m3, e3) = row[l + 1], row[l], prev[l]
            m2, e2, m3, e3 = m2 * mb, e2 + eb, m3 * ma, e3 + ea
            f = min(e1, e2, e3)
            new[l] = _round(((m1 << e1 - f) - (m2 << e2 - f) - (m3 << e3 - f), f), prec)
        dk = new[k]
        a2_k = _quotient(dk, diag, prec)
        q_k = _quotient(new[k + 1], dk, prec)
        b_k, q, diag = _round(_sum([q_k, _neg(q)], prec), prec), q_k, dk
        a2.append(_round(a2_k, bits))
        b.append(_round(b_k, bits))
        prev, row = row, new
    return a2, b


def coeffs_oracle(params, N: int, ctx) -> CoeffSeq:
    """Recurrence coefficients to order N, certified by precision doubling.

    The computation runs at ctx.bits and at 2*ctx.bits; if any coefficient
    disagrees beyond ten significant digits between the two runs
    (``|lo - hi| 10^10 > |hi|``) the whole call fails with PrecisionExhausted
    instead of returning doubtful values.  The shifted lattice routes through
    the parameter transform, shifting b back by 1 - gamma in an exact sum.
    """
    if N < 0:
        raise InvalidParam("N must be >= 0")
    std = shifted_params(params) if params.lattice is Lattice.SHIFTED else params

    def quotients(bits):
        moments = _moment_batch_raw(std, 2 * N + 2, bits)
        try:
            return _chebyshev_quotients(moments, N, bits)
        except ZeroDivisionError as exc:
            raise PrecisionExhausted(
                f"Chebyshev algorithm met a zero Hankel ratio at {bits} bits"
            ) from exc

    a2_lo, b_lo = quotients(ctx.bits)
    hb = 2 * ctx.bits
    a2_hi, b_hi = quotients(hb)

    def _agree(lo, hi, label, n):
        m, e = _sum([lo, _neg(hi)], hb)
        if not _below((10**10 * m, e), hi):
            raise PrecisionExhausted(
                f"{label}[{n}] agrees to fewer than 10 digits between "
                f"{ctx.bits}- and {hb}-bit runs; raise bits"
            )
        return hi

    mp = ctx.mp
    a2_out, b_out = [mp.zero], []
    shifted = params.lattice is Lattice.SHIFTED
    shift = _rational_pair(1 - params.gamma, hb) if shifted else _ZERO
    for n in range(N + 1):
        b_out.append(_to_real(mp, _sum([_agree(b_lo[n], b_hi[n], "b", n), shift], hb)))
        if n >= 1:
            av = _agree(a2_lo[n], a2_hi[n], "a2", n)
            if av[0] <= 0:
                raise PrecisionExhausted(
                    f"a2[{n}] lost positivity at {hb} bits; "
                    "the Hankel chain is below working precision"
                )
            a2_out.append(_to_real(mp, av))
    return CoeffSeq(params=params, a2=a2_out, b=b_out, ctx=ctx)


def _common_measure(s, t):
    """``(params, ctx)`` shared by the sequences ``s`` and ``t``, else ``InvalidParam``."""
    if s.params != t.params or s.ctx != t.ctx:
        raise InvalidParam(f"sequences disagree: {s.params} at {s.ctx.bits} bits, "
                           f"{t.params} at {t.ctx.bits} bits")
    return s.params, s.ctx


def ladder_sequences(coeffs: CoeffSeq) -> LadderSeq:
    """Lowering/raising polynomial data (u, v, r, s) from the coefficients,
    at their precision.  With q = (1-c)/c, base = 2n+1 - q b_n +
    (a+b-g-1)/c and rbase = n(n-1)/2 - q a2_n + sum_{k<n} b_k (exact):

        u = (base + (n+1-b) q)/(a-b)    v = -(base + (n+1-a) q)/(a-b)
        r = (rbase + b n)/(a-b)         s = -(rbase + a n)/(a-b)

    each one exact sum over one integer (:meth:`Params.as_integers`),
    rounded once.  Defined only when alpha != beta and on the standard
    lattice; elsewhere it raises ``InvalidParam``, and callers use that to
    learn where the ladder exists.
    """
    params, ctx = coeffs.params, coeffs.ctx
    if params.alpha == params.beta:
        raise InvalidParam("ladder sequences need alpha != beta")
    if params.lattice is not Lattice.STANDARD:
        raise InvalidParam("ladder sequences are defined on the standard lattice")
    A, B, G, C, D = params.as_integers()
    E, den, prec = D - C, C * (A - B), ctx.bits
    u, v, r, s, bsum = [], [], [], [], _ZERO
    for n in range(coeffs.N + 1):
        (mb, eb), (ma, ea) = _from_real(coeffs.b[n]), _from_real(coeffs.a2[n])
        base = [(D * (2 * n + 1) * C + D * (A + B - G - D), 0), (-D * E * mb, eb)]
        rbase = [(C * D * (n * (n - 1) // 2), 0), (C * D * bsum[0], bsum[1]), (-D * E * ma, ea)]
        for k, sign, out, rout in ((B, 1, u, r), (A, -1, v, s)):
            out.append(_over([*base, (((n + 1) * D - k) * E, 0)], sign * den, prec))
            rout.append(_over([*rbase, (k * C * n, 0)], sign * den, prec))
        bsum = _sum([bsum, (mb, eb)], prec)
    u, v, r, s = ([_to_real(ctx.mp, w) for w in seq] for seq in (u, v, r, s))
    return LadderSeq(params=params, u=u, v=v, r=r, s=s, ctx=ctx)


def ladder_residuals(coeffs: CoeffSeq) -> ResidualReport:
    """Six consistency identities tying the ladder data (u, v, r, s) of
    :func:`ladder_sequences` back to (a2, b); ``InvalidParam`` where the
    ladder is not defined.  With cf = c/(1-c) and usum = sum_{k<n} u_k:

        uv_sum          u + v = q
        rs_sum          r + s = -n
        uv_weighted     a u + b v = 2n+1 - q b_n + (a+b-g-1)/c + (n+1) q
        rs_weighted     a r + b s = n(n-1)/2 - q a2_n + sum_{k<n} b_k
        b_from_ladder   b_n = (n + a - g + (n+b) c)/(1-c) - (a-b) cf u
        a2_from_ladder  a2_n = n(n+a+b-g-1) c/(1-c)^2 - (a-b) cf (cf usum + r)

    Each, multiplied through by one integer, is normalized once
    (:func:`numerics._normalized`).  They follow from how u, v, r, s are
    defined, so the residuals sit at rounding level for any (a2, b): this
    suite checks the ladder formulas and the arithmetic, not the coefficients.
    """
    ladder, ctx = ladder_sequences(coeffs), coeffs.ctx
    A, B, G, C, D = coeffs.params.as_integers()
    E, prec = D - C, ctx.bits
    rep, bsum, usum = ResidualReport(ctx=ctx), _ZERO, _ZERO
    for n in range(coeffs.N + 1):
        (mu, eu), (mv, ev), (mr, er), (ms, es), (ma, ea), (mb, eb) = (_from_real(w[n]) for w in (
            ladder.u, ladder.v, ladder.r, ladder.s, coeffs.a2, coeffs.b))
        mw, ew = _sum([(C * usum[0], usum[1]), (E * mr, er)], prec)
        for name, lhs, rhs in (
            ("uv_sum", [(C * mu, eu), (C * mv, ev)], [(E, 0)]),
            ("rs_sum", [(mr, er), (ms, es)], [(-n, 0)]),
            ("uv_weighted", [(A * C * mu, eu), (B * C * mv, ev)],
             [((2 * n + 1) * D * C, 0), (-D * E * mb, eb), (D * (A + B - G - D), 0),
              ((n + 1) * D * E, 0)]),
            ("rs_weighted", [(A * C * mr, er), (B * C * ms, es)],
             [(n * (n - 1) // 2 * D * C, 0), (-D * E * ma, ea), (D * C * bsum[0], bsum[1])]),
            ("b_from_ladder", [(D * E * mb, eb)],
             [(n * D * D + (A - G) * D + (n * D + B) * C, 0), (-(A - B) * C * mu, eu)]),
            ("a2_from_ladder", [(D * E * E * ma, ea)],
             [(n * D * C * (n * D + A + B - G - D), 0), (-(A - B) * C * mw, ew)]),
        ):
            rep.add(name, n, _normalized(ctx.mp, lhs, rhs))
        bsum = _sum([bsum, (mb, eb)], prec)
        usum = _sum([usum, (mu, eu)], prec)
    return rep


def xy_from_coeffs(coeffs: CoeffSeq) -> XYSeq:
    """Painleve variables from recurrence data, at the coefficients' precision:

        x_n = b_n - (n + (n+a+b) c - g)/(1-c)
        y_n = (1-c)/c a2_n - S_n - n (n+a+b-g-1)/(1-c),   S_{n+1} = S_n + x_n

    each one exact sum over one integer (:meth:`Params.as_integers`) rounded
    once, as :func:`dpainleve.iterate` forms S.  The relations hold on both
    lattices with the original parameters, so no transform is applied.
    """
    (A, B, G, C, D), ctx = coeffs.params.as_integers(), coeffs.ctx
    E, prec, x, y, S = D - C, ctx.bits, [], [], [_ZERO]
    for n in range(coeffs.N + 1):
        (mb, eb), (ma, ea), (mS, eS) = _from_real(coeffs.b[n]), _from_real(coeffs.a2[n]), S[n]
        x.append(_over([(D * E * mb, eb), (G * D - n * D * D - (n * D + A + B) * C, 0)],
                       D * E, prec))
        y.append(_over([(E * E * ma, ea), (-C * E * mS, eS),
                        (-C * n * (n * D + A + B - G - D), 0)], C * E, prec))
        S.append(_round(_sum([S[n], x[n]], prec), prec))
    x, y, S = ([_to_real(ctx.mp, v) for v in seq] for seq in (x, y, S))
    return XYSeq(params=coeffs.params, x=x, y=y, S=S, ctx=ctx)


def coeffs_from_xy(xy: XYSeq) -> CoeffSeq:
    """Inverse of xy_from_coeffs, also lattice-independent: each b_n and
    a2_n is one exact sum of the stored pairs over one integer, rounded once."""
    (A, B, G, C, D), ctx = xy.params.as_integers(), xy.ctx
    E, prec, a2, b = D - C, ctx.bits, [], []
    for n in range(xy.N + 1):
        (mx, ex), (my, ey), (mS, eS) = (_from_real(v[n]) for v in (xy.x, xy.y, xy.S))
        b.append(_over([(D * E * mx, ex), (n * D * D + (n * D + A + B) * C - G * D, 0)],
                       D * E, prec))
        a2.append(_over([(C * E * my, ey), (C * E * mS, eS),
                         (C * n * (n * D + A + B - G - D), 0)], E * E, prec))
    a2, b = ([_to_real(ctx.mp, v) for v in seq] for seq in (a2, b))
    return CoeffSeq(params=xy.params, a2=a2, b=b, ctx=ctx)


def structure_residual(coeffs: CoeffSeq, xy: XYSeq, n: int, x):
    """Normalized residual (:func:`numerics._normalized`) of the first-order
    difference relation on the monic polynomials pi_k of the recurrence,

        c (x+a)(x+b) [pi_n(x+1) - pi_n(x)]
            = (1-c) a2_n (x + x_n) pi_{n-1}(x) + c (n x - y_n) pi_n(x),

    the orthonormal one (Chihara 1978, ch. I) times the norms, with no
    square root and no mass.  With x = P/Q read exactly, Q^k pi_k is formed
    by Pi_{k+1} = (P - Q b_k) Pi_k - Q^2 a2_k Pi_{k-1} on exact pairs, each
    rounded once, at x and x+1; multiplied through by Q^{n+2} D^3 over the
    integers of :meth:`Params.as_integers`, every term is one exact pair.
    ``coeffs`` and ``xy`` must share params and ctx, else ``InvalidParam``;
    x within 2^-(bits - GUARD_BITS) of -alpha or -beta raises ``PoleHit``.
    """
    params, ctx = _common_measure(coeffs, xy)
    if params.lattice is not Lattice.STANDARD:
        raise InvalidParam("structure relation is verified on the standard lattice")
    if n < 1:
        raise InvalidParam("structure relation needs n >= 1")
    if n > coeffs.N or n > xy.N:
        raise InvalidParam(f"need sequences to order {n}")
    x, eps = _exact_fraction(x, ctx), Fraction(1, 1 << ctx.bits - GUARD_BITS)
    if abs(x + params.alpha) <= eps or abs(x + params.beta) <= eps:
        raise PoleHit("x is within working precision of -alpha or -beta")
    (A, B, _, C, D), P, Q, prec = params.as_integers(), x.numerator, x.denominator, ctx.bits
    steps = [(_from_real(coeffs.b[k]), _from_real(coeffs.a2[k])) for k in range(n)]

    def monic(p):
        """``(Pi_{n-1}, Pi_n)`` at p/Q."""
        prev, cur = _ZERO, (1, 0)
        for (mb, eb), (ma, ea) in steps:
            (m0, e0), (m1, e1) = prev, cur
            prev, cur = cur, _round(_sum([(p * m1, e1), (-Q * mb * m1, eb + e1),
                                          (-Q * Q * ma * m0, ea + e0)], prec), prec)
        return prev, cur

    ((m0, e0), (m1, e1)), (_, (mq, eq)) = monic(P), monic(P + Q)
    (ma, ea), (mx, ex), (my, ey) = (_from_real(v[n]) for v in (coeffs.a2, xy.x, xy.y))
    L, R, S = C * (P * D + A * Q) * (P * D + B * Q), (D - C) * D * D * Q * Q, C * D * D * Q
    return _normalized(ctx.mp, [(L * mq, eq), (-L * m1, e1)],
                       [(R * P * ma * m0, ea + e0), (R * Q * ma * mx * m0, ea + ex + e0),
                        (S * n * P * m1, e1), (-S * Q * my * m1, ey + e1)])
