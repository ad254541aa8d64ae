"""Moment-determinant route to the recurrence coefficients.

Everything here is driven by quotients of leading principal minors of the
two moment matrices (plain and first-column-shifted).  Gautschi's Chebyshev
algorithm produces both families of quotients at once in O(N^2) operations
from the power moments (two lattice series, then the Pearson recurrence).

The oracle is deliberately redundant: every sequence is computed at the
requested precision and again at twice the precision, and the two runs must
agree to at least ten significant digits before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mpmath.libmp import fzero, mpf_div, mpf_mul, mpf_pos, mpf_sub, round_nearest

from .errors import InvalidCoeffs, InvalidParam, PoleHit, PrecisionExhausted
from .reporting import ResidualReport, normalized_residual
from .weights import Lattice, _moment_batch_raw, moment, shifted_params

_rnd = round_nearest


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

    @property
    def N(self):
        return len(self.u) - 1


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


def _chebyshev_quotients(moments_raw, N, bits, prec):
    """Gautschi's Chebyshev algorithm (*Orthogonal Polynomials: Computation
    and Approximation*, 2004, 2.1.7) on ``m_0 .. m_{2N+1}``, at ``prec``:

        sigma_{k,l} = sigma_{k-1,l+1} - b_{k-1} sigma_{k-1,l} - a2_{k-1} sigma_{k-2,l}
        a2[k] = sigma_{k,k} / sigma_{k-1,k-1}
        b[k]  = sigma_{k,k+1} / sigma_{k,k} - sigma_{k-1,k} / sigma_{k-1,k-1}

    from ``sigma_{-1,l} = 0`` and ``sigma_{0,l} = m_l``, for k <= l <= 2N+1-k.
    Returns raw (a2, b) of length N+1 rounded to ``bits``.  Rows are built in
    a fixed order, so growing N leaves the leading quotients bit-identical.
    A zero diagonal entry raises ``ZeroDivisionError``.
    """
    top = 2 * N + 2
    prev, row = [fzero] * top, list(moments_raw[:top])
    q = mpf_div(row[1], row[0], prec, _rnd)
    a2_k, b_k = fzero, q
    a2, b = [fzero], [mpf_pos(q, bits, _rnd)]
    for k in range(1, N + 1):
        new = [fzero] * top
        for l in range(k, top - k):
            t = mpf_sub(row[l + 1], mpf_mul(b_k, row[l], prec, _rnd), prec, _rnd)
            new[l] = mpf_sub(t, mpf_mul(a2_k, prev[l], prec, _rnd), prec, _rnd)
        a2_k = mpf_div(new[k], row[k - 1], prec, _rnd)
        q_k = mpf_div(new[k + 1], new[k], prec, _rnd)
        b_k, q = mpf_sub(q_k, q, prec, _rnd), q_k
        a2.append(mpf_pos(a2_k, bits, _rnd))
        b.append(mpf_pos(b_k, bits, _rnd))
        prev, row = row, new
    return a2, b


def _quotients_at_bits(params, N, ctx, bits):
    work = ctx.with_bits(bits)
    moments = _moment_batch_raw(params, 2 * N + 2, work)
    return _chebyshev_quotients(moments, N, bits, bits + work.guard_bits)


def coeffs_oracle(params, N: int, ctx) -> CoeffSeq:
    """Recurrence coefficients to order N, certified by precision doubling.

    The computation runs at ctx.bits and at 2*ctx.bits; if any coefficient
    disagrees beyond ten significant digits between the two runs the whole
    call fails with PrecisionExhausted instead of returning doubtful values.
    The shifted lattice routes through the parameter transform, shifting b
    back by 1 - gamma.
    """
    if N < 0:
        raise InvalidParam("N must be >= 0")
    std = shifted_params(params) if params.lattice is Lattice.SHIFTED else params
    try:
        a2_lo, b_lo = _quotients_at_bits(std, N, ctx, ctx.bits)
        a2_hi, b_hi = _quotients_at_bits(std, N, ctx, 2 * ctx.bits)
    except ZeroDivisionError as exc:
        raise PrecisionExhausted(
            f"Chebyshev algorithm met a zero Hankel ratio at {ctx.bits} bits"
        ) from exc
    hi = ctx.with_bits(2 * ctx.bits)
    mph = hi.mp
    tol = mph.mpf("1e-10")

    def _agree(lo_raw, hi_raw, label, n):
        lo_v = mph.make_mpf(mpf_pos(lo_raw, hi.bits, _rnd))
        hi_v = mph.make_mpf(hi_raw)
        if hi_v == 0:
            ok = lo_v == 0
        else:
            ok = abs(lo_v - hi_v) / abs(hi_v) <= tol
        if not ok:
            raise PrecisionExhausted(
                f"{label}[{n}] agrees to fewer than 10 digits between "
                f"{ctx.bits}- and {2 * ctx.bits}-bit runs; raise bits"
            )
        return hi_v

    a2_out = [ctx.mp.mpf(0)]
    b_out = []
    shift = None
    if params.lattice is Lattice.SHIFTED:
        shift = mph.mpf(1) - hi.real(params.gamma)
    for n in range(N + 1):
        bv = _agree(b_lo[n], b_hi[n], "b", n)
        if shift is not None:
            bv = bv + shift
        b_out.append(ctx.real(bv))
        if n >= 1:
            av = _agree(a2_lo[n], a2_hi[n], "a2", n)
            if not av > 0:
                raise PrecisionExhausted(
                    f"a2[{n}] lost positivity at {2 * ctx.bits} bits; "
                    "the Hankel chain is below working precision"
                )
            a2_out.append(ctx.real(av))
    return CoeffSeq(params=params, a2=a2_out, b=b_out, ctx=ctx)


def ladder_sequences(params, coeffs: CoeffSeq, ctx) -> LadderSeq:
    """Lowering/raising polynomial data (u, v, r, s) from the coefficients.

    Defined only when alpha != beta (the formulas divide by alpha - beta)
    and on the standard lattice.
    """
    if params.alpha == params.beta:
        raise InvalidParam("ladder sequences need alpha != beta")
    if params.lattice is not Lattice.STANDARD:
        raise InvalidParam("ladder sequences are defined on the standard lattice")
    mp = ctx.mp
    a, bta, g, c = params.as_reals(ctx)
    q = (1 - c) / c
    ab = a - bta
    u, v, r, s = [], [], [], []
    bsum = mp.mpf(0)
    for n in range(coeffs.N + 1):
        base = 2 * n + 1 - q * coeffs.b[n] + (a + bta - g - 1) / c
        u.append((base + (n + 1 - bta) * q) / ab)
        v.append(-(base + (n + 1 - a) * q) / ab)
        rbase = mp.mpf(n * (n - 1)) / 2 - q * coeffs.a2[n] + bsum
        r.append((rbase + bta * n) / ab)
        s.append(-(rbase + a * n) / ab)
        bsum += coeffs.b[n]
    return LadderSeq(params=params, u=u, v=v, r=r, s=s, ctx=ctx)


def ladder_residuals(params, ladder: LadderSeq, coeffs: CoeffSeq, ctx) -> ResidualReport:
    """Six consistency identities tying (u, v, r, s) back to (a2, b)."""
    mp = ctx.mp
    a, bta, g, c = params.as_reals(ctx)
    q = (1 - c) / c
    cf = c / (1 - c)
    rep = ResidualReport(params=params, ctx=ctx)
    N = min(ladder.N, coeffs.N)
    bsum = mp.mpf(0)
    usum = mp.mpf(0)
    for n in range(N + 1):
        u, v, r, s = ladder.u[n], ladder.v[n], ladder.r[n], ladder.s[n]
        rep.add("uv_sum", n, normalized_residual(mp, [u, v], [q]))
        rep.add("rs_sum", n, normalized_residual(mp, [r, s], [-mp.mpf(n)]))
        rep.add(
            "uv_weighted",
            n,
            normalized_residual(
                mp,
                [a * u, bta * v],
                [mp.mpf(2 * n + 1), -q * coeffs.b[n], (a + bta - g - 1) / c, (n + 1) * q],
            ),
        )
        rep.add(
            "rs_weighted",
            n,
            normalized_residual(
                mp,
                [a * r, bta * s],
                [mp.mpf(n * (n - 1)) / 2, -q * coeffs.a2[n], bsum],
            ),
        )
        rep.add(
            "b_from_ladder",
            n,
            normalized_residual(
                mp,
                [coeffs.b[n]],
                [(n + a - g + (n + bta) * c) / (1 - c), -(a - bta) * cf * u],
            ),
        )
        rep.add(
            "a2_from_ladder",
            n,
            normalized_residual(
                mp,
                [coeffs.a2[n]],
                [
                    n * (n + a + bta - g - 1) * c / (1 - c) ** 2,
                    -(a - bta) * cf * (cf * usum + r),
                ],
            ),
        )
        bsum += coeffs.b[n]
        usum += ladder.u[n]
    return rep


def xy_from_coeffs(params, coeffs: CoeffSeq, ctx) -> XYSeq:
    """Painleve variables from recurrence data.

    The same affine relations hold on both lattices with the original
    parameters, so no transform is applied here.
    """
    mp = ctx.mp
    a, bta, g, c = params.as_reals(ctx)
    x, y, S = [], [], [mp.mpf(0)]
    for n in range(coeffs.N + 1):
        xn = coeffs.b[n] - (n + (n + a + bta) * c - g) / (1 - c)
        yn = (
            (1 - c) / c * coeffs.a2[n]
            - S[n]
            - mp.mpf(n) * (n + a + bta - g - 1) / (1 - c)
        )
        x.append(xn)
        y.append(yn)
        S.append(S[n] + xn)
    return XYSeq(params=params, x=x, y=y, S=S, ctx=ctx)


def _coeffs_at(mp, a, bta, g, c, x, y, S, n):
    """``(a2[n], b[n])`` from the Painleve variables at index n."""
    b = x[n] + (n + (n + a + bta) * c - g) / (1 - c)
    a2 = c / (1 - c) * (y[n] + S[n] + mp.mpf(n) * (n + a + bta - g - 1) / (1 - c))
    return a2, b


def coeffs_from_xy(params, xy: XYSeq, ctx) -> CoeffSeq:
    """Inverse of xy_from_coeffs; also lattice-independent."""
    a, bta, g, c = params.as_reals(ctx)
    pairs = [_coeffs_at(ctx.mp, a, bta, g, c, xy.x, xy.y, xy.S, n) for n in range(xy.N + 1)]
    return CoeffSeq(
        params=params, a2=[p[0] for p in pairs], b=[p[1] for p in pairs], ctx=ctx
    )


def eval_orthonormal(coeffs: CoeffSeq, m0, x, nmax: int, ctx) -> list:
    """Orthonormal polynomial values [p_0(x), ..., p_nmax(x)].

    p_0 = 1/sqrt(m0), p_1 = (x - b_0) p_0 / a_1, then the three-term
    recurrence a_{n+1} p_{n+1} = (x - b_n) p_n - a_n p_{n-1}.
    """
    if nmax < 0:
        raise InvalidParam("nmax must be >= 0")
    if nmax > coeffs.N:
        raise InvalidCoeffs(f"need coefficients to order {nmax}, have {coeffs.N}")
    mp = ctx.mp
    if not m0 > 0:
        raise InvalidCoeffs("m0 must be positive")
    for n in range(1, nmax + 1):
        if not coeffs.a2[n] > 0:
            raise InvalidCoeffs(f"a2[{n}] is not positive; cannot take sqrt")
    x = ctx.real(x)
    p = [1 / mp.sqrt(m0)]
    if nmax == 0:
        return p
    roots = [None] + [mp.sqrt(coeffs.a2[n]) for n in range(1, nmax + 1)]
    p.append((x - coeffs.b[0]) * p[0] / roots[1])
    for n in range(1, nmax):
        p.append(((x - coeffs.b[n]) * p[n] - roots[n] * p[n - 1]) / roots[n + 1])
    return p


def structure_residual(params, coeffs: CoeffSeq, xy: XYSeq, n: int, x, ctx):
    """Raw defect of the first-order difference relation

        p_n(x+1) - p_n(x) = A_n(x) p_{n-1}(x) - B_n(x) p_n(x)

    with A_n(x) = a_n ((1-c)/c) (x + x_n) / ((x+alpha)(x+beta)) and
    B_n(x) = (-n x + y_n) / ((x+alpha)(x+beta)).  Returned unnormalized.
    """
    if params.lattice is not Lattice.STANDARD:
        raise InvalidParam("structure relation is verified on the standard lattice")
    if n < 1:
        raise InvalidParam("structure relation needs n >= 1")
    if n > coeffs.N or n > xy.N:
        raise InvalidParam(f"need sequences to order {n}")
    mp = ctx.mp
    a, bta, g, c = params.as_reals(ctx)
    x = ctx.real(x)
    eps = mp.ldexp(1, -(ctx.bits - ctx.guard_bits))
    if abs(x + a) <= eps or abs(x + bta) <= eps:
        raise PoleHit("x is within working precision of -alpha or -beta")
    m0 = moment(params, 0, ctx)
    pc = eval_orthonormal(coeffs, m0, x, n, ctx)
    pl = eval_orthonormal(coeffs, m0, x + 1, n, ctx)
    den = (x + a) * (x + bta)
    A = mp.sqrt(coeffs.a2[n]) * (1 - c) / c * (x + xy.x[n]) / den
    B = (-mp.mpf(n) * x + xy.y[n]) / den
    return pl[n] - pc[n] - A * pc[n - 1] + B * pc[n]
