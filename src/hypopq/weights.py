"""The hypergeometric weight family, its moments, and parameter transforms.

Weights ``w_k = (alpha)_k (beta)_k / ((gamma)_k k!) * c**k`` on the lattice
``k = 0, 1, 2, ...`` for ``alpha, beta, gamma > 0`` and ``0 < c < 1``.  The
shifted lattice ``k + 1 - gamma`` is always routed through the exact
parameter transform (:func:`shifted_params`); no Gamma-function evaluation
and no non-integer lattice summation happens anywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from mpmath.libmp import (
    fone,
    fzero,
    from_int,
    from_rational,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_mul_int,
    mpf_pos,
    mpf_sub,
    from_man_exp,
    round_nearest,
)

from .errors import InvalidParam, NonConvergent
from .numerics import PrecisionCtx

_RND = round_nearest


class Lattice(enum.Enum):
    STANDARD = "standard"
    SHIFTED = "shifted"

    @classmethod
    def parse(cls, text):
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            raise InvalidParam(f"unknown lattice {text!r} (standard|shifted)") from None


def _rational(value, name):
    """Exact rational from int/Fraction/str.  Floats are rejected: binary
    floats would smuggle representation error into the exact contract."""
    if isinstance(value, bool):
        raise InvalidParam(f"{name} must be a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise InvalidParam(f"{name}={value!r} is not a rational") from None
    if isinstance(value, float):
        raise InvalidParam(
            f"{name} given as float; pass a string or Fraction to keep inputs exact"
        )
    raise InvalidParam(f"{name} must be a rational number")


@dataclass(frozen=True)
class Params:
    """One orthogonality measure: weight parameters plus lattice choice.

    All four numeric fields are exact :class:`fractions.Fraction` values;
    admissibility (``alpha, beta, gamma > 0``, ``0 < c < 1``, and for the
    shifted lattice positivity of the transformed parameters) is enforced at
    construction.  Swapping ``alpha`` and ``beta`` yields an equivalent
    measure: every derived sequence is invariant under the swap.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    c: Fraction
    lattice: Lattice = Lattice.STANDARD

    def __post_init__(self):
        object.__setattr__(self, "alpha", _rational(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _rational(self.beta, "beta"))
        object.__setattr__(self, "gamma", _rational(self.gamma, "gamma"))
        object.__setattr__(self, "c", _rational(self.c, "c"))
        if not isinstance(self.lattice, Lattice):
            object.__setattr__(self, "lattice", Lattice.parse(self.lattice))
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) <= 0:
                raise InvalidParam(f"{name} must be positive")
        if not (0 < self.c < 1):
            raise InvalidParam("c must lie in (0, 1)")
        if self.lattice is Lattice.SHIFTED:
            for name, val in (
                ("alpha - gamma + 1", self.alpha - self.gamma + 1),
                ("beta - gamma + 1", self.beta - self.gamma + 1),
                ("2 - gamma", 2 - self.gamma),
            ):
                if val <= 0:
                    raise InvalidParam(
                        f"shifted lattice requires {name} > 0 (got {val})"
                    )

    @property
    def is_meixner(self):
        """True when the weight degenerates to a Meixner weight."""
        return self.alpha == self.gamma or self.beta == self.gamma

    def swapped(self):
        """The equivalent measure with alpha and beta exchanged."""
        return Params(self.beta, self.alpha, self.gamma, self.c, self.lattice)

    def as_reals(self, ctx):
        """(alpha, beta, gamma, c) as BigReals of ``ctx``."""
        return (
            ctx.real(self.alpha),
            ctx.real(self.beta),
            ctx.real(self.gamma),
            ctx.real(self.c),
        )

    def key(self):
        return (self.alpha, self.beta, self.gamma, self.c, self.lattice)


def _require_standard(params, what):
    if params.lattice is not Lattice.STANDARD:
        raise InvalidParam(
            f"{what} uses standard-lattice semantics; apply shifted_params() "
            "and the caller-side shift for the shifted lattice"
        )


def shifted_params(params):
    """Standard-lattice parameters equivalent to the shifted-lattice measure.

    Returns ``(alpha - gamma + 1, beta - gamma + 1, 2 - gamma, c)`` on the
    standard lattice.  The recurrence coefficients transform as
    ``a_n^2 -> a_n^2`` and ``b_n -> b_n + 1 - gamma``; seeds pick up
    ``+ gamma - 1``.  Raises ``InvalidParam`` when a transformed parameter
    is not positive.
    """
    return Params(
        params.alpha - params.gamma + 1,
        params.beta - params.gamma + 1,
        2 - params.gamma,
        params.c,
        Lattice.STANDARD,
    )


def weight_sequence(params, kmax, ctx):
    """Weights ``w_0 .. w_kmax`` via the ratio recurrence
    ``w_{k+1} = w_k (alpha+k)(beta+k) c / ((gamma+k)(k+1))``, ``w_0 = 1``.
    """
    _require_standard(params, "weight_sequence")
    if kmax < 0:
        raise InvalidParam("kmax must be >= 0")
    mp = ctx.mp
    a, b, g, c = params.as_reals(ctx)
    out = [mp.mpf(1)]
    for k in range(kmax):
        out.append(out[k] * (a + k) * (b + k) * c / ((g + k) * (k + 1)))
    return out


def _effective_cap(c, ctx):
    """Series term cap; raised deterministically for c close to 1."""
    cap = ctx.series_max_terms
    cf = float(c)
    if cf > 0.9:
        need = math.ceil(1.2 * (ctx.bits + ctx.guard_bits) * math.log(2) / -math.log(cf))
        cap = max(cap, need + 1000)
    return cap


def _raw(q, prec):
    """Raw mpf of the exact rational ``q``, correctly rounded to ``prec``."""
    return from_rational(q.numerator, q.denominator, prec, _RND)


# Bound of the seed-sum memo, in (params, context) pairs.  One Toda sweep or
# stencil touches 5-7 nodes at two precisions.
_SEED_MEMO_SIZE = 256


@lru_cache(maxsize=_SEED_MEMO_SIZE)
def _seed_sums(params, ctx):
    """Raw ``(m_0, m_1)`` at ``bits + guard_bits``: the lattice series of
    ``w_k`` and ``k w_k``, summed in one pass.  Each stops once three
    consecutive terms are at most ``2**-(bits+guard_bits)`` of its partial
    sum (single terms can dip before the geometric tail sets in, hence the
    streak), or raises ``NonConvergent`` at the term cap.

    Each weight follows from the last by one exact integer ratio: with
    ``alpha = pa/qa`` and likewise for beta, gamma and c,
    ``w_{k+1} = w_k num_k / den_k``, ``num_k = (pa + k qa)(pb + k qb) pc qg``,
    ``den_k = (pg + k qg)(k+1) qc qa qb``, so two roundings per term.
    ``num_k`` is symmetric in alpha and beta, so the sums are bit-identical
    under the swap.  Memoized per standard-lattice params and whole context;
    ``toda_sigma.clear_cache`` empties the memo.
    """
    prec = ctx.bits + ctx.guard_bits
    p = params
    (pa, qa), (pb, qb), (pg, qg), (pc, qc) = (
        (q.numerator, q.denominator) for q in (p.alpha, p.beta, p.gamma, p.c)
    )
    num_c, den_c = pc * qg, qc * qa * qb
    eps = from_man_exp(1, -prec)
    cap = _effective_cap(p.c, ctx)
    moms, consec = [fzero, fzero], [0, 0]
    w, k = fone, 0
    while min(consec) < 3:
        if k >= cap:
            raise NonConvergent(f"moment series exceeded {cap} terms")
        for n, t in enumerate((w, mpf_mul_int(w, k, prec, _RND))):
            if consec[n] < 3:
                moms[n] = s = mpf_add(moms[n], t, prec, _RND)
                tiny = mpf_le(mpf_abs(t), mpf_mul(eps, mpf_abs(s), prec, _RND))
                consec[n] = consec[n] + 1 if tiny else 0
        num = (pa + k * qa) * (pb + k * qb) * num_c
        den = (pg + k * qg) * (k + 1) * den_c
        w = mpf_div(mpf_mul_int(w, num, prec, _RND), from_int(den), prec, _RND)
        k += 1
    return moms[0], moms[1]


def _moment_batch_raw(params, count, ctx):
    """Moments ``m_0 .. m_{count-1}`` as raw mpfs at ``bits + guard_bits`` or more.

    ``m_0`` and ``m_1`` come from :func:`_seed_sums` (memoized).  The rest
    follow from the Pearson relation ``w_{k+1} (gamma+k)(k+1) = c (alpha+k)(beta+k) w_k``
    summed against ``(k+1)^n``: with ``U_i = m_{i+2} + (alpha+beta) m_{i+1}
    + alpha beta m_i``, ``m_{n+2} + (gamma-1) m_{n+1} = c sum_{i<=n} C(n,i) U_i``.

    For gamma > 1, solving for ``m_{n+2}`` cancels until ``m_{n+2}/m_{n+1}``
    (which only grows) passes ``(gamma-1)/(1-c)``.  The bits lost up to there,
    past ``count`` if need be, must stay below half the guard bits, else the
    batch is redone with guard bits twice the loss.  So batches of more than
    two moments are prefix-stable (the seeds need no recurrence and no check).
    The constants see alpha and beta only through their sum and product, so
    the batch is bit-identical under the swap.
    """
    prec = ctx.bits + ctx.guard_bits
    p = params
    moms = list(_seed_sums(p, ctx))
    add = partial(mpf_add, prec=prec, rnd=_RND)
    mul = partial(mpf_mul, prec=prec, rnd=_RND)
    ab_sum, ab_prod = _raw(p.alpha + p.beta, prec), _raw(p.alpha * p.beta, prec)
    ratio, shift = _raw(p.c / (1 - p.c), prec), _raw((p.gamma - 1) / (1 - p.c), prec)
    U, lost, n, cancels = [], 0.0, 0, p.gamma > 1 and count > 2
    while n < count - 2 or cancels:
        tail = add(mul(ab_sum, moms[n + 1]), mul(ab_prod, moms[n]))
        acc = tail
        for i in range(n):
            acc = add(acc, mpf_mul_int(U[i], math.comb(n, i), prec, _RND))
        big = mul(shift, moms[n + 1])
        m = mpf_sub(mul(ratio, acc), big, prec, _RND)
        if lost >= prec or not mpf_gt(m, fzero):  # every bit lost (moments are > 0)
            lost = max(lost, prec)
            break
        cancels = mpf_gt(big, m)
        if cancels:
            _, man, exp, _ = mpf_div(big, m, 53, _RND)
            lost += math.log2(man) + exp
        moms.append(m)
        U.append(add(m, tail))
        n += 1
    if lost > ctx.guard_bits / 2:
        wider = PrecisionCtx(ctx.bits, 2 * math.ceil(lost), ctx.series_max_terms)
        return _moment_batch_raw(params, count, wider)
    return moms[:count]


def _moment_list(params, count, ctx):
    moms = _moment_batch_raw(params, count, ctx)
    return [ctx.mp.make_mpf(mpf_pos(m, ctx.bits, _RND)) for m in moms]


def moment(params, n, ctx):
    """The n-th moment ``m_n = sum_k k^n w_k`` (see :func:`_moment_batch_raw`)."""
    _require_standard(params, "moment")
    if n < 0:
        raise InvalidParam("moment index must be >= 0")
    return _moment_list(params, n + 1, ctx)[n]


def initial_xy(params, ctx):
    """Seed values ``(x_0, 0)`` of the symmetric variables.

    Standard lattice: ``x_0 = m_1/m_0 - ((alpha+beta) c - gamma)/(1-c)``.
    Shifted lattice: the transformed-parameter seed plus ``gamma - 1``.
    """
    mp = ctx.mp
    if params.lattice is Lattice.SHIFTED:
        x0, _ = initial_xy(shifted_params(params), ctx)
        return x0 + ctx.real(params.gamma) - 1, mp.mpf(0)
    a, b, g, c = params.as_reals(ctx)
    m = _moment_list(params, 2, ctx)
    x0 = m[1] / m[0] - ((a + b) * c - g) / (1 - c)
    return x0, mp.mpf(0)
