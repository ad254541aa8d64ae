"""The hypergeometric weight family, its moments, and parameter transforms.

Weights ``w_k = (alpha)_k (beta)_k / ((gamma)_k k!) * c**k`` on the lattice
``k = 0, 1, 2, ...`` for ``alpha, beta, gamma > 0`` and ``0 < c < 1``.  On
the shifted lattice ``k + 1 - gamma`` the moment route (moments, seeds and
oracle coefficients) goes through the exact parameter transform
(:func:`shifted_params`); the difference recursion and the identities take
the original parameters.  No Gamma-function evaluation and no non-integer
lattice summation happens anywhere.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain

from .errors import InvalidParam, NonConvergent
from .numerics import (GUARD_BITS, _ZERO, _below, _neg, _quotient, _rational_pair, _round, _sum,
                       _times, _to_real, _window)


class Lattice(enum.Enum):
    STANDARD = "standard"
    SHIFTED = "shifted"


def _check_exponent(text, name):
    """Refuse ``text`` (``InvalidParam``) when its exponent, after an ``e`` or
    a ``2^``, has more than five digits: the power would be built exactly."""
    m = re.search(r"[eE^]([-+]?[\d_]+)\s*$", text)
    if m and len(m.group(1).lstrip("+-").replace("_", "").lstrip("0")) > 5:
        raise InvalidParam(f"{name}={text!r} has an exponent of more than five digits")


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
        _check_exponent(value, name)
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
        for name in ("alpha", "beta", "gamma", "c"):
            object.__setattr__(self, name, _rational(getattr(self, name), name))
        if not isinstance(self.lattice, Lattice):
            raise InvalidParam(f"lattice must be a Lattice, not {self.lattice!r}")
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
        object.__setattr__(self, "_abg", hash((self.alpha, self.beta, self.gamma)))
        object.__setattr__(self, "_hash", hash((self._abg, self.c)))

    def __hash__(self):  # formed once, without the lattice (its hash varies by process)
        return self._hash

    @property
    def is_meixner(self):
        """True when the weight degenerates to a Meixner weight: alpha or beta
        equals gamma in standard-lattice form, i.e. equals 1 on the shifted
        lattice."""
        pin = 1 if self.lattice is Lattice.SHIFTED else self.gamma
        return pin in (self.alpha, self.beta)

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

    def _with_c(self, c):
        """This measure at the ``Fraction`` c (``self`` at its own c), which the
        caller has checked to lie in (0, 1): no other condition involves c."""
        if c == self.c:
            return self
        node = object.__new__(Params)
        node.__dict__.update(vars(self), c=c, _hash=hash((self._abg, c)))
        return node

    def as_integers(self):
        """``(A, B, G, C, D)``: alpha, beta, gamma, c = A/D, B/D, G/D, C/D, D least."""
        q = (self.alpha, self.beta, self.gamma, self.c)
        D = math.lcm(*(v.denominator for v in q))
        return (*(v.numerator * (D // v.denominator) for v in q), D)

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
    ``+ gamma - 1``.  Only the moment route (``initial_xy``,
    ``coeffs_oracle``) uses it; the difference recursion runs on the
    original parameters.  Raises ``InvalidParam`` when a transformed
    parameter is not positive.
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


# Cap on the terms of a seed series before ``NonConvergent``; raised from c
# and the precision, up to the budget, which is refused outright.
_SERIES_MAX_TERMS = 100000
_SERIES_TERM_BUDGET = 10**8


def _effective_cap(c, prec):
    """Series term cap at working precision ``prec``: ``_SERIES_MAX_TERMS``,
    or 1000 more than 1.2 times the ``prec log 2 / -log c`` terms that the
    geometric factor needs, whichever is larger.  ``NonConvergent``, before
    any summing, when c rounds to 1.0 as a float or the cap would exceed
    ``_SERIES_TERM_BUDGET``."""
    cf = float(c)
    if cf == 1.0:
        raise NonConvergent(f"moment series for c={c} has no term cap: c rounds to 1.0 as a float")
    need = math.ceil(1.2 * prec * math.log(2) / -math.log(cf)) if cf else 0  # 0.0: c underflows
    cap = max(_SERIES_MAX_TERMS, need + 1000)
    if cap > _SERIES_TERM_BUDGET:
        raise NonConvergent(f"moment series for c={c} needs about {cap} terms at {prec} bits, "
                            f"over the budget of {_SERIES_TERM_BUDGET}")
    return cap


# Bound of the seed-sum memo, in (params, precision) pairs.  One Toda sweep or
# stencil touches 5-7 nodes at two precisions.
_SEED_MEMO_SIZE = 256


@lru_cache(maxsize=_SEED_MEMO_SIZE)
def _seed_sums(params, prec):
    """``(m_0, m_1)`` as ``(mantissa, exponent)`` pairs at ``prec`` bits
    (``bits`` plus guard bits): the lattice series of ``w_k`` and ``k w_k``,
    summed in one pass in fixed-point ints.

    Each weight follows from the last by one exact integer ratio: with
    ``alpha = pa/qa`` and likewise for beta, gamma and c,
    ``w_{k+1} = w_k num_k / den_k``, ``num_k = (pa + k qa)(pb + k qb) pc qg``,
    ``den_k = (pg + k qg)(k+1) qc qa qb``.  The pass keeps ``W_k = w_k 2**F``
    rounded down (``W_0 = 2**F``, ``W_{k+1} = W_k num_k // den_k``), adds
    ``W_k`` and ``k W_k`` into two integer sums and rounds each to ``prec``
    once.  ``num_k`` and ``den_k`` are quadratics in k, stepped by their
    first and second differences.  With ``qc = 2**z r``, r odd, each quotient
    ``x // den_k`` is taken as ``(x >> z) // d`` with ``d = den_k >> z``:
    writing ``x = (q d + s) 2**z + t``, ``0 <= s < d``, ``0 <= t < 2**z``,
    gives ``q`` both ways.  A series stops once three consecutive terms
    ``t`` satisfy ``t << prec <= s`` for its partial sum ``s`` (single terms
    can dip before the geometric tail sets in, hence the streak), or raises
    ``NonConvergent`` at the term cap.

    ``F`` is ``prec`` plus twice the bit length of the term cap.  ``W_k`` is
    at most ``E_k`` units low, with ``E_0 = 0`` and
    ``E_{k+1} = ceil(E_k num_k / den_k) + 1``; the ``E_k`` and ``k E_k`` are
    summed like the terms.  If a bound exceeds ``2**-(prec+1)`` of its sum
    (terms that dip far below ``w_0`` before they grow lose bits so), the
    pass is redone with ``F`` wider by the shortfall.  ``num_k`` is symmetric
    in alpha and beta, so the sums are bit-identical under the swap.
    Memoized per (standard-lattice params, ``prec``), all it reads;
    ``toda_sigma.clear_cache`` empties the memo.
    """
    (pa, qa), (pb, qb), (pg, qg), (pc, qc) = (
        q.as_integer_ratio() for q in (params.alpha, params.beta, params.gamma, params.c))
    z = (qc & -qc).bit_length() - 1
    nc, dc = pc * qg, (qc >> z) * qa * qb
    cap = _effective_cap(params.c, prec)
    frac = prec + 2 * cap.bit_length()
    while True:  # num_k, den_k (2**z out) at k = 0 with their first and second differences
        num, dnum, ddnum = pa * pb * nc, (qa * qb + pa * qb + pb * qa) * nc, 2 * qa * qb * nc
        den, dden, ddden = pg * dc, (pg + 2 * qg) * dc, 2 * qg * dc
        s0 = s1 = e0 = e1 = run0 = run1 = err = 0
        w = 1 << frac
        for k in range(cap):
            if run0 < 3:
                s0 += w
                e0 += err
                run0 = run0 + 1 if w << prec <= s0 else 0
            if run1 < 3:
                t = k * w
                s1 += t
                e1 += k * err
                run1 = run1 + 1 if t << prec <= s1 else 0
            if run0 == run1 == 3:
                break
            w = (w * num >> z) // den
            err = 1 - (-err * num >> z) // den
            num, dnum = num + dnum, dnum + ddnum
            den, dden = den + dden, dden + ddden
        else:
            raise NonConvergent(f"moment series exceeded {cap} terms")
        if e0 << prec + 1 <= s0 and e1 << prec + 1 <= s1:
            return _round((s0, -frac), prec), _round((s1, -frac), prec)
        frac += max(e.bit_length() + prec + 2 - s.bit_length() for s, e in ((s0, e0), (s1, e1)))


def _moment_batch_raw(params, count, bits, guard=GUARD_BITS):
    """Moments ``m_0 .. m_{count-1}`` as pairs at ``bits + guard`` or more.

    ``m_0`` and ``m_1`` come from :func:`_seed_sums` (memoized).  The rest
    follow from the Pearson relation ``w_{k+1} (gamma+k)(k+1) = c (alpha+k)(beta+k) w_k``
    summed against ``(k+1)^n``: with ``U_i = m_{i+2} + (alpha+beta) m_{i+1}
    + alpha beta m_i``, ``m_{n+2} + (gamma-1) m_{n+1} = c sum_{i<=n} C(n,i) U_i``.
    With ``tail = (alpha+beta) m_{n+1} + alpha beta m_n``, each of
    ``tail + sum_{i<n} C(n,i) U_i``, ``m_{n+2}`` and ``U_n`` is the exact
    value on the stored pairs rounded once.  The binomial sum takes additions
    only: it is the sum of the anti-diagonal ``R_j = sum_i C(j,i) U_{n-1-j+i}``
    (``j < n``), which ``U_n`` advances to the running sums of ``(U_n, R_0,
    R_1, ...)``; the ``R_j`` are integers at one exponent, shifted when it drops.

    For gamma > 1, solving for ``m_{n+2}`` cancels until ``m_{n+2}/m_{n+1}``
    (which only grows) passes ``(gamma-1)/(1-c)``.  The bits lost up to there,
    past ``count`` if need be, must stay below half of ``guard``, else the
    batch is redone with ``guard`` twice the loss, its wider seeds feeding only
    the recurrence.  The loss is the same for any ``count`` > 2, so every
    batch is prefix-stable.  The constants see alpha and beta only through
    their sum and product, so the batch is bit-identical under the swap.
    """
    prec = bits + guard
    moms = list(_seed_sums(params, prec))
    if count <= 2:
        return moms[:count]
    p, window = params, _window(prec)
    ab_sum, ab_prod, ratio, shift = (_rational_pair(q, prec) for q in (
        p.alpha + p.beta, p.alpha * p.beta, p.c / (1 - p.c), (p.gamma - 1) / (1 - p.c)))
    R, eR, lost, n, cancels = [], _ZERO[1], 0.0, 0, p.gamma > 1
    while n < count - 2 or cancels:
        tail = [_times(ab_sum, moms[n + 1]), _times(ab_prod, moms[n])]
        acc = _round(_sum(tail + [(sum(R), eR)], floor=window), prec)
        big = _times(shift, moms[n + 1])
        m = _round(_sum([_times(ratio, acc), _neg(big)], floor=window), prec)
        if lost >= prec or m[0] <= 0:  # every bit lost (moments are > 0)
            lost = max(lost, prec)
            break
        cancels = big[0] > 0 and not _below(big, m)
        if cancels:
            man, exp = _quotient(big, m, 53)
            t = (man & -man).bit_length() - 1  # the odd mantissa libmp would keep
            lost += math.log2(man >> t) + (exp + t)
        moms.append(m)
        u, e = _round(_sum([m] + tail, floor=window), prec)
        if e < eR:
            R, eR = [v << eR - e for v in R], e
        R = list(accumulate(chain([u << e - eR], R)))
        n += 1
    if lost > guard / 2:
        return moms[:2] + _moment_batch_raw(params, count, bits, 2 * math.ceil(lost))[2:]
    return moms[:count]


def _moment_list(params, count, ctx):
    mp = ctx.mp
    return [_to_real(mp, m) for m in _moment_batch_raw(params, count, ctx.bits)]


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
