"""Arbitrary-precision scalar contract and stencil derivatives.

A ``BigReal`` is an ``mpmath`` ``mpf`` bound to the :class:`PrecisionCtx` that
produced it.  Every context owns an isolated ``MPContext`` (the global
``mpmath.mp`` is never touched), so results depend only on the context's bit
count and the code path — repeated calls are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.ctx_mp import MPContext
from mpmath import libmp
from mpmath.libmp import from_int, from_rational, mpf_pos, round_nearest

from .errors import DomainExceeded, InvalidParam, StepTooSmall

_RND = round_nearest

# One MPContext per bit count, shared across PrecisionCtx instances.  The
# contexts are created once and their precision is never mutated afterwards.
_MP_CACHE: dict[int, MPContext] = {}


def _mp_for(bits):
    ctx = _MP_CACHE.get(bits)
    if ctx is None:
        ctx = MPContext()
        ctx.prec = bits
        _MP_CACHE[bits] = ctx
    return ctx


@dataclass(frozen=True)
class PrecisionCtx:
    """Working precision: significand bits plus truncation policy.

    Parameters
    ----------
    bits : int
        Significand precision in binary digits, at least 24.
    guard_bits : int
        Extra digits demanded before a series is truncated (default 16).
    series_max_terms : int
        Hard cap on summed terms before ``NonConvergent`` (default 100000).
    """

    bits: int
    guard_bits: int = 16
    series_max_terms: int = 100000

    def __post_init__(self):
        if not isinstance(self.bits, int) or self.bits < 24:
            raise InvalidParam("bits must be an integer >= 24")
        if not isinstance(self.guard_bits, int) or self.guard_bits < 0:
            raise InvalidParam("guard_bits must be a non-negative integer")
        if not isinstance(self.series_max_terms, int) or self.series_max_terms < 1:
            raise InvalidParam("series_max_terms must be a positive integer")

    @property
    def mp(self):
        """The mpmath context backing this precision."""
        return _mp_for(self.bits)

    def with_bits(self, bits):
        return PrecisionCtx(bits, self.guard_bits, self.series_max_terms)

    def real(self, value):
        """Convert ``value`` to a BigReal of this context (round to nearest).

        Accepts int, Fraction, str (decimal or 'p/q'), float, and any mpf
        (also from a different context).  Fractions and rational strings are
        converted with a single correct rounding.
        """
        mp = self.mp
        if hasattr(value, "_mpf_"):
            return mp.make_mpf(mpf_pos(value._mpf_, self.bits, _RND))
        if isinstance(value, int):
            return mp.make_mpf(from_int(value, self.bits, _RND))
        if isinstance(value, Fraction):
            return mp.make_mpf(
                from_rational(value.numerator, value.denominator, self.bits, _RND)
            )
        if isinstance(value, str):
            s = value.strip()
            if "/" in s:
                return self.real(Fraction(s))
            return mp.mpf(s)
        if isinstance(value, float):
            return mp.mpf(value)
        raise InvalidParam(f"cannot convert {type(value).__name__} to BigReal")

    def to_decimal(self, x, digits=None):
        """Serialize a BigReal as a decimal string that round-trips exactly
        when re-parsed at the same bit count (ceil(bits*log10(2)) + 2 digits).
        Pass ``digits`` to truncate instead (lossy).
        """
        x = self.real(x)
        dps = digits or (math.ceil(self.bits * math.log10(2)) + 2)
        return libmp.to_str(x._mpf_, dps)


def default_step(ctx):
    """Default stencil step for c-derivatives: 2**-(bits//4)."""
    return ctx.mp.ldexp(1, -(ctx.bits // 4))


def central_derivative(f, c0, h, order, ctx, domain=None):
    """Five-point central stencil derivative of ``f`` at ``c0``.

    ``order`` 1 returns ``(-f2 + 8 f1 - 8 f-1 + f-2) / (12 h)``; ``order`` 2
    returns ``(-f2 + 16 f1 - 30 f0 + 16 f-1 - f-2) / (12 h**2)``.  Both have
    O(h^4) truncation error.

    ``domain=(lo, hi)`` optionally requires every stencil node to stay
    strictly inside the open interval (pass ``(0, 1)`` for quantities
    parameterized by the weight's c) — violations raise ``DomainExceeded``.
    ``StepTooSmall`` is raised when ``h < 2**-(bits/2)``, where cancellation
    would destroy every significant digit.
    """
    mp = ctx.mp
    c0 = ctx.real(c0)
    h = ctx.real(h)
    if order not in (1, 2):
        raise InvalidParam("order must be 1 or 2")
    if h <= 0:
        raise InvalidParam("h must be positive")
    if h < mp.mpf(2) ** (mp.mpf(-ctx.bits) / 2):
        raise StepTooSmall(f"h={mp.nstr(h, 8)} below 2^-(bits/2) cancellation floor")
    if domain is not None:
        lo, hi = (ctx.real(domain[0]), ctx.real(domain[1]))
        if not (lo < c0 - 2 * h and c0 + 2 * h < hi):
            raise DomainExceeded(
                f"stencil [{mp.nstr(c0 - 2 * h, 8)}, {mp.nstr(c0 + 2 * h, 8)}] "
                f"leaves ({mp.nstr(lo, 8)}, {mp.nstr(hi, 8)})"
            )
    f2 = ctx.real(f(c0 + 2 * h))
    f1 = ctx.real(f(c0 + h))
    fm1 = ctx.real(f(c0 - h))
    fm2 = ctx.real(f(c0 - 2 * h))
    if order == 1:
        return (-f2 + 8 * f1 - 8 * fm1 + fm2) / (12 * h)
    f0 = ctx.real(f(c0))
    return (-f2 + 16 * f1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)


def bits_for_digits(digits):
    """Binary precision equivalent to ``digits`` decimal digits."""
    return math.ceil(digits * math.log2(10))


def digits_for_bits(bits):
    """Decimal digits carried by ``bits`` binary digits (floor)."""
    return int(bits * math.log10(2))
