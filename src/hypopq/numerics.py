"""Arbitrary-precision scalar contract, the pair kernel and stencil derivatives.

A ``BigReal`` is an ``mpmath`` ``mpf`` bound to the :class:`PrecisionCtx` that
produced it.  Every context owns an isolated ``MPContext`` (the global
``mpmath.mp`` is never touched), so results depend only on the context's bit
count and the code path — repeated calls are bit-identical.

This module owns the number format: the kernels, the one normalized
residual (:func:`_normalized`) and the stencils compute on signed
``(mantissa, exponent)`` integer pairs, summed by :func:`_sum` in the window
of the precision it is given, and only this module reads mpmath's raw
format (``mpmath.libmp``, ``_mpf_``).  Values cross by :func:`_to_real`,
:func:`_from_real`, :func:`_rational_pair` and :func:`_exact_fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from mpmath.ctx_mp import MPContext
from mpmath import libmp
from mpmath.libmp import (finf, fnan, fninf, from_man_exp, from_rational, mpf_pos,
                          round_nearest, to_rational)

from .errors import DomainExceeded, InvalidParam, StepTooSmall

_RND = round_nearest

# One MPContext per bit count, shared across PrecisionCtx instances.  The
# contexts are created once and their precision is never mutated afterwards.
@cache
def _mp_for(bits):
    ctx = MPContext()
    ctx.prec = bits
    return ctx


# Bits the moment route carries above ``bits``, and the margin of the
# recursion's step guards and the structure relation's pole test,
# ``eps = 2**-(bits - GUARD_BITS)``.
GUARD_BITS = 16

# The most bits a context takes: there ``verify --suite toda --nmax 0`` took
# 10 s (2 cores, mpmath's Python backend), and work grows fourfold per doubling.
MAX_BITS = 1 << 14


# The pair kernel of the moment route and the recursion step.  Zero as a
# ``(mantissa, exponent)`` pair: its exponent lies above every other, so it
# never sets the alignment of an exact sum, and shifting its 0 costs nothing.
_ZERO = (0, 1 << 62)


def _pair(x):
    """Raw mpf ``x`` as a signed ``(mantissa, exponent)`` pair; NaN and the
    infinities (a zero mantissa in libmp) raise ``InvalidParam``."""
    sign, man, exp, _ = x
    if man:
        return -man if sign else man, exp
    if exp:
        raise InvalidParam(f"non-finite value {libmp.to_str(x, 5)}")
    return _ZERO


def _from_real(x):
    """The BigReal ``x`` as its exact pair (:func:`_pair`)."""
    return _pair(x._mpf_)


def _to_real(mp, v):
    """The pair ``v`` as a BigReal of the mpmath context ``mp``, rounded once
    to its bits (ties to even)."""
    return mp.make_mpf(from_man_exp(v[0], v[1], mp.prec, _RND))


def _rational_pair(q, prec):
    """The rational ``q`` rounded to ``prec`` bits, as libmp normalizes it (odd mantissa)."""
    return _pair(from_rational(q.numerator, q.denominator, prec, _RND))


def _exact_fraction(x, ctx=None):
    """The exact rational value of ``x``: an int or ``Fraction`` as it is, a
    finite BigReal's (always dyadic) value, anything else as ``ctx.real``
    rounds it."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if not hasattr(x, "_mpf_"):
        x = ctx.real(x)
    if x._mpf_ in (finf, fninf, fnan):
        raise InvalidParam("cannot use a non-finite evaluation point")
    return Fraction(*to_rational(x._mpf_))


def _times(x, y):
    """Exact product of two ``(mantissa, exponent)`` pairs."""
    return x[0] * y[0], x[1] + y[1]


def _neg(v):
    return -v[0], v[1]


def _sum(terms, prec):
    """The signed ``(mantissa, exponent)`` pairs ``terms`` summed to one pair,
    not rounded; an exact zero is ``_ZERO``.  A sum serving ``prec`` bits has
    the window 4 prec + 64: every sum of the recursion step is exact in it on
    any orbit of moderate magnitude (the widest, the first-kind quartic, spans
    4 prec bits), so a sum that cancels loses nothing.  Each term is floored
    to the cut at max(lowest, highest - window) of the nonzero terms'
    exponents, so the sum is exact while they span at most the window.  One
    pass stops before a term would stretch the span past it, and the terms
    are summed again at the cut: no integer outgrows the window."""
    window = 4 * prec + 64
    s, f, hi = 0, _ZERO[1], -_ZERO[1]
    for m, e in terms:
        if m:
            if e < f:
                if hi - e > window:
                    break
                s, f = (s << f - e) + m, e
            else:
                if e - f > window:
                    break
                s += m << e - f
            if e > hi:
                hi = e
    else:
        return (s, f) if s else _ZERO
    s, f = 0, max(e for m, e in terms if m) - window
    for m, e in terms:
        s += m << e - f if e >= f else m >> f - e
    return (s, f) if s else _ZERO


def _round(x, prec):
    """The pair ``x`` rounded to ``prec`` bits, to nearest with ties to even
    (as libmp's ``round_nearest``)."""
    s, f = x
    n = s.bit_length() - prec
    if n <= 0:
        return x
    q = s >> n
    r, half = s - (q << n), 1 << n - 1
    return q + (r > half or r == half and q & 1), f + n


def _quotient(num, den, prec):
    """The pair ``num`` over the pair ``den``, rounded once to ``prec`` bits:
    the integer quotient keeps at least ``prec + 1`` bits and a sticky bit
    for its remainder.  A zero ``den`` raises ``ZeroDivisionError`` (from
    ``divmod``), as libmp's ``mpf_div`` does."""
    (a, ea), (b, eb) = num, den
    if not a and b:
        return _ZERO
    k = max(0, prec + 1 + b.bit_length() - a.bit_length())
    q, r = divmod(abs(a) << k, abs(b))
    q = 2 * q + (r > 0)
    return _round((-q if (a < 0) != (b < 0) else q, ea - eb - k - 1), prec)


def _over(terms, den, prec):
    """The exact sum of the pairs ``terms`` (in the window at ``prec`` bits)
    over the integer ``den``, rounded once to ``prec`` bits."""
    return _quotient(_sum(terms, prec), (den, 0), prec)


def _below(v, w):
    """``|v| <= |w|`` for the pairs ``v`` and ``w``."""
    (mv, ev), (mw, ew) = v, w
    if not mv or not mw:
        return not mv
    mv, mw = abs(mv), abs(mw)
    tv, tw = ev + mv.bit_length(), ew + mw.bit_length()
    if tv != tw:
        return tv < tw
    e = min(ev, ew)
    return mv << ev - e <= mw << ew - e


def _residual(lhs, rhs, prec):
    """``(|sum(lhs) - sum(rhs)|, max |term|)`` of one identity's pair terms,
    as pairs.  The difference is exact while the terms' exponents lie within
    the window at ``prec`` bits (:func:`_sum`); each term further below is
    cut, which moves it by less than ``2^-window`` times the largest term,
    found by its top bit's position, and by its mantissa only on a tie."""
    terms = [*lhs]
    for m, e in rhs:
        terms.append((-m, e))
    (tm, te), tb = _ZERO, -_ZERO[1]
    for m, e in terms:
        if m:
            b = e + m.bit_length()
            if b > tb or b == tb and not _below((m, e), (tm, te)):
                tm, te, tb = m, e, b
    s, f = _sum(terms, prec)
    return (abs(s), f), (abs(tm), te)


def _normalized(mp, lhs, rhs):
    """The normalized residual of the pair terms ``lhs`` and ``rhs``, as a
    BigReal of ``mp``: the quotient of :func:`_residual`, in the window at
    mp's bits, rounded once to them, and zero where every term is."""
    prec = mp.prec
    diff, top = _residual(lhs, rhs, prec)
    return _to_real(mp, _quotient(diff, top, prec)) if top[0] else mp.zero


@dataclass(frozen=True)
class PrecisionCtx:
    """Working precision: ``bits``, the significand precision in binary
    digits, from 24 to :data:`MAX_BITS`.

    The bit count and the inputs fix every output bit: the guard bits
    (:data:`GUARD_BITS`) and the moment series' term cap are constants of
    the package, not settings of a context.
    """

    bits: int

    def __post_init__(self):
        if not isinstance(self.bits, int) or self.bits < 24:
            raise InvalidParam("bits must be an integer >= 24")
        if self.bits > MAX_BITS:
            raise InvalidParam(f"bits must be at most {MAX_BITS}, not {self.bits}")

    @property
    def mp(self):
        """The mpmath context backing this precision."""
        return _mp_for(self.bits)

    def with_bits(self, bits):
        """``PrecisionCtx(bits)``; the package calls the constructor, and this
        stays for the benchmark harness in ``perfbench/``, which calls it."""
        return PrecisionCtx(bits)

    def real(self, value):
        """Convert ``value`` to a BigReal of this context (round to nearest).

        Accepts int, Fraction, str (decimal or 'p/q'), float, and any mpf
        (also from a different context).  Fractions and rational strings are
        converted with a single correct rounding.
        """
        mp = self.mp
        if hasattr(value, "_mpf_"):
            return mp.make_mpf(mpf_pos(value._mpf_, self.bits, _RND))
        if isinstance(value, (int, Fraction)):
            return mp.make_mpf(from_rational(value.numerator, value.denominator, self.bits, _RND))
        if isinstance(value, str):
            s = value.strip()
            try:
                return self.real(Fraction(s)) if "/" in s else mp.mpf(s)
            except (ValueError, ZeroDivisionError):
                raise InvalidParam(f"cannot convert {value!r} to BigReal") from None
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
    """Default stencil step for c-derivatives: exactly 2**-(bits//4)."""
    return Fraction(1, 1 << ctx.bits // 4)


def stencil_nodes(c0, h, ctx):
    """The nodes ``c0 + j h``, j = -2..2, as exact ``Fraction``s (the centre
    is ``c0``), for ``c0`` and ``h`` read exactly (:func:`_exact_fraction`).
    Checked before any value is computed: every node lies inside (0, 1), else
    ``DomainExceeded``, and ``h >= 2**-(bits/2)``, else ``StepTooSmall``
    (cancellation would destroy every significant digit)."""
    mp = ctx.mp
    c0, h = _exact_fraction(c0, ctx), _exact_fraction(h, ctx)
    if h <= 0:
        raise InvalidParam("h must be positive")
    p, q = h.numerator, h.denominator
    if p * p << ctx.bits < q * q:
        raise StepTooSmall(f"h={mp.nstr(ctx.real(h), 8)} below 2^-(bits/2) cancellation floor")
    # node j is (a q + j p b) / (b q) for c0 = a / b
    aq, pb, bq = c0.numerator * q, p * c0.denominator, c0.denominator * q
    if not (0 < aq - 2 * pb and aq + 2 * pb < bq):
        raise DomainExceeded(f"stencil [{mp.nstr(ctx.real(c0 - 2 * h), 8)}, "
                             f"{mp.nstr(ctx.real(c0 + 2 * h), 8)}] leaves (0.0, 1.0)")
    return [Fraction(aq + j * pb, bq) if j else c0 for j in range(-2, 3)]


def central_derivative(values, h, order, ctx):
    """Five-point central derivative from the ``values`` f_j (pairs, or values
    ``ctx.real`` takes) at the nodes of :func:`stencil_nodes`: ``order`` 1 is
    ``(-f2 + 8 f1 - 8 f-1 + f-2) / (12 h)``, 2 is ``(-f2 + 16 f1 - 30 f0 + 16
    f-1 - f-2) / (12 h**2)``, both O(h^4).  A value of weight zero (order 1's
    centre) is not read; the rest is one exact sum over one integer, ``h``
    read exactly, rounded once to ``ctx.bits``."""
    if order not in (1, 2):
        raise InvalidParam("order must be 1 or 2")
    h = _exact_fraction(h, ctx)
    p, q = h.numerator, h.denominator
    weights = (1, -8, 0, 8, -1) if order == 1 else (-1, 16, -30, 16, -1)
    num, den = (q, 12 * p) if order == 1 else (q * q, 12 * p * p)
    terms = []
    for w, v in zip(weights, values):
        if w:
            m, e = v if isinstance(v, tuple) else _from_real(ctx.real(v))
            terms.append((w * num * m, e))
    return _to_real(ctx.mp, _over(terms, den, ctx.bits))


def bits_for_digits(digits):
    """Binary precision equivalent to ``digits`` decimal digits, formed exactly."""
    return math.ceil(digits * Fraction(math.log2(10)))


def digits_for_bits(bits):
    """Decimal digits carried by ``bits`` binary digits (floor)."""
    return int(bits * math.log10(2))
