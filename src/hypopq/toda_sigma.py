"""Deformation in c: Toda-type flow, the sigma-function ODE, and the seed.

Moving c moves the whole measure, so derivatives with respect to c connect
neighboring recurrence coefficients (a Toda-type lattice flow), the partial
sums S_n satisfy a second-order second-degree ODE in c (the sigma form),
and the n=0 seed x_0(c) satisfies a first-order Riccati relation whose
combination collapses to the constant -gamma.

All d/dc derivatives are fourth-order central stencils.  A call reads its
values at the five exact nodes c + jh, the centre being ``params`` itself,
into one list and takes the centre and every derivative from it.  Each
identity is a ``(name, lhs, rhs)`` table of exact pair terms, multiplied
through by one integer and normalized once (:func:`numerics._normalized`);
sigma_n and the Riccati combination are exact sums, each rounded once.

The node records and the seed sums are the only memos.  A bounded
``lru_cache`` keyed on (node parameters, precision context, source) records
the node's longest run and least refused order.  A node's first lookup to
order N runs to N, or to 4 for 0 < N < 4; one past its longest run, as in a
sweep, runs to max(4, the least power of two >= N), or to N from an order
refused there.  Every run is a prefix of every longer one, order 0 included,
so the longest run serves all.  ``clear_cache()`` empties both memos.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .dpainleve import iterate
from .errors import InvalidParam, PrecisionExhausted, SingularStep
from .numerics import (_ZERO, _exact_fraction, _from_real, _neg, _normalized, _over, _sum,
                       _times, _to_real, central_derivative, stencil_nodes)
from .oracle import coeffs_from_xy, coeffs_oracle, xy_from_coeffs
from .reporting import ResidualReport
from .weights import Lattice, _seed_sums, initial_xy


class Source(enum.Enum):
    """Which pipeline produces the sequences under differentiation."""

    ORACLE = "oracle"
    ITERATE = "iterate"


_NODE_MEMO_SIZE = 256
_HORIZON_FLOOR = 4  # an order-16 run costs more than the small runs it would replace


def clear_cache():
    """Empty the node records and the seed-sum memo of ``weights``."""
    _node_record.cache_clear()
    _seed_sums.cache_clear()


def _node_sequences(node, N, ctx, source):
    """(CoeffSeq, XYSeq) to order N at the node; shared, so never mutated."""
    if source is Source.ORACLE:
        cs = coeffs_oracle(node, N, ctx)
        return cs, xy_from_coeffs(cs)
    if source is Source.ITERATE:
        xy = iterate(node, N, ctx, strict=True)
        return coeffs_from_xy(xy), xy
    raise InvalidParam(f"unknown source {source!r}")


@lru_cache(maxsize=_NODE_MEMO_SIZE)
def _node_record(node, ctx, source):
    """[longest run served at the node, least order refused there], updated in place."""
    return [None, float("inf")]


def _sequences_at(params, ce, N, source, ctx):
    """(CoeffSeq, XYSeq) to order at least N at the exact weight parameter c = ce."""
    node = params._with_c(ce)
    record = _node_record(node, ctx, source)
    if record[0] is None or record[0][0].N < N:
        H = max(_HORIZON_FLOOR, 1 << (N - 1).bit_length())
        if (record[0] or 0 < N <= _HORIZON_FLOOR) and N < H < record[1]:
            try:
                record[0] = _node_sequences(node, H, ctx, source)
                return record[0]
            except (PrecisionExhausted, SingularStep):
                record[1] = H
        record[0] = _node_sequences(node, N, ctx, source)
    return record[0]


def toda_residuals(params, n: int, h, source: Source, ctx) -> ResidualReport:
    """Six flow identities at index n, each normalized by its largest term.

    Two are the lattice flow proper (valid on both lattices with the
    original parameters):

        c (a_n^2)' = a_n^2 (b_n - b_{n-1})        [n >= 1]   toda_a2
        c b_n'     = a_{n+1}^2 - a_n^2                       toda_b

    and four transport it to the Painleve variables:

        x_n' = b_n' - (2n+alpha+beta-gamma)/(1-c)^2          x_deriv
        y_n' = -((1+c)/c^2) a_n^2 + ((1-c)/c)(a_n^2)'        y_deriv
        (1-c) x_n' = y_{n+1} - y_n + x_n                     x_flow
        (1-c) y_n' = ((1-c)^2/c^2) a_n^2 (x_n - x_{n-1})     y_flow [n >= 1]

    With alpha, beta, gamma, c = A/D, B/D, G/D, C/D (:meth:`Params.as_integers`)
    they are multiplied through by D, (D-C)^2, C^2, D, D and D C^2.
    """
    if n < 0:
        raise InvalidParam("n must be >= 0")
    A, B, G, C, D = params.as_integers()
    E = D - C
    seqs = [_sequences_at(params, ce, n + 1, source, ctx)
            for ce in stencil_nodes(params.c, h, ctx)]
    rows = [[_from_real(v) for v in (cs.a2[n], cs.b[n], xy.x[n], xy.y[n])] for cs, xy in seqs]
    (mda, eda), (mdb, edb), (mdx, edx), (mdy, edy) = (
        _from_real(central_derivative(values, h, 1, ctx)) for values in zip(*rows))
    ((ma, ea), b, x, (my, ey)), (cs, xy) = rows[2], seqs[2]
    (ma1, ea1), (my1, ey1) = _from_real(cs.a2[n + 1]), _from_real(xy.y[n + 1])
    identities = [
        ("toda_b", [(C * mdb, edb)], [(D * ma1, ea1), (-D * ma, ea)]),
        ("x_deriv", [(E * E * mdx, edx)], [(E * E * mdb, edb), (-(2 * n * D + A + B - G) * D, 0)]),
        ("y_deriv", [(C * C * mdy, edy)], [(-D * (D + C) * ma, ea), (C * E * mda, eda)]),
        ("x_flow", [(E * mdx, edx)], [(D * my1, ey1), (-D * my, ey), (D * x[0], x[1])]),
    ]
    if n >= 1:
        mb, eb = _sum([b, _neg(_from_real(cs.b[n - 1]))], ctx.bits)
        mx, ex = _sum([x, _neg(_from_real(xy.x[n - 1]))], ctx.bits)
        identities.insert(0, ("toda_a2", [(C * mda, eda)], [(D * ma * mb, ea + eb)]))
        identities.append(("y_flow", [(C * C * E * mdy, edy)], [(D * E * E * ma * mx, ea + ex)]))
    rep = ResidualReport(ctx=ctx)
    for name, lhs, rhs in identities:
        rep.add(name, n, _normalized(ctx.mp, lhs, rhs))
    return rep


@dataclass(frozen=True)
class SigmaParams:
    """Exact constants entering sigma_n(c) = (c-1) S_n + K c + L and its ODE."""

    K: object
    L: object
    d1: object
    d2: object
    d3: object
    d4: object


def sigma_parameters(params, n: int, ctx) -> SigmaParams:
    if n < 0:
        raise InvalidParam("n must be >= 0")
    A, B, G, _, D = params.as_integers()  # alpha, beta, gamma = A/D, B/D, G/D
    s = A + B + n * D
    L = (A + B + G + D) * n * D + A * A + B * B - (A + B) * (G + D) + 2 * G * D
    return SigmaParams(Fraction(4 * A * B - s * s, 4 * D * D), Fraction(L, 4 * D * D),
                       Fraction(n * D + A - B, 2 * D), Fraction(A - B - n * D, 2 * D),
                       Fraction(s - 2 * D, 2 * D), Fraction(s - 2 * G, 2 * D))


def _sigma_at(params, n, source, ctx, sp, nodes):
    """sigma_n as pairs at the exact ``nodes`` ce = p/q, for ``sp``'s K, L = a/d, b/d:
    ``((p - q) d S_n + a p + b q) / (q d)``, one exact sum rounded once each."""
    (kn, kd), (ln, ld) = sp.K.as_integer_ratio(), sp.L.as_integer_ratio()
    a, b, d, out = kn * ld, ln * kd, kd * ld, []
    for ce in nodes:
        m, e = _from_real(_sequences_at(params, ce, n - 1, source, ctx)[1].S[n]) if n else _ZERO
        p, q = ce.as_integer_ratio()
        out.append(_over([((p - q) * d * m, e), (a * p + b * q, 0)], q * d, ctx.bits))
    return out


def sigma_value(params, n: int, c_eval, source: Source, ctx):
    """sigma_n with the weight parameter moved to the exact rational c_eval in (0,1).

    The affine constants K, L are fixed by ``params`` and n (not by c_eval),
    so differentiating this function in c_eval probes only S_n.
    """
    if params.lattice is not Lattice.STANDARD:
        raise InvalidParam("sigma function is defined on the standard lattice")
    sp, ce = sigma_parameters(params, n, ctx), _exact_fraction(c_eval, ctx)
    if not (0 < ce < 1):
        raise InvalidParam("c_eval must lie in (0, 1)")
    return _to_real(ctx.mp, _sigma_at(params, n, source, ctx, sp, [ce])[0])


def sigma_pvi_residual(params, n: int, h, source: Source, ctx):
    """Defect of the second-degree ODE for sigma_n at c = params.c.

    With s = sigma_n, s' and s'' from stencils, the three additive terms

        t1 = s' (c(c-1) s'')^2
        t2 = (s'(2s - (2c-1)s') + d1 d2 d3 d4)^2
        t3 = prod_i (s' + d_i^2)

    must satisfy t1 + t2 = t3; the returned residual is
    |t1 + t2 - t3| / max(|t1|, |t2|, |t3|), with the terms multiplied through
    by q^4 l^8 for c = p/q and d_i = e_i/l.  The constants come from
    :func:`sigma_parameters`, computed once per call.
    """
    if n < 1:
        raise InvalidParam("n must be >= 1")
    if params.lattice is not Lattice.STANDARD:
        raise InvalidParam("sigma function is defined on the standard lattice")
    c, sp = params.c, sigma_parameters(params, n, ctx)
    s = _sigma_at(params, n, source, ctx, sp, stencil_nodes(c, h, ctx))
    (m0, e0), (m1, e1), (m2, e2) = s[2], *(
        _from_real(central_derivative(s, h, order, ctx)) for order in (1, 2))
    ds, p, q = (sp.d1, sp.d2, sp.d3, sp.d4), c.numerator, c.denominator
    l = math.lcm(*(d.denominator for d in ds))
    e, l4 = [d.numerator * (l // d.denominator) for d in ds], l**4
    t1 = l4 * p * (p - q) * m2
    t1 = m1 * t1 * t1, e1 + 2 * e2
    mw, ew = _sum([(2 * q * l4 * m1 * m0, e1 + e0), (-(2 * p - q) * l4 * m1 * m1, 2 * e1),
                   (q * e[0] * e[1] * e[2] * e[3], 0)], ctx.bits)
    t2 = (q * mw) ** 2, 2 * ew
    t3 = q**4, 0
    for ei in e:
        t3 = _times(t3, _sum([(l * l * m1, e1), (ei * ei, 0)], ctx.bits))
    return _normalized(ctx.mp, [t1, t2], [t3])


def riccati_constant(params, h, ctx):
    """The Riccati combination of the seed x_0(c), expected to be -gamma:

        c(1-c) x_0' + (1-c) x_0^2 + ((alpha+beta)c - gamma - 1) x_0
            - alpha*beta*c

    It is one exact sum over D^3 (:meth:`Params.as_integers`), rounded once.
    The same combination, with the *original* parameters, is constant on
    both lattices (the shifted seed's extra terms cancel identically).
    """
    A, B, G, C, D = params.as_integers()
    E = D - C
    x0 = [_from_real(initial_xy(params._with_c(ce), ctx)[0])
          for ce in stencil_nodes(params.c, h, ctx)]
    (md, ed), (mx, ex) = _from_real(central_derivative(x0, h, 1, ctx)), x0[2]
    return _to_real(ctx.mp, _over([(D * C * E * md, ed), (D * D * E * mx * mx, 2 * ex),
                                   (D * ((A + B) * C - G * D - D * D) * mx, ex), (-A * B * C, 0)],
                                  D**3, ctx.bits))
