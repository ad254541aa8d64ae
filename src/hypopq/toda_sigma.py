"""Deformation in c: Toda-type flow, the sigma-function ODE, and the seed.

Moving c moves the whole measure, so derivatives with respect to c connect
neighboring recurrence coefficients (a Toda-type lattice flow), the partial
sums S_n satisfy a second-order second-degree ODE in c (the sigma form),
and the n=0 seed x_0(c) satisfies a first-order Riccati relation whose
combination collapses to the constant -gamma.

All d/dc derivatives are realized with fourth-order central stencils, and a
call looks each node up once.  A bounded ``lru_cache`` keyed on (node
parameters, precision context, source) records the node's longest run and
least refused order.  A node's first lookup to order N runs to N, or to 4 for
0 < N < 4; one past its longest run, as in a sweep, runs to max(4, the least
power of two >= N), or to N from an order refused there.  Every run is a
prefix of every longer one, order 0 included, so the longest run serves all.
Seed sums are memoized in ``weights``; ``clear_cache()`` empties both memos.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, lru_cache

from .dpainleve import iterate
from .errors import InvalidParam, PrecisionExhausted, SingularStep
from .numerics import _exact_fraction, central_derivative
from .oracle import coeffs_from_xy, coeffs_oracle, xy_from_coeffs
from .reporting import ResidualReport, normalized_residual
from .weights import Lattice, Params, _seed_sums, initial_xy


class Source(enum.Enum):
    """Which pipeline produces the sequences under differentiation."""

    ORACLE = "oracle"
    ITERATE = "iterate"


def _node_params(params, c_eval):
    """Params with c replaced by the exact value of the stencil node."""
    ce = _exact_fraction(c_eval)
    if ce == params.c:
        return params
    return Params(params.alpha, params.beta, params.gamma, ce, params.lattice)


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


def _sequences_at(params, c_eval, N, source, ctx):
    """(CoeffSeq, XYSeq) to order at least N at weight parameter c = c_eval."""
    node = _node_params(params, c_eval)
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
    """
    if n < 0:
        raise InvalidParam("n must be >= 0")
    mp = ctx.mp
    h = ctx.real(h)
    c = ctx.real(params.c)
    a, bta, g, _ = params.as_reals(ctx)

    @cache  # the four derivatives and the midpoint share one fetch per node
    def fetch(ce):
        return _sequences_at(params, ce, n + 1, source, ctx)

    def d(pick):
        return central_derivative(lambda ce: pick(*fetch(ce)), c, h, 1, ctx)

    da2 = d(lambda cs, xy: cs.a2[n])
    db = d(lambda cs, xy: cs.b[n])
    dx = d(lambda cs, xy: xy.x[n])
    dy = d(lambda cs, xy: xy.y[n])
    cs, xy = fetch(c)

    identities = [
        ("toda_b", [c * db], [cs.a2[n + 1], -cs.a2[n]]),
        ("x_deriv", [dx], [db, -(2 * n + a + bta - g) / (1 - c) ** 2]),
        ("y_deriv", [dy], [-(1 + c) / c**2 * cs.a2[n], (1 - c) / c * da2]),
        ("x_flow", [(1 - c) * dx], [xy.y[n + 1], -xy.y[n], xy.x[n]]),
    ]
    if n >= 1:
        identities.insert(0, ("toda_a2", [c * da2], [cs.a2[n] * (cs.b[n] - cs.b[n - 1])]))
        identities.append(
            ("y_flow", [(1 - c) * dy], [(1 - c) ** 2 / c**2 * cs.a2[n] * (xy.x[n] - xy.x[n - 1])]))
    rep = ResidualReport(ctx=ctx)
    for name, lhs, rhs in identities:
        rep.add(name, n, normalized_residual(mp, lhs, rhs))
    return rep


@dataclass(frozen=True)
class SigmaParams:
    """Constants entering sigma_n(c) = (c-1) S_n + K c + L and its ODE."""

    K: object
    L: object
    d1: object
    d2: object
    d3: object
    d4: object


def sigma_parameters(params, n: int, ctx) -> SigmaParams:
    if n < 0:
        raise InvalidParam("n must be >= 0")
    a, bta, g, _ = params.as_reals(ctx)
    K = a * bta - (a + bta + n) ** 2 / 4
    L = ((a + bta + g + 1) * n + a * a + bta * bta - (a + bta) * (g + 1) + 2 * g) / 4
    return SigmaParams(
        K=K,
        L=L,
        d1=(n + a - bta) / 2,
        d2=(-n + a - bta) / 2,
        d3=(n + a + bta - 2) / 2,
        d4=(n + a + bta - 2 * g) / 2,
    )


def _sigma(params, n, ce, source, ctx, sp):
    """sigma_n at the BigReal node ``ce``, with the constants ``sp`` of (params, n)."""
    Sn = _sequences_at(params, ce, n - 1, source, ctx)[1].S[n] if n else ctx.mp.mpf(0)
    return (ce - 1) * Sn + sp.K * ce + sp.L


def sigma_value(params, n: int, c_eval, source: Source, ctx):
    """sigma_n evaluated with the weight parameter moved to c_eval in (0,1).

    The affine constants K, L are fixed by ``params`` and n (not by c_eval),
    so differentiating this function in c_eval probes only S_n.
    """
    if params.lattice is not Lattice.STANDARD:
        raise InvalidParam("sigma function is defined on the standard lattice")
    sp = sigma_parameters(params, n, ctx)
    ce = ctx.real(c_eval)
    if not (0 < ce < 1):
        raise InvalidParam("c_eval must lie in (0, 1)")
    return _sigma(params, n, ce, source, ctx, sp)


def sigma_pvi_residual(params, n: int, h, source: Source, ctx):
    """Defect of the second-degree ODE for sigma_n at c = params.c.

    With s = sigma_n, s' and s'' from stencils, the three additive terms

        t1 = s' (c(c-1) s'')^2
        t2 = (s'(2s - (2c-1)s') + d1 d2 d3 d4)^2
        t3 = prod_i (s' + d_i^2)

    must satisfy t1 + t2 = t3; the returned residual is
    |t1 + t2 - t3| / max(|t1|, |t2|, |t3|).  The constants come from
    :func:`sigma_parameters`, computed once per call.
    """
    if n < 1:
        raise InvalidParam("n must be >= 1")
    if params.lattice is not Lattice.STANDARD:
        raise InvalidParam("sigma function is defined on the standard lattice")
    h = ctx.real(h)
    c0 = ctx.real(params.c)
    sp = sigma_parameters(params, n, ctx)

    @cache  # s0, s' and s'' share f(c0) and the stencil nodes
    def f(ce):
        return _sigma(params, n, ce, source, ctx, sp)

    s0 = f(c0)
    s1 = central_derivative(f, c0, h, 1, ctx)
    s2 = central_derivative(f, c0, h, 2, ctx)
    t1 = s1 * (c0 * (c0 - 1) * s2) ** 2
    t2 = (s1 * (2 * s0 - (2 * c0 - 1) * s1) + sp.d1 * sp.d2 * sp.d3 * sp.d4) ** 2
    t3 = (s1 + sp.d1**2) * (s1 + sp.d2**2) * (s1 + sp.d3**2) * (s1 + sp.d4**2)
    return normalized_residual(ctx.mp, [t1, t2], [t3])


def riccati_constant(params, h, ctx):
    """The Riccati combination of the seed x_0(c), expected to be -gamma:

        c(1-c) x_0' + (1-c) x_0^2 + ((alpha+beta)c - gamma - 1) x_0
            - alpha*beta*c

    The same combination, with the *original* parameters, is constant on
    both lattices (the shifted seed's extra terms cancel identically).
    """
    h = ctx.real(h)
    c0 = ctx.real(params.c)
    a, bta, g, _ = params.as_reals(ctx)

    def x0_at(ce):
        return initial_xy(_node_params(params, ce), ctx)[0]

    x0p = central_derivative(x0_at, c0, h, 1, ctx)
    x0 = x0_at(c0)
    return c0 * (1 - c0) * x0p + (1 - c0) * x0 * x0 + ((a + bta) * c0 - g - 1) * x0 - a * bta * c0

