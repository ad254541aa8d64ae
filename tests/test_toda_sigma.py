"""Flow identities in the weight parameter c, the sigma-function ODE, and
the n=0 closure constant.

Derivatives are stencil-based, so every assertion here balances O(h^4)
truncation against roundoff amplified by 1/h or 1/h^2; the tolerances
below leave two orders of headroom over measured residuals.
"""

import threading
from dataclasses import replace
from fractions import Fraction

import pytest

import hypopq.toda_sigma as ts
from hypopq.errors import DomainExceeded, InvalidParam, PrecisionExhausted, SingularStep
from hypopq.dpainleve import iterate
from hypopq.oracle import coeffs_oracle, xy_from_coeffs
from hypopq.toda_sigma import (
    Source,
    _exact_fraction,
    _node_record,
    _node_sequences,
    _sequences_at,
    clear_cache,
    riccati_constant,
    sigma_parameters,
    sigma_pvi_residual,
    sigma_value,
    toda_residuals,
)
from hypopq.weights import Lattice, Params, _seed_sums, initial_xy

from conftest import asym_params, meixner_params, sym_params

F = Fraction


# ------------------------------------------------------------ source / nodes


def test_exact_fraction(ctx256):
    mp = ctx256.mp
    assert _exact_fraction(mp.mpf(0)) == 0
    assert _exact_fraction(mp.ldexp(5, -4)) == F(5, 16)
    assert _exact_fraction(-mp.ldexp(3, -2)) == F(-3, 4)
    assert _exact_fraction(mp.mpf(7)) == 7
    with pytest.raises(InvalidParam):
        _exact_fraction(mp.inf)


def test_node_params():
    # a stencil node's params: only c changes, and the centre node is p itself
    p = asym_params()
    assert p._with_c(F(1, 2)) is p  # same c: no copy
    q = p._with_c(F(3, 8))
    want = Params(p.alpha, p.beta, p.gamma, F(3, 8), p.lattice)
    assert q == want and hash(q) == hash(want) and q.key() == want.key()


# ------------------------------------------------------------ toda residuals


def test_toda_entry_names(ctx128):
    p = asym_params()
    h = ctx128.mp.ldexp(1, -16)
    rep0 = toda_residuals(p, 0, h, Source.ORACLE, ctx128)
    assert set(rep0.names()) == {"toda_b", "x_deriv", "y_deriv", "x_flow"}
    rep1 = toda_residuals(p, 1, h, Source.ORACLE, ctx128)
    assert set(rep1.names()) == {
        "toda_a2",
        "toda_b",
        "x_deriv",
        "y_deriv",
        "x_flow",
        "y_flow",
    }


def test_toda_residuals_small(ctx256):
    p = asym_params()
    h = ctx256.mp.ldexp(1, -30)
    rep = toda_residuals(p, 2, h, Source.ORACLE, ctx256)
    assert rep.max_residual() < 1e-30


def test_toda_residuals_shifted(ctx256):
    p = asym_params(Lattice.SHIFTED)
    h = ctx256.mp.ldexp(1, -30)
    rep = toda_residuals(p, 2, h, Source.ORACLE, ctx256)
    assert rep.max_residual() < 1e-30


def test_toda_sources_agree(ctx128):
    p = asym_params()
    h = ctx128.mp.ldexp(1, -16)
    r_o = toda_residuals(p, 1, h, Source.ORACLE, ctx128)
    r_i = toda_residuals(p, 1, h, Source.ITERATE, ctx128)
    assert r_o.max_residual() < 1e-12
    assert r_i.max_residual() < 1e-12


def test_toda_guards(ctx128):
    p = asym_params()
    with pytest.raises(InvalidParam):
        toda_residuals(p, -1, ctx128.mp.ldexp(1, -16), Source.ORACLE, ctx128)
    with pytest.raises(DomainExceeded):
        # stencil c +- 2h leaves (0, 1)
        toda_residuals(p, 0, F(1, 3), Source.ORACLE, ctx128)
    with pytest.raises(InvalidParam, match="unknown source"):
        toda_residuals(p, 1, ctx128.mp.ldexp(1, -16), "oracle", ctx128)


def _ratio(lhs, rhs):
    """|sum(lhs) - sum(rhs)| / max |term| of exact Fraction terms."""
    top = max(map(abs, lhs + rhs))
    return abs(sum(lhs) - sum(rhs)) / top if top else F(0)


# c = 2/5 and gamma = 1/3: neither the stencil nodes nor the constants are dyadic
_EXACT_SET = Params(F(3, 2), 3, F(1, 3), F(2, 5))


def _stencil(values, h):
    """The order-1 stencil of the exact node values ``values[j]``, in Fractions."""
    return (-values[2] + 8 * values[1] - 8 * values[-1] + values[-2]) / (12 * h)


def test_toda_residuals_round_once_on_exact_values(ctx128):
    # each derivative is the exact stencil of the node values, rounded once,
    # and each residual is the exact ratio of its identity as written in
    # toda_residuals' docstring, rounded once
    p, ctx, n, h = _EXACT_SET, ctx128, 2, F(1, 2**16)
    a, b, g, c = p.alpha, p.beta, p.gamma, p.c
    clear_cache()
    got = {e.name: e.value for e in toda_residuals(p, n, h, Source.ORACLE, ctx).entries}

    def at(j):  # the node's sequences, served by the node cache the call filled
        return _sequences_at(p, c + j * h, n + 1, Source.ORACLE, ctx)

    def deriv(pick):
        values = {j: _exact_fraction(pick(*at(j))) for j in (-2, -1, 1, 2)}
        return _exact_fraction(ctx.real(_stencil(values, h)))

    da2 = deriv(lambda cs, xy: cs.a2[n])
    db = deriv(lambda cs, xy: cs.b[n])
    dx = deriv(lambda cs, xy: xy.x[n])
    dy = deriv(lambda cs, xy: xy.y[n])
    cs, xy = at(0)
    A2, B, X, Y = ([_exact_fraction(v) for v in seq] for seq in (cs.a2, cs.b, xy.x, xy.y))
    want = {
        "toda_a2": ([c * da2], [A2[n] * (B[n] - B[n - 1])]),
        "toda_b": ([c * db], [A2[n + 1], -A2[n]]),
        "x_deriv": ([dx], [db, -(2 * n + a + b - g) / (1 - c) ** 2]),
        "y_deriv": ([dy], [-(1 + c) / c**2 * A2[n], (1 - c) / c * da2]),
        "x_flow": ([(1 - c) * dx], [Y[n + 1], -Y[n], X[n]]),
        "y_flow": ([(1 - c) * dy], [(1 - c) ** 2 / c**2 * A2[n] * (X[n] - X[n - 1])]),
    }
    assert set(got) == set(want)
    for name, (lhs, rhs) in want.items():
        assert got[name]._mpf_ == ctx.real(_ratio(lhs, rhs))._mpf_, name
    clear_cache()


def test_riccati_constant_rounds_once_on_exact_values(ctx128):
    p, ctx, h = _EXACT_SET, ctx128, F(1, 2**16)
    a, b, g, c = p.alpha, p.beta, p.gamma, p.c
    x0 = {j: _exact_fraction(initial_xy(p._with_c(c + j * h), ctx)[0])
          for j in (-2, -1, 0, 1, 2)}
    dx0 = _exact_fraction(ctx.real(_stencil(x0, h)))
    want = c * (1 - c) * dx0 + (1 - c) * x0[0] ** 2 + ((a + b) * c - g - 1) * x0[0] - a * b * c
    assert riccati_constant(p, h, ctx)._mpf_ == ctx.real(want)._mpf_


# ------------------------------------------------------------------ sigma


def test_sigma_parameters_exact(ctx256):
    # hand computation for (3/2, 3, 1/3), n = 3
    sp = sigma_parameters(asym_params(), 3, ctx256)
    want = {
        "K": F(-153, 16),
        "L": F(281, 48),
        "d1": F(3, 4),
        "d2": F(-9, 4),
        "d3": F(11, 4),
        "d4": F(41, 12),
    }
    for name, frac in want.items():
        assert getattr(sp, name) == frac, name  # exact rationals
    with pytest.raises(InvalidParam):
        sigma_parameters(asym_params(), -1, ctx256)


def test_sigma_value_n0_closed_form(ctx256):
    p = asym_params()
    sp = sigma_parameters(p, 0, ctx256)
    c = ctx256.real(F(1, 2))
    got = sigma_value(p, 0, F(1, 2), Source.ORACLE, ctx256)
    assert abs(got - (sp.K * c + sp.L)) < 1e-70


def test_sigma_value_uses_partial_sum(ctx256):
    p = asym_params()
    n = 3
    xy = xy_from_coeffs(coeffs_oracle(p, n, ctx256))
    sp = sigma_parameters(p, n, ctx256)
    c = ctx256.real(F(1, 2))
    want = (c - 1) * xy.S[n] + sp.K * c + sp.L
    got = sigma_value(p, n, F(1, 2), Source.ORACLE, ctx256)
    assert abs(got - want) < 1e-65


def test_sigma_guards(ctx256):
    p = asym_params()
    with pytest.raises(InvalidParam):
        sigma_value(p, 1, F(3, 2), Source.ORACLE, ctx256)
    with pytest.raises(InvalidParam):
        sigma_value(p, -1, F(1, 2), Source.ORACLE, ctx256)
    with pytest.raises(InvalidParam):
        sigma_value(asym_params(Lattice.SHIFTED), 1, F(1, 2), Source.ORACLE, ctx256)
    with pytest.raises(InvalidParam):
        sigma_pvi_residual(p, 0, ctx256.mp.ldexp(1, -20), Source.ORACLE, ctx256)


def test_sigma_pvi_residual_small(ctx256):
    p = asym_params()
    h = ctx256.mp.ldexp(1, -30)
    for n in (1, 4):
        r = sigma_pvi_residual(p, n, h, Source.ORACLE, ctx256)
        assert r < 1e-25, n


def test_sigma_pvi_sensitive_to_constants(ctx256, monkeypatch):
    # shifting K by 1 must break the ODE loudly: the residual is a real check
    p = asym_params()
    h = ctx256.mp.ldexp(1, -30)
    calls = []

    def k_plus_one(*args):
        calls.append(args[1])
        sp = sigma_parameters(*args)
        return replace(sp, K=sp.K + 1)

    monkeypatch.setattr(ts, "sigma_parameters", k_plus_one)
    r = sigma_pvi_residual(p, 2, h, Source.ORACLE, ctx256)
    assert r > 1e-2
    assert calls == [2]  # the constants are computed once per call, for its n


# ---------------------------------------------------------------- riccati


def test_riccati_constant_is_minus_gamma(ctx256):
    h = ctx256.mp.ldexp(1, -30)
    for p in (asym_params(), sym_params(), meixner_params(), asym_params(Lattice.SHIFTED)):
        got = riccati_constant(p, h, ctx256)
        assert abs(got + ctx256.real(p.gamma)) < 1e-25, p


# ------------------------------------------------------------------- cache


def test_node_cache_is_transparent(ctx128):
    p = asym_params()
    h = ctx128.mp.ldexp(1, -16)
    clear_cache()
    cold = toda_residuals(p, 1, h, Source.ORACLE, ctx128)
    warm = toda_residuals(p, 1, h, Source.ORACLE, ctx128)  # served from cache
    clear_cache()
    again = toda_residuals(p, 1, h, Source.ORACLE, ctx128)
    for a, b in ((cold, warm), (cold, again)):
        assert [e.value._mpf_ for e in a.entries] == [
            e.value._mpf_ for e in b.entries
        ]


def test_node_cache_keys_whole_context(ctx128, ctx256):
    # the same node and N at another bit count must not be served the data
    # computed at 128 bits by the per-node record, the one node memo
    p = asym_params()
    clear_cache()
    for source in Source:

        def lookup(ctx):
            return _sequences_at(p, ctx.real(p.c), 3, source, ctx)

        cs128, xy128 = lookup(ctx128)
        before = _node_record.cache_info()
        cs256, xy256 = lookup(ctx256)
        after = _node_record.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 1)
        assert lookup(ctx128)[0] is cs128  # a hit
        for seq, bits in ((cs128.b, 128), (xy128.x, 128), (cs256.b, 256), (xy256.x, 256)):
            assert all(v.context.prec == bits for v in seq)
        assert max(v._mpf_[3] for v in cs256.b) > 128  # bits a 128-bit run lacks
    clear_cache()


def test_seed_sums_once_per_node_and_precision(ctx512, monkeypatch):
    # criterion 05's calls: 7 distinct nodes (c, c +- h/2, c +- h, c +- 2h),
    # each summed at 512 and 1024 bits, however often a node regrows; the
    # oracle itself runs once per (node, horizon): 5 times for one cold call
    # (4 stencil nodes and the midpoint), 17 times for the whole sweep (the
    # 5 nodes at horizons 4, 8 and 16, then the 2 new nodes at h/2)
    calls = []

    def counted(*args):
        calls.append(args)
        return coeffs_oracle(*args)

    monkeypatch.setattr("hypopq.toda_sigma.coeffs_oracle", counted)
    p = asym_params()
    h = F(2) ** -40
    clear_cache()
    for n in range(11):
        toda_residuals(p, n, h, Source.ORACLE, ctx512)
        if n == 0:
            assert len(calls) == 5
    toda_residuals(p, 2, h / 2, Source.ORACLE, ctx512)
    assert len(calls) == 17
    assert _seed_sums.cache_info().misses == 14
    riccati_constant(p, h, ctx512)  # initial_xy at the same nodes
    assert _seed_sums.cache_info().misses == 14
    clear_cache()
    assert _seed_sums.cache_info().currsize == 0
    assert _node_record.cache_info().currsize == 0


def test_one_lookup_per_node_per_call(ctx256, monkeypatch):
    # a Toda call differentiates a2, b, x and y from one fetch per stencil
    # node plus the midpoint; a sigma-PVI call shares f(c0) and the nodes
    # between s, s' and s''
    looked_up, lookup = [], ts._sequences_at

    def counted(*args):
        looked_up.append(args)
        return lookup(*args)

    monkeypatch.setattr(ts, "_sequences_at", counted)
    p = asym_params()
    h = ctx256.mp.ldexp(1, -30)
    for n in (1, 3):
        looked_up.clear()
        toda_residuals(p, n, h, Source.ORACLE, ctx256)
        assert len(looked_up) == 5, n
    looked_up.clear()
    sigma_pvi_residual(p, 2, h, Source.ORACLE, ctx256)
    assert len(looked_up) == 5


def test_lone_lookup_runs_exact_order(ctx256, monkeypatch):
    # a node's first lookup runs to exactly N from the floor up, so a lone
    # call costs what exact-N runs cost; looked up again past N, the node
    # runs to its horizon; order 0 is a prefix of any longer run
    orders = []

    def counted(node, N, ctx):
        orders.append(N)
        return coeffs_oracle(node, N, ctx)

    monkeypatch.setattr(ts, "coeffs_oracle", counted)
    p = asym_params()
    h = F(2) ** -30
    clear_cache()
    toda_residuals(p, 8, h, Source.ORACLE, ctx256)
    assert orders == [9] * 5
    toda_residuals(p, 9, h, Source.ORACLE, ctx256)
    assert orders == [9] * 5 + [16] * 5
    sigma_pvi_residual(p, 1, h, Source.ORACLE, ctx256)  # served by the horizon runs
    assert orders == [9] * 5 + [16] * 5
    clear_cache()
    sigma_pvi_residual(p, 1, h, Source.ORACLE, ctx256)  # cold: order 0
    assert orders[10:] == [0] * 5
    clear_cache()
    toda_residuals(p, 1, h, Source.ORACLE, ctx256)  # below the floor: the floor
    assert orders[15:] == [4] * 5
    # the recursion likewise
    steps = []

    def stepped(node, N, ctx, strict):
        steps.append(N)
        return iterate(node, N, ctx, strict=strict)

    monkeypatch.setattr(ts, "iterate", stepped)
    clear_cache()
    sigma_pvi_residual(p, 1, h, Source.ITERATE, ctx256)
    toda_residuals(p, 0, h, Source.ITERATE, ctx256)
    sigma_pvi_residual(p, 1, h, Source.ITERATE, ctx256)
    assert steps == [0] * 5 + [4] * 5
    clear_cache()


@pytest.mark.parametrize(
    "source, name, producer, refusal",
    [
        (Source.ORACLE, "coeffs_oracle", coeffs_oracle, PrecisionExhausted),
        (Source.ITERATE, "iterate", iterate, SingularStep),
    ],
)
def test_refused_horizon_falls_back_to_exact_order(ctx128, monkeypatch, source, name,
                                                   producer, refusal):
    # a producer that refuses every order above 7: the sweep n = 0..6 asks
    # for orders 1..7, so horizon 4 serves orders 1..4 and horizon 8 is
    # refused, once per node, in favour of exact runs at orders 5, 6 and 7
    p = asym_params()
    h = F(2) ** -16

    def exact(params, c_eval, N, source, ctx):
        return _node_sequences(params._with_c(c_eval), N, ctx, source)

    clear_cache()
    with monkeypatch.context() as m:
        m.setattr(ts, "_sequences_at", exact)
        want = [toda_residuals(p, n, h, source, ctx128).entries for n in range(7)]

    orders = []

    def capped(node, N, ctx, **kwargs):
        orders.append(N)
        if N > 7:
            raise refusal(f"order {N} refused")
        return producer(node, N, ctx, **kwargs)

    monkeypatch.setattr(ts, name, capped)
    clear_cache()
    got = [toda_residuals(p, n, h, source, ctx128).entries for n in range(7)]
    for w, g in zip(want, got):
        assert [(e.name, e.n, e.value._mpf_) for e in w] == [
            (e.name, e.n, e.value._mpf_) for e in g
        ]
    assert sorted(orders) == [4] * 5 + [5] * 5 + [6] * 5 + [7] * 5 + [8] * 5
    toda_residuals(p, 5, h, source, ctx128)  # the refusal and order 6 are memoized
    assert len(orders) == 25
    clear_cache()
    for memo in (_node_record, _seed_sums):
        assert memo.cache_info().currsize == 0


def test_cache_thread_smoke(ctx128):
    clear_cache()
    p = asym_params()
    out = [None] * 4
    errs = []

    def work(i):
        try:
            out[i] = sigma_value(p, 2, F(1, 2), Source.ORACLE, ctx128)
        except Exception as e:  # pragma: no cover - diagnostic only
            errs.append(e)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs
    assert all(v is not None and v._mpf_ == out[0]._mpf_ for v in out)
