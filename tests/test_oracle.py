"""Moment-quotient coefficients, ladder sequences, orthogonality on the
lattice, and the first-order difference relation.

The load-bearing checks run against the exact rational Meixner case
(alpha = gamma, integer beta): every moment, Hankel determinant, and
recurrence coefficient is a known Fraction, computed in-test with no
package arithmetic.
"""

import json
import math
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    fzero,
    from_man_exp,
    from_rational,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_mul_int,
    mpf_pos,
    mpf_sub,
    round_nearest,
    to_float,
)

import hypopq as H
import hypopq.oracle
import hypopq.weights
from hypopq.errors import (
    InvalidParam,
    PoleHit,
    PrecisionExhausted,
)
from hypopq.oracle import (
    CoeffSeq,
    _chebyshev_quotients,
    coeffs_from_xy,
    coeffs_oracle,
    ladder_residuals,
    ladder_sequences,
    structure_residual,
    xy_from_coeffs,
)
from hypopq.cli import run
from hypopq.numerics import GUARD_BITS, _exact_fraction, _neg
from hypopq.toda_sigma import clear_cache
from hypopq.weights import (
    Lattice,
    Params,
    _seed_sums,
    initial_xy,
    moment,
    shifted_params,
    weight_sequence,
)

from conftest import (
    asym_params,
    frac_det,
    meixner_moment_exact,
    meixner_params,
    sym_params,
)

F = Fraction


def exact_hankel(mom_fracs, n, starred):
    """Exact Fraction Hankel determinant from a list of exact moments."""
    if n == 0:
        return F(1)
    rows = []
    for i in range(n):
        row = [mom_fracs[i + j] for j in range(n - 1)]
        row.append(mom_fracs[i + n - 1 + (1 if starred else 0)])
        rows.append(row)
    return frac_det(rows)


def meixner_coeffs_closed(beta, c, n):
    """Textbook Meixner recurrence data: (a_n^2, b_n)."""
    a2 = F(n) * (n + beta - 1) * c / (1 - c) ** 2
    b = (n + (n + beta) * c) / (1 - c)
    return a2, b


# ---------------------------------------------------- Hankel determinants


def test_hankel_det_meixner_exact(ctx256):
    # the oracle's coefficients are quotients of the exact Hankel minors:
    # a2[n] = D_{n+1} D_{n-1} / D_n^2 and b[n] = D*_{n+1}/D_{n+1} - D*_n/D_n
    p = meixner_params(beta=F(2), c=F(1, 2))
    exact = [meixner_moment_exact(F(2), F(1, 2), n) for n in range(8)]
    assert exact[:5] == [4, 8, 32, 176, 1232]
    # spot values worked by hand: D_1 = 4, D_2 = 64, D*_1 = 8, D*_2 = 448
    assert exact_hankel(exact, 2, False) == 64
    assert exact_hankel(exact, 2, True) == 448
    D = [exact_hankel(exact, n, False) for n in range(5)]
    ratio = [exact_hankel(exact, n, True) / D[n] if n else F(0) for n in range(5)]
    seq = coeffs_oracle(p, 3, ctx256)
    for n in range(4):
        pairs = [(seq.b[n], ratio[n + 1] - ratio[n])]
        if n:
            pairs.append((seq.a2[n], D[n + 1] * D[n - 1] / D[n] ** 2))
        for got, want in pairs:
            want = ctx256.real(want)
            assert abs(got - want) <= abs(want) * ctx256.mp.ldexp(1, -230), n


def test_hankel_det_singular():
    # constant moments: rank-1 Hankel matrix, D_2 = 0 exactly.  The
    # Chebyshev algorithm meets the zero quotient rather than returning
    # noise; coeffs_oracle reports it as PrecisionExhausted.
    flat = [(1, 0)] * 6
    with pytest.raises(ZeroDivisionError):
        _chebyshev_quotients(flat, 2, 256)


# ------------------------------------------------ reference loops (libmp)
#
# The moment batch and the Chebyshev pass with every product and sum rounded
# by libmp at the working precision, in the order of the formulas.  The
# integer kernels, which round once per element, must be at least about as
# accurate as these loops.

_rnd = round_nearest


def _ref_moment_batch(p, count, bits, guard=GUARD_BITS):
    prec = bits + guard
    moms = [from_man_exp(*m) for m in _seed_sums(p, prec)]
    add = partial(mpf_add, prec=prec, rnd=_rnd)
    mul = partial(mpf_mul, prec=prec, rnd=_rnd)

    def raw(q):
        return from_rational(q.numerator, q.denominator, prec, _rnd)

    ab_sum, ab_prod = raw(p.alpha + p.beta), raw(p.alpha * p.beta)
    ratio, shift = raw(p.c / (1 - p.c)), raw((p.gamma - 1) / (1 - p.c))
    U, lost, n, cancels = [], 0.0, 0, p.gamma > 1 and count > 2
    while n < count - 2 or cancels:
        tail = add(mul(ab_sum, moms[n + 1]), mul(ab_prod, moms[n]))
        acc = tail
        for i in range(n):
            acc = add(acc, mpf_mul_int(U[i], math.comb(n, i), prec, _rnd))
        big = mul(shift, moms[n + 1])
        m = mpf_sub(mul(ratio, acc), big, prec, _rnd)
        if lost >= prec or not mpf_gt(m, fzero):
            lost = max(lost, prec)
            break
        cancels = mpf_gt(big, m)
        if cancels:
            _, man, exp, _ = mpf_div(big, m, 53, _rnd)
            lost += math.log2(man) + exp
        moms.append(m)
        U.append(add(m, tail))
        n += 1
    if lost > guard / 2:
        return moms[:2] + _ref_moment_batch(p, count, bits, 2 * math.ceil(lost))[2:]
    return moms[:count]


def _ref_chebyshev(moments_raw, N, bits):
    prec = bits + GUARD_BITS
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


def _quotients(moments, chebyshev, p, N, bits):
    return chebyshev(moments(p, 2 * N + 2, bits), N, bits)


def _correct_bits(got, ref, bits):
    """Worst correct bits over a2[1..N] and b[0..N] against ``ref``; an
    exact match counts as bits + 1."""
    worst = bits + 1.0
    for seq, want in ((got[0][1:], ref[0][1:]), (got[1], ref[1])):
        for g, r in zip(seq, want):
            err = mpf_abs(mpf_sub(g, r, 8 * bits, _rnd))
            if err != fzero:
                worst = min(worst, -math.log2(to_float(mpf_div(err, mpf_abs(r), 53, _rnd))))
    return worst


_KERNEL_SETS = {
    "generic": asym_params(),
    "shifted": shifted_params(asym_params(Lattice.SHIFTED)),
    "meixner": meixner_params(),
    "pearson-retry": Params(F(1, 3), F(1, 2), 20, F(1, 16)),
    "c=15/16": Params(F(3, 2), 3, F(1, 3), F(15, 16)),
    "c=1/16": Params(F(3, 2), 3, F(1, 3), F(1, 16)),
}


@pytest.mark.parametrize("bits", [128, 256, 512])
@pytest.mark.parametrize("name", list(_KERNEL_SETS))
def test_kernels_as_accurate_as_reference_loops(name, bits, monkeypatch):
    # the integer kernels round once per element where the loops round two to
    # four times, so they keep at least the loops' correct bits (within 8)
    p, N = _KERNEL_SETS[name], 20
    guards = []
    batch = hypopq.weights._moment_batch_raw

    def spy(params, count, b, guard=GUARD_BITS):
        guards.append(guard)
        return batch(params, count, b, guard)

    monkeypatch.setattr(hypopq.weights, "_moment_batch_raw", spy)
    kernel = [[from_man_exp(*v) for v in seq]
              for seq in _quotients(spy, _chebyshev_quotients, p, N, bits)]
    loop = _quotients(_ref_moment_batch, _ref_chebyshev, p, N, bits)
    ref = _quotients(_ref_moment_batch, _ref_chebyshev, p, N, 4 * bits)
    assert _correct_bits(kernel, ref, bits) >= _correct_bits(loop, ref, bits) - 8
    assert (len(guards) > 1) == (name == "pearson-retry")


# ------------------------------------------- one rounding rule (Fraction)
#
# Each moment and each Chebyshev element is the formula evaluated exactly on
# the stored pairs and rounded once, to nearest with ties to even.


def _value(v):
    """The pair ``v`` as an exact Fraction."""
    m, e = v
    return F(m) * F(2) ** e if m else F(0)


def _nearest(q, prec):
    """The Fraction ``q`` rounded to ``prec`` significant bits, to nearest
    with ties to even."""
    if not q:
        return q
    t = abs(q)
    e = t.numerator.bit_length() - t.denominator.bit_length()
    if t < F(2) ** e:
        e -= 1  # now 2^e <= t < 2^(e+1)
    r = round(t * F(2) ** (prec - 1 - e)) * F(2) ** (e + 1 - prec)  # round(): ties to even
    return r if q > 0 else -r


def _fraction_batch(p, count, prec):
    m = [_value(v) for v in _seed_sums(p, prec)]
    ab_sum, ab_prod, ratio, shift = (_value(hypopq.weights._rational_pair(q, prec)) for q in (
        p.alpha + p.beta, p.alpha * p.beta, p.c / (1 - p.c), (p.gamma - 1) / (1 - p.c)))
    U = []
    for n in range(count - 2):
        tail = ab_sum * m[n + 1] + ab_prod * m[n]
        acc = _nearest(tail + sum(math.comb(n, i) * u for i, u in enumerate(U)), prec)
        m.append(_nearest(ratio * acc - shift * m[n + 1], prec))
        U.append(_nearest(m[-1] + tail, prec))
    return m


def _fraction_chebyshev(moms, N, bits):
    prec = bits + GUARD_BITS
    top = 2 * N + 2
    prev, row = [F(0)] * top, moms[:top]
    diag = row[0]
    q = _nearest(row[1] / diag, prec)
    a2_k, b_k = F(0), q
    a2, b = [F(0)], [_nearest(q, bits)]
    for k in range(1, N + 1):
        new = [F(0)] * top
        for l in range(k, top - k):
            new[l] = _nearest(row[l + 1] - b_k * row[l] - a2_k * prev[l], prec)
        a2_k = _nearest(new[k] / diag, prec)
        q_k = _nearest(new[k + 1] / new[k], prec)
        b_k, q, diag = _nearest(q_k - q, prec), q_k, new[k]
        a2.append(_nearest(a2_k, bits))
        b.append(_nearest(b_k, bits))
        prev, row = row, new
    return a2, b


# N = 40 runs the moment recurrence over 80 moments, the pearson-retry set
# with its binomial sums realigned to a lower exponent on the way
_ROUND_ONCE_CASES = [
    *(pytest.param(name, bits, 10, id=f"{name}-{bits}")
      for name in ("generic", "shifted", "pearson-retry", "c=15/16") for bits in (24, 128)),
    *(pytest.param(name, 128, 40, id=f"{name}-128-N40") for name in ("generic", "pearson-retry")),
]


@pytest.mark.parametrize("name, bits, N", _ROUND_ONCE_CASES)
def test_kernels_round_once_on_exact_values(name, bits, N, monkeypatch):
    p = _KERNEL_SETS[name]
    guards = []
    batch = hypopq.weights._moment_batch_raw

    def spy(params, count, b, guard=GUARD_BITS):
        guards.append(guard)
        return batch(params, count, b, guard)

    monkeypatch.setattr(hypopq.weights, "_moment_batch_raw", spy)
    moments = spy(p, 2 * N + 2, bits)
    # a Pearson retry keeps the first run's seeds and the last run's recurrence
    want = (_fraction_batch(p, 2, bits + GUARD_BITS)
            + _fraction_batch(p, 2 * N + 2, bits + guards[-1])[2:])
    assert [_value(m) for m in moments] == want
    assert (len(guards) > 1) == (name == "pearson-retry")
    a2, b = _chebyshev_quotients(moments, N, bits)
    assert ([_value(v) for v in a2], [_value(v) for v in b]) == \
        _fraction_chebyshev(want, N, bits)


@pytest.mark.parametrize("bits", [24, 128])
def test_chebyshev_element_keeps_deep_cancellation(bits):
    # sigma_{1,1} = m_2 - b_0 m_1 = 2^-(prec+40) exactly, prec + 40 bits below
    # its terms: only an exact element keeps it, and a2[1] is that value
    tiny = bits + GUARD_BITS + 40
    moments = [(1, 0), (1, 0), ((1 << tiny) + 1, -tiny), (2, 0)]
    a2, b = _chebyshev_quotients(moments, 1, bits)
    assert _value(a2[1]) == F(1, 2 ** tiny)
    assert _value(b[0]) == 1


# ------------------------------------------------------------ coeffs_oracle


def test_coeffs_meixner_exact(ctx256):
    p = meixner_params(beta=F(2), c=F(1, 2))
    seq = coeffs_oracle(p, 8, ctx256)
    assert seq.a2[0] == 0
    for n in range(9):
        a2w, bw = meixner_coeffs_closed(F(2), F(1, 2), n)
        if n:
            assert abs(seq.a2[n] - ctx256.real(a2w)) < abs(ctx256.real(a2w)) * 1e-70
        assert abs(seq.b[n] - ctx256.real(bw)) < abs(ctx256.real(bw)) * 1e-70
    # hand values: b_0 = 2, a_1^2 = 4, b_1 = 5
    assert abs(seq.b[0] - 2) < 1e-70
    assert abs(seq.a2[1] - 4) < 1e-70
    assert abs(seq.b[1] - 5) < 1e-70


def test_coeffs_b0_is_moment_ratio(ctx256):
    p = asym_params()
    seq = coeffs_oracle(p, 2, ctx256)
    want = moment(p, 1, ctx256) / moment(p, 0, ctx256)
    assert abs(seq.b[0] - want) < abs(want) * 1e-70


_C_CONTRACT = (F(1, 2), F(1, 16), F(15, 16))


def test_coeffs_prefix_stability(ctx256):
    for c in _C_CONTRACT:
        p = Params(F(3, 2), 3, F(1, 3), c)
        small = coeffs_oracle(p, 8, ctx256)
        big = coeffs_oracle(p, 16, ctx256)
        for n in range(9):
            assert small.a2[n]._mpf_ == big.a2[n]._mpf_, (c, n)
            assert small.b[n]._mpf_ == big.b[n]._mpf_, (c, n)


@pytest.mark.parametrize("bits", [128, 256])
def test_every_moment_batch_is_a_prefix(bits, capsys):
    # the Pearson check retries this set with a wider guard; the retry's
    # seeds feed only its recurrence, so a two-moment batch, an order-0 run
    # and `moments --nmax 1` agree with longer ones bit for bit
    p, ctx = Params(F(1, 3), 1, 8, F(1, 16)), H.PrecisionCtx(bits)
    assert hypopq.weights._moment_batch_raw(p, 2, bits) == \
        hypopq.weights._moment_batch_raw(p, 42, bits)[:2]
    assert coeffs_oracle(p, 0, ctx).b[0]._mpf_ == coeffs_oracle(p, 20, ctx).b[0]._mpf_
    argv = ["moments", "--alpha", "1/3", "--beta", "1", "--gamma", "8", "--c", "1/16",
            "--bits", str(bits), "--nmax"]
    seeds = []
    for nmax in ("1", "12"):
        assert run([*argv, nmax]) == 0
        seeds.append(json.loads(capsys.readouterr().out)["records"][:2])
    assert seeds[0] == seeds[1]


def test_coeffs_swap_bit_identity(ctx256):
    for c in _C_CONTRACT:
        p = Params(F(3, 2), 3, F(1, 3), c)
        s1 = coeffs_oracle(p, 12, ctx256)
        s2 = coeffs_oracle(p.swapped(), 12, ctx256)
        assert [v._mpf_ for v in s1.a2] == [v._mpf_ for v in s2.a2], c
        assert [v._mpf_ for v in s1.b] == [v._mpf_ for v in s2.b], c


def _libmp_entry_calls(fn):
    """Calls of libmp functions from outside libmp while ``fn`` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_globals.get("__name__", "").startswith("mpmath.libmp"):
            caller = frame.f_back
            if not caller.f_globals.get("__name__", "").startswith("mpmath.libmp"):
                count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_oracle_libmp_calls_linear_in_N(ctx256):
    # the two O(N^2) loops run on Python integers; only O(N) work reaches libmp
    counts = {}
    for N in (10, 40):
        clear_cache()
        counts[N] = _libmp_entry_calls(lambda: coeffs_oracle(asym_params(), N, ctx256))
    assert counts[40] <= 5 * counts[10], counts


def test_coeffs_zero_hankel_names_the_run(monkeypatch):
    # flat moments (a zero Hankel ratio) only in the 2*bits run
    real = hypopq.oracle._moment_batch_raw

    def flat_at_512(params, count, bits):
        return [(1, 0)] * count if bits == 512 else real(params, count, bits)

    monkeypatch.setattr(hypopq.oracle, "_moment_batch_raw", flat_at_512)
    with pytest.raises(PrecisionExhausted, match="zero Hankel ratio at 512 bits"):
        coeffs_oracle(asym_params(), 4, H.PrecisionCtx(256))


def test_coeffs_refuses_a2_that_lost_positivity(monkeypatch):
    # both runs agree on a negative a2[1]: agreement alone does not make it
    # a recurrence coefficient, so the call is refused
    real = hypopq.oracle._chebyshev_quotients

    def negative_a2(moments, N, bits):
        a2, b = real(moments, N, bits)
        return [a2[0], _neg(a2[1]), *a2[2:]], b

    monkeypatch.setattr(hypopq.oracle, "_chebyshev_quotients", negative_a2)
    with pytest.raises(PrecisionExhausted, match=r"a2\[1\] lost positivity at 512 bits"):
        coeffs_oracle(asym_params(), 4, H.PrecisionCtx(256))


def test_coeffs_too_few_bits_raises():
    # a 24-bit significand carries ~7 decimal digits, so the 10-digit
    # cross-precision agreement requirement cannot be met
    with pytest.raises(PrecisionExhausted):
        coeffs_oracle(asym_params(), 4, H.PrecisionCtx(bits=24))


def test_coeffs_validation(ctx256):
    with pytest.raises(InvalidParam):
        coeffs_oracle(asym_params(), -1, ctx256)


def test_coeffs_shifted_lattice(ctx256):
    p = asym_params(Lattice.SHIFTED)
    shifted = coeffs_oracle(p, 6, ctx256)
    base = coeffs_oracle(shifted_params(p), 6, ctx256)
    off = ctx256.real(1 - p.gamma)
    for n in range(7):
        assert shifted.a2[n] == base.a2[n]
        assert abs(shifted.b[n] - (base.b[n] + off)) < 1e-70
    # the shift is one exact sum rounded once: b_0 = 1/3 in standard form
    # and 1 - gamma = -1/3 leave exactly 0, not the residue of rounding gamma
    meixner = Params(1, F(8, 3), F(4, 3), F(1, 8), Lattice.SHIFTED)
    assert coeffs_oracle(meixner, 2, ctx256).b[0] == 0


@settings(max_examples=12, deadline=None)
@given(
    a=st.fractions(min_value=F(1, 3), max_value=F(4)),
    b=st.fractions(min_value=F(1, 3), max_value=F(4)),
    g=st.fractions(min_value=F(1, 3), max_value=F(4)),
    c=st.fractions(min_value=F(1, 8), max_value=F(7, 8)),
)
def test_coeffs_a2_positive(a, b, g, c):
    # positivity of the weight forces a_n^2 > 0 for n >= 1 (a2[0] = 0)
    seq = coeffs_oracle(Params(a, b, g, c), 6, H.PrecisionCtx(bits=128))
    assert seq.a2[0] == 0
    assert all(v > 0 for v in seq.a2[1:])


# ------------------------------------------------------- xy transformations


def test_xy_round_trip(ctx256):
    p = asym_params()
    coeffs = coeffs_oracle(p, 12, ctx256)
    xy = xy_from_coeffs(coeffs)
    assert len(xy.S) == len(xy.x) + 1
    back = coeffs_from_xy(xy)
    for n in range(13):
        assert abs(back.a2[n] - coeffs.a2[n]) < 1e-70
        assert abs(back.b[n] - coeffs.b[n]) < 1e-70


def test_xy_seed_matches_initial(ctx256):
    p = asym_params()
    xy = xy_from_coeffs(coeffs_oracle(p, 6, ctx256))
    x0, y0 = initial_xy(p, ctx256)
    assert abs(xy.x[0] - x0) < 1e-70
    assert abs(xy.y[0] - y0) < 1e-70
    assert xy.S[0] == 0


# Each map is its exact formula on the stored values, rounded once; S_{n+1}
# is S_n + x_n rounded once.  A set with gamma = 1/3 and c = 2/5, so that no
# constant of the maps is dyadic.
_MAP_SET = (F(3, 2), F(3), F(1, 3), F(2, 5))


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("lattice", list(Lattice))
def test_affine_maps_round_once_on_exact_values(lattice, bits):
    ctx = H.PrecisionCtx(bits)
    p = Params(*_MAP_SET, lattice)
    a, b, g, c = _MAP_SET

    def rounded(q):
        return _exact_fraction(ctx.real(q))

    cs = coeffs_oracle(p, 8, ctx)
    xy = xy_from_coeffs(cs)
    back = coeffs_from_xy(xy)
    S = F(0)
    for n in range(9):
        a2n, bn = _exact_fraction(cs.a2[n]), _exact_fraction(cs.b[n])
        x = rounded(bn - (n + (n + a + b) * c - g) / (1 - c))
        y = rounded((1 - c) / c * a2n - S - n * (n + a + b - g - 1) / (1 - c))
        assert (_exact_fraction(xy.x[n]), _exact_fraction(xy.y[n])) == (x, y), n
        assert _exact_fraction(back.b[n]) == rounded(x + (n + (n + a + b) * c - g) / (1 - c)), n
        assert _exact_fraction(back.a2[n]) == rounded(
            c / (1 - c) * (y + S + n * (n + a + b - g - 1) / (1 - c))), n
        S = rounded(S + x)
        assert _exact_fraction(xy.S[n + 1]) == S, n


def _fraction_ratio(lhs, rhs):
    """|sum(lhs) - sum(rhs)| / max |term| of exact Fraction terms."""
    top = max(map(abs, lhs + rhs))
    return abs(sum(lhs) - sum(rhs)) / top if top else F(0)


@pytest.mark.parametrize("bits", [64, 128])
def test_ladder_round_once_on_exact_values(bits):
    # the sequences are their exact formulas rounded once, and each residual
    # is the exact ratio of the identity as written, rounded once
    ctx = H.PrecisionCtx(bits)
    p = Params(*_MAP_SET)
    a, b, g, c = _MAP_SET
    q, cf = (1 - c) / c, c / (1 - c)
    cs = coeffs_oracle(p, 8, ctx)
    ladder = ladder_sequences(cs)
    report = {(e.name, e.n): e.value for e in ladder_residuals(cs).entries}
    bsum = usum = F(0)
    for n in range(9):
        a2n, bn = _exact_fraction(cs.a2[n]), _exact_fraction(cs.b[n])
        base = 2 * n + 1 - q * bn + (a + b - g - 1) / c
        rbase = F(n * (n - 1), 2) - q * a2n + bsum
        want = ((base + (n + 1 - b) * q) / (a - b), -(base + (n + 1 - a) * q) / (a - b),
                (rbase + b * n) / (a - b), -(rbase + a * n) / (a - b))
        got = [_exact_fraction(seq[n]) for seq in (ladder.u, ladder.v, ladder.r, ladder.s)]
        assert got == [_exact_fraction(ctx.real(w)) for w in want], n
        u, v, r, s = got
        for name, lhs, rhs in (
            ("uv_sum", [u, v], [q]),
            ("rs_sum", [r, s], [F(-n)]),
            ("uv_weighted", [a * u, b * v], [F(2 * n + 1), -q * bn, (a + b - g - 1) / c, (n + 1) * q]),
            ("rs_weighted", [a * r, b * s], [F(n * (n - 1), 2), -q * a2n, bsum]),
            ("b_from_ladder", [bn], [(n + a - g + (n + b) * c) / (1 - c), -(a - b) * cf * u]),
            ("a2_from_ladder", [a2n],
             [n * (n + a + b - g - 1) * c / (1 - c) ** 2, -(a - b) * cf * (cf * usum + r)]),
        ):
            assert report[name, n]._mpf_ == ctx.real(_fraction_ratio(lhs, rhs))._mpf_, (name, n)
        bsum += bn
        usum += u


# ------------------------------------------------------------------- ladder


def test_ladder_guards(ctx256):
    with pytest.raises(InvalidParam):
        ladder_sequences(coeffs_oracle(sym_params(), 4, ctx256))
    p = asym_params(Lattice.SHIFTED)
    with pytest.raises(InvalidParam):
        ladder_sequences(coeffs_oracle(p, 4, ctx256))


def test_ladder_residuals_tiny(ctx256):
    p = asym_params()
    coeffs = coeffs_oracle(p, 20, ctx256)
    report = ladder_residuals(coeffs)
    assert set(report.names()) == {
        "uv_sum",
        "rs_sum",
        "uv_weighted",
        "rs_weighted",
        "b_from_ladder",
        "a2_from_ladder",
    }
    assert report.max_residual() < 1e-70


def test_ladder_sum_identities_exactly(ctx256):
    # u_n + v_n = (1-c)/c and r_n + s_n = -n hold by construction; check the
    # sequences themselves rather than the report
    p = asym_params()
    ladder = ladder_sequences(coeffs_oracle(p, 10, ctx256))
    q = (1 - ctx256.real(p.c)) / ctx256.real(p.c)
    for n in range(len(ladder.u)):
        assert abs(ladder.u[n] + ladder.v[n] - q) < 1e-70
        assert abs(ladder.r[n] + ladder.s[n] + n) < 1e-70


# ------------------------------------------------------- lattice orthogonality


def test_orthonormality_by_lattice_sum(ctx256):
    # sum_k w_k pi_n(x_k) pi_m(x_k) = delta_{nm} h_n, h_n = m_0 a2_1 ... a2_n,
    # for the monic pi_{n+1} = (x - b_n) pi_n - a2_n pi_{n-1}, on x_k = k and
    # on the shifted lattice x_k = k + 1 - gamma with the weights (and m_0)
    # of the standard form; the tail beyond k=400 is ~2^-400
    K, mp = 400, ctx256.mp
    for lattice in Lattice:
        p = asym_params(lattice)
        shifted = lattice is Lattice.SHIFTED
        std = shifted_params(p) if shifted else p
        coeffs = coeffs_oracle(p, 3, ctx256)
        w = weight_sequence(std, K, ctx256)
        h = [moment(std, 0, ctx256)]
        for n in range(1, 4):
            h.append(h[-1] * coeffs.a2[n])
        gram = [[mp.mpf(0)] * 4 for _ in range(4)]
        for k in range(K + 1):
            x = ctx256.real(k + 1 - p.gamma if shifted else k)
            vals = [mp.mpf(1), x - coeffs.b[0]]
            for n in (1, 2):
                vals.append((x - coeffs.b[n]) * vals[n] - coeffs.a2[n] * vals[n - 1])
            for i in range(4):
                for j in range(i + 1):
                    gram[i][j] += w[k] * vals[i] * vals[j]
        for i in range(4):
            assert abs(gram[i][i] / h[i] - 1) < 1e-60, (lattice, i)
            for j in range(i):
                assert abs(gram[i][j]) / mp.sqrt(h[i] * h[j]) < 1e-60, (lattice, i, j)


# ------------------------------------------------------- structure relation


def test_structure_residual_small(ctx512):
    p = asym_params()
    coeffs = coeffs_oracle(p, 3, ctx512)
    xy = xy_from_coeffs(coeffs)
    floor = ctx512.mp.ldexp(1, -(512 - 40))
    for n in (1, 2, 3):
        for x in (0, 1, F(7, 3)):
            assert abs(structure_residual(coeffs, xy, n, x)) < floor


def test_structure_residual_guards(ctx256):
    p = asym_params()
    coeffs = coeffs_oracle(p, 3, ctx256)
    xy = xy_from_coeffs(coeffs)
    with pytest.raises(InvalidParam):
        structure_residual(coeffs, xy, 0, 0)
    with pytest.raises(InvalidParam):
        structure_residual(coeffs, xy, 4, 0)
    with pytest.raises(PoleHit):
        structure_residual(coeffs, xy, 1, -p.alpha)
    shifted = coeffs_oracle(asym_params(Lattice.SHIFTED), 3, ctx256)
    with pytest.raises(InvalidParam, match="standard lattice"):
        structure_residual(shifted, xy_from_coeffs(shifted), 1, 0)


@pytest.mark.parametrize("combine", ["dp_residuals", "structure_residual"])
@pytest.mark.parametrize("differ", ["params", "bits"])
def test_combining_mismatched_sequences_raises(combine, differ, ctx128):
    p = asym_params()
    if differ == "params":
        other = coeffs_oracle(Params(p.alpha, p.beta, p.gamma, F(1, 4)), 3, ctx128)
    else:
        other = coeffs_oracle(p, 3, H.PrecisionCtx(256))
    coeffs = coeffs_oracle(p, 3, ctx128)
    calls = {
        "dp_residuals": lambda: H.dp_residuals(xy_from_coeffs(coeffs), other),
        "structure_residual": lambda: structure_residual(other, xy_from_coeffs(coeffs), 1, 0),
    }
    with pytest.raises(InvalidParam, match="sequences disagree"):
        calls[combine]()


def test_structure_residual_detects_tampering(ctx256):
    # corrupting x_n must show up: the relation is sensitive to the pair (x,y)
    p = asym_params()
    coeffs = coeffs_oracle(p, 2, ctx256)
    xy = xy_from_coeffs(coeffs)
    clean = abs(structure_residual(coeffs, xy, 1, 0))
    bad_x = list(xy.x)
    bad_x[1] += ctx256.mp.mpf("1e-8")
    from hypopq.oracle import XYSeq

    tampered = XYSeq(p, bad_x, list(xy.y), list(xy.S), ctx256)
    dirty = abs(structure_residual(coeffs, tampered, 1, 0))
    assert dirty > 1e-10 > clean
    # so must corrupted coefficients, with x_n and y_n formed from them: no
    # affine identity between (a2, b) and (x, y) sees those.  The worst over
    # n = 1..12, x in {0, 1, 2, 5} read 1.24e-75 (true), 1.5e-5 (a2[5] off by
    # 1e-6) and 1.81 (the coefficients of c = 17/32 labelled c = 1/2) when set
    N = 12
    true = coeffs_oracle(p, N, ctx256)
    a2 = list(true.a2)
    a2[5] *= 1 + ctx256.mp.mpf("1e-6")
    other = coeffs_oracle(Params(p.alpha, p.beta, p.gamma, F(17, 32)), N, ctx256)
    for coeffs, above, below in ((true, 0, 2.0 ** -(256 - 40)),
                                 (CoeffSeq(p, a2, list(true.b), ctx256), 1e-7, math.inf),
                                 (CoeffSeq(p, other.a2, other.b, ctx256), 1, math.inf)):
        xy = xy_from_coeffs(coeffs)
        worst = max(abs(structure_residual(coeffs, xy, n, x))
                    for n in range(1, N + 1) for x in (0, 1, 2, 5))
        assert above < worst < below
