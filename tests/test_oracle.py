"""Moment-quotient coefficients, ladder sequences, orthonormal evaluation,
and the first-order difference relation.

The load-bearing checks run against the exact rational Meixner case
(alpha = gamma, integer beta): every moment, Hankel determinant, and
recurrence coefficient is a known Fraction, computed in-test with no
package arithmetic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int

import hypopq as H
from hypopq.errors import (
    InvalidCoeffs,
    InvalidParam,
    PoleHit,
    PrecisionExhausted,
)
from hypopq.oracle import (
    CoeffSeq,
    _chebyshev_quotients,
    coeffs_from_xy,
    coeffs_oracle,
    eval_orthonormal,
    ladder_residuals,
    ladder_sequences,
    structure_residual,
    xy_from_coeffs,
)
from hypopq.weights import (
    Lattice,
    Params,
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
    flat = [from_int(1)] * 6
    with pytest.raises(ZeroDivisionError):
        _chebyshev_quotients(flat, 2, 256, 272)


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


def test_coeffs_prefix_stability(ctx256):
    p = asym_params()
    small = coeffs_oracle(p, 8, ctx256)
    big = coeffs_oracle(p, 16, ctx256)
    for n in range(9):
        assert small.a2[n]._mpf_ == big.a2[n]._mpf_
        assert small.b[n]._mpf_ == big.b[n]._mpf_


def test_coeffs_swap_bit_identity(ctx256):
    p = asym_params()
    s1 = coeffs_oracle(p, 12, ctx256)
    s2 = coeffs_oracle(p.swapped(), 12, ctx256)
    assert [v._mpf_ for v in s1.a2] == [v._mpf_ for v in s2.a2]
    assert [v._mpf_ for v in s1.b] == [v._mpf_ for v in s2.b]


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
    ladder = ladder_sequences(coeffs)
    report = ladder_residuals(ladder, coeffs)
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


# --------------------------------------------------------- orthonormal eval


def test_orthonormality_by_lattice_sum(ctx256):
    # sum_k w_k p_n(k) p_m(k) = delta_{nm}; tail beyond k=400 is ~2^-400
    p = asym_params()
    coeffs = coeffs_oracle(p, 3, ctx256)
    m0 = moment(p, 0, ctx256)
    K = 400
    w = weight_sequence(p, K, ctx256)
    gram = [[ctx256.mp.mpf(0)] * 4 for _ in range(4)]
    for k in range(K + 1):
        vals = eval_orthonormal(coeffs, m0, k, 3)
        for i in range(4):
            for j in range(i + 1):
                gram[i][j] += w[k] * vals[i] * vals[j]
    for i in range(4):
        assert abs(gram[i][i] - 1) < 1e-60, i
        for j in range(i):
            assert abs(gram[i][j]) < 1e-60, (i, j)


def test_eval_orthonormal_guards(ctx256):
    p = asym_params()
    coeffs = coeffs_oracle(p, 3, ctx256)
    m0 = moment(p, 0, ctx256)
    assert len(eval_orthonormal(coeffs, m0, 0, 0)) == 1
    with pytest.raises(InvalidParam):
        eval_orthonormal(coeffs, m0, 0, -1)
    with pytest.raises(InvalidCoeffs):
        eval_orthonormal(coeffs, m0, 0, 4)  # only have order 3
    with pytest.raises(InvalidCoeffs):
        eval_orthonormal(coeffs, ctx256.mp.mpf(0), 0, 2)
    bad = CoeffSeq(p, [ctx256.mp.mpf(v) for v in (0, -1, 2, 3)],
                   list(coeffs.b), ctx256)
    with pytest.raises(InvalidCoeffs):
        eval_orthonormal(bad, m0, 0, 2)


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


@pytest.mark.parametrize("combine", ["dp_residuals", "ladder_residuals", "structure_residual"])
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
        "ladder_residuals": lambda: ladder_residuals(ladder_sequences(coeffs), other),
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
