"""End-to-end acceptance checks, one per headline property of the package.

Each test prints exactly one machine-greppable verdict line

    ACCEPTANCE NN <name>: PASS|FAIL (detail)

to the real stdout (bypassing capture) and then asserts.  Tolerances and
runtime budgets are part of the contract; where a check is derivative-based
the step sizes below were chosen so truncation error, not roundoff, is the
binding term.
"""

import random
import sys
import time
from dataclasses import replace
from fractions import Fraction

import conftest

import hypopq as H
from hypopq import toda_sigma
from hypopq.asymptotics import limit_report, perturbation_study, precision_study
from hypopq.dpainleve import dp_residuals, iterate
from hypopq.oracle import (
    coeffs_oracle,
    ladder_residuals,
    ladder_sequences,
    structure_residual,
    xy_from_coeffs,
)
from hypopq.toda_sigma import (
    Source,
    riccati_constant,
    sigma_parameters,
    sigma_pvi_residual,
    toda_residuals,
)
from hypopq.weights import Lattice, Params, moment, weight_sequence

F = Fraction

CTX256 = H.PrecisionCtx(bits=256)
CTX512 = H.PrecisionCtx(bits=512)

ASYM = Params(F(3, 2), F(3), F(1, 3), F(1, 2))
SYM = Params(F(1), F(1), F(2), F(1, 2))

_SEQ512 = {}


def seqs512(params):
    """(coeffs, xy) to n=30 at 512 bits, memoized across criteria."""
    key = params.key()
    if key not in _SEQ512:
        cs = coeffs_oracle(params, 30, CTX512)
        _SEQ512[key] = (cs, xy_from_coeffs(cs))
    return _SEQ512[key]


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)  # visible under pytest -s
    assert ok, line


def _rel(got, want):
    d = abs(got - want)
    return d if want == 0 else d / abs(want)


def test_criterion_01_meixner_closed_forms():
    t0 = time.perf_counter()
    worst = CTX256.mp.mpf(0)
    ok = True
    for beta in (F(1, 2), F(2), F(5)):
        for c in (F(1, 4), F(1, 2), F(3, 4)):
            p = Params(F(7, 4), beta, F(7, 4), c)  # alpha = gamma
            cs = coeffs_oracle(p, 50, CTX256)
            g = CTX256.real(p.gamma)
            ok = ok and cs.a2[0] == 0
            for n in range(51):
                a2w = CTX256.real(F(n) * (n + beta - 1) * c / (1 - c) ** 2)
                bw = CTX256.real((n + (n + beta) * c) / (1 - c))
                if n:
                    worst = max(worst, _rel(cs.a2[n], a2w))
                worst = max(worst, _rel(cs.b[n], bw))
            xy = xy_from_coeffs(cs)
            for n in range(51):
                worst = max(worst, _rel(xy.x[n], g))
                worst = max(worst, _rel(xy.y[n], -n * g))
    elapsed = time.perf_counter() - t0
    ok = ok and worst < 1e-30 and elapsed < 10
    _verdict(
        1,
        "meixner-closed-forms",
        ok,
        f"max rel err {CTX256.mp.nstr(worst, 3)}, {elapsed:.1f} s (budget 10 s)",
    )


def test_criterion_02_oracle_recursion_agreement():
    t0 = time.perf_counter()
    worst = CTX512.mp.mpf(0)
    for p in (ASYM, SYM):
        _, xy = seqs512(p)
        it = iterate(p, 30, CTX512)
        assert it.failure_index is None and it.precision_suspect_at is None
        for n in range(31):
            worst = max(worst, _rel(xy.x[n], it.x[n]))
            worst = max(worst, _rel(xy.y[n], it.y[n]))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 120
    _verdict(
        2,
        "oracle-vs-recursion",
        ok,
        f"max rel diff {CTX512.mp.nstr(worst, 3)}, {elapsed:.1f} s (budget 120 s)",
    )


def test_criterion_03_identity_residual_suite():
    worst = CTX512.mp.mpf(0)
    names_seen = set()
    for p in (ASYM, SYM):
        cs, xy = seqs512(p)
        rep = dp_residuals(xy, cs)
        names_seen |= set(rep.names())
        worst = max(worst, rep.max_residual())
    # ladder identities need alpha != beta, so they run on the first set only
    cs, _ = seqs512(ASYM)
    lrep = ladder_residuals(cs)
    names_seen |= set(lrep.names())
    worst = max(worst, lrep.max_residual())
    ok = worst < 1e-20 and names_seen >= {
        "dp1",
        "dp2",
        "y_pair_sum",
        "a2_difference",
        "a2x_difference",
        "a2_x_product",
        "a2_x_sum",
        "uv_sum",
        "rs_sum",
        "uv_weighted",
        "rs_weighted",
        "b_from_ladder",
        "a2_from_ladder",
    }
    _verdict(
        3,
        "identity-residuals",
        ok,
        f"max normalized residual {CTX512.mp.nstr(worst, 3)} over {len(names_seen)} identities",
    )


def test_criterion_04_structure_relation():
    cs, xy = seqs512(ASYM)
    worst = CTX512.mp.mpf(0)
    for n in range(1, 11):
        for x in (0, 1, 2, 5):
            worst = max(worst, abs(structure_residual(cs, xy, n, x)))
    ok = worst < 1e-15
    _verdict(
        4, "structure-relation", ok, f"max residual {CTX512.mp.nstr(worst, 3)}"
    )


def test_criterion_05_toda_flow():
    h = F(2) ** -40
    worst = CTX512.mp.mpf(0)
    for n in range(11):
        rep = toda_residuals(ASYM, n, h, Source.ORACLE, CTX512)
        worst = max(worst, rep.max_residual())
    # fourth-order stencil: halving h must shrink every component ~16x
    r40 = toda_residuals(ASYM, 2, h, Source.ORACLE, CTX512)
    r41 = toda_residuals(ASYM, 2, h / 2, Source.ORACLE, CTX512)
    ratios = {}
    for name in r40.names():
        ratios[name] = dict(r40.by_name(name))[2] / dict(r41.by_name(name))[2]
    ok = worst < 1e-15 and all(14 < r < 18 for r in ratios.values())
    lo = min(ratios.values())
    hi = max(ratios.values())
    _verdict(
        5,
        "toda-flow",
        ok,
        f"max residual {CTX512.mp.nstr(worst, 3)}, halving ratios in "
        f"[{CTX512.mp.nstr(lo, 4)}, {CTX512.mp.nstr(hi, 4)}]",
    )


def test_criterion_06_sigma_pvi(monkeypatch):
    h = F(2) ** -40
    worst = CTX512.mp.mpf(0)
    for p in (ASYM, SYM):
        for n in (1, 3, 5, 10):
            worst = max(worst, sigma_pvi_residual(p, n, h, Source.ORACLE, CTX512))

    def k_plus_one(*args):  # the control: constants with K shifted by 1
        sp = sigma_parameters(*args)
        return replace(sp, K=sp.K + 1)

    monkeypatch.setattr(toda_sigma, "sigma_parameters", k_plus_one)
    tampered = sigma_pvi_residual(ASYM, 1, h, Source.ORACLE, CTX512)
    ok = worst < 1e-20 and tampered > 1e-2
    _verdict(
        6,
        "sigma-pvi",
        ok,
        f"max residual {CTX512.mp.nstr(worst, 3)}, K+1 control {CTX512.mp.nstr(tampered, 3)}",
    )


def test_criterion_07_riccati_constant():
    h = F(2) ** -40
    worst = CTX512.mp.mpf(0)
    for p in (ASYM, SYM, Params(F(3, 2), F(3), F(1, 3), F(1, 2), Lattice.SHIFTED)):
        got = riccati_constant(p, h, CTX512)
        worst = max(worst, abs(got + CTX512.real(p.gamma)))
    ok = worst < 1e-15
    _verdict(
        7, "riccati-constant", ok, f"max |constant + gamma| {CTX512.mp.nstr(worst, 3)}"
    )


def test_criterion_08_precision_phenomenon():
    t0 = time.perf_counter()
    r10, r20, r50 = precision_study(ASYM, [10, 20, 50], 100)
    elapsed = time.perf_counter() - t0
    d10, d20, d50 = (r.divergence_index for r in (r10, r20, r50))
    ok = (
        d10 is not None
        and 30 <= d10 <= 60
        and d20 is not None
        and 60 <= d20 <= 120
        and d50 is None
        and d10 < d20
        and elapsed < 300
    )
    _verdict(
        8,
        "precision-phenomenon",
        ok,
        f"divergence at n={d10}, {d20}, {d50} for 10/20/50 digits, "
        f"{elapsed:.1f} s (budget 300 s)",
    )


def test_criterion_09_limit_gaps():
    rep = limit_report(ASYM, 200, CTX512)
    shifted = limit_report(
        Params(F(3, 2), F(3), F(1, 3), F(1, 2), Lattice.SHIFTED), 200, CTX512
    )
    ok = (
        rep.bits == 512
        and rep.x_limit_gap < 1e-2
        and rep.y_limit_gap < 1e-1
        and shifted.x_limit_gap < 1e-2
    )
    _verdict(
        9,
        "limit-gaps",
        ok,
        f"|x_200 - 1/3| = {CTX512.mp.nstr(rep.x_limit_gap, 3)}, "
        f"|y_200 + 200/3 - 28/9| = {CTX512.mp.nstr(rep.y_limit_gap, 3)}, "
        f"shifted |x_200 - 1| = {CTX512.mp.nstr(shifted.x_limit_gap, 3)}",
    )


def test_criterion_10_seed_sensitivity():
    reports = perturbation_study(
        ASYM, [0, F(1, 10**6), -F(1, 10**6)], 100, CTX256
    )
    zero, plus, minus = (r.divergence_index for r in reports)
    ok = (
        zero is None
        and plus is not None
        and plus < 100
        and minus is not None
        and minus < 100
    )
    _verdict(
        10,
        "seed-sensitivity",
        ok,
        f"divergence at n={plus} (+1e-6), n={minus} (-1e-6), none for delta=0",
    )


def test_criterion_11_swap_symmetry():
    rng = random.Random(11)

    def draw():
        def positive():
            den = rng.randint(2, 8)
            return F(rng.randint(1, 4 * den), den) + F(1, 4)

        return Params(positive(), positive(), positive(), F(rng.randint(1, 13), 16))

    tol = CTX256.mp.ldexp(1, -(256 - 50))
    worst = CTX256.mp.mpf(0)
    ok = True
    for _ in range(5):
        p = draw()
        q = p.swapped()
        for n in range(5):
            worst = max(worst, _rel(moment(p, n, CTX256), moment(q, n, CTX256)))
        wp = weight_sequence(p, 8, CTX256)
        wq = weight_sequence(q, 8, CTX256)
        worst = max(worst, *[_rel(a, b) for a, b in zip(wp, wq)])
        cp = coeffs_oracle(p, 10, CTX256)
        cq = coeffs_oracle(q, 10, CTX256)
        worst = max(worst, *[_rel(a, b) for a, b in zip(cp.a2 + cp.b, cq.a2 + cq.b)])
        xp = xy_from_coeffs(cp)
        xq = xy_from_coeffs(cq)
        worst = max(worst, *[_rel(a, b) for a, b in zip(xp.x + xp.y, xq.x + xq.y)])
        ip = iterate(p, 10, CTX256)
        iq = iterate(q, 10, CTX256)
        ok = ok and ip.failure_index is None and iq.failure_index is None
        worst = max(worst, *[_rel(a, b) for a, b in zip(ip.x + ip.y, iq.x + iq.y)])
        if p.alpha != p.beta:
            # the ladder pair swaps roles: u <-> v and r <-> s
            lp = ladder_sequences(cp)
            lq = ladder_sequences(cq)
            worst = max(worst, *[_rel(a, b) for a, b in zip(lp.u + lp.r, lq.v + lq.s)])
            worst = max(worst, *[_rel(a, b) for a, b in zip(lp.v + lp.s, lq.u + lq.r)])
    ok = ok and worst < tol
    _verdict(
        11,
        "swap-symmetry",
        ok,
        f"max drift {CTX256.mp.nstr(worst, 3)} over 5 random sets (tol {CTX256.mp.nstr(tol, 3)})",
    )
