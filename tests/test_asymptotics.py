"""Limit gaps, seed-perturbation divergence, and digit-level studies."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

import hypopq as H
import hypopq.asymptotics
from hypopq.asymptotics import (
    StudyReport,
    _doubled,
    _study_report,
    _targets,
    limit_report,
    perturbation_study,
    precision_study,
)
from hypopq.cli import run
from hypopq.dpainleve import iterate
from hypopq.errors import InvalidParam, PrecisionExhausted, SingularStep
from hypopq.numerics import MAX_BITS, bits_for_digits
from hypopq.weights import Lattice

from conftest import asym_params, meixner_params

F = Fraction


def test_targets(ctx256):
    tx, ty = _targets(asym_params(), ctx256)
    assert tx == ctx256.real(F(1, 3))
    assert abs(ty - ctx256.real(F(28, 9))) < 1e-70  # (1/3-3/2)(1/3-3)
    tx, ty = _targets(asym_params(Lattice.SHIFTED), ctx256)
    assert tx == 1
    assert abs(ty - 1) < 1e-70  # (1-3/2)(1-3) = 1


def test_limit_report_converges(ctx256):
    rep = limit_report(asym_params(), 60, ctx256)
    assert rep.bits == 256
    assert rep.notes == ""
    assert rep.divergence_index is None
    assert rep.x_limit_gap < 0.05
    assert rep.y_limit_gap < 1
    assert rep.digits is None


def test_limit_report_meixner_exact(ctx256):
    # closed orbit: x_n = gamma exactly, y_n + n gamma = 0 = (g-a)(g-b); on
    # the shifted lattice x_n = 1 and y_n + n = 0 = (1-a)(1-b)
    for p in (meixner_params(), H.Params(1, F(1, 2), F(5, 6), F(3, 8), Lattice.SHIFTED)):
        rep = limit_report(p, 40, ctx256)
        assert rep.x_limit_gap == 0
        assert rep.y_limit_gap == 0


def test_limit_report_escalates_precision():
    # 26 bits dies at n=34; the report must come back from a doubled run
    rep = limit_report(asym_params(), 60, H.PrecisionCtx(bits=26))
    assert rep.bits > 26
    assert "doubling" in rep.notes
    assert rep.x_limit_gap < 0.1


def test_limit_report_stops_on_structural_singular_step(monkeypatch, capsys):
    # x_0 = 1 exactly, a root of the first-kind quartic: P vanishes at n = 0
    # at every precision, so one doubling shows the failure is structural
    runs = []

    def spy(params, N, ctx, *args, **kwargs):
        runs.append(ctx.bits)
        return iterate(params, N, ctx, *args, **kwargs)

    monkeypatch.setattr(hypopq.asymptotics, "iterate", spy)
    p = H.Params(F(5, 2), F(1, 2), F(3, 2), F(1, 2))
    with pytest.raises(SingularStep, match="n=0 at both 128 and 256 bits") as exc:
        limit_report(p, 60, H.PrecisionCtx(128))
    assert exc.value.index == 0
    assert runs == [128, 256]
    argv = ["asymptotics", "--alpha", "5/2", "--beta", "1/2", "--gamma", "3/2", "--c", "1/2",
            "--bits", "128", "--nmax", "60"]
    assert run(argv) == 4
    assert "SingularStep" in capsys.readouterr().err


def test_limit_report_refuses_a_run_unhealthy_at_every_precision(monkeypatch):
    # a run that trips the monitor at every precision is doubled three
    # times, then refused: no gap is reported from an unhealthy run
    runs = []

    def tripped(params, N, ctx, *args, **kwargs):
        runs.append(ctx.bits)
        return replace(iterate(params, N, ctx, *args, **kwargs), precision_suspect_at=5)

    monkeypatch.setattr(hypopq.asymptotics, "iterate", tripped)
    with pytest.raises(PrecisionExhausted,
                       match=r"unhealthy up to 512 bits \(failure_index=None, suspect=5\); "
                             "N=20 needs more"):
        limit_report(asym_params(), 20, H.PrecisionCtx(64))
    assert runs == [64, 128, 256, 512]


def test_doubling_refuses_past_the_ceiling(monkeypatch):
    # a run above half the ceiling is not repeated: the doubled context is
    # refused before the run starts
    def reached(*args, **kwargs):
        raise AssertionError("the run was reached")

    monkeypatch.setattr(hypopq.asymptotics, "iterate", reached)
    xy = iterate(asym_params(), 2, H.PrecisionCtx(MAX_BITS // 2 + 1))
    with pytest.raises(InvalidParam, match=f"bits must be at most {MAX_BITS}, not {MAX_BITS + 2}"):
        _doubled(asym_params(), 2, xy)


def test_limit_report_validation(ctx256):
    with pytest.raises(InvalidParam):
        limit_report(asym_params(), 0, ctx256)


def test_perturbation_study(ctx128):
    p = asym_params()
    zero, kicked = perturbation_study(p, [0, F(1, 1000)], 60, ctx128)
    assert zero.divergence_index is None
    assert kicked.divergence_index is not None
    assert 0 < kicked.divergence_index <= 60
    assert zero.bits == 128


def test_perturbation_study_seed_override(ctx128):
    p = asym_params()
    reports = perturbation_study(p, [0], 20, ctx128, seed_x0=F(6, 5))
    assert reports[0].divergence_index is None
    assert reports[0].N == 20
    with pytest.raises(InvalidParam):
        perturbation_study(p, [0], 0, ctx128)
    # the seed x_0 = gamma makes the first step singular at every precision:
    # there is no baseline, and more bits would not give one
    with pytest.raises(SingularStep, match="n=0 at both 128 and 256 bits"):
        perturbation_study(H.Params(3, 2, 3, F(1, 2)), [0], 10, ctx128, seed_x0=3)


def test_perturbation_study_reuses_baseline(ctx128, monkeypatch):
    # a delta that leaves x_0 unchanged (0, or one below half an ulp) seeds
    # the baseline's own orbit, so the baseline stands in for its run
    runs = []

    def spy(*args, **kwargs):
        runs.append(kwargs.get("seed"))
        return iterate(*args, **kwargs)

    monkeypatch.setattr(hypopq.asymptotics, "iterate", spy)
    p = asym_params()
    deltas = [0, F(1, 10**6), F(1, 10**60), -F(1, 10**6)]
    reports = perturbation_study(p, deltas, 60, ctx128)
    assert len(runs) == 3  # the baseline and the two deltas that move x_0
    base = iterate(p, 60, ctx128)
    seeded = iterate(p, 60, ctx128, seed=(base.x[0], 0))
    assert seeded.x == base.x and seeded.y == base.y
    tx, ty = _targets(p, ctx128)
    want = _study_report(seeded, [False] * len(seeded.x), (tx, ty))
    assert reports[0] == reports[2] == want
    # with a seed override the baseline is itself a seeded run
    runs.clear()
    perturbation_study(p, [0, 0], 20, ctx128, seed_x0=F(6, 5))
    assert len(runs) == 1
    # a Meixner set's baseline is its closed form, the orbit from x_0 = gamma
    # (where the step itself is singular): delta 0 reports it as well
    runs.clear()
    p = H.Params(F(19, 6), 3, F(19, 6), F(3, 8))
    zero, _ = perturbation_study(p, [0, F(1, 10**6)], 80, ctx128)
    assert len(runs) == 2  # the baseline and the delta that moves x_0
    tx, ty = _targets(p, ctx128)
    want = _study_report(iterate(p, 80, ctx128), [False] * 81, (tx, ty))
    assert zero == want
    assert (zero.N, zero.divergence_index, zero.notes) == (80, None, "")


def test_precision_study():
    p = asym_params()
    r8, r25 = precision_study(p, [8, 25], 50)
    assert (r8.digits, r25.digits) == (8, 25)
    assert r8.bits == bits_for_digits(8)
    assert r25.bits == bits_for_digits(25)
    assert r8.divergence_index is not None and r8.divergence_index <= 50
    assert r25.divergence_index is None


def test_precision_study_zero_x():
    # x_0 is exactly 0 here; the relative deviation of x_0 must not divide by it
    p = H.Params(F(2), F(1, 3), F(1), F(3, 4))
    reports = precision_study(p, [10, 20, 50], 120)
    assert [r.divergence_index for r in reports] == [18, 83, None]
    assert [r.notes for r in reports] == [
        "singular step at n=18",
        "singular step at n=83",
        "",
    ]


def test_precision_study_validation():
    p = asym_params()
    with pytest.raises(InvalidParam):
        precision_study(p, [], 50)
    with pytest.raises(InvalidParam):
        precision_study(p, [0, 10], 50)
    with pytest.raises(InvalidParam):
        precision_study(p, [10], 0)
    # the reference run of this set is singular at n = 0 at 133 bits and at
    # twice that: the study names the step
    with pytest.raises(SingularStep, match="n=0 at both 133 and 266 bits"):
        precision_study(H.Params(F(5, 2), F(1, 2), F(3, 2), F(1, 2)), [10], 20)


def test_studies_stop_on_structural_singular_step(capsys):
    # x_0 = 1 is a root of the first-kind quartic of this set at every
    # precision: both studies raise SingularStep, and the CLI exits 4
    p = H.Params(F(5, 2), F(1, 2), F(3, 2), F(1, 2))
    with pytest.raises(SingularStep, match="n=0 at both 128 and 256 bits") as exc:
        perturbation_study(p, [0, F(1, 10**6)], 60, H.PrecisionCtx(128))
    assert exc.value.index == 0
    with pytest.raises(SingularStep, match="n=0 at both 266 and 532 bits") as exc:
        precision_study(p, [10, 20], 60)
    assert exc.value.index == 0
    argv = ["--alpha", "5/2", "--beta", "1/2", "--gamma", "3/2", "--c", "1/2", "--nmax", "60"]
    for extra in (["perturb", "--deltas", "0,1e-6", "--bits", "128"],
                  ["precision-study", "--digit-levels", "10,20"]):
        assert run([extra[0], *argv, *extra[1:]]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "SingularStep"


def test_studies_keep_precision_error_when_failure_moves():
    # this set's orbit fails at n = 18 at 34 bits but at n = 85 at 68 bits,
    # and at n = 56 at 54 bits but not at 108: a shortfall of precision, so
    # the studies still ask for more bits
    p = H.Params(F(2), F(1, 3), F(1), F(3, 4))
    with pytest.raises(PrecisionExhausted, match="singular step at n=18; raise bits"):
        perturbation_study(p, [0], 120, H.PrecisionCtx(34))
    with pytest.raises(PrecisionExhausted, match="reference run at 54 bits"):
        precision_study(p, [4], 120)
