"""Large-n behavior: limit gaps, seed sensitivity, and precision studies.

The conjectured picture for the canonical orbit is x_n -> gamma and
y_n + n*gamma -> (gamma-alpha)(gamma-beta) on the standard lattice
(x_n -> 1 and y_n + n -> (1-alpha)(1-beta) on the shifted one).  Reaching
it numerically is the interesting part: the recursion amplifies both seed
errors and roundoff, so every report here carries a divergence index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dpainleve import _targets, iterate
from .errors import InvalidParam, PrecisionExhausted, SingularStep
from .numerics import PrecisionCtx, bits_for_digits

_MAX_ESCALATIONS = 3


@dataclass(frozen=True)
class StudyReport:
    """Outcome of one run: how close to the conjectured limits it got."""

    bits: int
    N: int
    x_limit_gap: object
    y_limit_gap: object
    divergence_index: int | None = None
    digits: int | None = None
    notes: str = ""


def _study_report(xy, diverged, targets, conv=None, digits=None):
    """StudyReport of the run ``xy``, at its precision.  Its divergence index
    is the first n at which ``diverged`` (one flag per n) is true, else the
    index of a singular step, which the notes then name; its gaps are taken
    at the last index, on values passed through ``conv`` (the caller's
    context)."""
    conv = conv or (lambda v: v)
    fail = xy.failure_index
    div = next((n for n, hit in enumerate(diverged) if hit), fail)
    last = len(xy.x) - 1
    tx, ty = targets
    return StudyReport(
        bits=xy.ctx.bits,
        N=last,
        x_limit_gap=abs(conv(xy.x[last]) - tx),
        y_limit_gap=abs(conv(xy.y[last]) + last * tx - ty),
        divergence_index=div,
        notes="" if fail is None else f"singular step at n={fail}",
        digits=digits,
    )


def _doubled(params, N, xy, seed=None):
    """The run ``xy`` repeated at twice its bits.  If both fail a singular
    step at the same index, it is structural: SingularStep names it."""
    again = iterate(params, N, PrecisionCtx(2 * xy.ctx.bits), seed=seed)
    fail = again.failure_index
    if fail is not None and xy.failure_index == fail:
        raise SingularStep(
            f"singular step at n={fail} at both {xy.ctx.bits} and {again.ctx.bits} bits: "
            "structural, not a precision shortfall", index=fail)
    return again


def _unhealthy(xy):
    """How the run ``xy`` is unhealthy, for messages; empty if it is not."""
    if xy.failure_index is None and xy.precision_suspect_at is None:
        return ""
    return f"(failure_index={xy.failure_index}, suspect={xy.precision_suspect_at})"


def limit_report(params, N: int, ctx) -> StudyReport:
    """Gaps to the conjectured limits at index N, canonical seed.

    If the run fails a singular step or trips the consistency monitor, the
    precision is doubled (at most three times) and the run repeated; a run
    still unhealthy after that raises PrecisionExhausted.  A singular step
    that recurs at the same index after a doubling raises SingularStep.
    """
    if N < 1:
        raise InvalidParam("N must be >= 1")
    xy, notes = iterate(params, N, ctx), []
    for _ in range(_MAX_ESCALATIONS):
        if not (why := _unhealthy(xy)):
            break
        notes.append(f"unhealthy at {xy.ctx.bits} bits {why}; doubling")
        xy = _doubled(params, N, xy)
    if why := _unhealthy(xy):
        raise PrecisionExhausted(f"run unhealthy up to {xy.ctx.bits} bits {why}; N={N} needs more")
    rep = _study_report(xy, (), _targets(params, xy.ctx))
    return replace(rep, notes="; ".join(notes))


def perturbation_study(params, deltas, N: int, ctx, seed_x0=None) -> list:
    """One report per delta: seed (x0_base + delta, 0) against the baseline.

    x0_base is the canonical seed unless ``seed_x0`` overrides it.  The
    divergence index is the first n where the perturbed orbit's distance to
    the x-limit exceeds ten times the baseline's; a singular step before
    visible divergence is reported at its own index in ``notes``.  A delta
    that leaves x0_base unchanged at ``ctx`` reports the baseline's run (on
    a Meixner set, the closed form).  A baseline that fails a singular step
    raises as :func:`_doubled` does, else PrecisionExhausted.
    """
    if N < 1:
        raise InvalidParam("N must be >= 1")
    base_seed = None if seed_x0 is None else (seed_x0, 0)
    base = iterate(params, N, ctx, seed=base_seed)
    if base.failure_index is not None:
        _doubled(params, N, base, base_seed)
        raise PrecisionExhausted(
            f"baseline run hit a singular step at n={base.failure_index}; raise bits"
        )
    tx, ty = _targets(params, ctx)
    base_gap = [abs(xv - tx) for xv in base.x]
    x0 = base.x[0]
    reports = []
    for delta in deltas:
        seed = x0 + ctx.real(delta)
        xy = base if seed == x0 else iterate(params, N, ctx, seed=(seed, 0))
        diverged = (abs(xy.x[n] - tx) > 10 * base_gap[n] for n in range(len(xy.x)))
        reports.append(_study_report(xy, diverged, (tx, ty)))
    return reports


def _rel_dev(value, ref, mp):
    """|value - ref| / |ref|; against a zero reference 0 if equal, else inf."""
    d = abs(value - ref)
    if ref != 0:
        return d / abs(ref)
    return mp.mpf(0) if d == 0 else mp.inf


def precision_study(params, digit_levels, N: int) -> list:
    """Re-run the recursion at several decimal-digit levels against one
    high-precision reference; report where each level falls off.

    The reference runs at four times the largest requested digit level.
    The divergence index of a level is the first n where its x_n or y_n
    deviates from the reference by more than 1e-3 relative (comparisons are
    done after exact injection into the reference context, so the study
    measures the runs, not the comparison).  A reference run that fails a
    singular step raises as :func:`_doubled` does, else PrecisionExhausted.
    """
    levels = list(digit_levels)
    if not levels:
        raise InvalidParam("need at least one digit level")
    if any(d < 1 for d in levels):
        raise InvalidParam("digit levels must be positive")
    if N < 1:
        raise InvalidParam("N must be >= 1")
    ref_ctx = PrecisionCtx(bits=max(24, bits_for_digits(4 * max(levels))))
    ref = iterate(params, N, ref_ctx)
    if ref.failure_index is not None:
        _doubled(params, N, ref)
    if why := _unhealthy(ref):
        raise PrecisionExhausted(f"reference run at {ref_ctx.bits} bits is itself unhealthy {why}")
    mpr = ref_ctx.mp
    tol = mpr.mpf("1e-3")
    tx, ty = _targets(params, ref_ctx)
    reports = []
    for d in levels:
        xy = iterate(params, N, PrecisionCtx(bits=max(24, bits_for_digits(d))))
        diverged = (
            _rel_dev(ref_ctx.real(xy.x[n]), ref.x[n], mpr) > tol
            or _rel_dev(ref_ctx.real(xy.y[n]), ref.y[n], mpr) > tol
            for n in range(len(xy.x))
        )
        reports.append(_study_report(xy, diverged, (tx, ty), ref_ctx.real, d))
    return reports
