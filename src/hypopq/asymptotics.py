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


def limit_report(params, N: int, ctx) -> StudyReport:
    """Gaps to the conjectured limits at index N, canonical seed.

    If the run fails a singular step or trips the consistency monitor, the
    precision is doubled (at most three times) and the run repeated; a run
    still unhealthy after that raises PrecisionExhausted.  A singular step
    that recurs at the same index after a doubling is structural, not a
    precision shortfall: it raises SingularStep with that index.
    """
    if N < 1:
        raise InvalidParam("N must be >= 1")
    cur = ctx
    notes = []
    xy = prev = None
    for attempt in range(_MAX_ESCALATIONS + 1):
        xy = iterate(params, N, cur)
        fail = xy.failure_index
        if fail is None and xy.precision_suspect_at is None:
            break
        if fail is not None and prev is not None and prev.failure_index == fail:
            raise SingularStep(
                f"singular step at n={fail} at both {prev.ctx.bits} and {cur.bits} bits: "
                "structural, not a precision shortfall", index=fail)
        if attempt == _MAX_ESCALATIONS:
            raise PrecisionExhausted(
                f"run unhealthy up to {cur.bits} bits "
                f"(failure_index={fail}, "
                f"suspect={xy.precision_suspect_at}); N={N} needs more"
            )
        notes.append(
            f"unhealthy at {cur.bits} bits "
            f"(failure_index={fail}, suspect={xy.precision_suspect_at}); doubling"
        )
        prev, cur = xy, PrecisionCtx(cur.bits * 2)
    rep = _study_report(xy, (), _targets(params, cur))
    return replace(rep, notes="; ".join(notes))


def perturbation_study(params, deltas, N: int, ctx, seed_x0=None) -> list:
    """One report per delta: seed (x0_base + delta, 0) against the baseline.

    x0_base is the canonical seed unless ``seed_x0`` overrides it.  The
    divergence index is the first n where the perturbed orbit's distance to
    the x-limit exceeds ten times the baseline's; a singular step before
    visible divergence is reported at its own index in ``notes``.  A delta
    that leaves x0_base unchanged at ``ctx`` reports the baseline's run.
    """
    if N < 1:
        raise InvalidParam("N must be >= 1")
    mp = ctx.mp
    if seed_x0 is None:
        base = iterate(params, N, ctx)
    else:
        base = iterate(params, N, ctx, seed=(ctx.real(seed_x0), mp.mpf(0)))
    if base.failure_index is not None:
        raise PrecisionExhausted(
            f"baseline run hit a singular step at n={base.failure_index}; raise bits"
        )
    tx, ty = _targets(params, ctx)
    base_gap = [abs(xv - tx) for xv in base.x]
    x0 = base.x[0]
    # the step from base's own seed repeats base bit for bit, unless base is
    # a Meixner set's closed form, which the step cannot run
    same = seed_x0 is not None or not params.is_meixner
    reports = []
    for delta in deltas:
        seed = x0 + ctx.real(delta)
        if same and seed == x0:
            xy = base
        else:
            xy = iterate(params, N, ctx, seed=(seed, mp.mpf(0)))
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
    measures the runs, not the comparison).
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
    if ref.failure_index is not None or ref.precision_suspect_at is not None:
        raise PrecisionExhausted(
            f"reference run at {ref_ctx.bits} bits is itself unhealthy "
            f"(failure_index={ref.failure_index}, suspect={ref.precision_suspect_at})"
        )
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
