"""Libmp entry calls of the recursion and its residual suite: work counts
that do not depend on the machine.

Counts, with ``sys.setprofile``, the calls into ``mpmath.libmp`` made from
outside it (as ``tests/test_oracle.py`` counts them for the oracle), and
prints them per unit of work, on both lattices of one parameter set:

* per ``iterate`` step with the consistency monitor (the canonical seed) and
  without it (the same seed given explicitly, which runs no monitor);
* per index of ``dp_residuals``, with the oracle's coefficients (the five
  cross-identities included) and without them.

Each figure is the difference between a run to N and a run to 0, over N, so
fixed costs (the seed, the loop invariants) drop out.  The counts repeat
exactly from run to run and do not depend on the machine's speed.

    PYTHONPATH=src python tools/call_counts.py

The exit code is 1 when a step with the monitor makes more than
MAX_STEP_CALLS calls.  Uses only the standard library and the package under
test; not a test.
"""

import sys
from fractions import Fraction as F

from hypopq import Lattice, Params, PrecisionCtx, clear_cache
from hypopq.dpainleve import dp_residuals, iterate
from hypopq.oracle import CoeffSeq, XYSeq, coeffs_oracle, xy_from_coeffs
from hypopq.weights import initial_xy

SET = (F(3, 2), F(3), F(1, 3), F(1, 2))
BITS = 256
STEP_N = 400
RESIDUAL_N = 50
MAX_STEP_CALLS = 3  # the conversions that store x_n, y_n and S_n


def libmp_calls(fn):
    """Calls of libmp functions from outside libmp while ``fn`` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_globals.get("__name__", "").startswith("mpmath.libmp"):
            if not frame.f_back.f_globals.get("__name__", "").startswith("mpmath.libmp"):
                count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def per_unit(run, n):
    """Calls of ``run(n)`` beyond those of ``run(0)``, per unit of n."""
    return (libmp_calls(lambda: run(n)) - libmp_calls(lambda: run(0))) / n


def counts(p):
    ctx = PrecisionCtx(BITS)
    clear_cache()
    seed = initial_xy(p, ctx)  # warms the seed memo, so no run sums the series
    coeffs = coeffs_oracle(p, RESIDUAL_N, ctx)
    xy = xy_from_coeffs(coeffs)

    def orbit(n):
        return XYSeq(p, xy.x[:n + 1], xy.y[:n + 1], xy.S[:n + 2], ctx)

    def coeffs_to(n):
        return CoeffSeq(p, coeffs.a2[:n + 1], coeffs.b[:n + 1], ctx)

    return {
        "step, monitor on": per_unit(lambda n: iterate(p, n, ctx), STEP_N),
        "step, monitor off": per_unit(lambda n: iterate(p, n, ctx, seed=seed), STEP_N),
        "dp_residuals index, with coeffs": per_unit(
            lambda n: dp_residuals(orbit(n), coeffs_to(n)), RESIDUAL_N),
        "dp_residuals index, no coeffs": per_unit(lambda n: dp_residuals(orbit(n)), RESIDUAL_N),
    }


def main():
    worst = 0.0
    for lattice in (Lattice.STANDARD, Lattice.SHIFTED):
        label = f"({', '.join(map(str, SET))}) {lattice.value}, {BITS} bits"
        got = counts(Params(*SET, lattice))
        for what, value in got.items():
            print(f"{label}  {what}: {value:.2f}")
        worst = max(worst, got["step, monitor on"])
    if worst > MAX_STEP_CALLS:
        print(f"a step makes {worst:.2f} libmp calls, over {MAX_STEP_CALLS}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
