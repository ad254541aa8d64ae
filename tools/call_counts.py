"""Call counts of the recursion and its residual suite: work counts that do
not depend on the machine.

Counts, with ``sys.setprofile``, the calls into ``mpmath.libmp`` made from
outside it (as ``tests/test_oracle.py`` counts them for the oracle) and the
Python calls (``call`` events) of the package: the frames outside mpmath
and the calls into mpmath from outside it, so that mpmath's own internals
do not move the figure.  It prints them per unit of work, on both lattices
of one parameter set:

* per ``iterate`` step with the consistency monitor (the canonical seed) and
  without it (the same seed given explicitly, which runs no monitor);
* per index of ``dp_residuals``, with the oracle's coefficients (the five
  cross-identities included) and without them.

Each figure is the difference between a run to N and a run to 0, over N, so
fixed costs (the seed, the loop invariants) drop out.  The counts repeat
exactly from run to run and do not depend on the machine's speed.  The
Python calls show the interpreter's frames that a step enters, which the
libmp calls and the executed bytecodes do not: a step that enters fewer
frames runs faster in pure Python while it executes about as many
bytecodes.

    PYTHONPATH=src python tools/call_counts.py

The exit code is 1 when a step with the monitor makes more than
MAX_STEP_CALLS libmp calls or more than MAX_STEP_PYTHON_CALLS Python calls.
Uses only the standard library and the package under test; not a test.
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
MAX_STEP_PYTHON_CALLS = 55  # 50.34 when the bound was set


def calls(fn):
    """``(libmp, python)`` while ``fn`` runs: the calls of libmp functions
    from outside libmp, and the Python calls outside mpmath together with
    the calls into mpmath from outside it."""
    libmp = python = 0

    def profile(frame, event, arg):
        nonlocal libmp, python
        if event == "call":
            name = frame.f_globals.get("__name__", "")
            caller = frame.f_back.f_globals.get("__name__", "")
            if not name.startswith("mpmath") or not caller.startswith("mpmath"):
                python += 1
            if name.startswith("mpmath.libmp") and not caller.startswith("mpmath.libmp"):
                libmp += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return libmp, python


def per_unit(run, n):
    """Calls of ``run(n)`` beyond those of ``run(0)``, per unit of n, as
    ``(libmp, python)``."""
    more, base = calls(lambda: run(n)), calls(lambda: run(0))
    return tuple((a - b) / n for a, b in zip(more, base))


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
    worst = (0.0, 0.0)
    for lattice in (Lattice.STANDARD, Lattice.SHIFTED):
        label = f"({', '.join(map(str, SET))}) {lattice.value}, {BITS} bits"
        got = counts(Params(*SET, lattice))
        for what, (libmp, python) in got.items():
            print(f"{label}  {what}: {libmp:.2f} libmp, {python:.2f} Python")
        worst = tuple(map(max, worst, got["step, monitor on"]))
    failed = False
    for value, bound, kind in zip(worst, (MAX_STEP_CALLS, MAX_STEP_PYTHON_CALLS),
                                  ("libmp", "Python")):
        if value > bound:
            print(f"a step makes {value:.2f} {kind} calls, over {bound}")
            failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
