"""Call counts of the recursion, its residual suite and the deformation
identities: work counts that do not depend on the machine.

Counts, with ``sys.setprofile``, the calls into ``mpmath.libmp`` made from
outside it (as ``tests/test_oracle.py`` counts them for the oracle) and the
Python calls (``call`` events) of the package: the frames outside mpmath
and the calls into mpmath from outside it, so that mpmath's own internals
do not move the figure.  It prints them per unit of work, on both lattices
of one parameter set:

* per ``iterate`` step with the consistency monitor (the canonical seed) and
  without it (the same seed given explicitly, which runs no monitor);
* per index of ``dp_residuals``, with the oracle's coefficients (the five
  cross-identities included) and without them;
* per index of a ``toda_residuals`` sweep n = 0 .. TODA_N - 1 (oracle
  source, h = 2^-40), cold (caches emptied first, so the oracle runs at
  every node) and warm (the same sweep again, every node served from the
  node cache), and per ``sigma_pvi_residual`` (n = 2, standard lattice
  only) and ``riccati_constant`` call, cold and warm.  Beside these it
  prints the seed series summed (``weights._seed_sums`` misses) per unit:
  a pair of ``m_0``, ``m_1`` series at one node and precision;
* per ``structure_residual`` call (standard lattice only) at n =
  STRUCTURE_N, x = STRUCTURE_X.

Each recursion figure is the difference between a run to N and a run to 0,
over N, so fixed costs (the seed, the loop invariants) drop out.  The counts repeat
exactly from run to run and do not depend on the machine's speed.  The
Python calls show the interpreter's frames that a step enters, which the
libmp calls and the executed bytecodes do not: a step that enters fewer
frames runs faster in pure Python while it executes about as many
bytecodes.

    PYTHONPATH=src python tools/call_counts.py

The exit code is 1 when a step with the monitor makes more than
MAX_STEP_CALLS libmp calls or more than MAX_STEP_PYTHON_CALLS Python calls,
when a warm Toda index makes more than MAX_TODA_CALLS libmp calls or more
than MAX_TODA_PYTHON_CALLS Python calls, or when a warm
``riccati_constant`` or ``sigma_pvi_residual`` call makes more than
MAX_RICCATI_PYTHON_CALLS or MAX_SIGMA_PYTHON_CALLS Python calls, or when a
``dp_residuals`` index with coefficients makes more than
MAX_DP_PYTHON_CALLS Python calls (each the worst of the two lattices), or
when a ``structure_residual`` call makes more than MAX_STRUCTURE_CALLS
libmp calls.
Uses only the standard library and the package under test; not a test.
"""

import sys
from fractions import Fraction as F

from hypopq import Lattice, Params, PrecisionCtx, clear_cache
from hypopq.dpainleve import dp_residuals, iterate
from hypopq.oracle import CoeffSeq, XYSeq, coeffs_oracle, structure_residual, xy_from_coeffs
from hypopq.toda_sigma import Source, riccati_constant, sigma_pvi_residual, toda_residuals
from hypopq.weights import _seed_sums, initial_xy

SET = (F(3, 2), F(3), F(1, 3), F(1, 2))
BITS = 256
STEP_N = 400
RESIDUAL_N = 50
MAX_STEP_CALLS = 3  # the conversions that store x_n, y_n and S_n
MAX_STEP_PYTHON_CALLS = 55  # 50.34 when the bound was set
H = F(1, 2**40)  # the stencil step of acceptance criteria 05-07
TODA_N = 5
MAX_TODA_CALLS = 10  # 9.40 when the bound was set: four derivatives and up to six residuals
MAX_TODA_PYTHON_CALLS = 380  # 344.80 when the bound was set: five node lookups, four stencils
MAX_RICCATI_PYTHON_CALLS = 800  # 771 (shifted) and 375 (standard) when the bound was set
MAX_SIGMA_PYTHON_CALLS = 320  # 305 when the bound was set
MAX_DP_PYTHON_CALLS = 135  # 122.58 (standard) and 122.00 (shifted) when the bound was set
STRUCTURE_N, STRUCTURE_X = 12, 5
MAX_STRUCTURE_CALLS = 3  # 1 when the bound was set: the residual's conversion


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

    def sweep():
        for n in range(TODA_N):
            toda_residuals(p, n, H, Source.ORACLE, ctx)

    deform = {"toda_residuals index": (sweep, TODA_N),
              "riccati_constant call": (lambda: riccati_constant(p, H, ctx), 1)}
    if p.lattice is Lattice.STANDARD:
        deform["sigma_pvi_residual call"] = (
            lambda: sigma_pvi_residual(p, 2, H, Source.ORACLE, ctx), 1)
    out = {}
    for what, (fn, units) in deform.items():
        clear_cache()
        for state in ("cold", "warm"):
            misses = _seed_sums.cache_info().misses
            libmp, python = calls(fn)
            summed = _seed_sums.cache_info().misses - misses
            out[f"{what}, {state}"] = (libmp / units, python / units, summed / units)
    if p.lattice is Lattice.STANDARD:
        out["structure_residual call"] = calls(
            lambda: structure_residual(coeffs, xy, STRUCTURE_N, STRUCTURE_X))
    return {
        **out,
        "step, monitor on": per_unit(lambda n: iterate(p, n, ctx), STEP_N),
        "step, monitor off": per_unit(lambda n: iterate(p, n, ctx, seed=seed), STEP_N),
        "dp_residuals index, with coeffs": per_unit(
            lambda n: dp_residuals(orbit(n), coeffs_to(n)), RESIDUAL_N),
        "dp_residuals index, no coeffs": per_unit(lambda n: dp_residuals(orbit(n)), RESIDUAL_N),
    }


def main():
    gates = []  # (value, bound, what makes the calls, kind of call)
    for lattice in (Lattice.STANDARD, Lattice.SHIFTED):
        label = f"({', '.join(map(str, SET))}) {lattice.value}, {BITS} bits"
        got = counts(Params(*SET, lattice))
        for what, (libmp, python, *summed) in got.items():
            series = f", {summed[0]:.2f} series summed" if summed else ""
            print(f"{label}  {what}: {libmp:.2f} libmp, {python:.2f} Python{series}")
        step = got["step, monitor on"]
        gates += [(step[0], MAX_STEP_CALLS, f"{label}  a step", "libmp"),
                  (step[1], MAX_STEP_PYTHON_CALLS, f"{label}  a step", "Python"),
                  (got["toda_residuals index, warm"][0], MAX_TODA_CALLS,
                   f"{label}  a warm Toda index", "libmp"),
                  (got["toda_residuals index, warm"][1], MAX_TODA_PYTHON_CALLS,
                   f"{label}  a warm Toda index", "Python"),
                  (got["riccati_constant call, warm"][1], MAX_RICCATI_PYTHON_CALLS,
                   f"{label}  a warm riccati_constant call", "Python"),
                  (got["dp_residuals index, with coeffs"][1], MAX_DP_PYTHON_CALLS,
                   f"{label}  a dp_residuals index with coefficients", "Python")]
        if "sigma_pvi_residual call, warm" in got:
            gates.append((got["sigma_pvi_residual call, warm"][1], MAX_SIGMA_PYTHON_CALLS,
                          f"{label}  a warm sigma_pvi_residual call", "Python"))
        if "structure_residual call" in got:
            gates.append((got["structure_residual call"][0], MAX_STRUCTURE_CALLS,
                          f"{label}  a structure_residual call", "libmp"))
    failed = False
    for value, bound, what, kind in gates:
        if value > bound:
            print(f"{what} makes {value:.2f} {kind} calls, over {bound}")
            failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
