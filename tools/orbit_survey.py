"""Seeded survey of recursion orbits against runs at four times the bits.

Draws parameter sets without screening them: alpha and beta in (0, 4] on a
grid of step 1/d (d in 1, 2, 3, 4, 6, 8), gamma likewise in (0, 4] on the
standard lattice and in (0, min(2, alpha + 1, beta + 1)) on the shifted one,
c from {1/16, 1/4, 1/2, 3/4, 15/16} and the lattice at random.  For each set
and each of 128, 256 and 512 bits it runs ``iterate`` to N and the same call
at four times the bits, and prints one line: the first n at which x_n or y_n
is off the wider run by more than 1e-10 relative to max(|ref|, 1) ("-" if
none), then ``failure_index`` and ``precision_suspect_at`` of the run.  The
last lines count the runs that are off, flagged, or off with no flag.

    PYTHONPATH=src python tools/orbit_survey.py [--sets 400] [--nmax 60] [--seed 12345]

Comparing two trees is a ``diff`` of their outputs.  Uses only the standard
library and the package under test; not a test.
"""

import argparse
import math
import random
from fractions import Fraction as F

from hypopq import Lattice, Params, PrecisionCtx
from hypopq.dpainleve import iterate
from hypopq.errors import HypopqError

DENOMS = (1, 2, 3, 4, 6, 8)
CS = (F(1, 16), F(1, 4), F(1, 2), F(3, 4), F(15, 16))
BITS = (128, 256, 512)
TOL = F(1, 10**10)


def _rational(rng, lo, hi):
    """A rational in (lo, hi] on a grid of step 1/d."""
    d = rng.choice(DENOMS)
    return F(rng.randint(math.floor(lo * d) + 1, math.floor(hi * d)), d)


def draw(rng):
    """One admissible parameter set."""
    c = rng.choice(CS)
    a, b = _rational(rng, 0, 4), _rational(rng, 0, 4)
    if rng.random() < 0.5:
        return Params(a, b, _rational(rng, 0, 4), c)
    top = min(F(2), a + 1, b + 1)
    while True:
        g = _rational(rng, 0, top)
        if g < top:
            return Params(a, b, g, c, Lattice.SHIFTED)


def first_off(run, ref):
    """First n where x_n or y_n of ``run`` is off ``ref`` by more than TOL
    relative to max(|ref|, 1), or None."""
    mp = ref.ctx.mp
    tol = ref.ctx.real(TOL)
    for n in range(min(len(run.x), len(ref.x))):
        for v, w in ((run.x[n], ref.x[n]), (run.y[n], ref.y[n])):
            if abs(ref.ctx.real(v) - w) > tol * max(abs(w), mp.mpf(1)):
                return n
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=400)
    ap.add_argument("--nmax", type=int, default=60)
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    counts = {"runs": 0, "off": 0, "flagged": 0, "silent": 0, "refused": 0}
    for _ in range(args.sets):
        p = draw(rng)
        name = f"{p.alpha} {p.beta} {p.gamma} {p.c} {p.lattice.value}"
        for bits in BITS:
            try:
                ref = iterate(p, args.nmax, PrecisionCtx(4 * bits))
                run = iterate(p, args.nmax, PrecisionCtx(bits))
            except HypopqError as exc:
                counts["refused"] += 1
                print(f"{name} {bits} refused {type(exc).__name__}")
                continue
            n = first_off(run, ref)
            flagged = run.failure_index is not None or run.precision_suspect_at is not None
            counts["runs"] += 1
            counts["off"] += n is not None
            counts["flagged"] += flagged
            counts["silent"] += n is not None and not flagged
            print(f"{name} {bits} {'-' if n is None else n} "
                  f"{run.failure_index} {run.precision_suspect_at}")
    print(" ".join(f"{k}={v}" for k, v in counts.items()))


if __name__ == "__main__":
    main()
