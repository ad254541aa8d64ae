"""Digest of the CLI's output over a fixed grid of invocations.

Runs every (parameter set, command) pair of the grid, and then a list of
option-path invocations, in-process through ``hypopq.cli.run``, with the
caches emptied before each one, and prints one line per invocation: the
first 12 hex digits of the SHA-256 of its stdout, stderr, exit code and any
``--output`` file it wrote, then its argv.
Comparing two trees is a ``diff`` of their outputs:

    PYTHONPATH=src python tools/cli_digest.py > new.txt

``tests/cli_digest.txt`` holds the expected lines, and
``tests/test_cli_digest.py`` runs this grid against them.

Uses only the standard library and the package under test.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile

from hypopq import clear_cache
from hypopq.cli import run

SETS = (
    ("3/2", "3", "1/3", "1/2", "standard"),
    ("3/2", "3", "1/3", "1/2", "shifted"),
    ("13/4", "5/2", "17/4", "15/16", "standard"),
    ("1/3", "7/2", "4", "1/16", "standard"),
    ("19/6", "3", "19/6", "3/8", "standard"),
    ("2/3", "2", "1", "3/4", "shifted"),
    ("1", "1/2", "5/6", "3/8", "shifted"),
    ("5/6", "1/2", "5/6", "3/8", "shifted"),
)

COMMANDS = (
    "verify --suite all --nmax 8 --source oracle",
    "verify --suite all --nmax 8 --source iterate",
    "verify --suite identities --nmax 20",
    "iterate --nmax 120",
    "coeffs --nmax 20",
    "xy --nmax 20",
    "ladder --nmax 10",
    "riccati",
    "sigma --n 1",
    "sigma --n 3",
    "asymptotics --nmax 100",
    "moments --nmax 12",
    "precision-study --nmax 100 --digit-levels 10,20",
    "perturb --nmax 80 --deltas 0,1e-6",
)

# The option paths of argument parsing, on one parameter set: (subcommand,
# arguments).  "{out}" in an argument is replaced by a file in a
# fresh temporary directory, and the file's contents join the digest.
P = ("--alpha", "3/2", "--beta", "3", "--gamma", "1/3", "--c", "1/2")
B = ("--bits", "128")
LONG = ("--alpha", "13/4", "--beta", "5/2", "--gamma", "17/4", "--c", "15/16")
DIP = ("--alpha", f"1/{2**120}", "--beta", "64", "--gamma", "1", "--c", "15/16")
SING = ("--alpha", "2/3", "--beta", "2", "--gamma", "1", "--c", "3/4", "--lattice", "shifted")
RETRY = ("--alpha", "1/3", "--beta", "1", "--gamma", "8", "--c", "1/16")
OPTION_RUNS = (
    ("coeffs", (*P, *B, "--nmax", "6", "--format", "csv")),
    ("moments", (*P, *B, "--nmax", "4", "--format", "csv")),
    ("precision-study", (*P, "--nmax", "40", "--digit-levels", "10", "--format", "csv")),
    ("coeffs", (*P, "--nmax", "6", "--digits", "30")),
    ("asymptotics", (*P, "--nmax", "40", "--digits", "40")),
    ("coeffs", (*P, *B, "--nmax", "6", "--output", "{out}")),
    ("verify", (*P, *B, "--nmax", "3", "--tol", "1e-300", "--output", "{out}")),
    ("coeffs", (*P, "--nmax", "6")),
    ("coeffs", ("--alpha", "1.5", "--beta", "3", "--gamma", "1/3", "--c", "0.5", *B,
                "--nmax", "6")),
    ("xy", ("--alpha", "3/2", "--beta", "3", "--gamma", "0.25", "--c", "1/2", *B,
            "--nmax", "4")),
    ("riccati", (*P, *B, "--h", "2^-30")),
    ("riccati", (*P, *B, "--h", "1/1024")),
    ("riccati", (*P, *B, "--h", "0.0001")),
    ("verify", (*P, *B, "--nmax", "2", "--suite", "toda", "--h", "1/1024")),
    ("verify", (*P, *B, "--nmax", "2", "--suite", "toda", "--h", "2^-20",
                "--source", "iterate")),
    ("sigma", (*P, *B, "--n", "2", "--h", "0.0001")),
    ("sigma", (*P, *B, "--n", "2", "--h", "2^-30", "--source", "iterate")),
    ("verify", (*P, *B, "--nmax", "3", "--tol", "1/10")),
    ("verify", (*P, *B, "--nmax", "3", "--tol", "1e-300")),
    ("verify", (*P, *B, "--nmax", "1", "--suite", "all", "--h", "2^-16",
                "--tol", "1e-8")),
    ("iterate", (*P, *B, "--nmax", "20", "--seed-x0", "6/5", "--strict")),
    ("iterate", (*P, *B, "--nmax", "20", "--seed-x0", "1.2")),
    ("iterate", ("--alpha", "3", "--beta", "2", "--gamma", "3", "--c", "1/2", *B,
                 "--nmax", "5", "--seed-x0", "3", "--strict")),
    ("perturb", (*P, *B, "--nmax", "40", "--deltas", "0,1e-6", "--seed-x0", "6/5")),
    ("perturb", (*P, *B, "--nmax", "40", "--deltas", "1e-6, -1/1000000")),
    ("precision-study", (*P, "--nmax", "40", "--digit-levels", "10, 20,")),
    ("coeffs", (*P, "--nmax", "2", "--digits", "10", "--bits", "64")),
    ("riccati", (*P, *B, "--h", "0")),
    ("riccati", (*P, *B, "--h=-1/1024")),
    ("riccati", (*P, *B, "--h", "x")),
    ("verify", (*P, *B, "--nmax", "2", "--tol", "abc")),
    ("perturb", (*P, *B, "--nmax", "10", "--deltas", "")),
    ("perturb", (*P, *B, "--nmax", "10", "--deltas", " , ")),
    ("perturb", (*P, *B, "--nmax", "10", "--deltas", "1e-6,x")),
    ("perturb", (*P, *B, "--nmax", "10", "--deltas", "1e-6", "--seed-x0", "x")),
    ("precision-study", (*P, "--nmax", "10", "--digit-levels", "a,b")),
    ("precision-study", (*P, "--nmax", "10", "--digit-levels", ",")),
    ("iterate", (*P, *B, "--nmax", "5", "--seed-x0", "inf")),
    ("coeffs", (*P, *B, "--nmax", "2", "--lattice", "diagonal")),
    ("coeffs", (*P, *B)),
    ("coeffs", (*P, "--nmax", "2", "--bits", "10")),
    ("coeffs", ("--alpha", "x", "--beta", "3", "--gamma", "1/3", "--c", "1/2",
                "--nmax", "2")),
    ("coeffs", ("--alpha", "3/2", "--beta", "3", "--gamma", "1/0", "--c", "1/2",
                "--nmax", "2")),
    ("verify", (*P, *B, "--nmax", "-1", "--suite", "identities")),
    ("verify", (*P, *B, "--nmax", "-1", "--suite", "toda")),
    ("verify", (*P, *B, "--nmax", "-1", "--suite", "all")),
    # long seed series (c = 15/16), and one whose terms dip to 2^-114 of w_0
    # before they grow, which widens the fixed-point seed sums
    ("moments", (*LONG, "--nmax", "12", "--bits", "1024")),
    ("coeffs", (*LONG, "--nmax", "20", "--bits", "512")),
    ("moments", (*DIP, "--nmax", "4", "--bits", "256")),
    # long recursion orbits at high precision on both lattices; the set whose
    # orbit lands on a root of the quartic (2/3, 2, 1, 3/4, shifted), which
    # the exact step sums carry through at every precision; strict runs that
    # stop at the x_prev + Y and the first-kind guards (exit 4); the studies
    # at 512 bits
    ("iterate", (*P, "--nmax", "400", "--bits", "256")),
    ("iterate", (*P, "--nmax", "400", "--bits", "512")),
    ("iterate", (*P, "--lattice", "shifted", "--nmax", "400", "--bits", "256")),
    ("iterate", (*P, "--lattice", "shifted", "--nmax", "400", "--bits", "512")),
    *(("iterate", (*SING, "--nmax", "20", "--strict", "--bits", bits))
      for bits in ("128", "256", "512")),
    ("iterate", (*P, "--nmax", "120", "--strict", "--bits", "26")),
    ("iterate", (*P, "--nmax", "120", "--strict", "--seed-x0", "6/5", "--bits", "26")),
    ("asymptotics", (*P, "--nmax", "100", "--bits", "512")),
    ("perturb", (*P, "--nmax", "80", "--deltas", "0,1e-6", "--bits", "512")),
    # mass near k = 0 with gamma = 8: the Pearson recurrence cancels more than
    # half the guard bits, so the moment batch is redone with a wider guard;
    # without that retry the N = 18 certification fails (exit 3)
    ("moments", (*RETRY, "--nmax", "21", *B)),
    ("coeffs", (*RETRY, "--nmax", "10", *B)),
    ("coeffs", (*RETRY, "--nmax", "18", *B)),
    # c = 1 - 1e-9 would need about 1.2e11 seed-series terms, over the term
    # budget: refused (exit 3) before any summing
    *((name, (*P[:6], "--c", "999999999/1000000000", "--nmax", "4", *B))
      for name in ("moments", "coeffs", "iterate")),
    # a Toda sweep whose stencil nodes are served from power-of-two horizons:
    # at 48 bits the oracle refuses order 16 where orders 9 and 10 certify, so
    # those fall back to exact-order runs; the recursion serves all three
    # horizons (4, 8, 16)
    *(("verify", (*P, "--bits", "48", "--suite", "toda", "--nmax", "9", "--h", "2^-20",
                  "--source", source)) for source in ("oracle", "iterate")),
)


def digest(argv):
    """Short hash of (stdout, stderr, exit code, output file) of one
    in-process run."""
    out, err = io.StringIO(), io.StringIO()
    clear_cache()
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "out")
        argv = [a.replace("{out}", target) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        written = ""
        if os.path.exists(target):
            with open(target, encoding="utf-8") as fh:
                written = fh.read()
    blob = "\0".join((out.getvalue(), err.getvalue(), str(code)))
    if written:  # runs that write no file keep their digests of older versions
        blob += "\0" + written
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def grid():
    """The argv of every invocation, in print order."""
    for a, b, g, c, lattice in SETS:
        for command in COMMANDS:
            name, *rest = command.split()
            yield [name, "--alpha", a, "--beta", b, "--gamma", g, "--c", c,
                   "--lattice", lattice, "--bits", "128", *rest]
    for name, args in OPTION_RUNS:
        yield [name, *args]


def label(argv):
    """The invocation as printed after its digest."""
    return shlex.join(argv)


def main():
    for argv in grid():
        print(f"{digest(argv)}  {label(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
