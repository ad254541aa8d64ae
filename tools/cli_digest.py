"""Digest of the CLI's output over a fixed grid of invocations.

Runs every (parameter set, command) pair of the grid in-process through
``hypopq.cli.run``, with the caches emptied before each one, and prints one
line per invocation: the first 12 hex digits of the SHA-256 of its stdout,
stderr and exit code, then its argv.  Comparing two trees is a ``diff`` of
their outputs:

    PYTHONPATH=src python tools/cli_digest.py > new.txt

Uses only the standard library and the package under test.
"""

import contextlib
import hashlib
import io
import sys

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
    "sigma --n 3",
    "asymptotics --nmax 100",
    "moments --nmax 12",
    "precision-study --nmax 100 --digit-levels 10,20",
    "perturb --nmax 80 --deltas 0,1e-6",
)


def digest(argv):
    """Short hash of (stdout, stderr, exit code) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    clear_cache()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    blob = "\0".join((out.getvalue(), err.getvalue(), str(code)))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def main():
    for a, b, g, c, lattice in SETS:
        for command in COMMANDS:
            name, *rest = command.split()
            argv = [name, "--alpha", a, "--beta", b, "--gamma", g, "--c", c,
                    "--lattice", lattice, "--bits", "128", *rest]
            print(f"{digest(argv)}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
