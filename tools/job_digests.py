"""Output digests of every benchmark job: a check that a change leaves every
output as it was.

Runs every job of the given workloads, seeds and rounds of
``perfbench/workloads.py`` in process, as the benchmark does: ``clear_cache()``
before each job, the timed call, and then the job's own check.  CLI output
goes to a temporary directory.  Prints one line per job,

    <sha256[:12]>  <workload> <seed> <round> <kind>

where the hash is taken over the workload's own digest of the job's output
(or over the exception a job raised), and then the number of failed jobs.
Run it on two trees and diff the output:

    python tools/job_digests.py --workload recursion --seed 1 2 3 > change.txt
    python tools/job_digests.py --root ../parent --workload recursion --seed 1 2 3 > parent.txt

``--root`` names the source checkout whose ``src/`` and
``perfbench/workloads.py`` are imported (by default the one holding this
file); the workloads file is read as it is.  The exit code is 1 when a job
failed.  Uses only the standard library and the package under test; not a
test.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("oracle-sweep", "deformation", "recursion")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seed", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--rounds", type=int, default=3, help="rounds per workload and seed")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    modules = workloads.MODULES
    clear_cache = modules["toda_sigma"].clear_cache

    def api(qualname):
        module, _, name = qualname.partition(".")
        return getattr(modules[module], name)

    failed = 0
    with tempfile.TemporaryDirectory() as out:
        for name in args.workload:
            wl = workloads.WORKLOADS[name](Path(out))
            for seed in args.seed:
                for r in range(args.rounds):
                    for job in wl.round(seed, r):
                        clear_cache()
                        try:
                            result = wl.collect(job, wl.run(job, api))
                        except Exception as exc:  # a refused job is an output too
                            digest, errors = f"{type(exc).__name__}: {exc}", ["raised"]
                        else:
                            digest, errors = wl.digest(job, result), wl.check(job, result)
                        failed += bool(errors)
                        sha = hashlib.sha256(digest.encode()).hexdigest()[:12]
                        print(f"{sha}  {name} {seed} {r} {job.kind}", flush=True)
    print(f"failed={failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
