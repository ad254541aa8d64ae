"""Layered benchmark for hypopq.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py``):

* ``oracle-sweep``: in-process CLI runs of coeffs, xy, ladder and
  ``verify --suite identities``, one large-N moment-oracle call each;
* ``deformation``: Toda sweeps n = 0..n_max, sigma-PVI and Riccati checks,
  many small-N oracle (or recursion) calls at nearby stencil nodes;
* ``recursion``: ``iterate`` at N = 100..400 plus the limit, precision and
  perturbation studies.

Each is a closed loop with one client: the next job starts when the
previous one has finished and been checked.  ``clear_cache()`` runs before
every job, so a job models one fresh CLI or script invocation.  Whole rounds
of jobs run until ``--seconds`` of job time and the workload's minimum job
count are reached.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
job list (``trace_rounds`` rounds) three times: traced, untraced, traced.
It prints the per-layer metrics of the first traced pass, fails if a
deterministic counter differs between the two traced passes or a job's
output differs between traced and untraced passes, and writes the spans to
``.perfbench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and how the tail percentile was taken, and stderr names the
failed jobs.  ``failed`` counts every job that raised (a certified
``PrecisionExhausted`` refusal included) or failed a check, and ``correct``
is true only when no job failed.  The exit code is 0 when the run is
correct, 1 when it is not and 2 when there is nothing to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# setup_s takes SETUP_LAUNCHES interpreter launches at each of SETUP_POINTS
# moments spread over the run (between rounds), so that one run samples the
# machine's speed, which on a shared 2-core machine drifted by up to 2x over
# minutes, more than once.
SETUP_LAUNCHES = 2
SETUP_POINTS = 5
WALL_CAP_S = 120  # no new round starts after this much wall time

END_TO_END = (
    ("setup_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("jobs_per_s", "1/s"),
    ("cpu_s_per_job", "s"),
    ("peak_rss_mb", "MB"),
)


def _loadavg():
    return list(os.getloadavg())


def environment():
    """Where the numbers come from: wall times move with the machine's load."""
    import mpmath
    from mpmath import libmp

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hypopq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


def setup_sample():
    """Seconds from launching a fresh interpreter to ``import hypopq.cli``
    returning."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = "import hypopq.cli, time, sys; sys.stdout.write(repr(time.perf_counter()))"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(proc.stdout) - t0


class Runner:
    """Runs and checks one workload's jobs, with or without tracing."""

    def __init__(self, workload, seed):
        import tracing
        import workloads

        self.wl = workloads.WORKLOADS[workload](OUT)
        self.seed = seed
        self.modules = workloads.MODULES
        self.clear_cache = self.modules["toda_sigma"].clear_cache
        self.tracer = tracing.Tracer()

    def api(self, traced):
        def resolve(qualname):
            module, _, name = qualname.partition(".")
            fn = getattr(self.modules[module], name)
            return self.tracer.entry(qualname, fn) if traced else fn

        return resolve

    def execute(self, job, api, tag=None):
        """Run one job on the clock; returns (result, error, wall_s, cpu_s).

        ``error`` is None or the message of the exception the job raised.
        """
        self.clear_cache()
        self.tracer.job = tag
        self.tracer.recording = tag is not None
        w0, c0 = time.perf_counter(), time.process_time()
        raised = None
        try:
            raw = self.wl.run(job, api)
        except Exception as exc:  # a refused or broken job is counted, not fatal
            raised = exc
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.tracer.recording = False
        if raised is not None:
            return None, f"{type(raised).__name__}: {raised}", wall, cpu
        return self.wl.collect(job, raw), None, wall, cpu


def end_to_end(runner, seconds):
    wl, api = runner.wl, runner.api(traced=False)
    walls, cpus, problems = [], [], []
    setup_sample()  # warms the bytecode cache; not counted
    setup = []
    started = time.perf_counter()
    r = 0
    while sum(walls) < seconds or len(walls) < wl.min_jobs:
        if r and time.perf_counter() - started > WALL_CAP_S:
            break
        if sum(walls) >= len(setup) / SETUP_LAUNCHES * seconds / SETUP_POINTS:
            setup += [setup_sample() for _ in range(SETUP_LAUNCHES)]
        for job in wl.round(runner.seed, r):
            result, error, wall, cpu = runner.execute(job, api)
            walls.append(wall)
            cpus.append(cpu)
            errors = [error] if error else wl.check(job, result)
            if errors:
                problems.append((job, errors))
        r += 1
    n = len(walls)
    failed = len(problems)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": statistics.quantiles(walls, n=100, method="inclusive")[round(100 * wl.tail_q) - 1],
        "jobs_per_s": n / sum(walls),
        "cpu_s_per_job": sum(cpus) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "rounds": r,
        "setup_launches": len(setup),
        "jobs": n,
        "tail_percentile": round(100 * wl.tail_q),
        "jobs_beyond_tail": n * (1 - wl.tail_q),
        "failed_frac": failed / n,
        "failed": failed,
        "attempted": n,
    }
    return metrics, info, problems


def traced_run(runner):
    """Traced, untraced and traced passes over one fixed job list."""
    import tracing

    wl = runner.wl
    jobs = [job for r in range(wl.trace_rounds) for job in wl.round(runner.seed, r)]
    passes = []
    problems = []
    for p, traced in enumerate((True, False, True)):
        if traced:
            runner.tracer.install()
        first = len(runner.tracer.spans)
        api = runner.api(traced)
        walls, digests, out_bytes = [], [], 0
        for i, job in enumerate(jobs):
            result, error, wall, _ = runner.execute(job, api, tag=(p, i) if traced else None)
            walls.append(wall)
            # outputs are compared across passes, so the untraced pass's
            # check stands for all three
            digests.append(error or wl.digest(job, result))
            if error is None:
                out_bytes += wl.output_bytes(result)
            if not traced:
                errors = [error] if error else wl.check(job, result)
                if errors:
                    problems.append((job, errors))
        runner.tracer.uninstall()
        passes.append(
            {"wall": sum(walls), "digests": digests, "first": first,
             "spans": runner.tracer.spans[first:], "bytes": out_bytes}
        )
    a, plain, b = passes
    for i, job in enumerate(jobs):
        if not a["digests"][i] == plain["digests"][i] == b["digests"][i]:
            problems.append((None, [f"output of {job.kind} {job.params} "
                                    "differs between traced and untraced passes"]))

    absent = tracing.absent_functions()
    replay = (0.0, 0) if "weights.moment" in absent else tracing.replay_moments(a["spans"])
    counts_a = tracing.layer_counts(a["spans"], a["first"], a["bytes"], replay)
    counts_b = tracing.layer_counts(b["spans"], b["first"], b["bytes"], replay)
    for name in tracing.DETERMINISTIC:
        if counts_a[name] != counts_b[name]:
            problems.append((None, [f"{name} differs between traced passes: "
                                    f"{counts_a[name]} vs {counts_b[name]}"]))
    counts_a["trace.overhead_frac"] = (a["wall"] + b["wall"]) / (2 * plain["wall"]) - 1
    metrics = {}
    for name, unit, qual in tracing.PER_LAYER:
        if qual in absent:
            metrics[name] = {"value": 0, "unit": unit, "absent": True}
        else:
            metrics[name] = {"value": counts_a[name], "unit": unit}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-{runner.seed}.jsonl"
    runner.tracer.dump(spans_path)
    info = {
        "jobs": len(jobs),
        "passes": ["traced", "untraced", "traced"],
        "wall_s": [round(p["wall"], 3) for p in passes],
        "absent": sorted(absent),
        "toda_sweep_calls_distinct": tracing.toda_sweeps(a["spans"], a["first"]),
        "spans": str(spans_path.relative_to(ROOT)),
        "attempted": len(jobs),
        "failed": sum(1 for job, _ in problems if job is not None),
    }
    return metrics, info, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("oracle-sweep", "deformation", "recursion"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hypopq" / "__init__.py").is_file():
        print(f"perfbench: no hypopq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = environment()
    runner = Runner(args.workload, args.seed)
    if args.trace:
        metrics, info, problems = traced_run(runner)
    else:
        values, info, problems = end_to_end(runner, args.seconds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    env["loadavg_end"] = _loadavg()

    print(json.dumps({"env": env}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **info}))
    for job, errors in problems[:20]:
        where = f"{job.kind} {job.params} {job.spec}" if job else "trace"
        text = "; ".join(errors[:4])
        print(f"FAILED {where}: {text}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
