"""Outside-in tracing of hypopq's layers, and the per-layer metrics.

Nothing inside the package is instrumented.  Instead the tracer replaces,
for the length of a traced pass, every name from ``hypopq.__all__`` that one
layer module has bound from another layer module (``toda_sigma.coeffs_oracle``,
``cli.iterate``, ...) with a wrapper that records a span.  The benchmark's own
calls into the package go through :meth:`Tracer.entry`, so they get spans too.

A span holds the function's name (``<defining module>.<function>``), the
module that called it (``site``), start, end, the index of its parent span and
the job it belongs to.  Spans stay in memory; :meth:`Tracer.dump` writes them
out as JSON lines when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "oracle", "weights", "dpainleve", "toda_sigma", "asymptotics", "numerics")

# Producers of stencil-node data, counted when toda_sigma calls them.
_NODE_PRODUCERS = ("oracle.coeffs_oracle", "dpainleve.iterate", "weights.initial_xy")


class Span:
    __slots__ = ("name", "site", "parent", "job", "start", "end", "error", "facts")

    def __init__(self, name, site, parent, job):
        self.name = name
        self.site = site
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.error = None
        self.facts = None

    @property
    def seconds(self):
        return self.end - self.start


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _oracle_facts(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return {
        "rows": a["N"] + 1,
        "node": (a["params"].key(), a["ctx"].bits),
        "replay": (a["params"], a["N"], a["ctx"]),
    }


def _iterate_facts(fn, args, kwargs, out):
    if out is None:
        return None
    a = _bound(fn, args, kwargs)
    return {
        "node": (a["params"].key(), a["ctx"].bits),
        "steps": len(out.x) - 1,
        "unhealthy": out.failure_index is not None or out.precision_suspect_at is not None,
    }


def _limit_facts(fn, args, kwargs, out):
    if out is None:
        return None
    a = _bound(fn, args, kwargs)
    return {"escalations": math.log2(out.bits / a["ctx"].bits)}


# Facts read off a call's arguments and result (None when it raised), for
# the counters below.
_FACTS = {
    "oracle.coeffs_oracle": _oracle_facts,
    "dpainleve.iterate": _iterate_facts,
    "asymptotics.limit_report": _limit_facts,
}


def _short(module_name):
    return module_name.rpartition(".")[2]


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self.recording = False
        self._stack = []
        self._installed = []
        self._entries = {}

    def _wrap(self, name, site, fn):
        spans, stack = self.spans, self._stack
        facts = _FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = Span(name, site, stack[-1] if stack else None, self.job)
            stack.append(len(spans))
            spans.append(span)
            out = None
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if facts is not None:
                    span.facts = facts(fn, args, kwargs, out)

        return traced

    def install(self):
        """Wrap every cross-layer binding of a public hypopq function."""
        public = set(sys.modules["hypopq"].__all__)
        for layer in LAYERS:
            mod = sys.modules[f"hypopq.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (
                    attr in public
                    and inspect.isfunction(obj)
                    and obj.__module__ != mod.__name__
                    and _short(obj.__module__) in LAYERS
                ):
                    name = f"{_short(obj.__module__)}.{obj.__name__}"
                    setattr(mod, attr, self._wrap(name, layer, obj))
                    self._installed.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._installed:
            setattr(mod, attr, obj)
        self._installed.clear()

    def entry(self, name, fn):
        """The benchmark's own traced handle on ``fn``."""
        if name not in self._entries:
            self._entries[name] = self._wrap(name, "bench", fn)
        return self._entries[name]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "site": s.site,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "job": s.job,
                }
                if s.error:
                    rec["error"] = s.error
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

# (metric, unit, public function it depends on).  Every metric is a sum over
# the traced pass, except the ratios, which are taken over the same pass.
PER_LAYER = (
    ("cli.run.s", "s", "cli.run"),
    ("cli.run.self_s", "s", "cli.run"),
    ("cli.output_bytes", "bytes", "cli.run"),
    ("oracle.coeffs_oracle.s", "s", "oracle.coeffs_oracle"),
    ("oracle.coeffs_oracle.calls", "count", "oracle.coeffs_oracle"),
    ("oracle.coeffs_oracle.rows", "count", "oracle.coeffs_oracle"),
    ("oracle.coeffs_oracle.refused", "count", "oracle.coeffs_oracle"),
    ("oracle.coeffs_oracle.distinct", "count", "oracle.coeffs_oracle"),
    ("oracle.coeffs_oracle.useful_ratio", "ratio", "oracle.coeffs_oracle"),
    ("weights.moment.s", "s", "weights.moment"),
    ("weights.moment.count", "count", "weights.moment"),
    ("toda_sigma.toda_residuals.s", "s", "toda_sigma.toda_residuals"),
    ("toda_sigma.sigma_pvi_residual.s", "s", "toda_sigma.sigma_pvi_residual"),
    ("toda_sigma.riccati_constant.s", "s", "toda_sigma.riccati_constant"),
    ("numerics.central_derivative.calls", "count", "numerics.central_derivative"),
    ("toda_sigma.node_calls_per_stencil", "calls/stencil", "numerics.central_derivative"),
    ("dpainleve.iterate.s", "s", "dpainleve.iterate"),
    ("dpainleve.iterate.calls", "count", "dpainleve.iterate"),
    ("dpainleve.iterate.steps", "count", "dpainleve.iterate"),
    ("dpainleve.iterate.unhealthy", "count", "dpainleve.iterate"),
    ("asymptotics.limit_report.s", "s", "asymptotics.limit_report"),
    ("asymptotics.precision_study.s", "s", "asymptotics.precision_study"),
    ("asymptotics.perturbation_study.s", "s", "asymptotics.perturbation_study"),
    ("asymptotics.escalations", "count", "asymptotics.limit_report"),
    ("trace.overhead_frac", "ratio", None),
)

# Counters that must repeat exactly between two traced passes of one job list.
# weights.moment.count is left out: it comes from replaying the first pass's
# oracle calls only, and follows from oracle.coeffs_oracle.rows.
DETERMINISTIC = tuple(
    name for name, unit, qual in PER_LAYER
    if unit in ("count", "bytes", "calls/stencil") and qual != "weights.moment"
) + ("oracle.coeffs_oracle.useful_ratio",)


def absent_functions():
    """Functions the per-layer metrics depend on that hypopq no longer exports."""
    package = sys.modules["hypopq"]
    public = set(package.__all__)
    missing = set()
    for _, _, qual in PER_LAYER:
        if qual is None:
            continue
        module, _, name = qual.partition(".")
        present = inspect.isfunction(getattr(sys.modules.get(f"hypopq.{module}"), name, None))
        # cli.run is the command-line entry point, not part of the library API
        if not present or (qual != "cli.run" and name not in public):
            missing.add(qual)
    return missing


def layer_counts(spans, base, output_bytes, moment_replay):
    """Per-layer values from one traced pass's spans.

    ``spans`` is the pass's slice of :attr:`Tracer.spans`, which starts at
    index ``base``.  ``output_bytes`` is the CLI output written during the
    pass and ``moment_replay`` the (seconds, moments) of the replayed moment
    batches.
    """
    outer = defaultdict(list)  # name -> spans with no ancestor of that name
    children = defaultdict(float)  # span index -> time covered by direct children
    for i, s in enumerate(spans, start=base):
        if s.parent is not None:
            children[s.parent] += s.seconds
        p = s.parent
        while p is not None and spans[p - base].name != s.name:
            p = spans[p - base].parent
        if p is None:
            outer[s.name].append((i, s))

    def busy(name):
        return sum(s.seconds for _, s in outer[name])

    def calls(name, site=None):
        return sum(1 for s in spans if s.name == name and (site is None or s.site == site))

    oracle = [s for s in spans if s.name == "oracle.coeffs_oracle"]
    nodes_by_job = defaultdict(set)
    for s in oracle:
        nodes_by_job[s.job].add(s.facts["node"])
    distinct = sum(len(v) for v in nodes_by_job.values())
    iterates = [s for s in spans if s.name == "dpainleve.iterate" and s.facts]
    stencils = calls("numerics.central_derivative", "toda_sigma")
    node_calls = sum(calls(name, "toda_sigma") for name in _NODE_PRODUCERS)
    return {
        "cli.run.s": busy("cli.run"),
        "cli.run.self_s": sum(s.seconds - children[i] for i, s in outer["cli.run"]),
        "cli.output_bytes": output_bytes,
        "oracle.coeffs_oracle.s": busy("oracle.coeffs_oracle"),
        "oracle.coeffs_oracle.calls": len(oracle),
        "oracle.coeffs_oracle.rows": sum(s.facts["rows"] for s in oracle),
        "oracle.coeffs_oracle.refused": sum(1 for s in oracle if s.error == "PrecisionExhausted"),
        "oracle.coeffs_oracle.distinct": distinct,
        "oracle.coeffs_oracle.useful_ratio": distinct / len(oracle) if oracle else 0.0,
        "weights.moment.s": moment_replay[0],
        "weights.moment.count": moment_replay[1],
        "toda_sigma.toda_residuals.s": busy("toda_sigma.toda_residuals"),
        "toda_sigma.sigma_pvi_residual.s": busy("toda_sigma.sigma_pvi_residual"),
        "toda_sigma.riccati_constant.s": busy("toda_sigma.riccati_constant"),
        "numerics.central_derivative.calls": calls("numerics.central_derivative"),
        "toda_sigma.node_calls_per_stencil": node_calls / stencils if stencils else 0.0,
        "dpainleve.iterate.s": busy("dpainleve.iterate"),
        "dpainleve.iterate.calls": calls("dpainleve.iterate"),
        "dpainleve.iterate.steps": sum(s.facts["steps"] for s in iterates),
        "dpainleve.iterate.unhealthy": sum(1 for s in iterates if s.facts["unhealthy"]),
        "asymptotics.limit_report.s": busy("asymptotics.limit_report"),
        "asymptotics.precision_study.s": busy("asymptotics.precision_study"),
        "asymptotics.perturbation_study.s": busy("asymptotics.perturbation_study"),
        "asymptotics.escalations": sum(
            s.facts["escalations"] for s in spans if s.name == "asymptotics.limit_report" and s.facts
        ),
    }


def replay_moments(spans):
    """Time public ``moment`` over the batch each traced oracle call summed.

    For a call ``coeffs_oracle(params, N, ctx)`` that is ``moment(std, 2N+1,
    ctx')`` at ``ctx.bits`` and ``2 * ctx.bits``, where ``std`` is the
    standard-lattice form of ``params``.  Returns (seconds, moments computed).
    """
    weights = sys.modules["hypopq.weights"]
    seconds, count = 0.0, 0
    for s in spans:
        if s.name != "oracle.coeffs_oracle":
            continue
        params, N, ctx = s.facts["replay"]
        std = weights.shifted_params(params) if params.lattice is weights.Lattice.SHIFTED else params
        for bits in (ctx.bits, 2 * ctx.bits):
            work = ctx.with_bits(bits)
            t0 = time.perf_counter()
            weights.moment(std, 2 * N + 1, work)
            seconds += time.perf_counter() - t0
            count += 2 * N + 2
    return seconds, count


def toda_sweeps(spans, base):
    """Per job, [node calls, distinct nodes] made under toda_residuals spans.

    This is the redundancy a node cache removes: an ascending sweep
    n = 0..n_max recomputes every stencil node at each larger n.
    """
    per_job = defaultdict(lambda: [0, set()])
    for s in spans:
        if s.name not in ("oracle.coeffs_oracle", "dpainleve.iterate") or s.site != "toda_sigma":
            continue
        p = s.parent
        while p is not None and spans[p - base].name != "toda_sigma.toda_residuals":
            p = spans[p - base].parent
        if p is not None:
            entry = per_job[s.job]
            entry[0] += 1
            entry[1].add(s.facts["node"] if s.facts else None)
    return [[calls, len(nodes)] for _, (calls, nodes) in sorted(per_job.items())]
