"""The three seeded workloads: job generation, the timed call, and the checks.

A workload is a sequence of rounds.  A round is a fixed design of cells (the
input properties that set a job's cost, such as c, the range of N and the
bits), with the variant of each set (standard, shifted or Meixner) taken
from a fixed cycle, and the seed draws everything else: where the cycle
starts, the rationals alpha, beta and gamma, N within its cell's range, and
the order of the jobs.  Every round therefore costs about the same whatever
the seed, and the benchmark only ever measures whole rounds.

Jobs are checked off the clock against references that do not share the
code path being timed:

* Meixner sets (alpha = gamma) against their closed forms, to 1e-30;
* oracle output against the difference recursion on the n <= 10 prefix, and
  recursion output against the oracle, to 1e-10 (criterion 02);
* Toda residuals below 1e-15, sigma-PVI residuals below 1e-20 and
  |Riccati constant + gamma| below 1e-15 (criteria 05-07);
* the limit report against the iterate job of its own round, and each
  level of the precision study and each delta of the perturbation study
  against ``iterate`` runs made for the check.

A job that raises or fails a check is counted as failed and makes the run
incorrect.  The draws therefore leave out the sets on which the package is
known to fail (see ``draw_params``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

import hypopq
from hypopq import asymptotics, cli, dpainleve, oracle, toda_sigma

Lattice = hypopq.Lattice
Params = hypopq.Params
PrecisionCtx = hypopq.PrecisionCtx
Source = hypopq.Source

MODULES = {
    "cli": cli,
    "oracle": oracle,
    "dpainleve": dpainleve,
    "toda_sigma": toda_sigma,
    "asymptotics": asymptotics,
}

_DENOMS = (1, 2, 3, 4, 6, 8)
_H = F(2) ** -40  # stencil step of criteria 05-07
_PREFIX = 10


def _rational(rng, lo, hi):
    """A rational in (lo, hi] on a grid of step 1/d, d drawn from _DENOMS."""
    d = rng.choice(_DENOMS)
    return F(rng.randint(math.floor(lo * d) + 1, math.floor(hi * d)), d)


def _standard_form(params):
    """(alpha, beta, gamma) of the set on the standard lattice: a shifted set
    maps to alpha - gamma + 1, beta - gamma + 1, 2 - gamma."""
    a, b, g = params.alpha, params.beta, params.gamma
    if params.lattice is Lattice.SHIFTED:
        return a - g + 1, b - g + 1, 2 - g
    return a, b, g


def _meixner_form(params):
    """True when alpha or beta equals gamma in standard-lattice form.  There
    the orbit is a fixed point, x_n the same for every n and c, so several
    identities the package checks vanish on both sides."""
    a, b, g = _standard_form(params)
    return g in (a, b)


def _singular_step(params):
    """True when the recursion meets a 0/0 step at or next to c.

    Within n <= 10 at 128 bits, ``iterate`` stops (failure_index set) at c
    or at one of the stencil nodes c -+ 2^-40, or the orbit at c leaves the
    mean of the two neighbouring orbits, which is the orbit at c to O(h^2),
    by more than 1e-12 relative.  Generic sets stay below 1e-21; 128 bits
    resolve c -+ 2^-40 and put roundoff well below 1e-12.  The step is 0/0
    when x_{m-1} lands on a root of the quartic, which rational parameters
    and c allow: at m = 1 when x_0 is 1, alpha, beta or gamma in
    standard-lattice form, and later when alpha - gamma or beta - gamma is
    a positive integer.
    """
    ctx = PrecisionCtx(128)

    def orbit(c):
        p = Params(params.alpha, params.beta, params.gamma, c, params.lattice)
        return dpainleve.iterate(p, _PREFIX, ctx)

    at, lo, hi = orbit(params.c), orbit(params.c - _H), orbit(params.c + _H)
    if any(o.failure_index is not None for o in (at, lo, hi)):
        return True
    return any(
        abs(u - (v + w) / 2) > 1e-12 * max(abs(v + w) / 2, 1)
        for u, v, w in zip(at.x + at.y, lo.x + lo.y, hi.x + hi.y)
    )


def _integer_offset(params):
    """True when alpha - gamma or beta - gamma is a positive integer in
    standard-lattice form."""
    a, b, g = _standard_form(params)
    return any(d > 0 and d.denominator == 1 for d in (a - g, b - g))


def draw_params(rng, c, variant, distinct=False):
    """Random admissible parameters with alpha, beta, gamma in (0, 4].

    ``variant`` is one of
    * "standard" and "shifted" (gamma < min(2, alpha+1, beta+1)): generic
      sets;
    * "meixner": gamma = alpha on the standard lattice, which only the
      coeffs, xy and ladder jobs draw, to check against the closed forms.
    ``distinct`` forces alpha != beta, which the ladder data needs.

    Generic sets are redrawn where the package is known to fail, so that
    each workload runs without a failed job:
    * Meixner-form sets (alpha or beta equal to gamma in standard-lattice
      form).  The orbit is a fixed point and several identities vanish on
      both sides, so the package divides roundoff by roundoff: O(1) dp1/dp2
      residuals from ``verify --suite identities``, Toda and sigma-PVI
      residuals of 1, and divergence at n = 0 in the delta = 0 run of
      ``perturbation_study``.
    * Sets whose recursion meets a 0/0 step at the exact rational c
      (``_integer_offset``, ``_singular_step``).  ``dp1_step``'s guard then
      compares two roundoff values, so ``iterate`` stops there or returns
      an orbit wrong from that step on without flagging it, and the studies
      built on it refuse or misreport.  An integer offset can also make an
      x_n exactly 0, and ``precision_study`` then divides by it
      (2, 1/3, 1, 3/4 raises ZeroDivisionError).
    """
    while True:
        a, b = _rational(rng, 0, 4), _rational(rng, 0, 4)
        if distinct and a == b:
            continue
        if variant == "meixner":
            return Params(a, b, a, c)
        if variant == "shifted":
            top = min(F(2), a + 1, b + 1)
            g = _rational(rng, 0, top)
            if g == top:
                continue
            lattice = Lattice.SHIFTED
        else:
            g, lattice = _rational(rng, 0, 4), Lattice.STANDARD
        params = Params(a, b, g, c, lattice)
        if not (_meixner_form(params) or _integer_offset(params) or _singular_step(params)):
            return params


@dataclass
class Job:
    kind: str
    params: Params
    spec: dict
    shared: dict = field(default_factory=dict)  # state of the job's round


# ---------------------------------------------------------------------------
# reference values, computed with the untraced package functions


def _rel(got, want):
    d = abs(got - want)
    return d if want == 0 else d / abs(want)


def _affine_coeffs(params, x, y, S, ctx):
    """(a2, b) from the Painleve variables: the affine map of the paper."""
    a, bt, g, c = params.as_reals(ctx)
    a2, b = [], []
    for n in range(len(x)):
        b.append(x[n] + (n + (n + a + bt) * c - g) / (1 - c))
        a2.append(c / (1 - c) * (y[n] + S[n] + n * (n + a + bt - g - 1) / (1 - c)))
    return a2, b


def _affine_xy(params, a2, b, ctx):
    """(x, y) from the recurrence coefficients: inverse of _affine_coeffs."""
    a, bt, g, c = params.as_reals(ctx)
    x, y, S = [], [], ctx.mp.mpf(0)
    for n in range(len(b)):
        xn = b[n] - (n + (n + a + bt) * c - g) / (1 - c)
        y.append((1 - c) / c * a2[n] - S - n * (n + a + bt - g - 1) / (1 - c))
        x.append(xn)
        S += xn
    return x, y


def _meixner_reference(params, N, ctx):
    """Closed forms on the standard lattice when alpha or beta equals gamma:
    (a2, b, x, y) to order N, with bt the other one of alpha and beta."""
    a, bt, g, c = params.as_reals(ctx)
    if params.beta == params.gamma:
        bt = a
    a2 = [n * (n + bt - 1) * c / (1 - c) ** 2 for n in range(N + 1)]
    b = [(n + (n + bt) * c) / (1 - c) for n in range(N + 1)]
    return a2, b, [g] * (N + 1), [-n * g for n in range(N + 1)]


def _recursion_reference(params, N, ctx):
    """(a2, b, x, y) on the prefix n <= min(N, 10), from the recursion."""
    xy = dpainleve.iterate(params, min(N, _PREFIX), ctx)
    a2, b = _affine_coeffs(params, xy.x, xy.y, xy.S, ctx)
    return a2, b, list(xy.x), list(xy.y)


def _oracle_reference(params, ctx):
    """(x, y) on the prefix n <= 10, from the moment oracle."""
    try:
        cs = oracle.coeffs_oracle(params, _PREFIX, ctx)
    except hypopq.PrecisionExhausted:
        ctx = ctx.with_bits(2 * ctx.bits)
        cs = oracle.coeffs_oracle(params, _PREFIX, ctx)
    return _affine_xy(params, cs.a2, cs.b, ctx)


def _ladder_reference(params, a2, b, ctx):
    """(u, v, r, s) from coefficients, by the ladder definitions."""
    a, bt, g, c = params.as_reals(ctx)
    q, ab = (1 - c) / c, a - bt
    u, v, r, s = [], [], [], []
    bsum = ctx.mp.mpf(0)
    for n in range(len(b)):
        base = 2 * n + 1 - q * b[n] + (a + bt - g - 1) / c
        u.append((base + (n + 1 - bt) * q) / ab)
        v.append(-(base + (n + 1 - a) * q) / ab)
        rbase = ctx.mp.mpf(n * (n - 1)) / 2 - q * a2[n] + bsum
        r.append((rbase + bt * n) / ab)
        s.append(-(rbase + a * n) / ab)
        bsum += b[n]
    return u, v, r, s


def _compare(errors, label, got, want, tol, ctx, floor=0):
    """Append an error when any got[n] misses want[n] by more than tol.

    Both sides are read into ``ctx`` first.  The error is relative to
    max(|want|, floor): a floor of 1 suits quantities that pass through
    zero, and a floor at the reference's roundoff level suits quantities
    that are exactly zero but computed as roundoff.
    """
    for n, (g, w) in enumerate(zip(got, want)):
        g, w = ctx.real(g), ctx.real(w)
        err = abs(g - w) / max(abs(w), floor) if floor else _rel(g, w)
        if not err <= tol:
            errors.append(f"{label}[{n}] off by {float(err):.3g} (tol {tol:g})")
            return


def _mpf_digest(values):
    return hashlib.sha256(repr([v._mpf_ for v in values]).encode()).hexdigest()


class Workload:
    """Defaults shared by the workloads below.

    ``round(seed, r)`` returns round r's jobs; ``run(job, api)`` is the timed
    call, with ``api("module.function")`` resolving the package function;
    ``collect``, ``check`` and ``digest`` run off the clock.  ``check``
    returns a list of error messages.
    """

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def collect(self, job, raw):
        return raw

    def output_bytes(self, result):
        return 0


# ---------------------------------------------------------------------------
# oracle-sweep: in-process CLI invocations, one large oracle call each

_SUBCOMMANDS = ("coeffs", "xy", "ladder", "verify")
_SWEEP_VARIANTS = ("standard", "shifted", "standard", "meixner")

# (c, N range, bits).  Every c in {1/8, ..., 7/8} appears in at least two
# cells and N spans 5..50.  The large-N cells are sized to cost about the
# same (about 0.8 s each with mpmath's pure-Python backend on a 2-core
# x86-64 machine), with narrow N ranges, because a round's cost then hardly
# depends on the seed; three cheap small-N cells keep the CLI's own overhead
# visible.  128 bits appear only at small N: the oracle refuses N = 25 at
# 128 bits for some c = 1/8 sets.
_SWEEP_CELLS = (
    (F(1, 8), (5, 7), 128),
    (F(1, 8), (44, 48), 256),
    (F(1, 8), (36, 40), 512),
    (F(2, 8), (46, 50), 256),
    (F(2, 8), (30, 34), 512),
    (F(3, 8), (12, 16), 128),
    (F(3, 8), (46, 50), 256),
    (F(4, 8), (36, 40), 256),
    (F(4, 8), (24, 28), 512),
    (F(5, 8), (8, 11), 128),
    (F(5, 8), (28, 32), 256),
    (F(5, 8), (18, 22), 512),
    (F(6, 8), (20, 24), 256),
    (F(6, 8), (10, 14), 512),
    (F(7, 8), (10, 14), 256),
    (F(7, 8), (16, 20), 128),
)


class OracleSweep(Workload):
    name = "oracle-sweep"
    tail_q = 0.75
    min_jobs = 40
    trace_rounds = 1

    def round(self, seed, r):
        rng = random.Random(f"{self.name}/{seed}/{r}")
        jobs = []
        for i, (c, (lo, hi), bits) in enumerate(_SWEEP_CELLS):
            # each block of four cells runs every subcommand on one variant,
            # so a round holds every (subcommand, variant) pair once
            sub = _SUBCOMMANDS[(i + r) % len(_SUBCOMMANDS)]
            variant = _SWEEP_VARIANTS[(i // 4 + r + seed) % len(_SWEEP_VARIANTS)]
            if sub == "ladder" and variant == "shifted":
                variant = "standard"  # ladder data is defined on the standard lattice
            if sub == "verify" and variant == "meixner":
                variant = "standard"  # the identities vanish on both sides there
            params = draw_params(rng, c, variant, distinct=(sub == "ladder"))
            jobs.append(Job(sub, params, {"N": rng.randint(lo, hi), "bits": bits}))
        rng.shuffle(jobs)
        return jobs

    def argv(self, job):
        p = job.params
        argv = [job.kind]
        for flag, value in (("alpha", p.alpha), ("beta", p.beta), ("gamma", p.gamma), ("c", p.c)):
            argv += [f"--{flag}", str(value)]
        argv += ["--lattice", p.lattice.value, "--bits", str(job.spec["bits"])]
        argv += ["--nmax", str(job.spec["N"]), "--output", str(self._output)]
        if job.kind == "verify":
            argv += ["--suite", "identities"]
        return argv

    def run(self, job, api):
        return api("cli.run")(self.argv(job))

    @property
    def _output(self):
        return self.out_dir / "cli-output.json"

    def collect(self, job, code):
        data = self._output.read_bytes() if code == 0 else b""
        self._output.unlink(missing_ok=True)
        return code, data

    def digest(self, job, result):
        return hashlib.sha256(result[1]).hexdigest()

    def output_bytes(self, result):
        return len(result[1])

    def check(self, job, result):
        code, data = result
        if code != 0:
            return [f"exit code {code}"]
        p, N, bits = job.params, job.spec["N"], job.spec["bits"]
        doc = json.loads(data)
        meta, records = doc["meta"], doc["records"]
        errors = []
        if (meta["subcommand"], meta["bits"], meta.get("nmax")) != (job.kind, bits, N):
            errors.append(f"meta does not echo the request: {meta}")
        ctx = PrecisionCtx(bits + 64)
        if job.kind == "verify":
            if not records:
                errors.append("no identity residuals")
            for rec in records:
                res = ctx.real(rec["residual"])
                if not res < 1e-20:
                    errors.append(f"{rec['name']}[{rec['n']}] residual {float(res):.3g} (tol 1e-20)")
            return errors
        if len(records) != N + 1:
            return errors + [f"{len(records)} records for nmax={N}"]
        closed_form = p.is_meixner and p.lattice is Lattice.STANDARD
        if closed_form:
            a2, b, x, y = _meixner_reference(p, N, ctx)
            tol = 1e-30
        else:
            a2, b, x, y = _recursion_reference(p, N, PrecisionCtx(bits))
            tol = 1e-10

        def column(key):
            return [ctx.real(rec[key]) for rec in records[: len(b)]]

        # b_0 and y_0 are exactly 0 on some sets, and each side then holds
        # its own roundoff: below 2^(-bits/2) a value counts as zero
        zero = ctx.mp.ldexp(1, -bits // 2)
        if job.kind in ("coeffs", "xy"):
            _compare(errors, "a2", column("a2"), a2, tol, ctx, zero)
            _compare(errors, "b", column("b"), b, tol, ctx, zero)
        if job.kind == "xy":
            _compare(errors, "x", column("x"), x, tol, ctx, zero)
            _compare(errors, "y", column("y"), y, tol, ctx, zero)
        if job.kind == "ladder":
            for key, want in zip("uvrs", _ladder_reference(p, a2, b, ctx)):
                _compare(errors, key, column(key), want, tol, ctx, floor=1)
        return errors


# ---------------------------------------------------------------------------
# deformation: Toda sweep, sigma-PVI and Riccati, as in criteria 05-07

# (c, n_max, source, bits)
_DEFORM_CELLS = (
    (F(1, 8), 4, Source.ORACLE, 256),
    (F(1, 4), 3, Source.ORACLE, 256),
    (F(3, 8), 2, Source.ORACLE, 256),
    (F(1, 2), 1, Source.ORACLE, 256),
    (F(1, 2), 2, Source.ORACLE, 256),
    (F(5, 8), 1, Source.ORACLE, 256),
    (F(3, 4), 0, Source.ORACLE, 256),
    (F(1, 8), 2, Source.ORACLE, 512),
    (F(1, 4), 1, Source.ORACLE, 512),
    (F(1, 4), 5, Source.ITERATE, 256),
    (F(1, 2), 4, Source.ITERATE, 256),
    (F(3, 4), 3, Source.ITERATE, 256),
    (F(3, 8), 6, Source.ITERATE, 512),
)
_DEFORM_VARIANTS = ("standard", "shifted")


class Deformation(Workload):
    name = "deformation"
    tail_q = 0.75
    min_jobs = 40
    trace_rounds = 1

    def round(self, seed, r):
        rng = random.Random(f"{self.name}/{seed}/{r}")
        jobs = []
        for i, (c, n_max, source, bits) in enumerate(_DEFORM_CELLS):
            # consecutive jobs alternate the variant, so a run's share of
            # each is fixed
            k = r * len(_DEFORM_CELLS) + i + seed
            variant = _DEFORM_VARIANTS[k % len(_DEFORM_VARIANTS)]
            params = draw_params(rng, c, variant)
            spec = {"n_max": n_max, "source": source, "bits": bits}
            # sigma_n is defined on the standard lattice only
            spec["sigma_n"] = sorted({1, max(1, n_max)}) if variant == "standard" else []
            jobs.append(Job("deform", params, spec))
        rng.shuffle(jobs)
        return jobs

    def run(self, job, api):
        p, spec = job.params, job.spec
        ctx, src = PrecisionCtx(spec["bits"]), spec["source"]
        toda = api("toda_sigma.toda_residuals")
        sigma = api("toda_sigma.sigma_pvi_residual")
        return (
            [toda(p, n, _H, src, ctx).max_residual() for n in range(spec["n_max"] + 1)],
            [sigma(p, n, _H, src, ctx) for n in spec["sigma_n"]],
            api("toda_sigma.riccati_constant")(p, _H, ctx),
        )

    def digest(self, job, result):
        toda, sig, ric = result
        return _mpf_digest(toda + sig + [ric])

    def check(self, job, result):
        toda, sig, ric = result
        errors = []
        for n, res in enumerate(toda):
            if not res < 1e-15:
                errors.append(f"toda residual {float(res):.3g} at n={n} (tol 1e-15)")
        for n, res in zip(job.spec["sigma_n"], sig):
            if not res < 1e-20:
                errors.append(f"sigma-PVI residual {float(res):.3g} at n={n} (tol 1e-20)")
        gap = abs(ric + PrecisionCtx(job.spec["bits"]).real(job.params.gamma))
        if not gap < 1e-15:
            errors.append(f"|riccati constant + gamma| = {float(gap):.3g} (tol 1e-15)")
        return errors


# ---------------------------------------------------------------------------
# recursion: the difference recursion and the studies built on it

_REC_C = (F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4))
_REC_VARIANTS = ("standard", "shifted", "standard", "standard", "shifted")
_LEVELS = (10, 20, 50)
_DELTAS = (F(0), F(1, 10**6), -F(1, 10**6))


def _bits(digits):
    """The precision_study's bits for a digit level."""
    return max(24, math.ceil(digits * math.log2(10)))


def _limit_targets(params, ctx):
    """(x-limit, limit of y_n + n * x-limit), as the package documents them."""
    a, bt, g, _ = params.as_reals(ctx)
    if params.lattice is Lattice.SHIFTED:
        return ctx.mp.mpf(1), (1 - a) * (1 - bt)
    return g, (g - a) * (g - bt)


class Recursion(Workload):
    name = "recursion"
    tail_q = 0.95
    min_jobs = 200
    trace_rounds = 8

    def round(self, seed, r):
        """One parameter set per round, shared by six jobs.

        The limit report shares (N, bits) with the second iterate job, so
        it can be checked against an orbit whose prefix the oracle has
        vouched for.  The perturbation study runs at 512 bits and N <= 100:
        its baseline must take no singular step, and at 128 bits some
        c = 1/8 orbits take one before n = 40.
        """
        rng = random.Random(f"{self.name}/{seed}/{r}")
        k = r + seed  # the two cycles have coprime lengths: every pair appears
        params = draw_params(rng, _REC_C[k % len(_REC_C)], _REC_VARIANTS[k % len(_REC_VARIANTS)])
        n1, n2, n3 = rng.randint(100, 200), rng.randint(200, 300), rng.randint(300, 400)
        shared = {}
        specs = (
            ("iterate", {"N": n1, "bits": 128}),
            ("iterate", {"N": n2, "bits": 256, "ref": "iter2"}),
            ("iterate", {"N": n3, "bits": 512}),
            ("limit_report", {"N": n2, "bits": 256, "ref": "iter2"}),
            ("precision_study", {"N": rng.randint(100, 150), "levels": list(_LEVELS)}),
            ("perturbation_study", {"N": rng.randint(60, 100), "bits": 512, "ref": "pert"}),
        )
        jobs = [Job(kind, params, spec, shared) for kind, spec in specs]
        rng.shuffle(jobs)
        return jobs

    def run(self, job, api):
        p, spec = job.params, job.spec
        if job.kind == "precision_study":
            return api("asymptotics.precision_study")(p, spec["levels"], spec["N"])
        ctx = PrecisionCtx(spec["bits"])
        if job.kind == "iterate":
            return api("dpainleve.iterate")(p, spec["N"], ctx)
        if job.kind == "limit_report":
            return api("asymptotics.limit_report")(p, spec["N"], ctx)
        return api("asymptotics.perturbation_study")(p, list(_DELTAS), spec["N"], ctx)

    def digest(self, job, result):
        if job.kind == "iterate":
            flags = (result.failure_index, result.precision_suspect_at)
            return _mpf_digest(result.x + result.y) + repr(flags)
        reports = result if isinstance(result, list) else [result]
        return _mpf_digest([v for r in reports for v in (r.x_limit_gap, r.y_limit_gap)]) + repr(
            [(r.bits, r.N, r.divergence_index, r.digits, r.notes) for r in reports]
        )

    def _orbit(self, job):
        """The canonical orbit at the study's (N, bits).

        That is the round's iterate job with the same (N, bits) once it has
        run; otherwise (jobs run in random order, and the perturbation study
        has no such job) the same deterministic call is made here, off the
        clock.
        """
        ref = job.spec["ref"]
        if ref not in job.shared:
            job.shared[ref] = dpainleve.iterate(
                job.params, job.spec["N"], PrecisionCtx(job.spec["bits"])
            )
        return job.shared[ref]

    def check(self, job, result):
        p, spec = job.params, job.spec
        if job.kind == "iterate":
            if "ref" in spec:
                job.shared[spec["ref"]] = result
            if "oracle" not in job.shared:
                job.shared["oracle"] = _oracle_reference(p, PrecisionCtx(128))
            x_ref, y_ref = job.shared["oracle"]
            k = min(len(result.x), len(x_ref))
            errors = []
            ctx = PrecisionCtx(512)
            # x_0 is exactly 0 on some sets, and each side then holds its own
            # roundoff: below 2^-64, half the reference's 128 bits, a value
            # counts as zero
            zero = ctx.mp.ldexp(1, -64)
            _compare(errors, "x", result.x[:k], x_ref[:k], 1e-10, ctx, zero)
            _compare(errors, "y", result.y[:k], y_ref[:k], 1e-10, ctx, zero)
            return errors
        if job.kind == "precision_study":
            return self._check_precision_study(p, spec, result)
        if job.kind == "limit_report":
            return self._check_limit(p, spec, result, self._orbit(job))
        return self._check_perturbation(p, spec, result, self._orbit(job))

    def _gaps(self, params, orbit, N):
        tx, ty = _limit_targets(params, orbit.ctx)
        return abs(orbit.x[N] - tx), abs(orbit.y[N] + N * tx - ty)

    def _check_limit(self, p, spec, rep, orbit):
        steps = math.log2(rep.bits / spec["bits"])
        if rep.N != spec["N"] or steps not in (0, 1, 2, 3):
            return [f"limit report at N={rep.N}, {rep.bits} bits "
                    f"for N={spec['N']}, {spec['bits']} bits"]
        healthy = orbit.failure_index is None and orbit.precision_suspect_at is None
        if healthy != (steps == 0):
            return [f"escalated {steps:g} times but the orbit at {spec['bits']} bits "
                    f"is {'healthy' if healthy else 'unhealthy'}"]
        if healthy and (rep.x_limit_gap, rep.y_limit_gap) != self._gaps(p, orbit, spec["N"]):
            return ["limit gaps differ from the gaps of the iterate job's orbit"]
        return []

    def _check_precision_study(self, p, spec, reports):
        """Each level's N and divergence index, recomputed here from
        ``iterate`` runs at the level's bits and at the reference bits (four
        times the largest level, as the study documents): the first n where
        x_n or y_n is off the reference by more than 1e-3 relative."""
        levels, N = spec["levels"], spec["N"]
        want = [(d, _bits(d)) for d in levels]
        got = [(r.digits, r.bits) for r in reports]
        if got != want:
            return [f"levels/bits {got}, want {want}"]
        ref_ctx = PrecisionCtx(_bits(4 * max(levels)))
        ref = dpainleve.iterate(p, N, ref_ctx)
        tol = ref_ctx.mp.mpf("1e-3")

        def off(v, w):
            d = abs(ref_ctx.real(v) - w)
            return d != 0 if w == 0 else d / abs(w) > tol

        errors = []
        for rep in reports:
            run = dpainleve.iterate(p, N, PrecisionCtx(rep.bits))
            div = next((n for n in range(len(run.x))
                        if off(run.x[n], ref.x[n]) or off(run.y[n], ref.y[n])), run.failure_index)
            if (rep.N, rep.divergence_index) != (len(run.x) - 1, div):
                errors.append(f"{rep.digits} digits: N={rep.N}, divergence at "
                              f"{rep.divergence_index}; recomputed {len(run.x) - 1}, {div}")
        return errors

    def _check_perturbation(self, p, spec, reports, orbit):
        """Every delta against a seeded ``iterate`` run made here: its N,
        its divergence index (first n where the distance to the x-limit
        exceeds ten times the baseline's) and its limit gaps.  The delta = 0
        run replays the baseline, so it must not diverge."""
        if len(reports) != len(_DELTAS):
            return [f"{len(reports)} reports for {len(_DELTAS)} deltas"]
        if orbit.failure_index is not None:
            return [f"reports for a baseline with a singular step at n={orbit.failure_index}"]
        ctx = PrecisionCtx(spec["bits"])
        tx, _ = _limit_targets(p, ctx)
        base_gap = [abs(x - tx) for x in orbit.x]
        errors = []
        for delta, rep in zip(_DELTAS, reports):
            run = dpainleve.iterate(p, spec["N"], ctx, seed=(orbit.x[0] + ctx.real(delta), ctx.mp.mpf(0)))
            last = len(run.x) - 1
            div = next((n for n in range(len(run.x)) if abs(run.x[n] - tx) > 10 * base_gap[n]),
                       run.failure_index)
            if (rep.N, rep.divergence_index) != (last, div):
                errors.append(f"delta={delta}: N={rep.N}, divergence at "
                              f"{rep.divergence_index}; recomputed {last}, {div}")
            _compare(errors, f"delta={delta} gaps", (rep.x_limit_gap, rep.y_limit_gap),
                     self._gaps(p, run, last), 1e-10, PrecisionCtx(2 * spec["bits"]))
        div0 = reports[0].divergence_index
        if div0 is not None:
            errors.append(f"delta=0 diverges at n={div0}")
        return errors


WORKLOADS = {w.name: w for w in (OracleSweep, Deformation, Recursion)}
