"""Command-line front end.

Subcommands mirror the library: sequence producers (moments, coeffs,
ladder, xy, iterate), residual suites (verify), deformation checks (sigma,
riccati), and studies (asymptotics, precision-study, perturb).

JSON is the authoritative format: {"meta": {...}, "records": [...]} with
every BigReal rendered as a decimal string that round-trips at the working
precision.  CSV mirrors the records but truncates to 30 digits.  Identical
invocations produce byte-identical output.

Exit codes: 0 success, 2 invalid input (including domain/pole/step
violations), 3 precision or convergence breakdown, 4 fatal singular step.
Every error is also written as a one-line JSON object to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import __version__
from .asymptotics import limit_report, perturbation_study, precision_study
from .dpainleve import dp_residuals, iterate
from .errors import (
    DomainExceeded,
    InvalidCoeffs,
    InvalidParam,
    NonConvergent,
    PoleHit,
    PrecisionExhausted,
    SingularStep,
    StepTooSmall,
)
from .numerics import PrecisionCtx, bits_for_digits, default_step, digits_for_bits
from .oracle import (
    coeffs_oracle,
    ladder_residuals,
    ladder_sequences,
    xy_from_coeffs,
)
from .toda_sigma import (
    Source,
    riccati_constant,
    sigma_pvi_residual,
    sigma_value,
    toda_residuals,
)
from .weights import Lattice, Params, _moment_list, _require_standard

_VALIDATION_ERRORS = (InvalidParam, InvalidCoeffs, DomainExceeded, StepTooSmall, PoleHit)
_PRECISION_ERRORS = (PrecisionExhausted, NonConvergent)


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with code 2 but prints usage text;
    # route through InvalidParam so all errors share the JSON convention.
    def error(self, message):
        raise InvalidParam(message)


def _parse_exact(text, name):
    """Rational-or-decimal string -> (Fraction, was_exact_notation)."""
    s = str(text).strip()
    try:
        if "/" in s:
            return Fraction(s), True
        if s.lstrip("+-").isdigit():
            return Fraction(int(s)), True
        return Fraction(Decimal(s)), False
    except (ValueError, ZeroDivisionError, InvalidOperation, OverflowError) as exc:
        raise InvalidParam(f"cannot parse {name}={s!r} as rational or decimal") from exc


def _parse_step(text):
    """Step sizes additionally accept the form 2^-40."""
    s = str(text).strip()
    m = re.fullmatch(r"2\^(-?\d+)", s)
    if m:
        return Fraction(2) ** int(m.group(1)), True
    return _parse_exact(s, "h")


@dataclass
class RunConfig:
    subcommand: str
    params: Params
    ctx: PrecisionCtx
    nmax: int | None
    h: Fraction | None
    fmt: str
    output: str | None
    input_exact: bool
    options: dict = field(default_factory=dict)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", required=True, help="rational like 3/2, or decimal")
    common.add_argument("--beta", required=True)
    common.add_argument("--gamma", required=True)
    common.add_argument("--c", required=True, help="weight ratio parameter in (0,1)")
    common.add_argument("--lattice", default="standard", choices=["standard", "shifted"])
    common.add_argument("--bits", type=int, default=None)
    common.add_argument("--digits", type=int, default=None, help="alternative to --bits")
    common.add_argument("--format", dest="fmt", default="json", choices=["json", "csv"])
    common.add_argument("--output", default=None, help="write to file instead of stdout")

    top = _Parser(prog="hypopq", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"hypopq {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("moments", parents=[common], help="power moments m_0..m_nmax")
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("coeffs", parents=[common], help="recurrence coefficients (oracle)")
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("ladder", parents=[common], help="ladder data u, v, r, s")
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("xy", parents=[common], help="Painleve variables via the oracle")
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("iterate", parents=[common], help="Painleve variables via the recursion")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--seed-x0", default=None, help="override the canonical x_0")
    p.add_argument("--strict", action="store_true", help="raise instead of truncating")

    p = sub.add_parser("verify", parents=[common], help="identity residual suites")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--suite", default="identities", choices=["identities", "toda", "all"])
    p.add_argument("--h", default=None, help="stencil step (toda), e.g. 2^-40")
    p.add_argument("--source", default="oracle", choices=["oracle", "iterate"])
    p.add_argument("--tol", default=None, help="fail (exit 3) if max residual exceeds this")

    p = sub.add_parser("sigma", parents=[common], help="sigma function and its ODE residual")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", default=None)
    p.add_argument("--source", default="oracle", choices=["oracle", "iterate"])

    p = sub.add_parser("riccati", parents=[common], help="seed Riccati combination (expected -gamma)")
    p.add_argument("--h", default=None)

    p = sub.add_parser("asymptotics", parents=[common], help="gaps to the conjectured limits")
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("precision-study", parents=[common], help="divergence index per digit level")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--digit-levels", required=True, help="comma-separated, e.g. 10,20,50")

    p = sub.add_parser("perturb", parents=[common], help="seed sensitivity study")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--deltas", required=True, help="comma-separated seed offsets")
    p.add_argument("--seed-x0", default=None, help="override the baseline x_0")
    return top


def _config(ns) -> RunConfig:
    exact = True
    vals = {}
    for name in ("alpha", "beta", "gamma", "c"):
        vals[name], ex = _parse_exact(getattr(ns, name), name)
        exact = exact and ex
    params = Params(
        vals["alpha"], vals["beta"], vals["gamma"], vals["c"], Lattice.parse(ns.lattice)
    )
    if ns.bits is not None and ns.digits is not None:
        raise InvalidParam("give --bits or --digits, not both")
    if ns.bits is not None:
        bits = ns.bits
    elif ns.digits is not None:
        bits = bits_for_digits(ns.digits)
    else:
        try:
            bits = int(os.environ.get("HYPOPQ_DEFAULT_BITS", "256"))
        except ValueError as exc:
            raise InvalidParam("HYPOPQ_DEFAULT_BITS must be an integer") from exc
    ctx = PrecisionCtx(bits=bits)

    h = None
    if getattr(ns, "h", None) is not None:
        h, ex = _parse_step(ns.h)
        exact = exact and ex
        if not 0 < h:
            raise InvalidParam("h must be positive")

    options = {}
    if hasattr(ns, "seed_x0") and ns.seed_x0 is not None:
        options["seed_x0"], ex = _parse_exact(ns.seed_x0, "seed-x0")
        exact = exact and ex
    if hasattr(ns, "strict"):
        options["strict"] = ns.strict
    if hasattr(ns, "suite"):
        options["suite"] = ns.suite
    if hasattr(ns, "source"):
        options["source"] = Source.parse(ns.source)
    if hasattr(ns, "tol") and ns.tol is not None:
        options["tol"], _ = _parse_exact(ns.tol, "tol")
    if hasattr(ns, "n"):
        options["n"] = ns.n
    if hasattr(ns, "digit_levels"):
        try:
            options["digit_levels"] = [int(t) for t in ns.digit_levels.split(",") if t.strip()]
        except ValueError as exc:
            raise InvalidParam("--digit-levels must be comma-separated integers") from exc
    if hasattr(ns, "deltas"):
        tokens = [t.strip() for t in ns.deltas.split(",") if t.strip()]
        if not tokens:
            raise InvalidParam("--deltas is empty")
        parsed = []
        for t in tokens:
            v, ex = _parse_exact(t, "delta")
            parsed.append((t, v))
            exact = exact and ex
        options["deltas"] = parsed

    return RunConfig(
        subcommand=ns.subcommand,
        params=params,
        ctx=ctx,
        nmax=getattr(ns, "nmax", None),
        h=h,
        fmt=ns.fmt,
        output=ns.output,
        input_exact=exact,
        options=options,
    )


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (records, extra_meta, exit, error)


def _step_value(cfg):
    return cfg.ctx.real(cfg.h) if cfg.h is not None else default_step(cfg.ctx)


def _study_record(rep, **extra):
    rec = dict(extra)
    rec.update(
        bits=rep.bits,
        N=rep.N,
        x_limit_gap=rep.x_limit_gap,
        y_limit_gap=rep.y_limit_gap,
        divergence_index=rep.divergence_index,
        digits=rep.digits,
        notes=rep.notes,
    )
    return rec


def _cmd_moments(cfg):
    if cfg.nmax < 0:
        raise InvalidParam("nmax must be >= 0")
    _require_standard(cfg.params, "moments")
    ms = _moment_list(cfg.params, cfg.nmax + 1, cfg.ctx)
    return [{"n": n, "m": ms[n]} for n in range(cfg.nmax + 1)], {}, 0, None


def _cmd_coeffs(cfg):
    cs = coeffs_oracle(cfg.params, cfg.nmax, cfg.ctx)
    records = [
        {"n": n, "a2": cs.a2[n], "b": cs.b[n]} for n in range(cfg.nmax + 1)
    ]
    return records, {}, 0, None


def _cmd_ladder(cfg):
    cs = coeffs_oracle(cfg.params, cfg.nmax, cfg.ctx)
    lad = ladder_sequences(cfg.params, cs, cfg.ctx)
    records = [
        {"n": n, "u": lad.u[n], "v": lad.v[n], "r": lad.r[n], "s": lad.s[n]}
        for n in range(cfg.nmax + 1)
    ]
    return records, {}, 0, None


def _cmd_xy(cfg):
    cs = coeffs_oracle(cfg.params, cfg.nmax, cfg.ctx)
    xy = xy_from_coeffs(cfg.params, cs, cfg.ctx)
    records = [
        {"n": n, "x": xy.x[n], "y": xy.y[n], "a2": cs.a2[n], "b": cs.b[n], "S": xy.S[n]}
        for n in range(cfg.nmax + 1)
    ]
    return records, {}, 0, None


def _cmd_iterate(cfg):
    seed = None
    if "seed_x0" in cfg.options:
        seed = (cfg.ctx.real(cfg.options["seed_x0"]), cfg.ctx.mp.mpf(0))
    xy = iterate(cfg.params, cfg.nmax, cfg.ctx, seed=seed, strict=cfg.options["strict"])
    records = [
        {"n": n, "x": xy.x[n], "y": xy.y[n], "S": xy.S[n]} for n in range(len(xy.x))
    ]
    extra = {
        "failure_index": xy.failure_index,
        "precision_suspect_at": xy.precision_suspect_at,
    }
    return records, extra, 0, None


def _cmd_verify(cfg):
    suites = ["identities", "toda"] if cfg.options["suite"] == "all" else [cfg.options["suite"]]
    ctx = cfg.ctx
    entries = []
    extra = {"suites": suites}
    if "identities" in suites:
        cs = coeffs_oracle(cfg.params, cfg.nmax, ctx)
        xy = xy_from_coeffs(cfg.params, cs, ctx)
        entries.extend(dp_residuals(cfg.params, xy, cs, ctx).entries)
        ladder_ok = (
            cfg.params.lattice is Lattice.STANDARD
            and cfg.params.alpha != cfg.params.beta
        )
        extra["ladder_included"] = ladder_ok
        if ladder_ok:
            lad = ladder_sequences(cfg.params, cs, ctx)
            entries.extend(ladder_residuals(cfg.params, lad, cs, ctx).entries)
    if "toda" in suites:
        h = _step_value(cfg)
        extra["h"] = ctx.to_decimal(h)
        src = cfg.options["source"]
        for n in range(cfg.nmax + 1):
            entries.extend(toda_residuals(cfg.params, n, h, src, ctx).entries)
        extra["source"] = src.value
    records = [{"name": e.name, "n": e.n, "residual": e.value} for e in entries]
    maxres = max((e.value for e in entries), default=ctx.mp.mpf(0))
    extra["max_residual"] = ctx.to_decimal(maxres)
    code, err = 0, None
    if "tol" in cfg.options:
        tol = ctx.real(cfg.options["tol"])
        if not maxres <= tol:
            code = 3
            err = {
                "error": "PrecisionExhausted",
                "message": f"max residual {ctx.to_decimal(maxres, 8)} exceeds tol",
            }
    return records, extra, code, err


def _cmd_sigma(cfg):
    ctx = cfg.ctx
    n = cfg.options["n"]
    h = _step_value(cfg)
    src = cfg.options["source"]
    sv = sigma_value(cfg.params, n, ctx.real(cfg.params.c), src, ctx)
    res = sigma_pvi_residual(cfg.params, n, h, src, ctx)
    extra = {"h": ctx.to_decimal(h), "source": src.value}
    records = [{"n": n, "c": ctx.real(cfg.params.c), "sigma": sv, "pvi_residual": res}]
    return records, extra, 0, None


def _cmd_riccati(cfg):
    ctx = cfg.ctx
    h = _step_value(cfg)
    const = riccati_constant(cfg.params, h, ctx)
    expected = -ctx.real(cfg.params.gamma)
    records = [
        {"constant": const, "expected": expected, "abs_error": abs(const - expected)}
    ]
    return records, {"h": ctx.to_decimal(h)}, 0, None


def _cmd_asymptotics(cfg):
    rep = limit_report(cfg.params, cfg.nmax, cfg.ctx)
    return [_study_record(rep)], {}, 0, None


def _cmd_precision_study(cfg):
    reports = precision_study(cfg.params, cfg.options["digit_levels"], cfg.nmax)
    return [_study_record(r) for r in reports], {}, 0, None


def _cmd_perturb(cfg):
    seed_x0 = cfg.options.get("seed_x0")
    tokens = [t for t, _ in cfg.options["deltas"]]
    values = [v for _, v in cfg.options["deltas"]]
    reports = perturbation_study(cfg.params, values, cfg.nmax, cfg.ctx, seed_x0=seed_x0)
    records = [
        _study_record(rep, delta=token) for token, rep in zip(tokens, reports)
    ]
    return records, {}, 0, None


_COMMANDS = {
    "moments": _cmd_moments,
    "coeffs": _cmd_coeffs,
    "ladder": _cmd_ladder,
    "xy": _cmd_xy,
    "iterate": _cmd_iterate,
    "verify": _cmd_verify,
    "sigma": _cmd_sigma,
    "riccati": _cmd_riccati,
    "asymptotics": _cmd_asymptotics,
    "precision-study": _cmd_precision_study,
    "perturb": _cmd_perturb,
}


# ---------------------------------------------------------------------------
# rendering


def _fmt_value(ctx, v, digits=None):
    if v is None or isinstance(v, (int, str, bool)):
        return v
    return ctx.to_decimal(v, digits)


def _meta(cfg, extra):
    meta = {
        "tool": "hypopq",
        "version": __version__,
        "subcommand": cfg.subcommand,
        "alpha": str(cfg.params.alpha),
        "beta": str(cfg.params.beta),
        "gamma": str(cfg.params.gamma),
        "c": str(cfg.params.c),
        "lattice": cfg.params.lattice.value,
        "bits": cfg.ctx.bits,
        "digits_equivalent": digits_for_bits(cfg.ctx.bits),
        "input_exact": cfg.input_exact,
    }
    if cfg.nmax is not None:
        meta["nmax"] = cfg.nmax
    meta.update(extra)
    return meta


def _render(cfg, records, extra):
    if cfg.fmt == "json":
        doc = {
            "meta": _meta(cfg, extra),
            "records": [
                {k: _fmt_value(cfg.ctx, v) for k, v in r.items()} for r in records
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    rows = [{k: _fmt_value(cfg.ctx, v, 30) for k, v in r.items()} for r in records]
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def _emit(cfg, text):
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_error(etype, message):
    sys.stderr.write(json.dumps({"error": etype, "message": message}) + "\n")


def run(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        cfg = _config(ns)
        records, extra, code, err = _COMMANDS[cfg.subcommand](cfg)
        _emit(cfg, _render(cfg, records, extra))
        if err is not None:
            _print_error(err["error"], err["message"])
        return code
    except SingularStep as exc:
        _print_error(type(exc).__name__, str(exc))
        return 4
    except _PRECISION_ERRORS as exc:
        _print_error(type(exc).__name__, str(exc))
        return 3
    except _VALIDATION_ERRORS as exc:
        _print_error(type(exc).__name__, str(exc))
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
