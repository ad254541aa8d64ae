"""Command-line front end.

Subcommands mirror the library: sequence producers (moments, coeffs,
ladder, xy, iterate), residual suites (verify), deformation checks (sigma,
riccati), and studies (asymptotics, precision-study, perturb).

JSON is the authoritative format: {"meta": {...}, "records": [...]} with
every BigReal rendered as a decimal string that round-trips at the working
precision.  CSV mirrors the records but truncates to 30 digits.  Identical
invocations produce byte-identical output: the output depends on argv
alone.  The parser is built once, at import; each ``run`` parses into a
fresh namespace.  The precision is --bits, else --digits, else 256 bits, and
at most ``numerics.MAX_BITS``: a larger one exits 2 before any work.

Exit codes: 0 success, 2 invalid input (including domain/pole/step
violations), 3 precision or convergence breakdown, 4 fatal singular step.
Every non-zero exit comes from an exception, written as a one-line JSON
object to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import fields
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import __version__
from .asymptotics import limit_report, perturbation_study, precision_study
from .dpainleve import dp_residuals, iterate
from .errors import (
    DomainExceeded,
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
from .weights import Lattice, Params, _check_exponent, _moment_list, _require_standard

_VALIDATION_ERRORS = (InvalidParam, DomainExceeded, StepTooSmall, PoleHit)
_PRECISION_ERRORS = (PrecisionExhausted, NonConvergent)
_DEFAULT_BITS = 256


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with code 2 but prints usage text;
    # route through InvalidParam so all errors share the JSON convention.
    # Abbreviations are off: "--h" would otherwise mean --help and exit 0.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

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
        _check_exponent(s, name)
        return Fraction(Decimal(s)), False
    except (ValueError, ZeroDivisionError, InvalidOperation, OverflowError) as exc:
        raise InvalidParam(f"cannot parse {name}={s!r} as rational or decimal") from exc


def _parse_step(text):
    """Step sizes additionally accept the form 2^-40."""
    s = str(text).strip()
    m = re.fullmatch(r"2\^(-?\d+)", s)
    if m:
        _check_exponent(s, "h")
        return Fraction(2) ** int(m.group(1)), True
    return _parse_exact(s, "h")


def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--alpha", required=True, help="rational like 3/2, or decimal")
    common.add_argument("--beta", required=True)
    common.add_argument("--gamma", required=True)
    common.add_argument("--c", required=True, help="weight ratio parameter in (0,1)")
    common.add_argument("--lattice", default="standard", choices=["standard", "shifted"])
    common.add_argument("--bits", type=int, default=None)
    common.add_argument("--digits", type=int, default=None, help="alternative to --bits")
    common.add_argument("--format", dest="fmt", default="json", choices=["json", "csv"])
    common.add_argument("--output", default=None, help="write to file instead of stdout")
    nmax = _Parser(add_help=False)
    nmax.add_argument("--nmax", type=int, required=True)

    top = _Parser(prog="hypopq", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"hypopq {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def command(name, handler, help, parents=(common, nmax)):
        p = sub.add_parser(name, parents=list(parents), help=help)
        p.set_defaults(command=handler)
        return p

    command("moments", _cmd_moments, "power moments m_0..m_nmax")
    command("coeffs", _cmd_coeffs, "recurrence coefficients (oracle)")
    command("ladder", _cmd_ladder, "ladder data u, v, r, s")
    command("xy", _cmd_xy, "Painleve variables via the oracle")

    p = command("iterate", _cmd_iterate, "Painleve variables via the recursion")
    p.add_argument("--seed-x0", default=None, help="override the canonical x_0")
    p.add_argument("--strict", action="store_true", help="raise instead of truncating")

    p = command("verify", _cmd_verify, "identity residual suites")
    p.add_argument("--suite", default="identities", choices=["identities", "toda", "all"])
    p.add_argument("--h", default=None, help="stencil step (toda), e.g. 2^-40")
    p.add_argument("--source", default="oracle", choices=["oracle", "iterate"])
    p.add_argument("--tol", default=None, help="fail (exit 3) if max residual exceeds this")

    p = command("sigma", _cmd_sigma, "sigma function and its ODE residual", [common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", default=None)
    p.add_argument("--source", default="oracle", choices=["oracle", "iterate"])

    p = command("riccati", _cmd_riccati, "seed Riccati combination (expected -gamma)", [common])
    p.add_argument("--h", default=None)

    command("asymptotics", _cmd_asymptotics, "gaps to the conjectured limits")

    p = command("precision-study", _cmd_precision_study, "divergence index per digit level")
    p.add_argument("--digit-levels", required=True, help="comma-separated, e.g. 10,20,50")

    p = command("perturb", _cmd_perturb, "seed sensitivity study")
    p.add_argument("--deltas", required=True, help="comma-separated seed offsets")
    p.add_argument("--seed-x0", default=None, help="override the baseline x_0")
    return top


def _config(ns):
    """Replace the exact-valued arguments on ``ns`` by their parsed values,
    adding ``params``, ``ctx`` and ``input_exact``."""
    exact = []

    def parse(text, name):
        value, ex = _parse_exact(text, name)
        exact.append(ex)
        return value

    ns.params = Params(
        *(parse(getattr(ns, name), name) for name in ("alpha", "beta", "gamma", "c")),
        Lattice(ns.lattice),
    )
    if ns.digits is not None:
        if ns.bits is not None:
            raise InvalidParam("give --bits or --digits, not both")
        ns.bits = bits_for_digits(ns.digits)
    ns.ctx = PrecisionCtx(bits=_DEFAULT_BITS if ns.bits is None else ns.bits)

    if getattr(ns, "h", None) is not None:
        ns.h, ex = _parse_step(ns.h)
        exact.append(ex)
        if not 0 < ns.h:
            raise InvalidParam("h must be positive")
    if getattr(ns, "seed_x0", None) is not None:
        ns.seed_x0 = parse(ns.seed_x0, "seed-x0")
    if hasattr(ns, "source"):
        ns.source = Source(ns.source)
    if getattr(ns, "tol", None) is not None:
        ns.tol, _ = _parse_exact(ns.tol, "tol")
        if ns.tol < 0:
            raise InvalidParam("tol must be >= 0")
    if hasattr(ns, "digit_levels"):
        try:
            ns.digit_levels = [int(t) for t in ns.digit_levels.split(",") if t.strip()]
        except ValueError as exc:
            raise InvalidParam("--digit-levels must be comma-separated integers") from exc
    if hasattr(ns, "deltas"):
        tokens = [t.strip() for t in ns.deltas.split(",") if t.strip()]
        if not tokens:
            raise InvalidParam("--deltas is empty")
        ns.deltas = [(t, parse(t, "delta")) for t in tokens]
    ns.input_exact = all(exact)


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (records, extra_meta)


def _step_value(cfg):
    return cfg.h if cfg.h is not None else default_step(cfg.ctx)


def _study_record(rep, **extra):
    return {**extra, **{f.name: getattr(rep, f.name) for f in fields(rep)}}


def _rows(count, **columns):
    """Records n = 0 .. count - 1, each ``n`` and then every column's n-th value."""
    return [{"n": n, **{k: v[n] for k, v in columns.items()}} for n in range(count)]


def _cmd_moments(cfg):
    if cfg.nmax < 0:
        raise InvalidParam("nmax must be >= 0")
    _require_standard(cfg.params, "moments")
    return _rows(cfg.nmax + 1, m=_moment_list(cfg.params, cfg.nmax + 1, cfg.ctx)), {}


def _cmd_coeffs(cfg):
    cs = coeffs_oracle(cfg.params, cfg.nmax, cfg.ctx)
    return _rows(cfg.nmax + 1, a2=cs.a2, b=cs.b), {}


def _cmd_ladder(cfg):
    lad = ladder_sequences(coeffs_oracle(cfg.params, cfg.nmax, cfg.ctx))
    return _rows(cfg.nmax + 1, u=lad.u, v=lad.v, r=lad.r, s=lad.s), {}


def _cmd_xy(cfg):
    cs = coeffs_oracle(cfg.params, cfg.nmax, cfg.ctx)
    xy = xy_from_coeffs(cs)
    return _rows(cfg.nmax + 1, x=xy.x, y=xy.y, a2=cs.a2, b=cs.b, S=xy.S), {}


def _cmd_iterate(cfg):
    seed = None
    if cfg.seed_x0 is not None:
        seed = (cfg.ctx.real(cfg.seed_x0), cfg.ctx.mp.mpf(0))
    xy = iterate(cfg.params, cfg.nmax, cfg.ctx, seed=seed, strict=cfg.strict)
    extra = {
        "failure_index": xy.failure_index,
        "precision_suspect_at": xy.precision_suspect_at,
    }
    return _rows(len(xy.x), x=xy.x, y=xy.y, S=xy.S), extra


def _cmd_verify(cfg):
    suites = ["identities", "toda"] if cfg.suite == "all" else [cfg.suite]
    ctx = cfg.ctx
    entries = []
    extra = {"suites": suites}
    if "identities" in suites:
        cs = coeffs_oracle(cfg.params, cfg.nmax, ctx)
        xy = xy_from_coeffs(cs)
        entries.extend(dp_residuals(xy, cs).entries)
        try:
            entries.extend(ladder_residuals(cs).entries)
            extra["ladder_included"] = True
        except InvalidParam:  # the ladder is not defined for these params
            extra["ladder_included"] = False
    if "toda" in suites:
        if cfg.nmax < 0:
            raise InvalidParam("nmax must be >= 0")
        h = _step_value(cfg)
        extra["h"] = str(h)
        for n in range(cfg.nmax + 1):
            entries.extend(toda_residuals(cfg.params, n, h, cfg.source, ctx).entries)
        extra["source"] = cfg.source.value
    records = [{"name": e.name, "n": e.n, "residual": e.value} for e in entries]
    maxres = max((e.value for e in entries), default=ctx.mp.mpf(0))
    extra["max_residual"] = ctx.to_decimal(maxres)
    if cfg.tol is not None and not maxres <= ctx.real(cfg.tol):
        _emit(cfg, _render(cfg, records, extra))  # the table is written all the same
        raise PrecisionExhausted(f"max residual {ctx.to_decimal(maxres, 8)} exceeds tol")
    return records, extra


def _cmd_sigma(cfg):
    ctx = cfg.ctx
    n = cfg.n
    h = _step_value(cfg)
    res = sigma_pvi_residual(cfg.params, n, h, cfg.source, ctx)  # refuses n < 1 first
    sv = sigma_value(cfg.params, n, cfg.params.c, cfg.source, ctx)
    extra = {"h": str(h), "source": cfg.source.value}
    records = [{"n": n, "c": ctx.real(cfg.params.c), "sigma": sv, "pvi_residual": res}]
    return records, extra


def _cmd_riccati(cfg):
    ctx = cfg.ctx
    h = _step_value(cfg)
    const = riccati_constant(cfg.params, h, ctx)
    expected = -ctx.real(cfg.params.gamma)
    records = [
        {"constant": const, "expected": expected, "abs_error": abs(const - expected)}
    ]
    return records, {"h": str(h)}


def _cmd_asymptotics(cfg):
    rep = limit_report(cfg.params, cfg.nmax, cfg.ctx)
    return [_study_record(rep)], {}


def _cmd_precision_study(cfg):
    reports = precision_study(cfg.params, cfg.digit_levels, cfg.nmax)
    return [_study_record(r) for r in reports], {}


def _cmd_perturb(cfg):
    tokens = [t for t, _ in cfg.deltas]
    values = [v for _, v in cfg.deltas]
    reports = perturbation_study(cfg.params, values, cfg.nmax, cfg.ctx, seed_x0=cfg.seed_x0)
    records = [
        _study_record(rep, delta=token) for token, rep in zip(tokens, reports)
    ]
    return records, {}


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
    if hasattr(cfg, "nmax"):
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


def _write_output(cfg, text, mode="w"):
    try:
        with open(cfg.output, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParam(f"cannot write {cfg.output!r}: {exc.strerror or exc}") from exc


def _emit(cfg, text):
    if cfg.output:
        return _write_output(cfg, text)
    sys.stdout.write(text)


def _print_error(etype, message):
    sys.stderr.write(json.dumps({"error": etype, "message": message}) + "\n")


_PARSER = _build_parser()


def run(argv=None) -> int:
    try:
        cfg = _PARSER.parse_args(argv)
        _config(cfg)
        if cfg.output:  # refuse an unwritable target before any work
            existed = os.path.lexists(cfg.output)
            _write_output(cfg, "", "a")  # appending leaves an existing file as it is
            if not existed:
                os.remove(cfg.output)
        records, extra = cfg.command(cfg)
        _emit(cfg, _render(cfg, records, extra))
        return 0
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
