"""Command-line interface: schemas, exit codes, determinism.

Everything goes through run(argv) in-process; stdout/stderr are captured
with capsys, so these are full end-to-end runs minus the interpreter fork.
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import hypopq as H
from hypopq import cli
from hypopq.cli import run
from hypopq.numerics import MAX_BITS, bits_for_digits
from hypopq.oracle import coeffs_oracle
from hypopq.toda_sigma import Source, toda_residuals

from conftest import asym_params

F = Fraction

ASYM = ["--alpha", "3/2", "--beta", "3", "--gamma", "1/3", "--c", "1/2"]


def run_json(capsys, argv, expect_code=0):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == expect_code, (code, err)
    return json.loads(out), err


# ------------------------------------------------------------------ schemas


def test_coeffs_json_schema(capsys, ctx256):
    doc, err = run_json(capsys, ["coeffs", *ASYM, "--nmax", "4"])
    assert err == ""
    meta = doc["meta"]
    assert meta["tool"] == "hypopq"
    assert meta["subcommand"] == "coeffs"
    assert (meta["alpha"], meta["beta"]) == ("3/2", "3")
    assert meta["lattice"] == "standard"
    assert meta["bits"] == 256
    assert meta["digits_equivalent"] == 77
    assert meta["input_exact"] is True
    assert meta["nmax"] == 4
    recs = doc["records"]
    assert [r["n"] for r in recs] == [0, 1, 2, 3, 4]
    assert set(recs[0]) == {"n", "a2", "b"}
    # numbers are serialized as strings and round-trip bit-exactly
    want = coeffs_oracle(asym_params(), 4, ctx256)
    assert isinstance(recs[1]["a2"], str)
    assert ctx256.real(recs[1]["a2"]) == want.a2[1]
    assert ctx256.real(recs[3]["b"]) == want.b[3]
    assert ctx256.real(recs[0]["a2"]) == 0
    doc, _ = run_json(capsys, ["ladder", *ASYM, "--nmax", "3"])
    recs = doc["records"]
    assert [r["n"] for r in recs] == [0, 1, 2, 3]
    assert set(recs[0]) == {"n", "u", "v", "r", "s"}
    lad = H.ladder_sequences(coeffs_oracle(asym_params(), 3, ctx256))
    for r in recs:
        for k in "uvrs":
            assert ctx256.real(r[k]) == getattr(lad, k)[r["n"]], (k, r["n"])


def test_xy_and_iterate_schemas(capsys):
    doc, _ = run_json(capsys, ["xy", *ASYM, "--nmax", "3"])
    assert set(doc["records"][0]) == {"n", "x", "y", "a2", "b", "S"}
    doc, _ = run_json(capsys, ["iterate", *ASYM, "--nmax", "3"])
    assert set(doc["records"][0]) == {"n", "x", "y", "S"}
    assert doc["meta"]["failure_index"] is None
    assert doc["meta"]["precision_suspect_at"] is None


def test_iterate_seed_override(capsys):
    doc, _ = run_json(
        capsys, ["iterate", *ASYM, "--nmax", "2", "--seed-x0", "6/5"]
    )
    assert doc["records"][0]["x"].startswith("1.2000000")


LADDER_NAMES = {"uv_sum", "rs_sum", "uv_weighted", "rs_weighted", "b_from_ladder",
                "a2_from_ladder"}


@pytest.mark.parametrize(
    "params, ladder",
    [
        (ASYM, True),
        (["--alpha", "1", "--beta", "1", "--gamma", "2", "--c", "1/2"], False),
        ([*ASYM, "--lattice", "shifted"], False),
    ],
    ids=["asym", "sym", "asym-shifted"],
)
def test_verify_identities_schema(capsys, params, ladder):
    # the ladder suite joins exactly where ladder_sequences is defined
    doc, _ = run_json(capsys, ["verify", *params, "--nmax", "5"])
    meta = doc["meta"]
    assert meta["suites"] == ["identities"]
    assert meta["ladder_included"] is ladder
    names = {r["name"] for r in doc["records"]}
    assert {"dp1", "dp2", "y_pair_sum"} <= names
    assert names & LADDER_NAMES == (LADDER_NAMES if ladder else set())
    assert float(meta["max_residual"]) < 1e-60


def test_verify_toda_suite(capsys):
    doc, _ = run_json(
        capsys,
        ["verify", *ASYM, "--nmax", "1", "--suite", "toda", "--h", "2^-16",
         "--bits", "128"],
    )
    meta = doc["meta"]
    assert meta["source"] == "oracle"
    assert meta["h"] == "1/65536"
    names = {r["name"] for r in doc["records"]}
    assert {"toda_a2", "toda_b", "x_flow", "y_flow"} <= names
    assert float(meta["max_residual"]) < 1e-10


def test_verify_toda_takes_h_exactly(capsys):
    # --h 0.001 reaches the stencil as 1/1000, not as its nearest 64-bit value
    doc, _ = run_json(capsys, ["verify", *ASYM, "--nmax", "1", "--suite", "toda", "--h", "0.001",
                               "--bits", "64"])
    ctx = H.PrecisionCtx(64)
    want = [e for n in (0, 1) for e in toda_residuals(
        asym_params(), n, F(1, 1000), Source.ORACLE, ctx).entries]
    assert [(r["name"], r["n"], r["residual"]) for r in doc["records"]] == [
        (e.name, e.n, ctx.to_decimal(e.value)) for e in want]
    assert doc["meta"]["h"] == "1/1000"


def test_sigma_and_riccati_schemas(capsys):
    doc, _ = run_json(capsys, ["sigma", *ASYM, "--n", "2", "--bits", "128"])
    rec = doc["records"][0]
    assert set(rec) == {"n", "c", "sigma", "pvi_residual"}
    assert float(rec["pvi_residual"]) < 1e-12
    doc, _ = run_json(capsys, ["riccati", *ASYM, "--bits", "128"])
    rec = doc["records"][0]
    assert set(rec) == {"constant", "expected", "abs_error"}
    assert rec["expected"].startswith("-0.3333333")
    assert float(rec["abs_error"]) < 1e-15


def test_asymptotics_and_studies_schemas(capsys):
    doc, _ = run_json(capsys, ["asymptotics", *ASYM, "--nmax", "40", "--bits", "128"])
    rec = doc["records"][0]
    assert rec["bits"] == 128 and rec["N"] == 40
    assert rec["divergence_index"] is None
    doc, _ = run_json(
        capsys, ["precision-study", *ASYM, "--nmax", "30", "--digit-levels", "8,20"]
    )
    recs = doc["records"]
    assert [r["digits"] for r in recs] == [8, 20]
    assert all(set(r) >= {"bits", "N", "divergence_index", "notes"} for r in recs)
    doc, _ = run_json(
        capsys,
        ["perturb", *ASYM, "--nmax", "30", "--deltas", "0,1e-4", "--bits", "128"],
    )
    recs = doc["records"]
    assert [r["delta"] for r in recs] == ["0", "1e-4"]
    assert recs[0]["divergence_index"] is None
    assert isinstance(recs[1]["divergence_index"], int)
    assert doc["meta"]["input_exact"] is False  # 1e-4 is decimal notation


def test_moments_csv_format(capsys):
    code = run(["moments", *ASYM, "--nmax", "2", "--format", "csv"])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m"
    assert len(lines) == 4
    # CSV values are truncated to 30 significant digits
    digits = lines[1].split(",")[1].replace("-", "").replace(".", "")
    assert len(digits.split("e")[0]) <= 31


# ---------------------------------------------------------------- determinism


def test_byte_identical_reruns(capsys):
    # the parser is shared by every run in the process: a refused argv,
    # --version and another subcommand in between must leave no trace
    argv = ["coeffs", *ASYM, "--nmax", "6", "--bits", "128"]
    assert run(argv) == 0
    first, _ = capsys.readouterr()
    assert run(["coeffs", *ASYM, "--nmax", "6", "--bits", "x"]) == 2
    with pytest.raises(SystemExit):
        run(["--version"])
    assert run(["iterate", *ASYM, "--nmax", "8", "--seed-x0", "2", "--strict",
                "--format", "csv"]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    second, _ = capsys.readouterr()
    assert first == second


@pytest.mark.parametrize("source", ["oracle", "iterate"])
def test_sigma_output_independent_of_history(capsys, source):
    # a Toda sweep leaves longer runs at the sigma call's stencil nodes; what
    # they serve must print the same bytes as the order-0 runs of a cold call
    p = ["--alpha", "1/3", "--beta", "1", "--gamma", "8", "--c", "1/16",
         "--bits", "128", "--source", source]
    H.clear_cache()
    assert run(["sigma", *p, "--n", "1"]) == 0
    cold, _ = capsys.readouterr()
    H.clear_cache()
    assert run(["verify", *p, "--suite", "toda", "--nmax", "3"]) == 0
    capsys.readouterr()
    assert run(["sigma", *p, "--n", "1"]) == 0
    warm, _ = capsys.readouterr()
    assert warm == cold


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run(["coeffs", *ASYM, "--nmax", "2", "--output", str(target)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["meta"]["subcommand"] == "coeffs"


def test_unwritable_output_refused_before_compute(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("computed before the --output check")

    monkeypatch.setattr(cli, "coeffs_oracle", boom)
    missing = tmp_path / "no_dir" / "x.json"
    code = run(["coeffs", *ASYM, "--nmax", "20", "--output", str(missing)])
    _, err = capsys.readouterr()
    assert code == 2
    assert json.loads(err)["error"] == "InvalidParam"

    # the check neither truncates an existing file nor leaves a new one
    # behind when the run then fails
    def refuse(*args, **kwargs):
        raise H.PrecisionExhausted("refused")

    monkeypatch.setattr(cli, "coeffs_oracle", refuse)
    kept = tmp_path / "kept.json"
    kept.write_text("earlier\n")
    for target in (kept, tmp_path / "new.json"):
        assert run(["coeffs", *ASYM, "--nmax", "2", "--output", str(target)]) == 3
        capsys.readouterr()
    assert kept.read_text() == "earlier\n"
    assert not (tmp_path / "new.json").exists()


# ------------------------------------------------------------ configuration


def test_decimal_inputs_flagged_inexact(capsys):
    doc, _ = run_json(
        capsys,
        ["coeffs", "--alpha", "1.5", "--beta", "3", "--gamma", "0.25",
         "--c", "0.5", "--nmax", "1"],
    )
    assert doc["meta"]["input_exact"] is False
    assert doc["meta"]["alpha"] == "3/2"  # still parsed exactly
    # a decimal step flags the run too; the 2^-k form does not
    for h, exact in (("0.0001", False), ("2^-10", True)):
        doc, _ = run_json(capsys, ["riccati", *ASYM, "--bits", "128", "--h", h])
        assert doc["meta"]["input_exact"] is exact, h
    assert doc["meta"]["h"] == "1/1024"


def test_digits_flag_sets_bits(capsys):
    doc, _ = run_json(capsys, ["coeffs", *ASYM, "--nmax", "1", "--digits", "30"])
    assert doc["meta"]["bits"] == 100  # ceil(30 log2 10)


def test_env_default_bits(capsys, monkeypatch):
    # the output depends on argv alone: no environment variable sets the
    # default precision
    argv = ["coeffs", *ASYM, "--nmax", "1"]
    monkeypatch.delenv("HYPOPQ_DEFAULT_BITS", raising=False)
    assert run(argv) == 0
    unset, _ = capsys.readouterr()
    monkeypatch.setenv("HYPOPQ_DEFAULT_BITS", "96")
    assert run(argv) == 0
    out, _ = capsys.readouterr()
    assert out == unset
    assert json.loads(out)["meta"]["bits"] == 256


def test_bits_digits_conflict(capsys):
    code = run(["coeffs", *ASYM, "--nmax", "1", "--bits", "64", "--digits", "10"])
    _, err = capsys.readouterr()
    assert code == 2
    assert json.loads(err)["error"] == "InvalidParam"


# ------------------------------------------------------------------ failures


def test_invalid_param_exit2(capsys):
    code = run(
        ["coeffs", "--alpha", "3/2", "--beta", "3", "--gamma", "0",
         "--c", "1/2", "--nmax", "2"]
    )
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload == {"error": "InvalidParam", "message": "gamma must be positive"}


def test_moments_shifted_exit2(capsys):
    code = run(["moments", *ASYM, "--lattice", "shifted", "--nmax", "2"])
    _, err = capsys.readouterr()
    assert code == 2
    assert json.loads(err)["error"] == "InvalidParam"


def test_precision_exhausted_exit3(capsys):
    code = run(["coeffs", *ASYM, "--nmax", "2", "--bits", "24"])
    _, err = capsys.readouterr()
    assert code == 3
    assert json.loads(err)["error"] == "PrecisionExhausted"


@pytest.mark.parametrize("command", ["moments", "iterate", "coeffs"])
def test_c_rounding_to_one_exit3(capsys, command):
    # c = 1 - 2^-60 is 1.0 as a float; the moment series has no term cap
    c = f"{2**60 - 1}/{2**60}"
    code = run([command, "--alpha", "1/3", "--beta", "1", "--gamma", "8", "--c", c,
                "--nmax", "4", "--bits", "128"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "NonConvergent"
    assert f"c={c}" in payload["message"]


@pytest.mark.parametrize("command", ["moments", "iterate", "coeffs"])
def test_c_over_term_budget_exit3(capsys, command):
    # c = 1 - 1e-9 would sum about 1.2e11 series terms; refused at once
    c = "999999999/1000000000"
    t0 = time.perf_counter()
    code = run([command, *ASYM[:6], "--c", c, "--nmax", "4", "--bits", "128"])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "NonConvergent"
    assert f"c={c}" in payload["message"]
    assert elapsed < 1


def test_verify_tol_exit3_with_output(capsys):
    code = run(["verify", *ASYM, "--nmax", "3", "--tol", "1e-200"])
    out, err = capsys.readouterr()
    assert code == 3
    doc = json.loads(out)  # results are still emitted
    assert doc["records"]
    payload = json.loads(err)
    assert payload["error"] == "PrecisionExhausted"
    assert "exceeds tol" in payload["message"]


@pytest.mark.parametrize("n", ["0", "-1"])
def test_sigma_n_below_one_exit2(capsys, monkeypatch, n):
    # the ODE residual refuses n < 1 before sigma_n is computed
    monkeypatch.setattr(cli, "sigma_value", lambda *args: pytest.fail("sigma_n computed"))
    code = run(["sigma", *ASYM, "--n", n, "--bits", "64"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "InvalidParam", "message": "n must be >= 1"}


def test_singular_step_exit4(capsys):
    # alpha == gamma with an explicit seed forces the generic path into the
    # 0/0 configuration at the very first step
    code = run(
        ["iterate", "--alpha", "3", "--beta", "2", "--gamma", "3", "--c", "1/2",
         "--nmax", "5", "--seed-x0", "3", "--strict"]
    )
    out, err = capsys.readouterr()
    assert code == 4
    payload = json.loads(err)
    assert payload["error"] == "SingularStep"
    assert "closed form" in payload["message"]


def test_ladder_alpha_eq_beta_exit2(capsys):
    code = run(
        ["ladder", "--alpha", "1", "--beta", "1", "--gamma", "2", "--c", "1/2",
         "--nmax", "3"]
    )
    _, err = capsys.readouterr()
    assert code == 2


def test_bad_arguments_exit2(capsys, tmp_path):
    assert run(["coeffs", *ASYM]) == 2  # missing --nmax
    capsys.readouterr()
    assert run(["no-such-command", *ASYM]) == 2
    capsys.readouterr()
    assert run(["coeffs", *ASYM, "--nmax", "1", "--c", "2"]) == 2
    capsys.readouterr()
    # Decimal("inf") parses but has no Fraction, the toda suite has no index
    # to check below nmax = 0, options are never abbreviated ("--h" is not
    # --help, "--nma" not --nmax), a lattice or source outside the choices,
    # a negative --tol and an --output that cannot be written are bad
    # arguments too: exit 2 with one JSON line
    for argv in (
        ["coeffs", "--alpha", "inf", *ASYM[2:], "--nmax", "1"],
        ["iterate", *ASYM, "--nmax", "1", "--seed-x0", "inf"],
        ["verify", *ASYM, "--nmax", "-1", "--suite", "toda"],
        ["moments", *ASYM, "--nmax", "-1"],
        ["coeffs", *ASYM, "--nmax", "2", "--h", "x"],
        ["coeffs", *ASYM, "--nma", "2"],
        ["coeffs", *ASYM, "--nmax", "1", "--lattice", "diagonal"],
        ["sigma", *ASYM, "--n", "1", "--source", "guess"],
        ["verify", *ASYM, "--nmax", "1", "--tol", "-1"],
        ["coeffs", *ASYM, "--nmax", "1", "--output", str(tmp_path / "no_dir" / "x.json")],
    ):
        assert run(argv) == 2
        _, err = capsys.readouterr()
        assert json.loads(err)["error"] == "InvalidParam"


@pytest.mark.parametrize("option, literal, largest, parse", [
    ("--h", "2^-6000000", "2^-99999", cli._parse_step),
    ("--tol", "1e-1000000", "1e-99999", lambda s: cli._parse_exact(s, "tol")),
])
def test_oversized_literal_exit2_before_it_is_built(capsys, option, literal, largest, parse):
    # 2^6000000 and 10^1000000 take megabytes at their peak (and a step
    # that small minutes of conversions before StepTooSmall); a literal whose
    # exponent has more than five digits is refused from its text
    tracemalloc.start()
    try:
        with pytest.raises(H.InvalidParam, match="exponent of more than five digits"):
            parse(literal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert run(["verify", *ASYM, "--suite", "toda", "--nmax", "1", "--bits", "64",
                option, literal]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidParam"
    assert parse(largest)[0] > 0  # five digits are taken


def _reached(*args, **kwargs):
    raise AssertionError("the work was reached")


@pytest.mark.parametrize("command, option, value, patched", [
    ("coeffs", "--bits", str(MAX_BITS + 1), "hypopq.cli.coeffs_oracle"),
    ("coeffs", "--digits", "4933", "hypopq.cli.coeffs_oracle"),
    ("coeffs", "--digits", "1" + "0" * 400, "hypopq.cli.coeffs_oracle"),
    ("precision-study", "--digit-levels", "10,1234", "hypopq.asymptotics.iterate"),
], ids=["bits", "digits", "digits-past-a-float", "digit-levels"])
def test_precision_above_the_ceiling_exit2_before_any_work(capsys, monkeypatch, command, option,
                                                           value, patched):
    # the ceiling is 4932 digits, and 1233 digit levels for the 4x reference
    # run; 10^400 digits is past a float
    assert bits_for_digits(4932) <= MAX_BITS < bits_for_digits(4933)
    assert bits_for_digits(4 * 1233) <= MAX_BITS < bits_for_digits(4 * 1234)
    monkeypatch.setattr(patched, _reached)
    assert run([command, *ASYM, "--nmax", "5", option, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "InvalidParam" and f"bits must be at most {MAX_BITS}" in doc["message"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("hypopq ")


def test_console_entry_point():
    # ``python -m hypopq.cli`` runs cli.main, which hands run()'s code to the shell
    src = str(Path(H.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def launch(*args):
        return subprocess.run([sys.executable, "-m", "hypopq.cli", *args], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})

    done = launch("--version")
    assert (done.returncode, done.stdout) == (0, f"hypopq {H.__version__}\n")
    done = launch("coeffs", *ASYM)  # missing --nmax
    assert (done.returncode, done.stdout) == (2, "")
    [line] = done.stderr.splitlines()
    assert json.loads(line)["error"] == "InvalidParam"
