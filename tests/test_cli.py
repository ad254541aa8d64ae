"""Command-line interface: schemas, exit codes, determinism.

Everything goes through run(argv) in-process; stdout/stderr are captured
with capsys, so these are full end-to-end runs minus the interpreter fork.
"""

import json
from fractions import Fraction

import pytest

import hypopq as H
from hypopq.cli import run
from hypopq.oracle import coeffs_oracle

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


def test_verify_identities_schema(capsys):
    doc, _ = run_json(capsys, ["verify", *ASYM, "--nmax", "5"])
    meta = doc["meta"]
    assert meta["suites"] == ["identities"]
    assert meta["ladder_included"] is True
    names = {r["name"] for r in doc["records"]}
    assert {"dp1", "dp2", "y_pair_sum", "uv_sum", "rs_sum"} <= names
    assert float(meta["max_residual"]) < 1e-60


def test_verify_toda_suite(capsys):
    doc, _ = run_json(
        capsys,
        ["verify", *ASYM, "--nmax", "1", "--suite", "toda", "--h", "2^-16",
         "--bits", "128"],
    )
    meta = doc["meta"]
    assert meta["source"] == "oracle"
    assert meta["h"].startswith("0.0000152587890625")
    names = {r["name"] for r in doc["records"]}
    assert {"toda_a2", "toda_b", "x_flow", "y_flow"} <= names
    assert float(meta["max_residual"]) < 1e-10


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
    run(["coeffs", *ASYM, "--nmax", "6"])
    first, _ = capsys.readouterr()
    run(["coeffs", *ASYM, "--nmax", "6"])
    second, _ = capsys.readouterr()
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run(["coeffs", *ASYM, "--nmax", "2", "--output", str(target)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["meta"]["subcommand"] == "coeffs"


# ------------------------------------------------------------ configuration


def test_decimal_inputs_flagged_inexact(capsys):
    doc, _ = run_json(
        capsys,
        ["coeffs", "--alpha", "1.5", "--beta", "3", "--gamma", "0.25",
         "--c", "0.5", "--nmax", "1"],
    )
    assert doc["meta"]["input_exact"] is False
    assert doc["meta"]["alpha"] == "3/2"  # still parsed exactly


def test_digits_flag_sets_bits(capsys):
    doc, _ = run_json(capsys, ["coeffs", *ASYM, "--nmax", "1", "--digits", "30"])
    assert doc["meta"]["bits"] == 100  # ceil(30 log2 10)


def test_env_default_bits(capsys, monkeypatch):
    monkeypatch.setenv("HYPOPQ_DEFAULT_BITS", "128")
    doc, _ = run_json(capsys, ["coeffs", *ASYM, "--nmax", "1"])
    assert doc["meta"]["bits"] == 128
    monkeypatch.setenv("HYPOPQ_DEFAULT_BITS", "not-a-number")
    assert run(["coeffs", *ASYM, "--nmax", "1"]) == 2
    capsys.readouterr()


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


def test_verify_tol_exit3_with_output(capsys):
    code = run(["verify", *ASYM, "--nmax", "3", "--tol", "1e-200"])
    out, err = capsys.readouterr()
    assert code == 3
    doc = json.loads(out)  # results are still emitted
    assert doc["records"]
    payload = json.loads(err)
    assert payload["error"] == "PrecisionExhausted"
    assert "exceeds tol" in payload["message"]


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


def test_bad_arguments_exit2(capsys):
    assert run(["coeffs", *ASYM]) == 2  # missing --nmax
    capsys.readouterr()
    assert run(["no-such-command", *ASYM]) == 2
    capsys.readouterr()
    assert run(["coeffs", *ASYM, "--nmax", "1", "--c", "2"]) == 2
    capsys.readouterr()
    # Decimal("inf") parses but has no Fraction: exit 2 with one JSON line
    for argv in (
        ["coeffs", "--alpha", "inf", *ASYM[2:], "--nmax", "1"],
        ["iterate", *ASYM, "--nmax", "1", "--seed-x0", "inf"],
    ):
        assert run(argv) == 2
        _, err = capsys.readouterr()
        assert json.loads(err)["error"] == "InvalidParam"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("hypopq ")
