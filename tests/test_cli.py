"""Command-line interface: output formats, exit codes, reproducibility."""

import json
import math
import subprocess
import sys

import pytest

from ballgrad.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---- constant -------------------------------------------------------------


def test_constant_text(capsys):
    code, out, _ = run_cli(capsys, "constant", "--r", "0.5")
    assert code == 0
    assert "frak_c" in out and "1.686970080305519" in out
    assert "gradient_bound" in out


def test_constant_json_schema(capsys):
    code, out, _ = run_cli(capsys, "constant", "--r", "0.5", "--json", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"manifest", "reports"}
    man = doc["manifest"]
    assert man["tool_version"]
    assert man["seed"] == 20220417
    assert man["wall_time"] is None
    (rep,) = doc["reports"]
    assert rep["r"] == 0.5 and rep["n"] == 4
    assert rep["method"] == "closed_form"
    assert math.isclose(rep["gradient_bound"], 2.249293440407359, rel_tol=1e-15)


def test_constant_boundary_radius_unbounded(capsys):
    code, out, _ = run_cli(capsys, "constant", "--r", "1.0")
    assert code == 0
    assert "unbounded" in out
    code, out, _ = run_cli(capsys, "constant", "--r", "1.0", "--json", "--no-timing")
    (rep,) = json.loads(out)["reports"]
    assert rep["gradient_bound"] is None
    assert math.isclose(rep["frak_c"], 3.0 * math.sqrt(3.0) / math.pi, rel_tol=1e-14)


def test_constant_disk(capsys):
    code, out, _ = run_cli(capsys, "constant", "--r", "0.3", "--n", "2",
                           "--json", "--no-timing")
    (rep,) = json.loads(out)["reports"]
    assert math.isclose(rep["frak_c"], 4.0 / math.pi, rel_tol=1e-14)


def test_constant_usage_errors(capsys):
    assert run_cli(capsys, "constant", "--r", "1.5")[0] == 2
    assert run_cli(capsys, "constant", "--r", "-0.1")[0] == 2
    assert run_cli(capsys, "constant")[0] == 2
    assert run_cli(capsys, "nosuchcommand")[0] == 2


# ---- curve ----------------------------------------------------------------


def test_curve_csv_profile(capsys):
    code, out, err = run_cli(capsys, "curve", "--quantity", "frak_c",
                             "--steps", "5", "--r-min", "0", "--r-max", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,value"
    assert len(lines) == 6
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == sorted(vals, reverse=True)  # strictly decreasing profile
    assert math.isclose(vals[0], 16.0 / (3.0 * math.pi), rel_tol=1e-14)
    # manifest goes to stderr when csv streams to stdout
    assert "tool_version" in err


def test_curve_directional_slice(capsys):
    code, out, _ = run_cli(capsys, "curve", "--quantity", "c_of_z",
                           "--r", "0.5", "--z-max", "4", "--steps", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,value"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[0] == max(vals)  # z = 0 is the maximum


def test_curve_out_writes_manifest_sidecar(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "curve", "--quantity", "gradient_bound",
                         "--steps", "3", "--r-min", "0.1", "--r-max", "0.9",
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("r,value")
    sidecar = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert sidecar["manifest"]["tool_version"]


def test_curve_rejects_bad_steps(capsys):
    assert run_cli(capsys, "curve", "--quantity", "frak_c", "--steps", "1")[0] == 2


# ---- verify ---------------------------------------------------------------


def test_verify_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 13
    assert all(l.startswith("PASS") for l in lines)


def test_verify_lemmas(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemmas")
    assert code == 0
    assert all(l.startswith("PASS") for l in out.strip().splitlines())


def test_verify_sup_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "sup", "--json", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reports"]) == 19
    assert all(r["passed"] for r in doc["reports"])


def test_verify_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify", "oracle")
    assert code == 0
    names = [l.split()[1].rstrip(":") for l in out.strip().splitlines()]
    assert names == ["kernel_mass", "gradient_vs_fd", "disk_center",
                     "oracle_vs_closed_n4"]


def test_verify_oracle_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "oracle", "--json", "--no-timing")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["case_name"] for r in reports] == [
        "kernel_mass", "gradient_vs_fd", "disk_center", "oracle_vs_closed_n4"]
    assert all(r["passed"] is True for r in reports)


def test_verify_conjecture_small_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--n", "4",
                           "--r-steps", "2", "--theta-steps", "5")
    assert code == 0
    assert out.startswith("PASS conjecture_n4")


def test_verify_conjecture_exploratory_dimension_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--n", "5",
                           "--r-steps", "2", "--theta-steps", "3")
    assert code == 0


def test_verify_unknown_suite(capsys):
    assert run_cli(capsys, "verify", "nope")[0] == 2


def test_verify_byte_determinism(capsys):
    _, a, _ = run_cli(capsys, "verify", "identities", "--json", "--no-timing")
    _, b, _ = run_cli(capsys, "verify", "identities", "--json", "--no-timing")
    assert a == b
    # a different seed must change the sample set but still pass
    code, c, _ = run_cli(capsys, "verify", "identities", "--json",
                         "--no-timing", "--seed", "7")
    assert code == 0
    assert c != a


# ---- oracle / sweep -------------------------------------------------------


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "4", "--r", "0.5",
                           "--theta", "0.0")
    assert code == 0
    val = float(out.rsplit("=", 1)[1].split()[0])
    assert math.isclose(val, 2.249293440407359, rel_tol=1e-10)


def test_oracle_monte_carlo_seeded(capsys):
    args = ("oracle", "--n", "4", "--r", "0.5", "--theta", "0.0",
            "--method", "monte-carlo", "--samples", "40000", "--seed", "5")
    _, a, _ = run_cli(capsys, *args)
    _, b, _ = run_cli(capsys, *args)
    assert a == b


def test_oracle_numerical_error_exit(capsys):
    code, _, err = run_cli(capsys, "oracle", "--n", "1", "--r", "0.5")
    assert code == 3
    assert "evaluation failed" in err


def test_oracle_rejects_z_option(capsys):
    # the oracle takes a direction angle, not the closed form's z
    code, _, err = run_cli(capsys, "oracle", "--r", "0.5", "--z", "1")
    assert code == 2
    assert "--z" in err


def test_sweep_disk(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--r-steps", "2",
                           "--theta-steps", "5")
    assert code == 0
    assert out.startswith("PASS conjecture_n2")


# ---- console entry point --------------------------------------------------


def test_installed_script_help():
    res = subprocess.run([sys.executable, "-m", "ballgrad.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "constant" in res.stdout and "verify" in res.stdout
