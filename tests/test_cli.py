"""Command-line interface: output formats, exit codes, reproducibility."""

import dataclasses
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ballgrad import proofcheck
from ballgrad.cli import _DEFAULT_TOLS, _field_dict, build_parser, main
from ballgrad.closedform4 import (c_at_zero, frak_c, gradient_bound,
                                  sharp_constant_report)
from ballgrad.exceptions import EvaluationError, QuadratureError
from ballgrad.proofcheck import VerificationReport
from test_kernelint import C_N3_REF


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


def test_constant_prints_the_library_values(capsys):
    # near the sphere frak_c/(1 - r*r) and frak_c/(1 + r) round differently
    # from gradient_bound's factored form and from c_at_zero
    r = 0.999
    code, out, _ = run_cli(capsys, "constant", "--r", str(r), "--json", "--no-timing")
    assert code == 0
    (rep,) = json.loads(out)["reports"]
    assert rep["frak_c"] == frak_c(r)
    assert rep["c_at_zero"] == c_at_zero(r)
    assert rep["gradient_bound"] == gradient_bound(r)


@pytest.mark.parametrize("n,key,expected,tol", [
    (5, "gradient_bound", 2.4494075287311972, 1e-9),  # spherical-rule value
    (3, "c_at_zero", C_N3_REF[(0.5, 0.0)], 1e-10),
])
def test_constant_by_quadrature(capsys, n, key, expected, tol):
    code, out, _ = run_cli(capsys, "constant", "--n", str(n), "--r", "0.5",
                           "--json", "--no-timing")
    assert code == 0
    (rep,) = json.loads(out)["reports"]
    assert rep["method"] == "quadrature_exploratory"
    assert abs(rep[key] - expected) / expected < tol


def test_constant_labels_the_series_branch(capsys):
    """Below SERIES_R_THRESHOLD all three numbers come from the series,
    and the record says so, as sharp_constant_report does."""
    code, out, _ = run_cli(capsys, "constant", "--r", "5e-4", "--json", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    (rep,) = doc["reports"]
    assert rep["method"] == sharp_constant_report(5e-4).method == "series_branch"
    assert doc["manifest"]["method_tags"] == ["series_branch"]


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


@pytest.mark.parametrize("quantity,fn", [("frak_c", frak_c),
                                         ("c_at_zero", c_at_zero),
                                         ("gradient_bound", gradient_bound)])
def test_curve_prints_the_library_values(capsys, quantity, fn):
    code, out, _ = run_cli(capsys, "curve", "--quantity", quantity, "--steps", "5",
                           "--r-min", "0.5", "--r-max", "0.999",
                           "--json", "--no-timing")
    assert code == 0
    rows = json.loads(out)["reports"][0]["rows"]
    assert rows[-1][0] == 0.999
    assert all(v == fn(r) for r, v in rows)


def test_curve_gradient_bound_needs_r_max_below_one(capsys):
    # the default --r-max is 1, where the bound diverges
    code, _, err = run_cli(capsys, "curve", "--quantity", "gradient_bound")
    assert code == 2
    assert "--r-max" in err


def test_curve_rejects_bad_steps(capsys):
    assert run_cli(capsys, "curve", "--quantity", "frak_c", "--steps", "1")[0] == 2


# ---- verify ---------------------------------------------------------------


def test_verify_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 13
    assert all(l.startswith("PASS") for l in lines)


def test_verify_identities_json_names_the_complex_step(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--json",
                           "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["method_tags"] == ["complex_step", "sobol"]
    methods = {r["case_name"]: r["method"] for r in doc["reports"]}
    assert len(methods) == 13
    assert set(methods.values()) == {"complex_step", "pointwise"}
    assert [name for name, m in methods.items() if m == "pointwise"] \
        == ["psi_pair", "x_representation"]


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


def test_verify_sup_reads_r_steps(capsys):
    code, out, _ = run_cli(capsys, "verify", "sup", "--r-steps", "3",
                           "--json", "--no-timing")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["case_name"] for r in reports] == [
        "sup_n4_r0.05", "sup_n4_r0.50", "sup_n4_r0.95"]


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


def test_verify_oracle_failed_check_exits_one(capsys):
    """At --tol 0 the closed-form comparison fails by its rounding error,
    and the exit code says so."""
    code, out, _ = run_cli(capsys, "verify", "oracle", "--tol", "0")
    assert code == 1
    assert [l.split()[0] for l in out.strip().splitlines()] == [
        "PASS", "PASS", "PASS", "FAIL"]
    last = out.strip().splitlines()[-1]
    assert last.startswith("FAIL oracle_vs_closed_n4: worst=")
    assert last.endswith(" tol=0")


def test_verify_conjecture_small_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--n", "4",
                           "--r-steps", "2", "--theta-steps", "5")
    assert code == 0
    assert out.startswith("PASS conjecture_n4")


def test_verify_conjecture_exploratory_dimension_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--n", "5",
                           "--r-steps", "2", "--theta-steps", "3")
    assert code == 0


def _tilt_profiles(monkeypatch):
    """Make every product-rule profile grow with the angle:
    ``conjecture_report`` looks ``best_direction`` up at call time."""
    original = proofcheck.best_direction

    def tilted(n, r, theta_grid):
        bd = original(n, r, theta_grid)
        return dataclasses.replace(bd, profile=tuple(
            (t, v * (1.0 + t)) for t, v in bd.profile))

    monkeypatch.setattr(proofcheck, "best_direction", tilted)


def test_verify_conjecture_failed_disk_check_exits_one(capsys, monkeypatch):
    """n = 2 is judged by flatness; a profile whose values grow with the
    angle fails it, and the exit code says so."""
    _tilt_profiles(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--n", "2",
                           "--r-steps", "2", "--theta-steps", "3")
    assert code == 1
    assert out.startswith("FAIL conjecture_n2")


def test_verify_conjecture_failed_n4_check_exits_one(capsys, monkeypatch):
    """n = 4 fails when an oblique angle beats theta = 0 by more than the
    allowance."""
    _tilt_profiles(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--n", "4",
                           "--r-steps", "2", "--theta-steps", "3")
    assert code == 1
    assert out.startswith("FAIL conjecture_n4")


def test_verify_unknown_suite(capsys):
    assert run_cli(capsys, "verify", "nope")[0] == 2


@pytest.mark.parametrize("suite,key", [("identities", "identities"),
                                       ("lemmas", "inequalities"),
                                       ("oracle", "oracle_vs_closed")])
def test_verify_tol_recorded_under_the_key_it_overrides(capsys, suite, key):
    code, out, _ = run_cli(capsys, "verify", suite, "--tol", "0.25",
                           "--json", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["tolerances"] == {**_DEFAULT_TOLS, key: 0.25}
    assert 0.25 in {rep["tolerance"] for rep in doc["reports"]}


@pytest.mark.parametrize("argv", [
    ("verify", "sup", "--tol", "0.5"),
    ("verify", "conjecture", "--tol", "0.5"),
    ("constant", "--r", "0.5", "--tol", "0.5"),
    ("curve", "--tol", "0.5"),
    ("oracle", "--r", "0.5", "--tol", "0.5"),
    ("sweep", "--tol", "0.5"),
    ("constant", "--r", "0.5", "--method", "monte-carlo"),
    ("curve", "--samples", "100"),
    ("constant", "--r", "0.5", "--n", "1"),
    ("oracle", "--r", "0.5", "--n", "1"),
    ("sweep", "--n", "1"),
    ("verify", "conjecture", "--n", "1"),
    ("verify", "oracle", "--n", "1"),
    ("verify", "sup", "--n", "2"),
    ("verify", "lemmas", "--n", "3"),
    ("verify", "identities", "--n", "3"),
    ("verify", "conjecture", "--theta-steps", "1"),
    ("sweep", "--theta-steps", "1"),
    ("verify", "conjecture", "--r-steps", "0"),
    ("sweep", "--r-steps", "0"),
    ("verify", "sup", "--r-steps", "0"),
    ("oracle", "--r", "0.5", "--samples", "0"),
    ("oracle", "--r", "0.5", "--method", "monte-carlo", "--samples", "1"),
    ("verify", "oracle", "--seed", "-1"),
    ("verify", "sup", "--theta-steps", "1"),
    ("verify", "identities", "--r-steps", "3"),
    ("verify", "oracle", "--r-steps", "3"),
    ("verify", "lemmas", "--method", "monte-carlo"),
    ("verify", "sup", "--samples", "5"),
    ("verify", "lemmas", "--method", "monte-carlo", "--samples", "5"),
    ("verify", "oracle", "--tol", "0.5", "--method", "monte-carlo"),
    ("verify", "lemmas", "--tol", "nan"),
    ("verify", "lemmas", "--tol", "-1"),
    ("curve", "--quantity", "c_of_z", "--z-max", "nan"),
    ("curve", "--quantity", "c_of_z", "--z-max", "inf"),
    ("curve", "--n", "5"),
    ("curve", "--quantity", "c_of_z", "--r", "1"),
    ("oracle", "--r", "1"),
    ("oracle", "--r", "0.5", "--theta", "2"),
    ("verify", "--json", "identities"),
    # Monte Carlo is a library cross-check: no command takes its options
    ("verify", "conjecture", "--method", "product-gauss"),
    ("verify", "conjecture", "--samples", "20000"),
    ("verify", "oracle", "--method", "monte-carlo"),
    ("verify", "oracle", "--samples", "20000"),
    ("oracle", "--r", "0.5", "--method", "monte-carlo"),
    ("oracle", "--r", "0.5", "--samples", "20000"),
    ("sweep", "--method", "product-gauss"),
    ("sweep", "--samples", "20000"),
])
def test_options_rejected_where_nothing_reads_them(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert argv[-2] in err


@pytest.mark.parametrize("argv", [
    ("verify", "identities", "--n", "4", "--tol", "1e-7"),
    ("verify", "lemmas", "--n", "4", "--tol", "1e-12"),
    ("verify", "sup", "--n", "3", "--r-steps", "1"),
    ("verify", "conjecture", "--n", "2", "--r-steps", "1",
     "--theta-steps", "2"),
    ("verify", "oracle", "--n", "3", "--tol", "1e-6"),
    ("oracle", "--n", "3", "--r", "0.5", "--theta", "0.3"),
    ("sweep", "--n", "3", "--r-steps", "1", "--theta-steps", "2"),
])
def test_each_suite_takes_the_options_it_reads(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    ("verify", "identities"), ("verify", "lemmas"), ("verify", "sup"),
    ("verify", "oracle"),
    ("verify", "conjecture", "--n", "4", "--r-steps", "1", "--theta-steps", "50"),
    ("constant", "--r", "0.5"), ("oracle", "--r", "0.5"),
])
def test_every_suite_takes_the_output_options(capsys, tmp_path, argv):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, *argv, "--json", "--seed", "7",
                         "--no-timing", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["manifest"]["seed"] == 7


@pytest.mark.parametrize("argv", [
    ("constant", "--r", "0.5"), ("oracle", "--r", "0.5"),
    ("verify", "oracle"),
])
def test_out_without_json_writes_the_document_and_prints_the_text(
        capsys, tmp_path, argv):
    out = tmp_path / "report.json"
    _, text, _ = run_cli(capsys, *argv)
    _, doc, _ = run_cli(capsys, *argv, "--json", "--no-timing")
    code, printed, _ = run_cli(capsys, *argv, "--no-timing", "--out", str(out))
    assert code == 0
    assert printed == text
    assert json.loads(out.read_text())["reports"] == json.loads(doc)["reports"]


def _reject_constant(name):
    raise ValueError(f"not standard JSON: {name}")


@pytest.mark.parametrize("argv,case", [
    (("sup", "--n", "3", "--r-steps", "1"), "sup_n3_r0.05"),
    (("conjecture", "--n", "5", "--r-steps", "1", "--theta-steps", "3"),
     "conjecture_n5"),
])
def test_exploratory_reports_are_standard_json(capsys, argv, case):
    """An exploratory report has no tolerance: JSON null and text
    ``tol=none``, never Infinity, which standard JSON parsers reject."""
    code, out, _ = run_cli(capsys, "verify", *argv, "--json", "--no-timing")
    assert code == 0
    (rep,) = json.loads(out, parse_constant=_reject_constant)["reports"]
    assert (rep["case_name"], rep["tolerance"], rep["passed"]) == (case, None, True)
    _, text, _ = run_cli(capsys, "verify", *argv)
    assert text.startswith(f"PASS {case}: ") and text.endswith(" tol=none\n")


def test_verify_byte_determinism(capsys):
    _, a, _ = run_cli(capsys, "verify", "identities", "--json", "--no-timing")
    _, b, _ = run_cli(capsys, "verify", "identities", "--json", "--no-timing")
    assert a == b
    # the Sobol sample is unscrambled, so no report depends on the seed,
    # and none records it
    code, c, _ = run_cli(capsys, "verify", "identities", "--json",
                         "--no-timing", "--seed", "7")
    assert code == 0
    reports_a = json.loads(a)["reports"]
    assert {rep["seed"] for rep in reports_a} == {None}
    assert json.loads(c)["reports"] == reports_a


def _report(**fields):
    return VerificationReport(**{
        "case_name": "sup_n4_r0.50", "sample_desc": "512-point log grid",
        "worst_violation": -1.5e-16, "worst_location": (0.5, 0.0),
        "tolerance": 1e-9, "passed": True, "method": "log_grid",
        **fields})


@pytest.mark.parametrize("obj", [
    _report(),
    _report(seed=7, worst_location=(), note="seeded"),
    _report(worst_violation=0.0, worst_location=(0.25, 1.75),
            tolerance=math.inf, note="exploratory"),
], ids=["report", "report_seeded", "report_inf_tol"])
def test_field_dict_encodes_as_asdict(obj):
    def dump(payload):
        return json.dumps(payload, sort_keys=True, indent=2)

    assert dump(_field_dict(obj)) == dump(dataclasses.asdict(obj))


# ---- oracle / sweep -------------------------------------------------------


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "4", "--r", "0.5",
                           "--theta", "0.0")
    assert code == 0
    val = float(out.rsplit("=", 1)[1].split()[0])
    assert math.isclose(val, 2.249293440407359, rel_tol=1e-10)


@pytest.mark.parametrize("command", ["oracle", "constant"])
def test_dimension_past_the_gamma_overflow_exits_three(capsys, command):
    code, out, err = run_cli(capsys, command, "--r", "0.5", "--n", "400")
    assert code == 3
    assert out == ""
    assert err.startswith("evaluation failed: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,reason", [
    (("constant", "--n", "3", "--r", "0"), "quadrature values for n=3 need 0 < r < 1"),
    (("curve", "--r-min", "0.6", "--r-max", "0.2"), "bad radius range [0.6, 0.2]"),
])
def test_radii_outside_the_command_domain_exit_two(capsys, argv, reason):
    assert run_cli(capsys, *argv) == (2, "", f"usage error: {reason}\n")


@pytest.mark.parametrize("error", [QuadratureError, EvaluationError])
def test_typed_numerical_failure_exits_three(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("budget spent")

    monkeypatch.setattr(proofcheck, "sup_reports", fail)
    assert run_cli(capsys, "verify", "sup") == (3, "", "numerical failure: budget spent\n")


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


def test_readme_command_lines_parse():
    """Every command in README's command-line block parses as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [shlex.split(line, comments=True)
             for line in block.split("```", 1)[0].splitlines()]
    assert len(lines) >= 10 and all(w[0] == "ballgrad" for w in lines)
    for words in lines:
        build_parser().parse_args(words[1:])


def test_installed_script_help():
    res = subprocess.run([sys.executable, "-m", "ballgrad.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "constant" in res.stdout and "verify" in res.stdout
