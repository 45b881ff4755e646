"""End-to-end CLI checks (subprocess level)."""

import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from conftest import run_cli

# Any RuntimeWarning (divide by zero, overflow, invalid value) fails a test here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_DROP = object()

# ref1f.json with the listed (key path, value) edits; _DROP deletes the key.
BAD_MODEL_CONFIGS = {
    "lambda_text": [("lambda", "x")],
    "lambda_null": [("lambda", None)],
    "tail_limit_text": [("coefficients.a.tail_limit", "abc")],
    "scale_text": [("coefficients.a.params.scale", "abc")],
    "sigma_text": [("drivers.m.sigma", "abc")],
    "lambda_60": [
        ("lambda", 60),
        ("coefficients.a.params.power", _DROP),
        ("coefficients.b.params.power", _DROP),
    ],
}


# Schedule files whose band fields are not [start, end, rate] numbers.
BAD_SCHEDULES = {
    "bands_not_lists": {"bands": [5, 6]},
    "end_text": {"bands": [[0, "x", 0.03], [10, None, 0.02]]},
    "rate_text": {"bands": [[0, 10, "abc"], [10, None, 0.02]]},
}


def _write_bad_model_configs(directory):
    text = resources.files("longrate").joinpath("data", "ref1f.json").read_text()
    for name, edits in BAD_MODEL_CONFIGS.items():
        cfg = json.loads(text)
        for path, value in edits:
            *parents, key = path.split(".")
            node = cfg
            for part in parents:
                node = node[part]
            if value is _DROP:
                del node[key]
            else:
                node[key] = value
        (directory / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")


def test_convert_pinned_output():
    out = run_cli("convert", "--t", 0, "--T", 10, "--from", "exp", "--to", "libor", "--value", 0.05)
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "0.0648721271"
    assert lines[1] == "round_trip_residual 0"


def test_convert_domain_violation_exits_2():
    out = run_cli("convert", "--t", 0, "--T", 10, "--from", "libor", "--to", "exp", "--value", -0.2)
    assert out.returncode == 2
    assert "error" in out.stderr.lower()
    assert out.stdout == ""


def test_unknown_subcommand_exits_2():
    out = run_cli("frobnicate")
    assert out.returncode == 2


def test_unknown_model_exits_2():
    out = run_cli("longrate", "--model", "nosuchmodel", "--t", 0, "--conv", "libor")
    assert out.returncode == 2
    assert "nosuchmodel" in out.stderr


def test_longrate_reference_model_pinned():
    out = run_cli("longrate", "--model", "ref1f", "--t", 0, "--conv", "libor")
    assert out.returncode == 0
    assert out.stdout.strip() == "0.75 CONVERGED"


def test_longrate_flat_curve():
    out = run_cli("longrate", "--curve", "flat:0.03", "--conv", "exp")
    assert out.stdout.strip() == "0.03 CONVERGED"
    out = run_cli("longrate", "--curve", "flat:0.03", "--conv", "libor")
    assert out.stdout.strip() == "inf DIVERGENT"


def test_longrate_trace_csv(tmp_path):
    trace = tmp_path / "trace.csv"
    out = run_cli("longrate", "--model", "pareto2", "--t", 0, "--conv", "pareto:2", "--trace", trace)
    assert out.returncode == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "horizon,rate"
    assert len(lines) > 50


def test_value_unit_flow_pinned():
    out = run_cli("value", "--model", "ref1f", "--flow", "T=10,amount=1", "--seed", 1)
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "0.116161616"


def test_value_rejects_bad_flow():
    out = run_cli("value", "--model", "ref1f", "--flow", "T=10", "--seed", 1)
    assert out.returncode == 2


def test_curve_table_and_probes():
    out = run_cli("curve", "--curve", "flat:0.03", "--probes", "10:10;20:40")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "maturity_years,discount_factor,exponential_rate"
    assert lines[1].startswith("1,0.970445534,0.03")
    assert lines[-1].startswith("time_consistency_residual ")
    assert float(lines[-1].split()[1]) <= 1e-12


def test_simulate_deterministic_csv(tmp_path):
    args = ("simulate", "--model", "ref1f", "--seed", 3, "--n", 100,
            "--grid", "lin:0:2:5", "--out")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(*args, a)
    run_cli(*args, b, env_extra={"LONGRATE_THREADS": "5"})
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "path,t,M"


def test_simulate_requires_seed():
    out = run_cli("simulate", "--model", "ref1f", "--n", 10, "--out", "x.csv")
    assert out.returncode == 2


def test_classify_json_shape(tmp_path):
    out = run_cli("classify", "--curve", "pareto:2:0.04")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["kind"] == "tail_pareto"
    assert doc["lambda"] == pytest.approx(2.0, rel=1e-2)
    assert doc["level"] == pytest.approx(0.04, rel=1e-2)


def test_audit_dir_reference_model_passes():
    out = run_cli("audit", "dir", "--model", "ref1f", "--seed", 7)
    assert out.returncode == 0
    assert out.stdout.strip().endswith("long-rate monotonicity audit: PASS")


def test_audit_strat_flat_curve_passes():
    out = run_cli("audit", "strat", "--curve", "flat:0.03")
    assert out.returncode == 0
    assert "stratification audit: PASS" in out.stdout


def test_audit_kernel_passes_and_writes_json(tmp_path):
    path = tmp_path / "audit.json"
    out = run_cli("audit", "kernel", "--model", "ref1f", "--seed", 7, "--n", 4000,
                  "--json", path)
    assert out.returncode == 0
    doc = json.loads(path.read_text())
    assert doc["kernel_conditions"]["verdict"] == "PASS"
    assert doc["deflated_bond"]["verdict"] == "PASS"


def test_audit_pareto_wrong_index_fails_with_exit_1():
    out = run_cli("audit", "pareto", "--model", "pareto2", "--seed", 5, "--n", 2000,
                  "--lam", 3)
    assert out.returncode == 1
    assert "FAIL" in out.stdout


def _check_statuses(stdout: str) -> dict:
    return {line[7:].split(":")[0]: line[1:5] for line in stdout.splitlines() if line[:1] == "["}


# At index 60 the decade minima stay finite and the means explode; at 400 every
# decade reads +inf, which is neither positive nor bounded evidence.
@pytest.mark.parametrize("lam, positivity", [("60", "PASS"), ("400", "FAIL")], ids=["60", "400"])
def test_audit_pareto_overflowing_index_fails_cleanly(lam, positivity):
    # t^lam and T^lam P overflow: the certificate reads them as +inf and FAILs
    out = run_cli("audit", "pareto", "--model", "pareto2", "--seed", 1, "--n", 100,
                  "--lam", lam)
    assert out.returncode == 1
    assert out.stderr == ""
    lines = out.stdout.splitlines()
    assert lines[-1] == f"tail-Pareto kernel certificate (index {lam}): FAIL"
    assert "[FAIL] bond tail scale stable" in out.stdout
    assert "'inf'" in next(line for line in lines if "bond tail scale" in line)
    status = _check_statuses(out.stdout)
    assert status["pathwise tail positivity"] == positivity
    assert status["expected tail boundedness"] == "FAIL"


def test_nan_maturity_writes_no_json(tmp_path):
    path = tmp_path / "curve.json"
    out = run_cli("curve", "--curve", "flat3", "--times", "1,nan", "--json", path)
    assert out.returncode == 2
    assert "nan,nan,nan" not in out.stdout
    assert not path.exists()


def test_single_path_simulation_still_works(tmp_path):
    # standard errors need two paths, but a one-path ensemble is still an ensemble
    out = run_cli("simulate", "--model", "ref1f", "--seed", 1, "--n", 1,
                  "--out", tmp_path / "paths.csv")
    assert out.returncode == 0
    assert out.stdout.endswith(" se 0\n")


def test_audit_pareto_underflowing_decades_fail_cleanly():
    # t^300 underflows to 0 on the decades before t = 0.1: no decade ratio is a division
    out = run_cli("audit", "pareto", "--model", "pareto2", "--seed", 1, "--n", 10,
                  "--grid", "0,0.001,0.01,0.1", "--lam", 300)
    assert out.returncode == 1
    assert out.stderr == ""
    assert "decade minima ['0', '0'," in out.stdout
    assert _check_statuses(out.stdout)["pathwise tail positivity"] == "FAIL"


def test_greenbook_pinned_rows():
    out = run_cli("greenbook", "--schedule", "greenbook_example")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert "30,0.349937749,0.035" in lines
    residual = next(l for l in lines if l.startswith("time_consistency_residual"))
    assert float(residual.split()[1]) > 0.0
    assert "tail_class exponential" in lines


def test_greenbook_rerun_byte_identical():
    a = run_cli("greenbook", "--schedule", "greenbook_example")
    b = run_cli("greenbook", "--schedule", "greenbook_example")
    assert a.stdout == b.stdout


def test_aggregate_discrete_with_estimate():
    mix = json.dumps({"kind": "discrete", "rates": [0.01, 0.03], "weights": [0.5, 0.5]})
    out = run_cli("aggregate", "--mix", mix, "--times", "0,10,100", "--estimate")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "t,aggregate_discount"
    est = next(l for l in lines if l.startswith("asymptotic_rate"))
    assert abs(float(est.split()[1]) - 0.01) < 1e-3


def test_aggregate_sample_writes_csv(tmp_path):
    path = tmp_path / "taus.csv"
    mix = json.dumps({"kind": "gamma", "shape": 2.0, "mean_rate": 0.04})
    out = run_cli("aggregate", "--mix", mix, "--sample", 100, "--seed", 11, "--out", path)
    assert out.returncode == 0
    assert "censored" in out.stdout
    lines = path.read_text().splitlines()
    assert lines[0] == "tau"
    assert len(lines) == 101


def test_all_numbers_use_nine_significant_digits():
    out = run_cli("value", "--model", "ref2f", "--flow", "T=10,amount=1", "--seed", 1)
    head = out.stdout.splitlines()[0]
    assert head == "0.104278075"  # 9 significant digits, no trailing noise


# malformed inputs whose error line must also say what the bound is
MALFORMED_INPUT_MESSAGES = {
    ("longrate", "--model", "ref1f", "--conv", "libor", "--horizon", 5):
        "error: horizon must exceed 10, the first probed offset",
    ("longrate", "--curve", "flat:0.03", "--t", "inf", "--conv", "exp"):
        "error: anchor time must be finite and nonnegative, got inf\n",
    ("audit", "strat", "--curve", "flat:0.03", "--t", "nan"):
        "error: anchor time must be finite and nonnegative, got nan\n",
    ("curve", "--curve", "flat3", "--times", "1,nan"):
        "error: maturities must be nonnegative numbers\n",
    ("curve", "--curve", "flat3", "--times", "-1"):
        "error: maturities must be nonnegative numbers\n",
    ("audit", "kernel", "--model", "ref1f", "--seed", 1, "--n", 1):
        "error: standard errors need at least 2 paths, got 1\n",
    ("audit", "pareto", "--model", "pareto2", "--seed", 1, "--n", 1):
        "error: standard errors need at least 2 paths, got 1\n",
}


@pytest.mark.parametrize(
    "args",
    [
        ("simulate", "--model", "ref1f", "--seed", 1, "--grid", "lin:0:10:x",
         "--out", "{tmp}/paths.csv"),
        ("audit", "kernel", "--model", "ref1f", "--seed", 1, "--grid", "lin:0:10:-1"),
        ("curve", "--curve", "flat:abc"),
        ("curve", "--curve", "pareto:a:b"),
        ("curve", "--curve", "flat:0.03", "--probes", "1:x"),
        ("aggregate", "--mix", "{tmp}/bad.json"),
        ("aggregate", "--mix", '{"kind":"discrete","weights":"x","rates":[1]}'),
        ("aggregate", "--mix", '{"kind":"gamma","shape":null,"mean_rate":0.04}'),
        ("value", "--model", "ref1f", "--flow", "T=abc,amount=1"),
        ("classify", "--curve", "flat:0.03", "--window", "1:y"),
        *(("longrate", "--model", f"{{tmp}}/{name}.json", "--conv", "libor")
          for name in BAD_MODEL_CONFIGS),
        ("longrate", "--model", "ref1f", "--conv", "libor", "--horizon", "inf"),
        ("longrate", "--model", "ref1f", "--conv", "libor", "--horizon", "1e400"),
        ("audit", "strat", "--curve", "gamma2", "--horizon", "inf"),
        ("audit", "dir", "--curve", "gamma2", "--horizon", "inf"),
        ("simulate", "--model", "ref1f", "--seed", 1, "--grid", "geom:0:10:3",
         "--out", "{tmp}/paths.csv"),
        *(("greenbook", "--schedule", f"{{tmp}}/{name}.json") for name in BAD_SCHEDULES),
        ("value", "--model", "ref2f", "--rho", 2, "--flow", "T=1,payoff=M", "--seed", 1,
         "--paths", 100),
        ("value", "--model", "ref2f", "--rho", "nan", "--flow", "T=1,payoff=M", "--seed", 1,
         "--paths", 100),
        ("simulate", "--model", "ref1f", "--seed", -1, "--n", 5, "--out", "{tmp}/x.csv"),
        ("audit", "kernel", "--model", "ref1f", "--seed", -1, "--n", 5),
        ("audit", "pareto", "--model", "ref1f", "--seed", -1, "--n", 5),
        ("audit", "dir", "--model", "ref1f", "--seed", -1, "--n", 5),
        ("value", "--model", "ref1f", "--flow", "T=1,payoff=M", "--seed", -1, "--paths", 100),
        ("aggregate", "--mix", '{"kind":"gamma","shape":2,"mean_rate":0.04}', "--sample", 5,
         "--seed", -1, "--out", "{tmp}/x.csv"),
        ("audit", "dir", "--curve", "flat:0.03", "--kappa", 0),
        ("audit", "dir", "--curve", "flat:0.03", "--kappa", "nan"),
        ("audit", "dir", "--curve", "flat:0.03", "--kappa", -1),
        ("audit", "dir", "--model", "ref1f", "--seed", 1, "--n", 5, "--kappa", 0),
        ("classify", "--curve", "flat:0.03", "--window", "1:inf"),
        ("audit", "kernel", "--model", "ref1f", "--seed", 1, "--n", 5, "--maturity", "nan"),
        ("audit", "kernel", "--model", "ref1f", "--seed", 1, "--n", 5, "--maturity", -1),
        ("audit", "pareto", "--model", "ref1f", "--seed", 1, "--n", 50, "--lam", "nan"),
        ("audit", "pareto", "--model", "ref1f", "--seed", 1, "--n", 50, "--lam", "inf"),
        ("audit", "dir", "--curve", "flat:0.03", "--kappa", "1e-300"),
        ("audit", "dir", "--model", "ref1f", "--seed", 1, "--n", 5, "--kappa", "1e-300"),
        *MALFORMED_INPUT_MESSAGES,
        # rejected after some maturities or probes are valid: nothing may be printed
        ("curve", "--curve", "flat3", "--times", "1,-1"),
        ("curve", "--curve", "flat3", "--times", "1,nan"),
        ("curve", "--curve", "flat3", "--probes", "10:x"),
    ],
)
def test_malformed_input_exits_2_without_traceback(tmp_path, args):
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    _write_bad_model_configs(tmp_path)
    for name, cfg in BAD_SCHEDULES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
    out = run_cli(*(str(a).replace("{tmp}", str(tmp_path)) for a in args))
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")
    assert MALFORMED_INPUT_MESSAGES.get(args, "") in out.stderr
    assert "Traceback" not in out.stderr
    assert "RuntimeWarning" not in out.stderr
    if args[0] == "curve":
        assert out.stdout == ""


def test_certificate_rejects_non_adjacent_tail_decades():
    """(2e3, 2e4] holds 20000 and (200, 2e3] is empty: (20, 200] is no neighbour."""
    out = run_cli("audit", "pareto", "--model", "pareto2", "--seed", 5, "--n", 2000,
                  "--grid", "0,20,200,20000")
    assert out.returncode == 2
    assert out.stderr == "error: ensemble grid too short: need at least two tail decades\n"


def test_zero_coupon_long_rate_overflow_falls_back_to_estimate():
    """kappa (exp(r / kappa) - 1) overflows at a tiny kappa; the estimate diverges."""
    out = run_cli("longrate", "--curve", "flat:0.03", "--conv", "zc:1e-300")
    assert out.returncode == 0
    assert out.stdout == "inf DIVERGENT\n"
    assert "Traceback" not in out.stderr


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, longrate, longrate.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
