"""End-to-end CLI checks, run in process through ``longrate.cli.main``.

The few checks that only a fresh interpreter can make (the module entry
point, the scipy-free import, worker-count byte identity across fresh
processes) use ``run_process``.
"""

import argparse
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_same_model_bits, run_cli, run_process
from longrate import cli, default_long_rate_horizons, model_to_config, save_model_config, zoo

# Any RuntimeWarning (divide by zero, overflow, invalid value) fails a test here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_DROP = object()

# ref1f's config with the listed (key path, value) edits; _DROP deletes the key.
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

# ref1f's config with booleans or strings where numbers belong: float() reads them all.
NON_NUMBER_MODEL_CONFIGS = {
    "factors_true": [("factors", True)],
    "lambda_true": [("lambda", True)],
    "sigma_true": [("drivers.m.sigma", True)],
    "sigma_pair_true": [("drivers.m.sigma", [[0, True]])],
    "sigma_pair_text": [("drivers.m.sigma", [["0", 0.2]])],
}


# Schedule files whose band fields are not [start, end, rate] numbers.
BAD_SCHEDULES = {
    "bands_not_lists": {"bands": [5, 6]},
    "end_text": {"bands": [[0, "x", 0.03], [10, None, 0.02]]},
    "rate_text": {"bands": [[0, 10, "abc"], [10, None, 0.02]]},
}


def _write_bad_model_configs(directory):
    text = json.dumps(model_to_config(zoo.zoo_model("ref1f")))
    for name, edits in {**BAD_MODEL_CONFIGS, **NON_NUMBER_MODEL_CONFIGS}.items():
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


@pytest.mark.parametrize("base, option, number", [
    (("convert", "--T", 10, "--from", "libor", "--to", "exp"), "--value", "-1e-2"),
    (("audit", "kernel", "--model", "ref2f", "--seed", 1, "--n", 5), "--rho", "-5E-1"),
    (("longrate", "--model", "ref1f", "--conv", "libor"), "--t", "-1.5e+1"),
    (("audit", "dir", "--curve", "flat3"), "--kappa", "-.2e1"),
], ids=["value", "rho", "t", "kappa"])
def test_negative_number_in_exponent_notation_is_a_value(base, option, number):
    """``--opt -1e-2`` reads as ``--opt=-1e-2``, in a subcommand and in a nested one."""
    spaced, joined = run_cli(*base, option, number), run_cli(*base, f"{option}={number}")
    assert "expected one argument" not in spaced.stderr
    assert (spaced.returncode, spaced.stdout, spaced.stderr) == (
        joined.returncode, joined.stdout, joined.stderr)
    if option == "--value":
        assert spaced.stdout.splitlines()[0] == "-0.0105360516"


def test_unknown_subcommand_exits_2():
    out = run_cli("frobnicate")
    assert out.returncode == 2


def test_unknown_model_exits_2():
    out = run_cli("longrate", "--model", "nosuchmodel", "--t", 0, "--conv", "libor")
    assert out.returncode == 2
    assert "nosuchmodel" in out.stderr


def test_model_resolves_by_path_else_catalogue_name(tmp_path):
    for name, model in zoo.model_zoo().items():
        assert_same_model_bits(cli._resolve_model(name), zoo.zoo_model(name))
        path = tmp_path / f"{name}.json"
        save_model_config(model, path)
        assert_same_model_bits(cli._resolve_model(str(path)), model)


def test_model_config_spelling_is_not_a_catalogue_name(tmp_path):
    out = run_cli("longrate", "--model", "ref1f.json", "--conv", "libor", cwd=tmp_path)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        "error: cannot resolve model 'ref1f.json': not a file or catalogue name\n"
    )


@pytest.mark.parametrize("t, row, horizon", [(0.07, 3, "23.7837371"), (0.05, 48, "10000000.1")])
def test_longrate_trace_rows_are_the_priced_maturities(tmp_path, t, row, horizon):
    """Each trace row's horizon is t + x as priced, not rebuilt from the last row."""
    path = tmp_path / "trace.csv"
    out = run_cli("longrate", "--model", "ref1f", "--t", t, "--conv", "libor", "--trace", path)
    assert out.returncode == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "horizon,rate"
    horizons = [line.split(",")[0] for line in lines[1:]]
    assert horizons == ["%.9g" % (t + x) for x in default_long_rate_horizons().tolist()]
    assert horizons[row] == horizon


def test_longrate_reference_model_pinned():
    out = run_cli("longrate", "--model", "ref1f", "--t", 0, "--conv", "libor")
    assert out.returncode == 0
    assert out.stdout.strip() == "0.75 CONVERGED"


def test_longrate_flat_curve():
    out = run_cli("longrate", "--curve", "flat:0.03", "--conv", "exp")
    assert out.stdout.strip() == "0.03 CONVERGED"
    out = run_cli("longrate", "--curve", "flat:0.03", "--conv", "libor")
    assert out.stdout.strip() == "inf DIVERGENT"


def test_longrate_json_names_where_and_why_a_tailless_curve_was_cut(tmp_path):
    """A CSV curve has no tail: the schedule stops past its last maturity, 1000."""
    curve = tmp_path / "curve.csv"
    curve.write_text("maturity_years,discount_factor\n"
                     + "".join(f"{T},{0.97 ** T!r}\n" for T in (1, 10, 100, 1000)))
    argv = ("longrate", "--curve", curve, "--t", 0, "--conv", "exp")
    out = run_cli(*argv, "--json", tmp_path / "out.json")
    assert out.returncode == 0 and out.stdout == run_cli(*argv).stdout
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["horizon"] == 1000.0
    assert doc["truncated_at"] == 1333.52143  # the next offset, 10 ** 3.125, to 9 digits
    assert doc["truncation_reason"] == "evaluator cannot price this maturity"
    out = run_cli("longrate", "--model", "ref1f", "--conv", "libor", "--json", tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["truncated_at"] is None and doc["truncation_reason"] is None


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


def test_flow_at_or_before_the_valuation_time_is_expired():
    out = run_cli("value", "--model", "ref1f", "--t", 5, "--flow", "T=1,amount=1")
    assert out.returncode == 0
    assert out.stdout == "0\nflow T=1 value=0 method=expired\n"


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
        "error: the tail-Pareto certificate needs at least 2 paths, got 1\n",
    ("value", "--model", "ref1f", "--flow", "T=10,amount=1,amount=2"):
        "error: --flow 'T=10,amount=1,amount=2': repeated key 'amount'\n",
    ("value", "--model", "ref1f", "--flow", "T=10,T=20,amount=1"):
        "error: --flow 'T=10,T=20,amount=1': repeated key 'T'\n",
    # numbers read from numpy arrays print as plain floats
    ("curve", "--curve", "{tmp}/half.csv"):
        "error: curve value at maturity 0 must be 1, got 0.5\n",
    ("audit", "dir", "--curve", "flat:0.03", "--times", "0,1e300"):
        "error: horizon 10.0 vanishes against anchor time 1e+300\n",
}


GAMMA_MIX = '{"kind":"gamma","shape":2,"mean_rate":0.04}'
BAD_SAMPLE_REQUESTS = [
    ("--sample", -3, "--seed", 1, "--out", "{tmp}/x.csv"),
    ("--sample", 0, "--seed", 1, "--out", "{tmp}/x.csv"),
    ("--sample", 5, "--out", "{tmp}/x.csv"),
    ("--sample", 5, "--seed", 1),
    ("--sample", 5, "--seed", 1, "--out", "{tmp}/x.csv", "--cap", "nan"),
    ("--sample", 5, "--seed", 1, "--out", "{tmp}/x.csv", "--cap", -1),
    ("--times", "1,-1", "--sample", 5, "--seed", 1, "--out", "{tmp}/x.csv"),
]

# Each size is named in the error line, as the array's bytes.
UNALLOCATABLE = {
    ("aggregate", "--mix", GAMMA_MIX, "--sample", 10**14, "--seed", 1, "--out", "{tmp}/x.csv"):
        "800000000000000-byte",
    ("simulate", "--model", "ref1f", "--seed", 1, "--n", 10**14, "--grid", "lin:0:10:3",
     "--out", "{tmp}/x.csv"): "(800000000000000 bytes)",  # the terminal row: no path array
    ("audit", "kernel", "--model", "ref1f", "--seed", 1, "--n", 10**14, "--grid", "lin:0:10:3"):
        "(2400000000000000 bytes)",
    ("value", "--model", "ref1f", "--flow", "T=10,amount=1", "--simulate-constants",
     "--seed", 1, "--paths", 10**14): "(800000000000000 bytes)",
}

# A file named on the command line that cannot be opened, read, decoded or
# written; the error line names it.  {tmp} is a directory, and latin1.json
# is not UTF-8.
UNUSABLE_FILES = {
    **{(*cmd, opt, "{tmp}/no_dir/x"): "{tmp}/no_dir/x" for cmd, opt in [
        (("aggregate", "--mix", GAMMA_MIX, "--sample", 5, "--seed", 1), "--out"),
        (("simulate", "--model", "ref1f", "--seed", 1, "--n", 5), "--out"),
        (("curve", "--curve", "flat3"), "--out"),
        (("greenbook", "--schedule", "greenbook_example"), "--out"),
        (("curve", "--curve", "flat3"), "--json"),
        (("classify", "--curve", "flat3"), "--json"),
        (("audit", "strat", "--curve", "flat3"), "--json"),
        (("longrate", "--model", "ref1f", "--conv", "libor"), "--trace"),
    ]},
    **{(*cmd[:2], path, *cmd[2:]): path for path in ("{tmp}", "{tmp}/latin1.json") for cmd in [
        ("longrate", "--model", "--conv", "libor"),
        ("longrate", "--curve", "--conv", "exp"),
        ("curve", "--curve"),
        ("classify", "--curve"),
        ("aggregate", "--mix"),
        ("greenbook", "--schedule"),
    ]},
}

# sigma = 1e200: every step variance overflows, in simulation and in valuation draws
OVERFLOWING_VARIANCE = {
    ("simulate", "--model", "{tmp}/sigma_huge.json", "--seed", 1, "--n", 5,
     "--out", "{tmp}/x.csv"): "error: the volatility schedule's variance over (0.0, 10.0) overflows",
    ("audit", "kernel", "--model", "{tmp}/sigma_huge.json", "--seed", 1, "--n", 5):
        "error: the volatility schedule's variance over (0.0, 10.0) overflows",
    ("value", "--model", "{tmp}/sigma_huge.json", "--flow", "T=1,payoff=M", "--seed", 1,
     "--paths", 100): "error: the volatility schedule's variance over (0.0, 1.0) overflows",
}

# options that only a model reads, given with --curve
CURVE_REJECTS = {
    ("longrate", "--curve", "flat3", "--conv", "exp", "--m", -1):
        "error: --m only applies to --model\n",
    ("longrate", "--curve", "flat3", "--conv", "exp", "--n", 2):
        "error: --n only applies to --model\n",
    ("audit", "strat", "--curve", "flat3", "--m", 2):
        "error: --m only applies to --model\n",
    ("audit", "strat", "--curve", "flat3", "--n", 2):
        "error: --n only applies to --model\n",
    ("audit", "dir", "--curve", "flat3", "--rho", "nan", "--seed", -5):
        "error: --seed only applies to --model\n",
    ("audit", "dir", "--curve", "flat3", "--n", 5):
        "error: --n only applies to --model\n",
    ("audit", "dir", "--curve", "flat3", "--rho", 0.5):
        "error: --rho only applies to --model\n",
}

# malformed values of each option, with the error line that names the problem
ERROR_LINES = {
    ("value", "--model", "ref1f", "--flow", "T10"):
        "error: --flow entry 'T10': expected key=value\n",
    ("value", "--model", "ref1f", "--flow", "amount=1"):
        "error: --flow 'amount=1': missing T=<time>\n",
    ("value", "--model", "ref1f", "--flow", "T=1,payoff=Q", "--seed", 1):
        "error: --flow 'T=1,payoff=Q': payoff must be M or N, got 'Q'\n",
    ("value", "--model", "ref1f", "--flow", "T=1,payoff=N", "--seed", 1):
        "error: payoff=N needs a two-factor model\n",
    ("curve", "--curve", "flat:0.03", "--probes", "1:2:3"):
        "error: --probes entry '1:2:3': expected t:x\n",
    ("aggregate", "--mix", "[1,2]"):
        "error: mixture config must be an object with a 'kind' key\n",
    ("aggregate", "--mix", '{"kind":"gamma","shape":2}'):
        "error: mixture config missing key 'mean_rate'\n",
    ("aggregate", "--mix", '{"kind":"beta"}'):
        "error: unknown mixture kind 'beta'\n",
    ("classify", "--curve", "flat:0.03", "--window", "1e3"):
        "error: --window '1e3': expected lo:hi\n",
    ("greenbook", "--schedule", "nosuch"):
        "error: cannot resolve schedule 'nosuch'\n",
    ("curve", "--curve", "pareto:2"):
        "error: curve spec 'pareto:2': expected pareto:<lam>:<level>\n",
    ("longrate", "--model", "ref1f", "--n", 2, "--conv", "exp"):
        "error: --n only applies to two-factor models\n",
    # a number read from a numpy array prints as a plain float
    ("aggregate", "--mix", '{"kind":"discrete","weights":[0.5,0.6],"rates":[0.01,0.02]}'):
        "error: weights must sum to 1 within 1e-12, got 1.1\n",
    # a nan grid time is no increase
    ("simulate", "--model", "ref1f", "--seed", 1, "--grid", "0,1,nan", "--out", "{tmp}/p.csv"):
        "error: grid must be increasing from 0 with at least two points\n",
    ("audit", "kernel", "--model", "ref1f", "--seed", 1, "--grid", "0,nan,2"):
        "error: grid must be increasing from 0 with at least two points\n",
    ("audit", "pareto", "--model", "ref1f", "--seed", 1, "--grid", "0,1,10,100,1000,nan"):
        "error: grid must be increasing from 0 with at least two points\n",
    # a list that names no number
    ("aggregate", "--mix", GAMMA_MIX, "--times", ","):
        "error: --times: expected comma-separated numbers, got ','\n",
    ("audit", "strat", "--curve", "flat:0.03", "--indices", ","):
        "error: --indices: expected comma-separated numbers, got ','\n",
    # booleans and strings are not numbers, though float() reads them
    ("aggregate", "--mix", '{"kind":"gamma","shape":"2","mean_rate":0.04}', "--times", "0,10"):
        "error: shape must be a number, got '2'\n",
    ("aggregate", "--mix", '{"kind":"gamma","shape":2,"mean_rate":true}', "--times", "0,10"):
        "error: mean rate must be a number, got True\n",
    ("aggregate", "--mix", '{"kind":"exponential","mean_rate":"0.04"}', "--times", "0,10"):
        "error: mean rate must be a number, got '0.04'\n",
    ("aggregate", "--mix", '{"kind":"discrete","weights":[true],"rates":[false]}'):
        "error: weights and rates must be numeric\n",
    ("aggregate", "--mix", '{"kind":"discrete","weights":["0.5","0.5"],"rates":[0.01,0.02]}'):
        "error: weights and rates must be numeric\n",
    ("value", "--model", "{tmp}/factors_true.json", "--flow", "T=10,payoff=M", "--seed", 1,
     "--paths", 1000): "error: model config factors: expected 1 or 2, got True\n",
    ("value", "--model", "{tmp}/lambda_true.json", "--flow", "T=10,payoff=M", "--seed", 1,
     "--paths", 1000): "error: model config lambda must be a number, got True\n",
    ("value", "--model", "{tmp}/sigma_true.json", "--flow", "T=10,payoff=M", "--seed", 1,
     "--paths", 1000): "error: model config drivers.m.sigma must be a number, got True\n",
    ("value", "--model", "{tmp}/sigma_pair_true.json", "--flow", "T=10,payoff=M", "--seed", 1,
     "--paths", 1000):
        "error: volatility schedule must be [start_time, sigma] pairs, got [[0, True]]\n",
    ("value", "--model", "{tmp}/sigma_pair_text.json", "--flow", "T=10,payoff=M", "--seed", 1,
     "--paths", 1000):
        "error: volatility schedule must be [start_time, sigma] pairs, got [['0', 0.2]]\n",
    # a quote that overflows is named before the round trip reads it back
    ("convert", "--T", 10, "--from", "exp", "--to", "zc:1e-300", "--value", 0.05):
        "error: the zc:1e-300 quote of exp rate 0.05 overflows the float range\n",
    ("convert", "--T", 10, "--from", "exp", "--to", "pareto:1e-308", "--value", 0.05):
        "error: the pareto:1e-308 quote of exp rate 0.05 overflows the float range\n",
    ("convert", "--t", "1e20", "--T", "1.0000000000000001e20", "--from", "exp", "--to", "libor",
     "--value", 0.05):
        "error: the libor quote of exp rate 0.05 overflows the float range\n",
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
        # a one-factor model ignores rho, but a rho outside [-1, 1] is still rejected
        ("simulate", "--model", "ref1f", "--rho", "nan", "--seed", 1, "--n", 5,
         "--out", "{tmp}/x.csv"),
        ("audit", "kernel", "--model", "ref1f", "--rho", "nan", "--seed", 1, "--n", 5),
        ("audit", "pareto", "--model", "ref1f", "--rho", "nan", "--seed", 1, "--n", 5),
        ("audit", "dir", "--model", "ref1f", "--rho", "nan", "--seed", 1, "--n", 5),
        ("value", "--model", "ref1f", "--rho", "nan", "--flow", "T=1,amount=1",
         "--simulate-constants", "--seed", 1, "--paths", 100),
        ("value", "--model", "ref1f", "--rho", 2, "--flow", "T=1,payoff=M", "--seed", 1,
         "--paths", 100),
        ("value", "--model", "ref2f", "--rho", "nan", "--flow", "T=1,amount=1"),
        # aggregate rejects a sample request before it prints the curve
        *(("aggregate", "--mix", GAMMA_MIX, *sample) for sample in BAD_SAMPLE_REQUESTS),
        # a size whose array cannot be allocated on any host (above 2^47 bytes)
        *UNALLOCATABLE,
        *UNUSABLE_FILES,
        *OVERFLOWING_VARIANCE,
        *CURVE_REJECTS,
        *ERROR_LINES,
    ],
)
def test_malformed_input_exits_2_without_traceback(tmp_path, args):
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes('{"kind": "gamma", "shape": "²"}'.encode("latin-1"))
    (tmp_path / "half.csv").write_text(
        "maturity_years,discount_factor\n0,0.5\n1,0.4\n", encoding="utf-8")
    huge = model_to_config(zoo.zoo_model("ref1f"))
    huge["drivers"]["m"]["sigma"] = [[0.0, 1e200]]
    (tmp_path / "sigma_huge.json").write_text(json.dumps(huge), encoding="utf-8")
    _write_bad_model_configs(tmp_path)
    for name, cfg in BAD_SCHEDULES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
    out = run_cli(*(str(a).replace("{tmp}", str(tmp_path)) for a in args))
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")
    assert MALFORMED_INPUT_MESSAGES.get(args, "") in out.stderr
    assert UNALLOCATABLE.get(args, "") in out.stderr
    assert UNUSABLE_FILES.get(args, "").replace("{tmp}", str(tmp_path)) in out.stderr
    assert OVERFLOWING_VARIANCE.get(args, "") in out.stderr
    assert CURVE_REJECTS.get(args, "") in out.stderr
    assert ERROR_LINES.get(args, "") in out.stderr
    assert "Traceback" not in out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert out.stdout == ""
    if args[0] == "simulate":  # simulate opens --out only after every check has passed
        out_path = str(args[args.index("--out") + 1]).replace("{tmp}", str(tmp_path))
        assert not os.path.exists(out_path)


# audit times that no horizon schedule can price from: the same line for both subjects
DIR_BAD_TIMES = {
    "-1,2": "error: anchor time must be finite and nonnegative, got -1.0\n",
    "0,nan": "error: anchor time must be finite and nonnegative, got nan\n",
    "0,inf": "error: anchor time must be finite and nonnegative, got inf\n",
    "0,1e25": "error: horizon 10.0 vanishes against anchor time 1e+25\n",
}


@pytest.mark.parametrize("times", DIR_BAD_TIMES)
def test_dir_audit_rejects_an_unpriceable_time_alike_for_model_and_curve(times):
    model = run_cli("audit", "dir", "--model", "ref1f", "--seed", 1, "--n", 5, f"--times={times}")
    curve = run_cli("audit", "dir", "--curve", "flat3", f"--times={times}")
    for out in (model, curve):
        assert (out.returncode, out.stdout, out.stderr) == (2, "", DIR_BAD_TIMES[times])


# one audit at an INCONCLUSIVE, a PASS and a FAIL verdict
@pytest.mark.parametrize("args", [
    ("--t", 100, "--indices", "2,3"),
    (),
    ("--t", 100),
], ids=["inconclusive", "pass", "fail"])
def test_audit_exits_1_exactly_when_a_check_fails(tmp_path, args):
    out = run_cli("audit", "strat", "--curve", "hyperbolic2", *args, "--json", tmp_path / "r.json")
    assert out.returncode == (1 if "\n[FAIL] " in "\n" + out.stdout else 0)
    text_verdict = out.stdout.splitlines()[-1].removeprefix("stratification audit: ")
    assert json.loads((tmp_path / "r.json").read_text())["verdict"] == text_verdict


def test_certificate_rejects_non_adjacent_tail_decades():
    """(2e3, 2e4] holds 20000 and (200, 2e3] is empty: (20, 200] is no neighbour."""
    out = run_cli("audit", "pareto", "--model", "pareto2", "--seed", 5, "--n", 2000,
                  "--grid", "0,20,200,20000")
    assert out.returncode == 2
    assert out.stderr == "error: ensemble grid too short: need at least two tail decades\n"


# Overflows the code handles, giving a limit or an error line: numpy must not warn of them.
HANDLED_OVERFLOWS = {
    ("aggregate", "--mix", '{"kind":"gamma","shape":1e308,"mean_rate":1e308}',
     "--times", "1e308"): (0, "t,aggregate_discount\n1e+308,0\n", ""),
    ("aggregate", "--mix", '{"kind":"discrete","weights":[0.5,0.5],"rates":[0,1e308]}',
     "--times", "0,1e308", "--estimate"):
        (0, "t,aggregate_discount\n0,1\n1e+308,0.5\nasymptotic_rate 6.93147181e-07 CONVERGED\n",
         ""),
    ("longrate", "--curve", "flat:-1e300", "--conv", "exp"):
        (2, "", "error: curve grid and values must be finite\n"),
}


@pytest.mark.parametrize("args", HANDLED_OVERFLOWS, ids=["gamma", "discrete", "flat-curve"])
def test_handled_overflow_prints_no_warning(args):
    out = run_cli(*args)
    assert (out.returncode, out.stdout, out.stderr) == HANDLED_OVERFLOWS[args]


def test_handled_overflow_warns_on_no_helper_thread():
    """--estimate's 41 horizons make three blocks of 16 over 4096 rates, r_i t overflows
    in each, and on 3 workers the helpers run two of them."""
    mix = json.dumps({"kind": "discrete", "weights": [1 / 4096] * 4096,
                      "rates": [1e308] + [i / 100 for i in range(4095)]})
    runs = [run_cli("aggregate", "--mix", mix, "--times", 0, "--estimate",
                    env_extra={"LONGRATE_THREADS": n}) for n in ("1", "3")]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, ""), (0, "")]
    assert runs[0].stdout == runs[1].stdout


def test_zero_coupon_long_rate_overflow_falls_back_to_estimate():
    """kappa (exp(r / kappa) - 1) overflows at a tiny kappa; the estimate diverges."""
    out = run_cli("longrate", "--curve", "flat:0.03", "--conv", "zc:1e-300")
    assert out.returncode == 0
    assert out.stdout == "inf DIVERGENT\n"
    assert "Traceback" not in out.stderr


def test_import_does_not_load_scipy():
    out = run_process("-c", "import sys, longrate, longrate.cli; print('scipy' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("args", [
    ("convert", "--T", 10, "--from", "exp", "--to", "libor", "--value", 0.05),
    ("audit", "pareto", "--model", "pareto2", "--seed", 5, "--n", 2000, "--lam", 3),
    ("curve", "--curve", "flat3", "--times", "1,nan"),
    ("frobnicate",),
], ids=["exit0", "exit1", "exit2", "usage"])
def test_module_entry_point_matches_in_process(args):
    fresh, inproc = run_process("-m", "longrate", *args), run_cli(*args)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
        inproc.returncode, inproc.stdout, inproc.stderr)


def test_kernel_audit_is_byte_identical_in_fresh_processes(tmp_path):
    """Acceptance 10's kernel case, each run in its own interpreter."""
    runs = []
    for threads in ("1", "7"):
        path = tmp_path / f"{threads}.json"
        out = run_process("-m", "longrate", "audit", "kernel", "--model", "ref1f", "--seed", 11,
                          "--n", 20_000, "--json", path, env_extra={"LONGRATE_THREADS": threads})
        assert out.returncode == 0, out.stderr
        runs.append((out.stdout, path.read_bytes()))
    assert runs[0] == runs[1]


def test_greenbook_maturity_zero_reads_nan_rate():
    """As in ``curve``, the exponential rate at maturity 0 is nan."""
    out = run_cli("greenbook", "--schedule", "greenbook_example", "--times", "0,1")
    assert out.returncode == 0
    assert "0,1,nan" in out.stdout.splitlines()


def _numeric_options(parser, command=()):
    """(subcommand words, option) for every int or float option of every subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subs:
        return [case for name, sub in subs[0].choices.items()
                for case in _numeric_options(sub, (*command, name))]
    return [(command, a.option_strings[0]) for a in parser._actions if a.type in (int, float)]


# a valid command line for each subcommand, with tiny --n, --paths and --sample
FUZZ_BASE = {
    ("convert",): ("--T", 10, "--from", "exp", "--to", "libor", "--value", 0.05),
    ("curve",): ("--curve", "flat3"),
    ("aggregate",): ("--mix", GAMMA_MIX, "--sample", 5, "--seed", 1, "--out", "{tmp}/x.csv"),
    ("simulate",): ("--model", "ref2f", "--seed", 1, "--n", 5, "--out", "{tmp}/x.csv"),
    ("value",): ("--model", "ref2f", "--flow", "T=1,payoff=M", "--seed", 1, "--paths", 20),
    ("longrate",): ("--model", "ref2f", "--conv", "libor"),
    ("classify",): ("--curve", "flat3"),
    ("audit", "dir"): ("--model", "ref2f", "--seed", 1, "--n", 5),
    ("audit", "strat"): ("--model", "ref2f"),
    ("audit", "kernel"): ("--model", "ref2f", "--seed", 1, "--n", 5),
    ("audit", "pareto"): ("--model", "ref2f", "--seed", 1, "--n", 5),
    ("greenbook",): ("--schedule", "greenbook_example"),
}
HOSTILE = ("-1", "0", "inf", "-inf", "nan", "1e400", "1e-300", "x", "", "1e30")


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_numeric_options(cli.build_parser())), token=st.sampled_from(HOSTILE))
def test_numeric_options_reject_hostile_values_cleanly(tmp_path_factory, case, token):
    """Each numeric option the parser declares, set to a hostile token."""
    command, option = case
    base = [str(a).replace("{tmp}", str(tmp_path_factory.getbasetemp())) for a in FUZZ_BASE[command]]
    if option in base:
        del base[base.index(option):base.index(option) + 2]
    out = run_cli(*command, *base, option, token)
    assert out.returncode in (0, 1, 2)
    assert out.returncode != 1 or "[FAIL]" in out.stdout
    assert "RuntimeWarning" not in out.stderr
