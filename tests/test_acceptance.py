"""Acceptance suite: one test per release criterion.

Each test aggregates its checks into a failure list and prints a single
``[PASS]``/``[FAIL] acceptance NN: <label>`` line before asserting, so a
``pytest -v`` run shows one verdict per criterion.  Tolerances and path
counts here are contractual: do not loosen them to make a run green.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

import longrate as lr
from longrate.cli import STPRSchedule
from longrate.zoo import curve_zoo, model_zoo, zoo_curve, zoo_model
from conftest import run_cli

# Any RuntimeWarning (divide by zero, overflow, invalid value) fails a test here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GRID_KERNEL = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0])


def _verdict(num: int, label: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] acceptance {num:02d}: {label}")
    assert not failures, f"acceptance {num:02d} ({label}): " + "; ".join(
        str(f) for f in failures[:8]
    )


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _state_for(model, t: float = 0.0, m: float = 1.0, n: float = 1.0):
    if model.factors == 2:
        return lr.ModelState(t, m, n)
    return lr.ModelState(t, m)


def test_01_conversion_round_trips_and_quote_ordering():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(1001)

    def draw_convention():
        kind = rng.integers(0, 4)
        if kind == 0:
            return lr.RateConvention.exponential()
        if kind == 1:
            return lr.RateConvention.libor()
        if kind == 2:
            return lr.RateConvention.tail_pareto(float(rng.uniform(0.1, 5.0)))
        return lr.RateConvention.zero_coupon(float(rng.choice([1.0, 2.0, 4.0, 12.0])))

    worst = 0.0
    for _ in range(10_000):
        t = float(rng.uniform(0.0, 50.0))
        tenor = lr.Tenor(t, t + float(rng.uniform(1e-3, 30.0)))
        conv_from, conv_to = draw_convention(), draw_convention()
        log_df = math.log(float(rng.uniform(0.2, 1.15)))
        value = lr.rate_from_log_discount(tenor, conv_from, log_df)
        out = lr.convert_rate(tenor, conv_from, conv_to, value)
        back = lr.convert_rate(tenor, conv_to, conv_from, out)
        worst = max(worst, _rel(back, value))
    if worst > 1e-12:
        failures.append(f"round-trip relative error {worst:.3e} > 1e-12")

    violations = 0
    for _ in range(10_000):
        t = float(rng.uniform(0.0, 50.0))
        tenor = lr.Tenor(t, t + float(rng.uniform(1e-3, 30.0)))
        log_df = math.log(float(rng.uniform(0.2, 1.15)))  # includes df > 1
        beta = float(rng.uniform(0.1, 3.0))
        alpha = beta + float(rng.uniform(0.1, 3.0))
        r = lr.rate_from_log_discount(tenor, lr.RateConvention.exponential(), log_df)
        la = lr.rate_from_log_discount(tenor, lr.RateConvention.tail_pareto(alpha), log_df)
        lb = lr.rate_from_log_discount(tenor, lr.RateConvention.tail_pareto(beta), log_df)
        if not (r <= la <= lb):
            violations += 1
    if violations:
        failures.append(f"{violations} ordering violations (expected R <= L^a <= L^b)")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _verdict(1, "conversion round-trips and quote ordering", failures)


def test_02_aggregation_survival_and_asymptotic_rate():
    failures = []
    start = time.perf_counter()

    shape, mean_rate, n = 2.0, 0.04, 100_000
    sample = lr.sample_calamity_time(
        lr.GammaMixture(shape, mean_rate), n, seed=2002, cap=1e4
    )
    probes = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0]
    for t in probes:
        target = (1.0 + mean_rate * t / shape) ** -shape
        p_hat = float(np.mean(sample.times > t))
        se = math.sqrt(target * (1.0 - target) / n)
        z = abs(p_hat - target) / se
        if z > 4.0:
            failures.append(f"survival at t={t:g}: {z:.2f} SE from closed form")

    mix = lr.DiscreteMixture([0.3, 0.5, 0.2], [0.04, 0.02, 0.07])
    est = lr.asymptotic_exponential_rate(mix)
    if abs(est.value - 0.02) > 1e-4:
        failures.append(f"discrete asymptotic rate {est.value:.6g} not within 1e-4 of 0.02")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(2, "mixture survival matches closed form; asymptotic rate", failures)


def test_03_rate_reconstruction_and_fgh_identities():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(3003)

    for name in ("ref1f", "pareto05", "pareto2", "pareto3"):
        model = zoo_model(name)
        worst = 0.0
        for _ in range(100):
            t = float(rng.uniform(0.0, 30.0))
            T = t + float(rng.uniform(0.1, 50.0))
            state = lr.ModelState(t, float(np.exp(rng.normal(0.0, 0.7))))
            direct = lr.bond_price(model, state, T)
            via_short = lr.bond_from_short_rate_1f(
                model, t, T, lr.short_rate_1f(model, state)
            )
            via_long = lr.bond_from_long_rate_1f(
                model, t, T, lr.long_pareto_1f(model, state)
            )
            worst = max(worst, _rel(via_short, direct), _rel(via_long, direct))
        if worst > 1e-10:
            failures.append(f"{name}: rate-reconstruction error {worst:.3e} > 1e-10")

    for name in ("ref2f", "ref2fx"):
        model = zoo_model(name)
        worst = 0.0
        for _ in range(100):
            t = float(rng.uniform(0.0, 10.0))
            T = t + float(rng.uniform(0.5, 40.0))
            state = lr.ModelState(
                t, float(np.exp(rng.normal(0.0, 0.5))), float(np.exp(rng.normal(0.0, 0.5)))
            )
            coef = lr.fgh_coefficients(model, t, T)
            rebuilt = (
                coef.f
                + coef.g * lr.short_rate_2f(model, state)
                + coef.h / lr.long_libor_2f(model, state)
            )
            worst = max(worst, _rel(rebuilt, lr.bond_price(model, state, T)))
        if worst > 1e-10:
            failures.append(f"{name}: F/G/H reconstruction error {worst:.3e} > 1e-10")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _verdict(3, "bond-from-rate and F/G/H reconstruction identities", failures)


def test_04_long_rate_estimator_matches_closed_forms():
    failures = []
    start = time.perf_counter()
    horizons = lr.default_long_rate_horizons(stop=1e8)
    states = [(0.0, 1.0), (2.0, 0.5), (10.0, 3.0)]

    model = zoo_model("ref1f")
    for t, m in states:
        state = lr.ModelState(t, m)
        est = lr.estimate_long_rate(
            lr.bond_evaluator(model, state), t, lr.RateConvention.libor(), horizons
        )
        closed = lr.long_libor_1f(model, state)
        if abs(est.value - closed) > 1e-6:
            failures.append(
                f"ref1f libor at {state}: |{est.value:.8g} - {closed:.8g}| > 1e-6"
            )

    for lam, name in ((0.5, "pareto05"), (2.0, "pareto2"), (3.0, "pareto3")):
        model = zoo_model(name)
        conv = lr.RateConvention.tail_pareto(lam)
        for t, m in states:
            state = lr.ModelState(t, m)
            est = lr.estimate_long_rate(lr.bond_evaluator(model, state), t, conv, horizons)
            closed = lr.long_pareto_1f(model, state)
            if abs(est.value - closed) > 1e-6:
                failures.append(
                    f"{name} at {state}: |{est.value:.8g} - {closed:.8g}| > 1e-6"
                )

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _verdict(4, "long-rate estimator vs closed forms at horizon 1e8", failures)


def test_05_stratification_patterns_across_zoo():
    failures = []
    horizons = lr.default_long_rate_horizons(stop=1e8)

    rep = lr.stratification_audit(
        lr.bond_evaluator(zoo_model("pareto2"), lr.ModelState(0.0, 1.0)),
        0.0,
        alphas=[1.0, 2.0, 3.0],
        horizons=horizons,
    )
    expected = {"1": "DIVERGENT", "2": "FINITE_POSITIVE", "3": "ZERO"}
    for key, want in expected.items():
        got = rep.data["indices"][key]["trend"]
        if got != want:
            failures.append(f"pareto2 index {key}: {got} != {want}")
    if rep.data["exponential"]["trend"] != "ZERO":
        failures.append(f"pareto2 exponential: {rep.data['exponential']['trend']} != ZERO")

    flat = lr.flat_exponential_curve(0.03)
    rep = lr.stratification_audit(
        lr.curve_evaluator(flat), 0.0, alphas=[1.0, 2.0, 3.0], horizons=horizons
    )
    if rep.data["exponential"]["trend"] != "FINITE_POSITIVE":
        failures.append("flat curve: exponential rate not FINITE_POSITIVE")
    for key in ("1", "2", "3"):
        if rep.data["indices"][key]["trend"] != "DIVERGENT":
            failures.append(f"flat curve: index {key} not DIVERGENT")

    zoo = model_zoo()
    if len(zoo) < 6:
        failures.append(f"model zoo has {len(zoo)} entries, need >= 6")
    for name, model in sorted(zoo.items()):
        lam = model.lam
        alphas = sorted({0.5, 1.0, 2.0, 3.0} | {lam})
        rep = lr.stratification_audit(
            lr.bond_evaluator(model, _state_for(model)), 0.0,
            alphas=alphas, horizons=horizons,
        )
        if rep.data["exponential"]["trend"] != "ZERO":
            failures.append(f"{name}: exponential trend should be ZERO")
        for alpha in alphas:
            got = rep.data["indices"][f"{alpha:g}"]["trend"]
            want = (
                "FINITE_POSITIVE" if alpha == lam
                else "DIVERGENT" if alpha < lam
                else "ZERO"
            )
            if got != want:
                failures.append(f"{name} index {alpha:g}: {got} != {want}")

    _verdict(5, "long-rate stratification verdicts across the zoo", failures)


def test_06_monotonicity_audit_and_deterministic_propagation():
    failures = []

    flat_rep = lr.dir_monotonicity_audit(
        lr.flat_exponential_curve(0.03), [0.0, 1.0, 2.0, 5.0, 10.0]
    )
    values = np.asarray(flat_rep.data["values"], dtype=float)
    if not flat_rep.passed:
        failures.append("flat-curve monotonicity audit did not pass")
    if float(values.max() - values.min()) > 1e-9:
        failures.append(f"flat-curve long rate varies by {values.max() - values.min():.2e}")

    times = [0.0, 1.0, 2.0, 5.0, 10.0]
    grid = np.asarray(times)
    for i, (name, model) in enumerate(sorted(model_zoo().items())):
        rho = 0.3 if model.factors == 2 else 0.0
        ens = lr.ensemble_for_model(model, grid, 500, seed=60 + i, rho=rho)
        rep = lr.dir_monotonicity_audit(model, times, ensemble=ens)
        if not rep.passed:
            failures.append(f"{name}: monotonicity audit failed")
        if rep.data["max_rate"] > 1e-6:
            failures.append(
                f"{name}: long exponential rate estimate {rep.data['max_rate']:.3e} > 1e-6"
            )

    horizons = lr.default_long_rate_horizons(stop=1e6)
    cases = [
        ("hyperbolic2", lr.RateConvention.libor(), (0.0, 10.0, 50.0)),
        ("gamma2", lr.RateConvention.tail_pareto(2.0), (0.0, 25.0)),
    ]
    for name, conv, ts in cases:
        curve = zoo_curve(name)
        for t in ts:
            closed = lr.deterministic_long_rate(curve, t, conv)
            est = lr.estimate_long_rate(lr.curve_evaluator(curve), t, conv, horizons)
            if abs(closed - est.value) > 1e-4:
                failures.append(
                    f"{name} t={t:g}: propagation {closed:.8g} vs estimate "
                    f"{est.value:.8g} beyond 1e-4"
                )

    _verdict(6, "monotone long exponential rate and deterministic propagation", failures)


def test_07_kernel_conditions_and_index_certificate():
    failures = []
    start = time.perf_counter()

    for name, seed, rho in (("ref1f", 71, 0.0), ("ref2f", 72, 0.5)):
        model = zoo_model(name)
        ens = lr.ensemble_for_model(model, GRID_KERNEL, 100_000, seed=seed, rho=rho)
        cond = lr.kernel_condition_audit(model, ens)
        defl = lr.deflated_bond_martingale_check(
            model, ens, [t for t in GRID_KERNEL if t <= 10.0], 10.0
        )
        if not cond.passed:
            failures.append(f"{name}: kernel-condition audit {cond.verdict}")
        if not defl.passed:
            failures.append(f"{name}: deflated-bond martingale check {defl.verdict}")

    cert_grid = np.concatenate([[0.0], np.geomspace(1.0, 1e4, 29)])
    model = zoo_model("pareto2")
    ens = lr.ensemble_for_model(model, cert_grid, 8000, seed=73)
    if lr.pareto_kernel_certificate(model, ens).verdict != "PASS":
        failures.append("certificate failed at the declared index")
    if lr.pareto_kernel_certificate(model, ens, lam=3.0).verdict != "FAIL":
        failures.append("certificate passed at a wrong index")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(7, "pricing-kernel conditions, martingale checks, index certificate", failures)


def test_08_valuation_matches_bond_and_lognormal_moments():
    failures = []
    model = zoo_model("ref1f")
    state = lr.ModelState(0.0, 1.0)
    T = 10.0
    bond = lr.bond_price(model, state, T)
    schedule = lr.CashFlowSchedule((lr.CashFlow(T, amount=1.0),))

    closed = lr.value_claim(model, state, schedule)
    if _rel(closed.value, bond) > 1e-12:
        failures.append(f"closed-form unit flow {closed.value!r} != bond {bond!r}")

    sim = lr.value_claim(
        model, state, schedule, n_paths=100_000, seed=81, simulate_constants=True
    )
    flow = sim.flows[0]
    if abs(flow.value - bond) > 4.0 * flow.standard_error:
        failures.append(
            f"simulated unit flow off by {abs(flow.value - bond) / flow.standard_error:.2f} SE"
        )

    T_pay = 1.0
    payoff_schedule = lr.CashFlowSchedule((lr.CashFlow(T_pay, payoff=lambda m: m),))
    res = lr.value_claim(model, state, payoff_schedule, n_paths=100_000, seed=82)
    variance = model.driver.variance(0.0, T_pay)
    target = (model.a(T_pay) + model.b(T_pay) * math.exp(variance)) / lr.kernel_value(
        model, state
    )
    flow = res.flows[0]
    if abs(flow.value - target) > 4.0 * flow.standard_error:
        failures.append(
            f"martingale payoff off by {abs(flow.value - target) / flow.standard_error:.2f} SE"
        )

    _verdict(8, "claim valuation vs bond price and lognormal moments", failures)


def test_09_time_consistency_residuals():
    failures = []
    probes = [(5.0, 5.0), (10.0, 10.0), (10.0, 20.0), (25.0, 25.0), (50.0, 50.0)]
    for rate in (0.01, 0.03, 0.07):
        residual = lr.time_consistency_residual(lr.flat_exponential_curve(rate), probes)
        if residual > 1e-12:
            failures.append(f"flat {rate:g}: residual {residual:.3e} > 1e-12")

    with resources.as_file(
        resources.files("longrate").joinpath("data", "greenbook_example.json")
    ) as fp:
        schedules = [STPRSchedule.load(fp)]
    schedules.append(
        STPRSchedule(
            (
                (0.0, 30.0, 0.035),
                (30.0, 75.0, 0.03),
                (75.0, 125.0, 0.025),
                (125.0, 200.0, 0.02),
                (200.0, 300.0, 0.015),
                (300.0, None, 0.01),
            )
        )
    )
    schedules.append(STPRSchedule(((0.0, 40.0, 0.04), (40.0, None, 0.02))))
    declining_probes = [(10.0, 10.0), (10.0, 20.0), (30.0, 30.0), (50.0, 50.0), (75.0, 75.0)]
    for i, schedule in enumerate(schedules):
        residual = lr.time_consistency_residual(schedule.curve(), declining_probes)
        if not residual > 0.0:
            failures.append(f"declining schedule {i}: residual {residual!r} not > 0")

    _verdict(9, "flat curves consistent, declining schedules inconsistent", failures)


def test_10_cli_audit_runs_are_byte_identical(tmp_path):
    failures = []
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"

    def kernel_run(json_path, threads):
        return run_cli(
            "audit", "kernel", "--model", "ref1f", "--seed", 11, "--n", 20_000,
            "--json", json_path, env_extra={"LONGRATE_THREADS": threads},
        )

    ra = kernel_run(out_a, "1")
    rb = kernel_run(out_b, "7")
    if ra.returncode != 0 or rb.returncode != 0:
        failures.append(f"kernel audit exit codes {ra.returncode}/{rb.returncode}")
    if ra.stdout != rb.stdout:
        failures.append("kernel audit stdout differs across thread counts")
    if out_a.read_bytes() != out_b.read_bytes():
        failures.append("kernel audit JSON differs across thread counts")
    json.loads(out_a.read_text())  # well-formed

    def dir_run(threads):
        return run_cli(
            "audit", "dir", "--model", "pareto2", "--seed", 3, "--n", 1000,
            env_extra={"LONGRATE_THREADS": threads},
        )

    da = dir_run("2")
    db = dir_run("5")
    if da.stdout != db.stdout or da.returncode != db.returncode:
        failures.append("dir audit output differs across thread counts")

    _verdict(10, "CLI audit runs byte-identical across thread counts", failures)
