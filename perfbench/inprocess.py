"""The in-process workloads, ``mc_ensemble`` and ``long_horizon``.

See ``workloads`` for the operation protocol and the known defect that
the checks keep visible.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time

import numpy as np

import longrate as lr
from longrate.zoo import curve_zoo, long_grid, model_zoo, zoo_model
from workloads import Op, _sub_seed, _z


# ---------------------------------------------------------------------------
# mc_ensemble: in-process Monte Carlo jobs, one per simulated zoo model
# ---------------------------------------------------------------------------

GRID_LIN = np.linspace(0.0, 10.0, 21)
GRID_GEOM = np.concatenate([[0.0], np.geomspace(1.0, 1e4, 29)])
DIR_TIMES = [0.0, 1.0, 2.0, 5.0, 10.0]


def _state0(model):
    return lr.ModelState(0.0, 1.0, 1.0) if model.factors == 2 else lr.ModelState(0.0, 1.0)


def _digest(ens) -> str:
    h = hashlib.sha256(ens.m.tobytes())
    if ens.n is not None:
        h.update(ens.n.tobytes())
    return h.hexdigest()


def _audit_job(name, model, seed, rho):
    state = _state0(model)
    flow = lr.CashFlowSchedule((lr.CashFlow(10.0, amount=1.0),))

    def run(ctx):
        ens = lr.ensemble_for_model(model, GRID_LIN, 200_000, seed, rho=rho)
        reports = [
            lr.kernel_condition_audit(model, ens),
            lr.deflated_bond_martingale_check(model, ens, list(GRID_LIN), 10.0),
            lr.dir_monotonicity_audit(model, DIR_TIMES, ensemble=ens),
        ]
        val = lr.value_claim(model, state, flow, 100_000, seed, rho, simulate_constants=True)
        return ens, reports, val

    def check(result, ctx):
        ens, reports, val = result
        problems = [(f"{r.title}: {r.verdict}", False) for r in reports if r.verdict != lr.PASS]
        bond = lr.bond_price(model, state, 10.0)
        z = _z(val.flows[0].value - bond, val.flows[0].standard_error)
        if z > 4.0:
            problems.append((f"simulated unit flow {z:.2f} SE from the bond price", False))
        if name == "ref2f":
            ctx.shared["ref2f_digest"] = _digest(ens)
        return problems

    return Op(f"audit:{name}", run, check)


def _threads_job(model, seed, rho):
    def run(ctx):
        with ctx.threads("2"):
            return lr.ensemble_for_model(model, GRID_LIN, 200_000, seed, rho=rho)

    def check(ens, ctx):
        if _digest(ens) != ctx.shared.get("ref2f_digest"):
            return [("ref2f ensemble digest differs between LONGRATE_THREADS=1 and =2", False)]
        return []

    return Op("threads2:ref2f", run, check)


def _certificate_job(name, model, seed, rho):
    wrong = model.lam + 1.0

    def run(ctx):
        ens = lr.ensemble_for_model(model, GRID_GEOM, 100_000, seed, rho=rho)
        return (lr.pareto_kernel_certificate(model, ens),
                lr.pareto_kernel_certificate(model, ens, lam=wrong))

    def check(result, ctx):
        declared, at_wrong = result
        problems = []
        if declared.verdict != lr.PASS:
            problems.append((f"certificate {declared.verdict} at the declared index", False))
        if at_wrong.verdict != lr.FAIL:
            problems.append((f"certificate {at_wrong.verdict} at wrong index {wrong:g}", False))
        return problems

    return Op(f"certificate:{name}", run, check)


def scaling_probe(seed, ctx, reps=3) -> float:
    """Speed-up of one mc_ensemble simulation from 1 worker to nproc, per worker."""
    model = zoo_model("ref2f")
    workers = len(os.sched_getaffinity(0))

    def median_time(threads):
        times = []
        with ctx.threads(str(threads)):
            for _ in range(reps):
                start = time.perf_counter()
                lr.ensemble_for_model(model, GRID_LIN, 200_000, _sub_seed(seed, 2), rho=0.5)
                times.append(time.perf_counter() - start)
        return statistics.median(times)

    return median_time(1) / (workers * median_time(workers))


def mc_ensemble(seed, ctx):
    ops = []
    for k, (name, rho) in enumerate((("ref1f", 0.0), ("pareto2", 0.0), ("ref2f", 0.5), ("ref2fx", 0.5))):
        ops.append(_audit_job(name, zoo_model(name), _sub_seed(seed, k), rho))
        if name == "ref2f":
            ops.append(_threads_job(zoo_model(name), _sub_seed(seed, k), rho))
    for k, name in enumerate(("pareto05", "ref1f", "pareto2", "pareto3", "ref2f")):
        model = zoo_model(name)
        rho = 0.5 if model.factors == 2 else 0.0
        ops.append(_certificate_job(name, model, _sub_seed(seed, 10 + k), rho))
    return ops


# ---------------------------------------------------------------------------
# long_horizon: in-process long-rate analysis of states, curves and mixtures
# ---------------------------------------------------------------------------

HORIZONS = lr.default_long_rate_horizons(stop=1e8)
STATE_TIMES = (0.0, 1.0, 10.0, 100.0)
STATES_PER_TIME = 10
INDICES = (0.5, 1.0, 2.0, 3.0)
CONVENTIONS = {
    "exp": lr.RateConvention.exponential(),
    "libor": lr.RateConvention.libor(),
    "pareto:0.5": lr.RateConvention.tail_pareto(0.5),
    "pareto:2": lr.RateConvention.tail_pareto(2.0),
    "pareto:3": lr.RateConvention.tail_pareto(3.0),
    "zc:1": lr.RateConvention.zero_coupon(1.0),
}
QUOTE_CONVENTIONS = list(CONVENTIONS.values()) + [
    lr.RateConvention.zero_coupon(2.0), lr.RateConvention.zero_coupon(12.0),
]


def _strat_problems(report, lam0, where):
    """Compare a stratification report with the pattern of tail index lam0 (None: exponential).

    A trend left INCONCLUSIVE where the theory forces a definite one is
    the known defect (see ``workloads``); a wrong definite trend is not.
    """
    problems = []
    got = report.data["exponential"]["trend"]
    want = "FINITE_POSITIVE" if lam0 is None else "ZERO"
    if got != want:
        problems.append((f"{where}: exponential trend {got}, expected {want}", got == "INCONCLUSIVE"))
    for key, entry in report.data["indices"].items():
        index = float(key)
        if lam0 is None or index < lam0:
            want = "DIVERGENT"
        else:
            want = "FINITE_POSITIVE" if index == lam0 else "ZERO"
        if entry["trend"] != want:
            problems.append((f"{where}: index {key} trend {entry['trend']}, expected {want}",
                             entry["trend"] == "INCONCLUSIVE"))
    if report.verdict != lr.PASS:
        known = bool(problems) and all(k for _, k in problems)
        problems.append((f"{where}: stratification verdict {report.verdict}", known))
    return problems


def _closed_long_rate(model, state):
    if model.factors == 2:
        return lr.long_libor_2f(model, state)
    return lr.long_pareto_1f(model, state)


def _model_job(name, model, state):
    lam = model.lam
    own = "libor" if lam == 1.0 else f"pareto:{lam:g}"
    alphas = sorted(set(INDICES) | {lam})

    def run(ctx):
        ev = ctx.evaluator(lr.bond_evaluator(model, state), "kernel_models.bond")
        ests = {label: lr.estimate_long_rate(ev, state.t, conv, HORIZONS)
                for label, conv in CONVENTIONS.items()}
        return ests, lr.stratification_audit(ev, state.t, alphas=alphas, horizons=HORIZONS)

    def check(result, ctx):
        ests, strat = result
        closed = _closed_long_rate(model, state)
        problems = []
        if abs(ests[own].value - closed) > 1e-6:
            problems.append((f"{own} long rate {ests[own].value!r} vs closed form {closed!r}", False))
        return problems + _strat_problems(strat, lam, f"{name} t={state.t:g}")

    return Op(f"model:{name}:t={state.t:g}:m={state.m:.4g}", run, check)


def _curve_job(label, curve, rate, lam0):
    """A curve of exponential tail ``rate`` or tail-Pareto index ``lam0``."""
    own = lr.RateConvention.exponential() if lam0 is None else lr.RateConvention.tail_pareto(lam0)
    alphas = sorted(set(INDICES) | ({lam0} if lam0 else set()))
    prop_horizons = lr.default_long_rate_horizons(stop=1e6)

    def run(ctx):
        ev = ctx.evaluator(lr.curve_evaluator(curve), "termstructure.curve")
        strats = [lr.stratification_audit(ev, t, alphas=alphas, horizons=HORIZONS)
                  for t in STATE_TIMES]
        props = [(lr.deterministic_long_rate(curve, t, own),
                  lr.estimate_long_rate(ev, t, own, prop_horizons).value) for t in STATE_TIMES]
        return (strats, props, lr.dir_monotonicity_audit(curve, list(STATE_TIMES)),
                lr.classify_curve(curve))

    def check(result, ctx):
        strats, props, dir_report, cls = result
        problems = []
        for t, report in zip(STATE_TIMES, strats):
            problems += _strat_problems(report, lam0, f"{label} t={t:g}")
        for t, (closed, est) in zip(STATE_TIMES, props):
            if abs(closed - est) > 1e-4:
                problems.append((f"{label} t={t:g}: propagated {closed!r} vs estimate {est!r}", False))
        if dir_report.verdict != lr.PASS:
            problems.append((f"{label}: monotonicity audit {dir_report.verdict}", False))
        if lam0 is None:
            if cls.kind != "exponential" or abs(cls.rate - rate) > 1e-6:
                problems.append((f"{label}: classified {cls.kind} rate {cls.rate}", False))
        elif cls.kind != "tail_pareto" or abs(cls.lam - lam0) > 0.01 * lam0:
            problems.append((f"{label}: classified {cls.kind} lambda {cls.lam}", False))
        return problems

    return Op(f"curve:{label}", run, check)


def _discrete_rate_job(mix):
    def run(ctx):
        return lr.asymptotic_exponential_rate(mix)

    def check(est, ctx):
        target = float(mix.rates.min())
        if abs(est.value - target) > 1e-4:
            return [(f"discrete asymptotic rate {est.value!r} vs minimum rate {target!r}", False)]
        return []

    return Op("aggregation:discrete_rate", run, check)


def _discrete_curve_job(mix, times):
    def run(ctx):
        return lr.log_aggregate_discount(mix, times)

    def check(out, ctx):
        rows = np.linspace(0, times.size - 1, 16).astype(int)
        a = np.log(mix.weights)[None, :] - np.outer(times[rows], mix.rates)
        shift = a.max(axis=1)
        ref = shift + np.log(np.exp(a - shift[:, None]).sum(axis=1))
        worst = float(np.max(np.abs(out[rows] - ref)))
        problems = []
        if worst > 1e-9:
            problems.append((f"log aggregate discount off the reference by {worst:.3g}", False))
        if np.any(np.diff(out) > 0.0):
            problems.append(("log aggregate discount increases with time", False))
        return problems

    return Op("aggregation:discrete_curve", run, check)


def _sample_job(label, mix, seed, survival):
    probes = (10.0, 100.0, 1000.0)

    def run(ctx):
        return lr.sample_calamity_time(mix, 1_000_000, seed)

    def check(sample, ctx):
        problems = []
        for t in probes:
            p, se = lr.empirical_survival(sample, t)
            target = survival(t)
            z = _z(p - target, math.sqrt(target * (1.0 - target) / sample.n))
            if z > 4.0:
                problems.append((f"{label} survival at t={t:g}: {z:.2f} SE from closed form", False))
        return problems

    return Op(f"aggregation:sample_{label}", run, check)


def _quote_job(i, tenor, conv, value):
    def run(ctx):
        worst = 0.0
        for other in QUOTE_CONVENTIONS:
            if other == conv:
                continue
            out = lr.convert_rate(tenor, conv, other, value)
            back = lr.convert_rate(tenor, other, conv, out)
            worst = max(worst, abs(back - value) / max(abs(value), 1e-300))
        return worst

    def check(worst, ctx):
        return [(f"quote {i} round trip error {worst:.3g}", False)] if worst > 1e-12 else []

    return Op(f"quote:{i}", run, check)


def long_horizon(seed, ctx):
    rng = np.random.default_rng(seed)
    ops = []
    for name, model in sorted(model_zoo().items()):
        for t in STATE_TIMES:
            for _ in range(STATES_PER_TIME):
                m = float(np.exp(rng.normal(0.0, 0.5)))
                n = float(np.exp(rng.normal(0.0, 0.5))) if model.factors == 2 else None
                ops.append(_model_job(name, model, lr.ModelState(t, m, n)))

    tails = {"flat3": (0.03, None), "hyperbolic2": (None, 1.0),
             "gamma2": (None, 2.0), "gamma3": (None, 3.0)}
    for label, curve in sorted(curve_zoo().items()):
        ops.append(_curve_job(label, curve, *tails[label]))
    for lam0 in INDICES:
        level = float(rng.uniform(0.01, 0.05))
        curve = lr.tail_pareto_curve(lam0, level, grid=long_grid())
        ops.append(_curve_job(f"pareto:{lam0:g}:{level:.4g}", curve, None, lam0))
    for _ in range(2):
        rate = float(rng.uniform(0.01, 0.06))
        ops.append(_curve_job(f"flat:{rate:.4g}", lr.flat_exponential_curve(rate), rate, None))

    k = 1000
    weights = rng.dirichlet(np.ones(k))
    weights /= weights.sum()
    mix = lr.DiscreteMixture(weights, rng.uniform(0.001, 0.1, k))
    times = np.concatenate([[0.0], np.geomspace(1e-2, 1e6, 9_999)])
    shape, mean_rate = float(rng.uniform(1.0, 4.0)), float(rng.uniform(0.02, 0.06))
    gamma = lr.GammaMixture(shape, mean_rate)
    ops += [
        _discrete_rate_job(mix),
        _discrete_curve_job(mix, times),
        _sample_job("gamma", gamma, _sub_seed(seed, 1),
                    lambda t: (1.0 + mean_rate * t / shape) ** -shape),
        _sample_job("discrete", mix, _sub_seed(seed, 2),
                    lambda t: float(np.sum(mix.weights * np.exp(-mix.rates * t)))),
    ]

    for i in range(40):
        t = float(rng.uniform(0.0, 50.0))
        tenor = lr.Tenor(t, t + float(rng.uniform(1e-3, 30.0)))
        conv = QUOTE_CONVENTIONS[int(rng.integers(len(QUOTE_CONVENTIONS)))]
        log_df = math.log(float(rng.uniform(0.2, 1.15)))
        ops.append(_quote_job(i, tenor, conv, lr.rate_from_log_discount(tenor, conv, log_df)))
    return ops
