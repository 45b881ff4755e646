"""Path simulation: exact stepping, seeding, audits, claim valuation."""

import math
import os

import numpy as np
import pytest

import longrate as lr
from longrate import (
    CashFlow,
    CashFlowSchedule,
    GBMDriver,
    ModelState,
    PathEnsemble,
    deflated_bond_martingale_check,
    ensemble_for_model,
    kernel_condition_audit,
    kernel_paths,
    simulate_paths,
    value_claim,
    write_ensemble_csv,
)
from longrate.errors import DomainError

GRID = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0])


def test_paths_start_at_one():
    ens = simulate_paths(GBMDriver.constant(0.2), GRID, 500, seed=1)
    np.testing.assert_array_equal(ens.m[:, 0], 1.0)
    assert ens.n is None


def test_moments_match_lognormal():
    """E[M_t] = 1 and E[M_t^2] = exp(V) within 4 SE (exact stepping)."""
    driver = GBMDriver.constant(0.2)
    ens = simulate_paths(driver, GRID, 100_000, seed=2)
    for j, t in enumerate(GRID[1:], start=1):
        col = ens.m[:, j]
        se = col.std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - 1.0) <= 4.0 * se
        v = driver.variance(0.0, float(t))
        sq = col**2
        se2 = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - math.exp(v)) <= 4.0 * se2


def test_piecewise_volatility_schedule():
    driver = GBMDriver.from_schedule([(0.0, 0.3), (2.0, 0.0)])
    assert driver.variance(0.0, 5.0) == pytest.approx(0.09 * 2.0)
    ens = simulate_paths(driver, GRID, 2000, seed=3)
    # volatility is zero after t=2, so the paths freeze there
    np.testing.assert_array_equal(ens.m[:, 4], ens.m[:, 3])
    np.testing.assert_array_equal(ens.m[:, 5], ens.m[:, 3])


def test_same_seed_same_paths():
    a = simulate_paths(GBMDriver.constant(0.2), GRID, 3000, seed=7)
    b = simulate_paths(GBMDriver.constant(0.2), GRID, 3000, seed=7)
    np.testing.assert_array_equal(a.m, b.m)
    c = simulate_paths(GBMDriver.constant(0.2), GRID, 3000, seed=8)
    assert not np.array_equal(a.m, c.m)


def test_worker_count_does_not_change_paths():
    a = simulate_paths(GBMDriver.constant(0.2), GRID, 10_000, seed=7, max_workers=1)
    b = simulate_paths(GBMDriver.constant(0.2), GRID, 10_000, seed=7, max_workers=8)
    np.testing.assert_array_equal(a.m, b.m)


def test_path_count_prefix_stability():
    """Chunked seeding: the first paths of a larger run equal a smaller run."""
    small = simulate_paths(GBMDriver.constant(0.2), GRID, 4096, seed=7)
    large = simulate_paths(GBMDriver.constant(0.2), GRID, 8192, seed=7)
    np.testing.assert_array_equal(large.m[:4096], small.m)


def test_two_factor_correlation():
    d = GBMDriver.constant(0.2)
    ens = simulate_paths((d, d), np.array([0.0, 1.0]), 200_000, seed=11, rho=0.5)
    lm, ln = np.log(ens.m[:, 1]), np.log(ens.n[:, 1])
    corr = np.corrcoef(lm, ln)[0, 1]
    assert corr == pytest.approx(0.5, abs=0.01)


def test_rho_out_of_range_rejected():
    d = GBMDriver.constant(0.2)
    with pytest.raises(DomainError):
        simulate_paths((d, d), GRID, 100, seed=1, rho=1.5)


def test_grid_must_start_at_zero():
    with pytest.raises(DomainError):
        simulate_paths(GBMDriver.constant(0.2), np.array([1.0, 2.0]), 100, seed=1)


def test_underflow_reported():
    # -V/2 = -0.02 t passes float underflow around t ~ 3.7e4
    grid = np.array([0.0, 50_000.0])
    with pytest.raises(DomainError) as err:
        simulate_paths(GBMDriver.constant(0.2), grid, 50, seed=1)
    assert "underflow" in str(err.value)


def test_ensemble_arrays_read_only(small_ensemble):
    with pytest.raises(ValueError):
        small_ensemble.m[0, 0] = 2.0


def test_time_index_exact_lookup(small_ensemble):
    assert small_ensemble.time_index(2.0) == 3
    with pytest.raises(DomainError):
        small_ensemble.time_index(3.3)


def test_write_ensemble_csv(tmp_path, ref1f):
    ens = ensemble_for_model(ref1f, np.array([0.0, 1.0]), 3, seed=4)
    path = tmp_path / "paths.csv"
    write_ensemble_csv(ens, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "path,t,M"
    assert lines[1] == "0,0,1"
    assert len(lines) == 1 + 3 * 2


def _write_rows_reference(ensemble, path, fmt):
    """Row-at-a-time writer that ``write_ensemble_csv`` must match byte for byte."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("path,t,M,N\n" if ensemble.two_factor else "path,t,M\n")
        for i in range(ensemble.n_paths):
            for j, t in enumerate(ensemble.grid):
                row = f"{i},{fmt % t},{fmt % ensemble.m[i, j]}"
                if ensemble.two_factor:
                    row += f",{fmt % ensemble.n[i, j]}"
                fh.write(row + "\n")


@pytest.mark.parametrize(
    "model, grid, n_paths, fmt, block_rows",
    [
        ("ref1f", GRID, 7, "%.9g", 12),  # 2 paths per block, 7 paths
        ("ref2f", GRID, 7, "%.9g", 12),
        ("ref2f", GRID, 3, "%.9g", None),  # fewer paths than one default block
        ("ref1f", np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 11)]), 5, "%.9g", 30),
        ("ref2f", GRID, 5, "%.17e", 18),
        ("ref1f", GRID, 4, "%.17e", 1),  # block smaller than one path
    ],
)
def test_write_ensemble_csv_matches_row_writer(
    tmp_path, request, monkeypatch, model, grid, n_paths, fmt, block_rows
):
    if block_rows is not None:
        monkeypatch.setattr("longrate.montecarlo._WRITE_ROWS", block_rows)
    ens = ensemble_for_model(request.getfixturevalue(model), grid, n_paths, seed=8, rho=0.5)
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_ensemble_csv(ens, got, fmt=fmt)
    _write_rows_reference(ens, ref, fmt)
    assert got.read_bytes() == ref.read_bytes()


# ---------------------------------------------------------------------------
# Kernel audits
# ---------------------------------------------------------------------------


def test_kernel_paths_shape_and_positivity(ref1f, small_ensemble):
    pi = kernel_paths(ref1f, small_ensemble)
    assert pi.shape == small_ensemble.m.shape
    assert np.all(pi > 0.0)


def test_kernel_paths_model_ensemble_mismatch(ref2f, small_ensemble):
    with pytest.raises(DomainError):
        kernel_paths(ref2f, small_ensemble)


def test_kernel_condition_audit_passes(ref1f, small_ensemble):
    rep = kernel_condition_audit(ref1f, small_ensemble)
    assert rep.verdict == "PASS", "\n".join(rep.lines())


def test_kernel_condition_audit_two_factor(ref2f):
    ens = ensemble_for_model(ref2f, GRID, 20_000, seed=9, rho=0.5)
    rep = kernel_condition_audit(ref2f, ens)
    assert rep.verdict == "PASS", "\n".join(rep.lines())


def test_deflated_bond_martingale(ref1f, small_ensemble):
    rep = deflated_bond_martingale_check(ref1f, small_ensemble, [0.0, 1.0, 5.0], 10.0)
    assert rep.verdict == "PASS", "\n".join(rep.lines())
    target = (0.5 / 11 + 0.5 / 12)
    assert rep.data["target"] == pytest.approx(target, rel=1e-12)
    assert all(row["z"] <= 4.0 for row in rep.data["rows"])


def test_deflated_check_needs_future_maturity(ref1f, small_ensemble):
    with pytest.raises(DomainError):
        deflated_bond_martingale_check(ref1f, small_ensemble, [5.0], 2.0)


# ---------------------------------------------------------------------------
# Claim valuation
# ---------------------------------------------------------------------------


def test_unit_flow_equals_bond_closed_form(ref1f):
    state = ModelState(0.0, 1.0)
    schedule = CashFlowSchedule((CashFlow(10.0, amount=1.0),))
    result = value_claim(ref1f, state, schedule)
    assert result.value == pytest.approx(lr.bond_price(ref1f, state, 10.0), rel=1e-12)
    assert result.flows[0].method == "closed_form"
    assert result.flows[0].standard_error is None


def test_unit_flow_by_simulation_within_band(ref1f):
    state = ModelState(0.0, 1.0)
    schedule = CashFlowSchedule((CashFlow(10.0, amount=1.0),))
    result = value_claim(
        ref1f, state, schedule, n_paths=50_000, seed=17, simulate_constants=True
    )
    flow = result.flows[0]
    assert flow.method == "simulation"
    target = lr.bond_price(ref1f, state, 10.0)
    assert abs(flow.value - target) <= 4.0 * flow.standard_error


def test_terminal_factor_payoff_matches_moment(ref1f):
    """E[pi_T M_T] / pi_t = (a_T + b_T e^V) / pi_t for lognormal M."""
    state = ModelState(0.0, 1.0)
    schedule = CashFlowSchedule((CashFlow(1.0, payoff=lambda m: m),))
    result = value_claim(ref1f, state, schedule, n_paths=100_000, seed=23)
    v = ref1f.driver.variance(0.0, 1.0)
    target = (0.5 / 2 + (0.5 / 3) * math.exp(v)) / 0.75
    flow = result.flows[0]
    assert abs(flow.value - target) <= 4.0 * flow.standard_error


def test_simulation_needs_seed(ref1f):
    schedule = CashFlowSchedule((CashFlow(1.0, payoff=lambda m: m),))
    with pytest.raises(DomainError):
        value_claim(ref1f, ModelState(0.0, 1.0), schedule)


def test_mixed_schedule_totals(ref1f):
    state = ModelState(0.0, 1.0)
    schedule = CashFlowSchedule(
        (CashFlow(5.0, amount=2.0), CashFlow(1.0, payoff=lambda m: m))
    )
    result = value_claim(ref1f, state, schedule, n_paths=20_000, seed=29)
    assert result.value == pytest.approx(sum(f.value for f in result.flows), rel=1e-12)


def test_cash_flow_needs_exactly_one_spec():
    with pytest.raises(DomainError):
        CashFlow(1.0)
    with pytest.raises(DomainError):
        CashFlow(1.0, amount=1.0, payoff=lambda m: m)


def test_thread_env_cap_does_not_change_results(ref1f, monkeypatch):
    state = ModelState(0.0, 1.0)
    schedule = CashFlowSchedule((CashFlow(2.0, payoff=lambda m: m),))
    monkeypatch.setenv("LONGRATE_THREADS", "1")
    one = value_claim(ref1f, state, schedule, n_paths=30_000, seed=31)
    monkeypatch.setenv("LONGRATE_THREADS", "6")
    six = value_claim(ref1f, state, schedule, n_paths=30_000, seed=31)
    assert one.value == six.value
    assert one.flows[0].standard_error == six.flows[0].standard_error
