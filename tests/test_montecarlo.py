"""Path simulation: exact stepping, seeding, audits, claim valuation."""

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import longrate as lr
import longrate.montecarlo as mc
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
from longrate import cli
from longrate.errors import DomainError

# Any RuntimeWarning (divide by zero, overflow, invalid value) fails a test here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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


def test_worker_count_does_not_change_paths(monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", "1")
    a = simulate_paths(GBMDriver.constant(0.2), GRID, 10_000, seed=7)
    monkeypatch.setenv("LONGRATE_THREADS", "8")
    b = simulate_paths(GBMDriver.constant(0.2), GRID, 10_000, seed=7)
    np.testing.assert_array_equal(a.m, b.m)


def test_path_count_prefix_stability():
    """Chunked seeding: the first paths of a larger run equal a smaller run."""
    small = simulate_paths(GBMDriver.constant(0.2), GRID, 4096, seed=7)
    large = simulate_paths(GBMDriver.constant(0.2), GRID, 8192, seed=7)
    np.testing.assert_array_equal(large.m[:4096], small.m)


# sha256 of the M then the N path bytes of ref2f (seed 7, rho 0.5, 21 points on
# [0, 10]) at path counts around the 4096-path chunk; the digests depend only on
# the draws, so any change to the seeding, draw order or chunking shows here.
CHUNK_BOUNDARY_DIGESTS = {
    4095: "0f8e81ed342749cdb45ad24f85cb3502f79a2c96cf0c09132d62e88d298f1841",
    4096: "8ff20d11f61be85f54e084aae9f3760c6c901980f28a9d0bde650e6255ec94d6",
    4097: "11a559265f0f5485f95ce061caded621e6695995c7e51d6ba652b9d410db5990",
    8193: "987bf3fc9d86c4a9dca9321a065661cdf2a5032d8f03bd4203f44da25c2c99bc",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_paths", sorted(CHUNK_BOUNDARY_DIGESTS))
def test_two_factor_paths_at_chunk_boundaries(ref2f, n_paths, workers, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", str(workers))
    grid = np.linspace(0.0, 10.0, 21)
    ens = simulate_paths(ref2f.drivers, grid, n_paths, seed=7, rho=0.5)
    assert ens.factors.shape == (2, n_paths, grid.size)
    assert np.shares_memory(ens.m, ens.factors) and np.shares_memory(ens.n, ens.factors)
    digest = hashlib.sha256(ens.m.tobytes() + ens.n.tobytes()).hexdigest()
    assert digest == CHUNK_BOUNDARY_DIGESTS[n_paths]


AUDIT_GRID = np.concatenate([[0.0], np.geomspace(1.0, 1e4, 29)])

# sha256 of every check's detail and the data repr of the kernel audit, the
# deflated-bond check (all grid times, T = 1e4; then unordered, repeated grid
# times, whose columns are gathered rather than sliced) and the certificate at the
# declared index and one above it, then of a simulate_constants valuation
# (flows at T = 1 and 10); ensembles of ref1f and of ref2f (rho 0.5), seed 7.
# The path counts straddle the 4096-path chunk that both the simulation and
# the blocked audit statistics work in.
AUDIT_DIGESTS = {
    ("ref1f", 4095): ("a92634fcf0b2ee4f10d44c6062794f498f295ec8b144850bcc7c23c40f5f175f",
                      "c4bcebbd8ef210897789832197192d0c9c3db9f927538d1775a404cbda2e86cb"),
    ("ref1f", 4096): ("3d35471465c8270ace4defcb10d0ddbec162ab0117c84f72988cd9c2e761a265",
                      "80dc161071419c011c228e68eb6141d1f905c013b08abbc031ef0cc75e35193f"),
    ("ref1f", 4097): ("9f1945d8710ea8b9c31b0e7d83ddb14c18c5617f11bbd2389ca2d8cc6e02bb13",
                      "0779c5008438ba74427b36b5e8739e35414cea85460f7d9853dfae85767669b9"),
    ("ref1f", 8193): ("745456380d00be4325b6799ebdb9d6ddb3823a94338a209fc3f244c69a835526",
                      "96d54a5de695c5b9d0c648b0613638dee3b5cc6d4a5e18898a31c62dde43b9da"),
    ("ref2f", 4095): ("f0c9d114d0219b5f8637a3005e8eaa08520b4cd22638deca5238d52d4ab79901",
                      "49a4fafc78275f28ad71f50f099f5b8d27c9e978b4badba3f4b0df3bab70c731"),
    ("ref2f", 4096): ("ca91ab683684c716fd0d04cf619bd4aa5b3b830e25e7aa6c3d7bff84741048e0",
                      "814091ac4d6214cafb4a3daee95c7ed3283e8b43ee54930fd478376d8b581fb9"),
    ("ref2f", 4097): ("0aa7efe771c642a785f09aba8d1765923f102d3bfddb98eb740a4dff9cdf3ae9",
                      "79a3c92a0b18e67234e629f08ecaaec2e2a34922b367d11a70db87a329a3c5c8"),
    ("ref2f", 8193): ("ed71a88f8a16fde8a76e7bc6bcc6df048d16361f6a5c627b8af3d7ccf5283679",
                      "0aee37beae07cf2d735b42472f38b14cbc6177a99228eca0ed9a95183ea9943e"),
}


def _audit_digests(model, n_paths):
    rho = 0.5 if model.factors == 2 else 0.0
    ens = ensemble_for_model(model, AUDIT_GRID, n_paths, seed=7, rho=rho)
    g = AUDIT_GRID
    reports = [
        kernel_condition_audit(model, ens),
        deflated_bond_martingale_check(model, ens, list(AUDIT_GRID), 1e4),
        deflated_bond_martingale_check(model, ens, [g[20], 0.0, g[3], g[20]], g[25]),
        lr.pareto_kernel_certificate(model, ens),
        lr.pareto_kernel_certificate(model, ens, lam=model.lam + 1.0),
    ]
    h = hashlib.sha256()
    for report in reports:
        for check in report.checks:
            h.update(check.detail.encode())
        h.update(repr(report.data).encode())
    state = ModelState(0.0, *[1.0] * model.factors)
    flows = CashFlowSchedule((CashFlow(1.0, amount=1.0), CashFlow(10.0, amount=2.0)))
    val = value_claim(model, state, flows, n_paths, seed=7, rho=rho, simulate_constants=True)
    return h.hexdigest(), hashlib.sha256(repr(val.as_dict()).encode()).hexdigest()


@pytest.mark.parametrize("name, n_paths", sorted(AUDIT_DIGESTS))
def test_audits_and_valuation_at_chunk_boundaries(request, name, n_paths, monkeypatch):
    monkeypatch.delenv("LONGRATE_THREADS", raising=False)  # the default worker count
    model = request.getfixturevalue(name)
    assert _audit_digests(model, n_paths) == AUDIT_DIGESTS[(name, n_paths)]


# The kernel blocks, time-major transposes and terminal draws run on every
# worker count with the digests recorded on one worker.
@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("name, n_paths", sorted(AUDIT_DIGESTS))
def test_audits_and_valuation_at_chunk_boundaries_on_workers(
    request, name, n_paths, threads, monkeypatch
):
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    model = request.getfixturevalue(name)
    assert _audit_digests(model, n_paths) == AUDIT_DIGESTS[(name, n_paths)]


def test_worker_count_defaults_to_usable_cpus(monkeypatch):
    monkeypatch.delenv("LONGRATE_THREADS", raising=False)
    if hasattr(os, "sched_getaffinity"):
        assert mc.worker_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert mc.worker_count() == (os.cpu_count() or 1)
    for text in ("0", "-2"):
        monkeypatch.setenv("LONGRATE_THREADS", text)
        assert mc.worker_count() == 1
    monkeypatch.setenv("LONGRATE_THREADS", "x")
    with pytest.raises(DomainError, match="LONGRATE_THREADS must be an integer"):
        mc.worker_count()


def test_bad_thread_setting_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LONGRATE_THREADS", "x")
    argv = ["simulate", "--model", "ref1f", "--seed", "3", "--n", "10",
            "--grid", "lin:0:2:5", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: LONGRATE_THREADS must be an integer")


def test_pool_never_outnumbers_blocks(ref2f, monkeypatch):
    asked = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setenv("LONGRATE_THREADS", "16")
    grid = np.linspace(0.0, 10.0, 21)
    ens = simulate_paths(ref2f.drivers, grid, 8193, seed=7, rho=0.5)  # three 4096-path chunks
    assert asked == [3]
    digest = hashlib.sha256(ens.m.tobytes() + ens.n.tobytes()).hexdigest()
    assert digest == CHUNK_BOUNDARY_DIGESTS[8193]


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


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_hand_built_ensemble_must_be_positive(bad):
    factors = np.ones((1, 3, GRID.size))
    factors[0, 1, 2] = bad
    with pytest.raises(DomainError, match="martingale paths must stay strictly positive"):
        PathEnsemble(GRID, factors, seed=1)


def test_simulation_needs_a_driver():
    with pytest.raises(DomainError, match="at least one driver"):
        simulate_paths((), GRID, 10, seed=1)


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
        fh.write("path,t,M,N\n" if ensemble.n is not None else "path,t,M\n")
        for i in range(ensemble.n_paths):
            for j, t in enumerate(ensemble.grid):
                row = f"{i},{fmt % t},{fmt % ensemble.m[i, j]}"
                if ensemble.n is not None:
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
    monkeypatch.setattr("longrate.montecarlo._CSV_FORMAT", fmt)
    ens = ensemble_for_model(request.getfixturevalue(model), grid, n_paths, seed=8, rho=0.5)
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_ensemble_csv(ens, got)
    _write_rows_reference(ens, ref, fmt)
    assert got.read_bytes() == ref.read_bytes()


# ---------------------------------------------------------------------------
# Kernel audits
# ---------------------------------------------------------------------------


def test_kernel_paths_shape_and_positivity(ref1f, small_ensemble):
    pi = kernel_paths(ref1f, small_ensemble)
    assert pi.shape == small_ensemble.m.shape
    assert np.all(pi > 0.0)


def test_kernel_paths_model_ensemble_mismatch(ref1f, ref2f, small_ensemble):
    kernel_paths(ref1f, small_ensemble)  # a cached pi must not serve another model
    with pytest.raises(DomainError, match="cannot use 1 factor value"):
        kernel_paths(ref2f, small_ensemble)


def test_kernel_paths_cached_read_only(ref2f):
    ens = ensemble_for_model(ref2f, GRID, 5000, seed=12, rho=0.5)
    pi = kernel_paths(ref2f, ens)
    assert kernel_paths(ref2f, ens) is pi
    assert not pi.flags.writeable
    coefs = [np.asarray(c(ens.grid), dtype=float) for c in ref2f.coefficients]
    reference = coefs[0] + coefs[1] * ens.m + coefs[2] * ens.n
    assert pi.tobytes() == reference.tobytes()


def test_kernel_paths_equal_distinct_model_gets_fresh_build(ref1f):
    ens = ensemble_for_model(ref1f, GRID, 5000, seed=13)
    other = lr.zoo.reference_one_factor()
    assert other is not ref1f
    first = kernel_paths(ref1f, ens)
    second = kernel_paths(other, ens)
    assert second is not first
    fresh = kernel_paths(other, ensemble_for_model(ref1f, GRID, 5000, seed=13))
    assert second.tobytes() == fresh.tobytes() == first.tobytes()


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("times, maturity", [([0.0], math.nan), ([0.0], -1.0), ([0.0], math.inf),
                                             ([], 10.0)])
def test_deflated_check_rejects_bad_maturity_or_no_times(ref1f, small_ensemble, times, maturity):
    with pytest.raises(DomainError):
        deflated_bond_martingale_check(ref1f, small_ensemble, times, maturity)


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
