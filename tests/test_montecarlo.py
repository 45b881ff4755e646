"""Path simulation: exact stepping, seeding, audits, claim valuation."""

import hashlib
import io
import math
import mmap
import multiprocessing
import os
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import longrate as lr
import longrate.montecarlo as mc
import longrate.workers as pool
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
from longrate import csvformat
from longrate.errors import DomainError, LongrateError
from conftest import run_cli

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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_paths", sorted(CHUNK_BOUNDARY_DIGESTS))
def test_two_factor_paths_at_chunk_boundaries(ref2f, n_paths, workers, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", str(workers))
    grid = np.linspace(0.0, 10.0, 21)
    ens = simulate_paths(ref2f.drivers, grid, n_paths, seed=7, rho=0.5)
    assert ens.factors.shape == (2, n_paths, grid.size)
    assert np.shares_memory(ens.m, ens.factors) and np.shares_memory(ens.n, ens.factors)
    digest = hashlib.sha256(ens.m.tobytes() + ens.n.tobytes()).hexdigest()
    assert digest == CHUNK_BOUNDARY_DIGESTS[n_paths]


def test_path_arrays_fall_back_to_np_empty(ref2f, monkeypatch):
    """Without huge-page advice, path arrays are np.empty's, with the same paths."""
    mapped = hasattr(mmap, "MAP_PRIVATE") and hasattr(mmap, "MADV_HUGEPAGE")
    assert mc._path_array((2, 3)).flags.owndata is not mapped  # a mapping's view, or np.empty
    monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
    assert mc._path_array((2, 3)).flags.owndata
    grid = np.linspace(0.0, 10.0, 21)
    for n_paths, digest in CHUNK_BOUNDARY_DIGESTS.items():
        ens = simulate_paths(ref2f.drivers, grid, n_paths, seed=7, rho=0.5)
        assert ens.factors.base.flags.owndata
        assert hashlib.sha256(ens.m.tobytes() + ens.n.tobytes()).hexdigest() == digest


AUDIT_GRID = np.concatenate([[0.0], np.geomspace(1.0, 1e4, 29)])

# sha256 of every check's detail and the data repr of the kernel audit, the
# deflated-bond check (all grid times, T = 1e4; then unordered, repeated grid
# times, whose columns are gathered rather than sliced) and the certificate at the
# declared index and one above it, then of a simulate_constants valuation
# (flows at T = 1 and 10); ensembles of ref1f and of ref2f (rho 0.5), seed 7.
# The path counts straddle the 4096-path chunk that both the simulation and
# the blocked audit statistics work in.
AUDIT_DIGESTS = {
    ("ref1f", 4095): ("96a19339d953fe4ba3bf066865092960a80ab175b7f3a08bfa48e49bb0bf34c9",
                      "c4bcebbd8ef210897789832197192d0c9c3db9f927538d1775a404cbda2e86cb"),
    ("ref1f", 4096): ("be2e998dca3cd12816a6385c636dd5e41995e79c4e41d90fbf08f0133cf2c22a",
                      "80dc161071419c011c228e68eb6141d1f905c013b08abbc031ef0cc75e35193f"),
    ("ref1f", 4097): ("ef8d634255e83e1d0245b18171fcbecdef07f46d966d56b285e0f851d66dcd9c",
                      "0779c5008438ba74427b36b5e8739e35414cea85460f7d9853dfae85767669b9"),
    ("ref1f", 8193): ("ea2b829ed233cf291912e703e13fc186eaa27f64abca9b4fa791364774bda474",
                      "96d54a5de695c5b9d0c648b0613638dee3b5cc6d4a5e18898a31c62dde43b9da"),
    ("ref2f", 4095): ("d4fb464164b11e3e65781019d273041e0974b3f3898f06a8b5e53242edec85b2",
                      "49a4fafc78275f28ad71f50f099f5b8d27c9e978b4badba3f4b0df3bab70c731"),
    ("ref2f", 4096): ("46c06cd8e34b0f785c61ac0215e9db24302d6ec88fcbef0052c6f7eecfdcd03c",
                      "814091ac4d6214cafb4a3daee95c7ed3283e8b43ee54930fd478376d8b581fb9"),
    ("ref2f", 4097): ("ac1555aec8ca44376b63d27ad5abe0e849586931c969d8f6d1775431a19e80e0",
                      "79a3c92a0b18e67234e629f08ecaaec2e2a34922b367d11a70db87a329a3c5c8"),
    ("ref2f", 8193): ("11c25767682ac3eb0476d434931b8060d75c1d198fb180ca27b4009521030980",
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


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# Sizes around numpy's pairwise-sum unrolling (8) and block (128), and one
# past the 4096-path chunk; strides as in a path array's column.
@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([1, 2, 7, 8, 9, 127, 128, 129, 4097]),
    stride=st.sampled_from([1, 2, 21]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-100, 1e-3, 1.0, 1e4, 1e100]),
    shift=st.sampled_from([0.0, 1.0, -1e3]),
)
def test_mean_se_is_numpy_mean_and_std(n, stride, seed, scale, shift):
    rng = np.random.default_rng(seed)
    values = (rng.lognormal(0.0, 2.0, n * stride) * scale + shift)[::stride]
    mean, se = mc._mean_se(values)
    assert _bits(mean) == _bits(float(np.mean(values)))
    if n > 1:
        assert _bits(se) == _bits(float(np.std(values, ddof=1) / math.sqrt(n)))
    else:
        assert se == 0.0
    assert mc._mean_se(values, np.empty(n)) == (mean, se)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_row_moments_are_numpy_moments_of_each_row(ref2f, threads, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    ens = ensemble_for_model(ref2f, GRID, 4097, seed=3, rho=0.5)
    # strided columns of the path array, as the CLI's simulate summary reads them
    stats = mc._row_moments(GRID.size, ens.n_paths, lambda j, _: ens.m[:, j])
    for j, (mean, se) in enumerate(stats.tolist()):
        column = ens.m[:, j]
        assert _bits(mean) == _bits(float(np.mean(column)))
        assert _bits(se) == _bits(float(np.std(column, ddof=1) / math.sqrt(ens.n_paths)))
    # rows formed in the worker's scratch row
    steps = mc._row_moments(
        GRID.size - 1,
        ens.n_paths,
        lambda j, bufs: np.subtract(ens.n[:, j + 1], ens.m[:, j], out=bufs[0]),
    )
    for j, (mean, se) in enumerate(steps.tolist()):
        assert (mean, se) == mc._mean_se(ens.n[:, j + 1] - ens.m[:, j])


def _planted_ensemble(model, n_paths, path, column, value=math.nan):
    """An ensemble whose M holds ``value`` at (path, column), so pi is nan (or not > 0) there.

    An ensemble rejects such paths when built, so the value goes into a
    copy of its time-major rows afterwards.
    """
    ens = ensemble_for_model(model, AUDIT_GRID, n_paths, seed=7)
    rows = np.array(ens.rows)
    rows[0, column, path] = value
    object.__setattr__(ens, "factors", rows.transpose(0, 2, 1))
    return ens


# The nan sits in the middle one of three path blocks, where a combine of
# block minima by Python's min() would drop it.
@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_nan_in_one_path_block_fails_kernel_positivity(ref1f, threads, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    ens = _planted_ensemble(ref1f, 8193, 5000, 27)
    with pytest.raises(LongrateError, match="kernel positivity violated"):
        kernel_condition_audit(ref1f, ens)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_nan_in_one_path_block_reaches_certificate_decade(pareto2, threads, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    ens = _planted_ensemble(pareto2, 8193, 5000, 20)
    with pytest.raises(LongrateError, match="kernel positivity violated"):
        lr.pareto_kernel_certificate(pareto2, ens)


# pi = a + b M is far below 0 at (5000, 20): each consumer that reads time 20
# raises, and a deflated check whose audit times miss it runs.
@pytest.mark.parametrize("consumer", [
    kernel_condition_audit,
    lambda model, ens: deflated_bond_martingale_check(model, ens, [0.0, ens.grid[20]], 1e4),
    lr.pareto_kernel_certificate,
    kernel_paths,
], ids=["kernel_audit", "deflated_check", "certificate", "kernel_paths"])
def test_nonpositive_pi_in_a_read_row_raises(pareto2, consumer):
    ens = _planted_ensemble(pareto2, 8193, 5000, 20, value=-1e300)
    with pytest.raises(LongrateError, match="kernel positivity violated"):
        consumer(pareto2, ens)
    times = [0.0, float(ens.grid[19]), float(ens.grid[21])]
    rep = deflated_bond_martingale_check(pareto2, ens, times, 1e4)
    assert [row["t"] for row in rep.data["rows"]] == times


def _report_text(report) -> str:
    return "\n".join([*(f"{c.name}|{c.status}|{c.detail}" for c in report.checks),
                      repr(report.data)])


def _ensemble_outputs(model, ens, tmp_path) -> list:
    g = ens.grid
    reports = [
        kernel_condition_audit(model, ens),
        deflated_bond_martingale_check(model, ens, [g[20], 0.0, g[3], g[20]], g[25]),
        lr.pareto_kernel_certificate(model, ens),
        lr.pareto_kernel_certificate(model, ens, lam=model.lam + 1.0),
        lr.dir_monotonicity_audit(model, [0.0, g[3], g[10], g[20]], ensemble=ens),
    ]
    path = tmp_path / "paths.csv"
    write_ensemble_csv(ens, path)
    return [*map(_report_text, reports), path.read_bytes()]


# A hand-built ensemble stores its paths path-major, so every audit reads
# strided rows where a simulated one reads contiguous ones.
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", ["ref2f", "pareto2"])
def test_hand_built_path_major_ensemble_gives_the_same_results(
    request, name, threads, monkeypatch, tmp_path
):
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    model = request.getfixturevalue(name)
    ens = ensemble_for_model(model, AUDIT_GRID, 4097, seed=7, rho=0.5)
    hand = PathEnsemble(ens.grid, np.ascontiguousarray(ens.factors), ens.seed, ens.rho)
    assert hand.factors.flags.c_contiguous and not hand.rows.flags.c_contiguous
    assert _ensemble_outputs(model, hand, tmp_path) == _ensemble_outputs(model, ens, tmp_path)


def test_simulated_rows_and_kernel_rows_are_contiguous(ref2f):
    ens = ensemble_for_model(ref2f, GRID, 4097, seed=7, rho=0.5)
    assert ens.rows.shape == (2, GRID.size, 4097)
    assert ens.rows.flags.c_contiguous
    assert np.shares_memory(ens.rows, ens.factors)
    assert not ens.rows.flags.writeable
    pi = kernel_paths(ref2f, ens)
    assert pi.shape == ens.m.shape and pi.T.flags.c_contiguous


@pytest.mark.parametrize("threads", ["1", "2"])
def test_kernel_audit_makes_no_path_sized_copy(ref2f, threads, monkeypatch):
    """The kernel audit forms each row of pi in its worker's scratch rows.

    Its traced peak is the workers' two scratch rows each (6.1 MiB on two
    workers at 2e5 paths), where a time-major copy of pi alone is 32 MiB.
    """
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    ens = ensemble_for_model(ref2f, np.linspace(0.0, 10.0, 21), 200_000, seed=3, rho=0.5)
    pi = kernel_paths(ref2f, ens)
    tracemalloc.start()
    try:
        rep = kernel_condition_audit(ref2f, ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "PASS", "\n".join(rep.lines())
    assert peak < pi.nbytes / 4


@pytest.mark.parametrize("threads", ["1", "2"])
def test_deflated_check_and_certificate_make_no_path_sized_array(ref2f, threads, monkeypatch):
    """Both form pi (and the bonds) from the factor rows, in scratch rows and decade blocks.

    Neither asks for a path array, and their traced peak stays below one
    pi array (2e5 paths x 21 times, 32 MiB): the certificate's largest
    decade buffer here is 5 time rows.
    """
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    grid = np.concatenate([[0.0], np.geomspace(1.0, 1e4, 20)])
    ens = ensemble_for_model(ref2f, grid, 200_000, seed=3, rho=0.5)
    asked = []
    path_array = mc._path_array
    monkeypatch.setattr(mc, "_path_array", lambda shape: asked.append(shape) or path_array(shape))
    tracemalloc.start()
    try:
        deflated_bond_martingale_check(ref2f, ens, list(grid), 1e4)
        lr.pareto_kernel_certificate(ref2f, ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert asked == []
    assert peak < 8 * ens.m.size


def test_worker_count_defaults_to_usable_cpus(monkeypatch):
    monkeypatch.delenv("LONGRATE_THREADS", raising=False)
    if hasattr(os, "sched_getaffinity"):
        assert pool.worker_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert pool.worker_count() == (os.cpu_count() or 1)
    for text in ("0", "-2"):
        monkeypatch.setenv("LONGRATE_THREADS", text)
        assert pool.worker_count() == 1
    monkeypatch.setenv("LONGRATE_THREADS", "x")
    with pytest.raises(DomainError, match="LONGRATE_THREADS must be an integer"):
        pool.worker_count()


def test_bad_thread_setting_exits_2(tmp_path):
    out = run_cli("simulate", "--model", "ref1f", "--seed", 3, "--n", 10, "--grid", "lin:0:2:5",
                  "--out", tmp_path / "x.csv", env_extra={"LONGRATE_THREADS": "x"})
    assert out.returncode == 2
    assert out.stderr.startswith("error: LONGRATE_THREADS must be an integer")


def test_long_horizon_commands_run(tmp_path):
    """Grids past M's underflow: the paths read 0 there, and DIR reaches t = 1e6."""
    path = tmp_path / "x.csv"
    out = run_cli("simulate", "--model", "ref1f", "--grid", "lin:0:1e5:3", "--seed", 1, "--n", 5,
                  "--out", path)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "paths 5 grid_points 3\nterminal_mean 0 se 0\n"
    rows = path.read_text().splitlines()
    assert rows[:4] == ["path,t,M", "0,0,1", "0,50000,0", "0,100000,0"] and len(rows) == 16
    out = run_cli("audit", "dir", "--model", "ref1f", "--times", "0,10,1e5,1e6", "--seed", 1)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.endswith("long-rate monotonicity audit: PASS\n")


def _ref2f_digest(ref2f, n_paths=8193):
    ens = simulate_paths(ref2f.drivers, np.linspace(0.0, 10.0, 21), n_paths, seed=7, rho=0.5)
    return hashlib.sha256(ens.m.tobytes() + ens.n.tobytes()).hexdigest()


def test_pool_never_outnumbers_blocks(ref2f, monkeypatch):
    """16 workers asked, three 4096-path chunks: at most 3 threads, the caller included."""
    ran_on = set()
    chunk_rng = mc._chunk_rng

    def recording_rng(*args):
        ran_on.add(threading.get_ident())
        return chunk_rng(*args)

    monkeypatch.setattr(mc, "_chunk_rng", recording_rng)
    monkeypatch.setenv("LONGRATE_THREADS", "16")
    assert _ref2f_digest(ref2f) == CHUNK_BOUNDARY_DIGESTS[8193]
    assert 1 < len(ran_on) <= 3 and threading.get_ident() in ran_on


def _helpers_alive() -> int:
    return sum(t.name.startswith("longrate-helper") for t in threading.enumerate())


def test_pool_threads_persist_across_calls(ref2f, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", "2")
    _ref2f_digest(ref2f)
    after_first = threading.active_count()
    helpers = {t for t in threading.enumerate() if t.name.startswith("longrate-helper")}
    ran_on = set()
    chunk_rng = mc._chunk_rng

    def recording_rng(*args):
        ran_on.add(threading.current_thread())
        return chunk_rng(*args)

    monkeypatch.setattr(mc, "_chunk_rng", recording_rng)
    for _ in range(50):
        assert _ref2f_digest(ref2f) == CHUNK_BOUNDARY_DIGESTS[8193]
        assert threading.active_count() <= after_first + 1
    # the caller, and helpers that already existed after the first call
    assert threading.current_thread() in ran_on
    assert ran_on - {threading.current_thread()} <= helpers


@pytest.mark.parametrize("failing_chunk", [0, 1], ids=["caller", "helper"])
def test_block_error_propagates_after_every_share(ref2f, failing_chunk, monkeypatch):
    """Chunk 0 is the caller's share at 2 workers and chunk 1 a helper's."""
    monkeypatch.setenv("LONGRATE_THREADS", "2")
    chunk_rng = mc._chunk_rng
    finished = []

    def failing_rng(seed, key, chunk):
        if chunk == failing_chunk:
            raise DomainError(f"planted failure in chunk {chunk}")
        time.sleep(0.05)  # the failing share ends first; the caller must still wait
        finished.append(chunk)
        return chunk_rng(seed, key, chunk)

    monkeypatch.setattr(mc, "_chunk_rng", failing_rng)
    with pytest.raises(DomainError, match=f"planted failure in chunk {failing_chunk}"):
        _ref2f_digest(ref2f)
    # the other share ran its blocks to the end before the error reached the caller
    assert sorted(finished) == [c for c in range(3) if c % 2 != failing_chunk]
    monkeypatch.setattr(mc, "_chunk_rng", chunk_rng)
    assert _ref2f_digest(ref2f) == CHUNK_BOUNDARY_DIGESTS[8193]


def test_nested_in_blocks_call_finishes(monkeypatch):
    """A task that calls _in_blocks runs that call serially on a helper, without deadlock."""
    monkeypatch.setenv("LONGRATE_THREADS", "3")
    out = np.zeros((6, 8))
    inner_threads = [set() for _ in range(6)]
    outer_threads = [None] * 6

    def outer(start, stop, _):
        for i in range(start, stop):
            outer_threads[i] = threading.get_ident()

            def inner(a, b, _, i=i):
                inner_threads[i].add(threading.get_ident())
                out[i, a:b] += i + 1

            pool._in_blocks(8, 1, inner)

    runner = threading.Thread(target=pool._in_blocks, args=(6, 1, outer), daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    np.testing.assert_array_equal(out, np.arange(1.0, 7.0)[:, None] * np.ones(8))
    for i in range(6):
        if outer_threads[i] != runner.ident:  # a helper's block ran its inner call itself
            assert inner_threads[i] == {outer_threads[i]}


def _digest_in_child(ref2f, conn):
    os.environ["LONGRATE_THREADS"] = "2"
    conn.send(_ref2f_digest(ref2f))
    conn.close()


def test_forked_child_gets_fresh_helpers(ref2f, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", "2")
    assert _ref2f_digest(ref2f) == CHUNK_BOUNDARY_DIGESTS[8193]  # the parent's pool exists
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_digest_in_child, args=(ref2f, send))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child gave no digest"
        assert receive.recv() == CHUNK_BOUNDARY_DIGESTS[8193]
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


def _start_without_pool():
    with pool._pool_lock:
        if pool._pool is not None:
            pool._pool.shutdown(wait=False)
        pool._pool, pool._pool_helpers = None, 0


def _wait_for_helpers(count):
    deadline = time.monotonic() + 30
    while _helpers_alive() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return _helpers_alive()


def test_pool_grows_and_releases_the_helpers_it_replaces(monkeypatch):
    """Each call holds all its workers at a barrier, so each pool starts every helper."""
    _start_without_pool()
    _wait_for_helpers(0)
    monkeypatch.setenv("LONGRATE_THREADS", "5")
    for workers in (2, 3, 4, 5):
        barrier = threading.Barrier(workers, timeout=30)
        pool._in_blocks(workers, 1, lambda start, stop, _: barrier.wait())
        assert pool._pool_helpers == workers - 1
        assert _wait_for_helpers(workers - 1) == workers - 1
    pool._in_blocks(3, 1, lambda start, stop, _: None)  # fewer helpers asked: the pool stays
    assert pool._pool_helpers == 4


def test_concurrent_callers_grow_one_pool(ref2f, monkeypatch):
    """Four calling threads, asking 1 to 4 helpers at once, race to make and grow the pool."""
    sizes = [4096 * chunks - 1 for chunks in (2, 3, 4, 5)]
    monkeypatch.setenv("LONGRATE_THREADS", "1")
    expected = {n: _ref2f_digest(ref2f, n) for n in sizes}
    _start_without_pool()
    monkeypatch.setenv("LONGRATE_THREADS", "5")  # more workers than cores
    results = {}

    def simulate(n):
        results[n] = _ref2f_digest(ref2f, n)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=simulate, args=(n,)) for n in sizes]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
        assert not any(caller.is_alive() for caller in callers)
    finally:
        sys.setswitchinterval(switch)
    assert results == expected
    assert pool._pool_helpers == 4
    assert _wait_for_helpers(4) <= 4  # the pools it replaced let their threads go


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


def test_grid_with_nan_time_rejected():
    """A nan time is no increase: the grid check asks each step to be > 0, which nan is not."""
    with pytest.raises(DomainError, match="grid must be increasing from 0"):
        simulate_paths(GBMDriver.constant(0.2), np.array([0.0, 1.0, math.nan]), 100, seed=1)


@pytest.mark.parametrize("t0, t1", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_variance_rejects_nan_times(t0, t1):
    with pytest.raises(DomainError, match="need 0 <= t0 <= t1"):
        GBMDriver.constant(0.2).variance(t0, t1)


def test_paths_underflow_to_zero_and_pi_stays_positive(ref1f):
    # -V/2 = -0.02 t passes float underflow around t ~ 3.7e4: M's limit there is 0
    grid = np.array([0.0, 50_000.0])
    ens = ensemble_for_model(ref1f, grid, 50, seed=1)
    assert np.all(ens.m[:, 0] == 1.0) and np.all(ens.m[:, 1] == 0.0)
    pi = kernel_paths(ref1f, ens)  # a(t) + b(t) * 0 = a(t) > 0
    assert np.all(pi[:, 1] == ref1f.coefficients[0](50_000.0)) and np.all(pi > 0.0)


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_hand_built_ensemble_must_be_positive(bad):
    factors = np.ones((1, 3, GRID.size))
    factors[0, 1, 2] = bad
    with pytest.raises(DomainError, match="martingale paths must stay nonnegative"):
        PathEnsemble(GRID, factors, seed=1)


@pytest.mark.parametrize("sigma", [1e200, 1e152])
def test_overflowing_variance_is_a_domain_error(sigma):
    """Step variances of inf (1e200), or finite ones (1e306) whose sum overflows (1e152)."""
    driver = GBMDriver.constant(sigma)
    with pytest.raises(DomainError, match=r"variance over \(0.0, 100000.0\) overflows"):
        simulate_paths(driver, np.linspace(0.0, 1e5, 1001), 10, seed=1)
    with pytest.raises(DomainError, match=r"variance over \(2.0, 100002.0\) overflows"):
        driver.variance(2.0, 100_002.0)


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
    names = ["M", "N"] + [f"X{i}" for i in range(3, len(ensemble.factors) + 1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["path", "t", *names[: len(ensemble.factors)]]) + "\n")
        for i in range(ensemble.n_paths):
            for j, t in enumerate(ensemble.grid):
                row = [f"{i}", fmt % t] + [fmt % x[i, j] for x in ensemble.factors]
                fh.write(",".join(row) + "\n")


@pytest.mark.parametrize(
    "model, grid, n_paths, fmt, block_rows",
    [
        ("ref1f", GRID, 7, "%.9g", 12),  # 2 paths per block, 7 paths
        ("ref2f", GRID, 7, "%.9g", 12),
        ("ref2f", GRID, 3, "%.9g", None),  # fewer paths than one default block
        ("ref1f", np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 11)]), 5, "%.9g", 30),
        ("ref2f", GRID, 5, "%.9g", 18),
        ("ref1f", GRID, 4, "%.9g", 1),  # block smaller than one path
        ("gbm3", GRID, 5, "%.9g", 12),  # three factors: the X3 column
        ("ref2f", np.linspace(0.0, 3000.0, 7), 700, "%.9g", None),  # M < 1e-4, two blocks
    ],
)
def test_write_ensemble_csv_matches_row_writer(
    tmp_path, request, monkeypatch, model, grid, n_paths, fmt, block_rows
):
    if block_rows is not None:
        monkeypatch.setattr("longrate.csvformat._ROWS", block_rows)
    if model == "gbm3":
        drivers = [GBMDriver.constant(v) for v in (0.2, 0.15, 0.3)]
        ens = simulate_paths(drivers, grid, n_paths, seed=8, rho=0.5)
    else:
        ens = ensemble_for_model(request.getfixturevalue(model), grid, n_paths, seed=8, rho=0.5)
    if grid[-1] == 3000.0:
        assert np.mean(ens.m[:, -1] < 1e-4) > 0.9  # exponent notation throughout
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_ensemble_csv(ens, got)
    _write_rows_reference(ens, ref, fmt)
    assert got.read_bytes() == ref.read_bytes()


def test_write_ensemble_csv_traced_peak(tmp_path, ref2f):
    """The writer's traced peak for a 50,000 x 21 two-factor ensemble.

    Measured at 0.85 MB: the block's word matrix, its text and the
    kernel's temporaries, at most csvformat._ROWS rows each.  The bound
    leaves room for numpy version differences.
    """
    ens = ensemble_for_model(ref2f, np.linspace(0.0, 10.0, 21), 50_000, seed=3, rho=0.5)
    csvformat._tables()  # built once per process, outside the bound
    tracemalloc.start()
    try:
        write_ensemble_csv(ens, tmp_path / "paths.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


def _g9_lines(values) -> list[bytes]:
    buffer = io.BytesIO()
    csvformat.write_g9_lines(buffer, values)
    return buffer.getvalue().split(b"\n")[:-1]


def _python_lines(values) -> list[bytes]:
    return [("%.9g" % v).encode() for v in values]


def _g9_boundaries() -> np.ndarray:
    """Values where %.9g changes notation, exponent or rounding direction."""
    values = [0.0, math.inf, math.nan, 5e-324, 1e-310, 2.2250738585072014e-308,
              1e-300, 1.7976931348623157e308,
              1e-4, 9.9999999949e-5, 9.999999995e-5, 999999999.4, 999999999.5, 1e9]
    for k in range(-310, 309):
        # 10^k; 9-digit half-way points, including ones that carry to 10^(k+1)
        values += [float(f"{m}e{k}") for m in ("1", "1.000000005", "1.234567885", "9.999999995")]
    # half-way points that are exact doubles, decided by round-half-even
    values += [n + 0.5 for n in (100_000_000, 100_000_001, 123_456_788, 999_999_999)]
    values += [float(m * 10**j) for m in (1_000_000_005, 1_234_567_885) for j in range(7)]
    values = np.array(values)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        above = np.nextafter(values, math.inf)
    values = np.concatenate([values, np.nextafter(values, 0.0), above])
    return np.concatenate([values, -values])


def test_g9_kernel_matches_python_on_boundaries():
    values = _g9_boundaries()
    assert _g9_lines(values) == _python_lines(values)


finite_positive = st.floats(min_value=1e-290, max_value=1.7976931348623157e308)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), max_size=40)
       | st.lists(finite_positive, min_size=1, max_size=40)
       | st.lists(st.sampled_from([0.0, -0.0]) | finite_positive | finite_positive.map(lambda v: -v),
                  min_size=1, max_size=40))
def test_g9_kernel_matches_python_format(values):
    """Any doubles, the all-positive blocks that skip the sign and fallback, and
    signed zeros, which the kernel formats itself, mixed with kernel values."""
    assert _g9_lines(values) == _python_lines(values)


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
    assert not np.shares_memory(kernel_paths(ref2f, ens), pi)  # a fresh array on each call
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


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("n_paths", [4095, 4097, 8193])
def test_deflated_check_is_the_full_array_formula(ref2f, n_paths, threads, monkeypatch):
    """pi * (nums / pi) over whole arrays, then np.mean and np.std(ddof=1) / sqrt(n) per time."""
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    ens = ensemble_for_model(ref2f, AUDIT_GRID, n_paths, seed=7, rho=0.5)
    g = AUDIT_GRID
    for times, maturity in ((list(g), 1e4), ([g[20], 0.0, g[3], g[20]], g[25])):
        rep = deflated_bond_martingale_check(ref2f, ens, times, maturity)
        a, b, c = (coef.fn(maturity) for coef in ref2f.coefficients)
        pi = kernel_paths(ref2f, ens)
        nums = a + b * ens.m + c * ens.n
        deflated = pi * (nums / pi)
        for t, row in zip(times, rep.data["rows"]):
            column = deflated[:, ens.time_index(t)]
            assert _bits(row["mean"]) == _bits(float(np.mean(column)))
            se = float(np.std(column, ddof=1) / math.sqrt(n_paths))
            assert _bits(row["se"]) == _bits(se)


# pareto2's coefficients evaluated one grid time at a time differ in the last
# bit from its array evaluation at 4 of these grid times, on AVX-512 at least.
@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("n_paths", [4095, 4097, 8193])
@pytest.mark.parametrize("name", ["ref2f", "pareto2"])
def test_kernel_audit_is_the_full_array_formula(request, name, n_paths, threads, monkeypatch):
    """pi = a + b M (+ c N) over whole arrays, then its minimum, and np.mean and
    np.std(ddof=1) / sqrt(n) per time, as the audit's row statistics."""
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    model = request.getfixturevalue(name)
    ens = ensemble_for_model(model, AUDIT_GRID, n_paths, seed=7, rho=0.5)
    taken = []
    row_moments = mc._row_moments
    monkeypatch.setattr(mc, "_row_moments", lambda *args: taken.append(row_moments(*args)) or taken[-1])
    rep = kernel_condition_audit(model, ens)
    a, *coefs = (np.asarray(coef(ens.grid), dtype=float) for coef in model.coefficients)
    pi = a
    for c, x in zip(coefs, ens.factors):
        pi = pi + c * x
    assert _bits(rep.data["min_pi"]) == _bits(float(pi.min()))
    for j, (mean, se) in enumerate(taken[0].tolist()):
        column = pi[:, j]
        assert _bits(mean) == _bits(float(np.mean(column)))
        assert _bits(se) == _bits(float(np.std(column, ddof=1) / math.sqrt(n_paths)))


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


# Every zoo model at a small path count, and the 20000-path ref1f case whose kernel
# audit FAILs at 295 SE on a correct model (CLI: audit kernel --grid 0,1,10,100,1000).
STATUS_SUBJECTS = [(name, AUDIT_GRID, 500, 7) for name in sorted(lr.zoo.model_zoo())] + [
    ("ref1f", np.array([0.0, 1.0, 10.0, 100.0, 1000.0]), 20_000, 1)
]


def _statuses(*rules) -> list[str]:
    return ["PASS" if ok else "FAIL" for ok in rules]


@pytest.mark.parametrize("name, grid, n_paths, seed", STATUS_SUBJECTS)
def test_audit_statuses_follow_from_their_data(name, grid, n_paths, seed):
    """Each check's status is the rule its audit's docstring states, applied to ``data``."""
    model = lr.zoo.zoo_model(name)
    rho = 0.5 if model.factors == 2 else 0.0
    ens = ensemble_for_model(model, grid, n_paths, seed=seed, rho=rho)
    kernel = kernel_condition_audit(model, ens)
    d = kernel.data
    assert [c.status for c in kernel.checks if c.name != "finite kernel expectation"] == _statuses(
        d["min_pi"] > 0.0, d["max_mean_z"] <= 4.0, d["expectation_at_probe"] <= 1e-3
    )
    deflated = deflated_bond_martingale_check(model, ens, list(grid), float(grid[-1]))
    rows = deflated.data["rows"]
    assert [c.status for c in deflated.checks] == _statuses(*(row["z"] <= 4.0 for row in rows))
    for lam in (model.lam, model.lam + 1.0):
        cert = lr.pareto_kernel_certificate(model, ens, lam=lam)
        minima, means, scales = (
            cert.data[key] for key in ("decade_minima", "decade_means", "bond_scales")
        )
        assert [c.status for c in cert.checks] == _statuses(
            all(0.0 < v < math.inf for v in minima)
            and not all(b < 0.7 * a for a, b in zip(minima, minima[1:])),
            all(map(math.isfinite, means))
            and not all(b > 1.5 * a for a, b in zip(means, means[1:])),
            all(0.0 < s < math.inf for s in scales)
            and all(0.5 <= b / a <= 2.0 for a, b in zip(scales, scales[1:])),
        ), "\n".join(cert.lines())


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
