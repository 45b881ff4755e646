"""Aggregate discounting over rate mixtures and calamity-time sampling."""

import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import longrate as lr
from longrate import (
    DiscreteMixture,
    ExponentialMixture,
    GammaMixture,
    aggregate_discount,
    asymptotic_exponential_rate,
    empirical_survival,
    log_aggregate_discount,
    sample_calamity_time,
)
from longrate.errors import DomainError


def test_discrete_mixture_is_weighted_average():
    mix = DiscreteMixture(np.array([0.3, 0.4, 0.3]), np.array([0.01, 0.03, 0.05]))
    for t in (0.0, 1.0, 10.0, 250.0):
        expected = 0.3 * math.exp(-0.01 * t) + 0.4 * math.exp(-0.03 * t) + 0.3 * math.exp(-0.05 * t)
        assert aggregate_discount(mix, t) == pytest.approx(expected, rel=1e-14)


def test_discrete_weights_must_sum_to_one():
    with pytest.raises(DomainError):
        DiscreteMixture(np.array([0.5, 0.4]), np.array([0.01, 0.02]))


def test_discrete_rates_may_include_zero_but_not_negative():
    DiscreteMixture(np.array([0.5, 0.5]), np.array([0.0, 0.02]))
    with pytest.raises(DomainError):
        DiscreteMixture(np.array([0.5, 0.5]), np.array([-0.01, 0.02]))


def test_exponential_mixture_is_hyperbolic():
    mix = ExponentialMixture(0.02)
    for t in (0.0, 1.0, 50.0, 1e4):
        assert aggregate_discount(mix, t) == pytest.approx(1.0 / (1.0 + 0.02 * t), rel=1e-12)


def test_gamma_mixture_closed_form():
    mix = GammaMixture(2.0, 0.04)
    for t in (0.0, 10.0, 50.0, 1e3):
        assert aggregate_discount(mix, t) == pytest.approx(
            (1.0 + 0.04 * t / 2.0) ** -2.0, rel=1e-12
        )


def test_gamma_shape_one_matches_exponential():
    g = GammaMixture(1.0, 0.03)
    e = ExponentialMixture(0.03)
    ts = np.array([0.5, 3.0, 77.0])
    np.testing.assert_array_equal(aggregate_discount(g, ts), aggregate_discount(e, ts))


@given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=1e-3, max_value=0.2))
@settings(max_examples=200, deadline=None)
def test_gamma_log_form_consistent(shape, level):
    mix = GammaMixture(shape, level)
    t = 123.0
    assert math.exp(log_aggregate_discount(mix, t)) == pytest.approx(
        aggregate_discount(mix, t), rel=1e-12
    )


def test_aggregate_discount_decreasing_in_t():
    mix = GammaMixture(2.0, 0.04)
    ts = np.geomspace(0.1, 1e6, 200)
    vals = aggregate_discount(mix, ts)
    assert np.all(np.diff(vals) < 0.0)


def _scipy_log_aggregate(mix, t):
    """The former scipy path that ``log_aggregate_discount`` must match bit for bit."""
    logsumexp = pytest.importorskip("scipy.special").logsumexp
    a = np.log(mix.weights)[None, :] - np.outer(t, mix.rates)
    return logsumexp(a, axis=1)


def _random_mixture(rng, k, ties=0, zero=False):
    rates = rng.uniform(0.0, 0.2, k)
    rates[:ties] = rates.min()
    if zero:
        rates[-1] = 0.0
    weights = rng.dirichlet(np.ones(k))
    return DiscreteMixture(weights / weights.sum(), rng.permutation(rates))


@pytest.mark.parametrize(
    "k, ties, zero",
    [(1, 0, False), (2, 0, False), (7, 0, True), (300, 0, False), (1200, 0, False),
     (5, 3, False), (900, 40, False), (64, 0, True), (64, 2, True)],
)
def test_log_aggregate_discount_matches_scipy_bitwise(k, ties, zero):
    rng = np.random.default_rng(1000 * k + 10 * ties + zero)
    mix = _random_mixture(rng, k, ties, zero)
    # t = 0 first; several row blocks for large k; horizons up to 1e300
    t = np.concatenate([[0.0], np.geomspace(1e-3, 1e300, 400)])
    np.testing.assert_array_equal(log_aggregate_discount(mix, t), _scipy_log_aggregate(mix, t))
    assert log_aggregate_discount(mix, 0.0) == _scipy_log_aggregate(mix, [0.0])[0]


def test_log_aggregate_discount_reuses_one_buffer_bitwise():
    """A 1000-rate mixture over 10^4 times matches the per-block allocating form."""
    rng = np.random.default_rng(7)
    mix = _random_mixture(rng, 1000)
    t = np.concatenate([[0.0], np.geomspace(1e-2, 1e6, 9_999)])
    log_w = np.log(mix.weights)
    ref = np.concatenate([
        lr.aggregation._logsumexp_rows(log_w[None, :] - np.outer(t[i : i + 65], mix.rates))
        for i in range(0, t.size, 65)
    ])
    np.testing.assert_array_equal(log_aggregate_discount(mix, t), ref)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_log_aggregate_discount_all_terms_vanish():
    # every term underflows to a finite log, or r t overflows so every term is -inf
    mix = DiscreteMixture(np.array([0.25, 0.75]), np.array([2.0, 3.0]))
    t = np.array([0.0, 1e3, 1e300, 1e308])
    out = log_aggregate_discount(mix, t)
    np.testing.assert_array_equal(out, _scipy_log_aggregate(mix, t))
    assert out[-1] == -math.inf
    assert aggregate_discount(mix, 1e308) == 0.0


# ---------------------------------------------------------------------------
# Asymptotic exponential rate
# ---------------------------------------------------------------------------


def test_discrete_asymptotic_rate_hits_minimum():
    mix = DiscreteMixture(np.array([0.3, 0.4, 0.3]), np.array([0.01, 0.03, 0.05]))
    est = asymptotic_exponential_rate(mix)
    assert est.status == "CONVERGED"
    assert est.target == pytest.approx(0.01)
    assert abs(est.value - 0.01) <= 1e-4


def test_gamma_asymptotic_rate_is_zero_trend():
    est = asymptotic_exponential_rate(GammaMixture(2.0, 0.04))
    # -ln P / t = 2 ln(1 + 0.02 t) / t -> 0, but never settles within 1e-6
    # over one decade; the estimate must head to zero without claiming
    # convergence to a positive rate
    assert est.target == pytest.approx(0.0)
    assert est.value < 1e-3
    assert np.all(np.diff(est.estimates[-10:]) < 0.0)


def test_discrete_with_zero_atom_asymptote():
    mix = DiscreteMixture(np.array([0.25, 0.75]), np.array([0.0, 0.04]))
    est = asymptotic_exponential_rate(mix)
    assert est.target == pytest.approx(0.0)
    assert est.value <= 1e-4


# ---------------------------------------------------------------------------
# Calamity-time sampling
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic_in_seed():
    mix = GammaMixture(2.0, 0.04)
    a = sample_calamity_time(mix, 5000, seed=13)
    b = sample_calamity_time(mix, 5000, seed=13)
    np.testing.assert_array_equal(a.times, b.times)
    c = sample_calamity_time(mix, 5000, seed=14)
    assert not np.array_equal(a.times, c.times)


def test_sampled_survival_matches_aggregate_discount():
    mix = GammaMixture(2.0, 0.04)
    sample = sample_calamity_time(mix, 100_000, seed=21)
    for t in (1.0, 5.0, 10.0, 25.0, 50.0, 100.0):
        surv, se = empirical_survival(sample, t)
        gap = abs(surv - aggregate_discount(mix, t))
        assert gap <= 4.0 * se, f"survival off at t={t}: gap {gap}, se {se}"


def test_zero_rate_atom_censors_at_cap():
    mix = DiscreteMixture(np.array([0.5, 0.5]), np.array([0.0, 0.5]))
    sample = sample_calamity_time(mix, 4000, seed=5, cap=100.0)
    n_censored = int(sample.censored.sum())
    # the r=0 atom never decays, so about half the draws must censor
    assert 1800 <= n_censored <= 2200
    assert np.all(sample.times[sample.censored] == 100.0)


# sha256 of the times then the censoring flags (seed 7, cap 1e4) at draw counts
# around the 16384-draw chunk; any change to the seeding, draw order or chunking
# shows here.
CALAMITY_CHUNK_DIGESTS = {
    ("gamma", 16383): "e5fc1832f52ccc367d7b70d8d7904a7eb5dbdc158f0572c7338f209f3a9f169f",
    ("gamma", 16384): "336cf0b2668f8e5d9036f138e1662a3a9d1c269a85e1142d9577252fc03dd734",
    ("gamma", 16385): "83bbad440471a441d7b011e513e64d6079fb116bd1b451f641199e8e4c8fe26d",
    ("gamma", 32769): "60e247a56f9529d5ab619788aa744acb65d525c77ba743c2d3b9d8d2ab3b1d61",
    ("discrete", 16383): "fcdf52fc3360ffbe1e2e26fb5ffd4dc25ae60febcaa22763316d79041fdbc1d7",
    ("discrete", 16384): "df7bffe7bea59f6f4023c5d5da4fa5ea62b9a6152b1afb988cd93328ce7b3d4b",
    ("discrete", 16385): "1a28ce6a7ef10d56b4c2b3d5d82663f8cc46bd19e2b752b56fc549255ec4e250",
    ("discrete", 32769): "84a9977380073fb1afdf3e6d0a9a5891c2c7efa76f393524de31dd7567327370",
    # recorded when the exponential law drew through rng.exponential
    ("exponential", 16383): "05513e8000d9a5ba04f88d49c790a77f91af8bea0807e09ed7666df4c9f89d27",
    ("exponential", 16384): "64531f5af234226ab66ce7a6311b829636feb6b23f587485f11555582678e025",
    ("exponential", 16385): "c5f8cfc6e8c248ab05d86fc7bca6d8c66261025acb041642933b00ed45ba259f",
    ("exponential", 32769): "6f9ca39c860e34f77129381d6cc46f8a5cb2205aeb0b74154e193cd851d1efc2",
}


# The same for 1000-atom mixtures, recorded when discrete rates were drawn
# by rng.choice: Dirichlet weights with one rate-0 atom (guide table), and 999
# atoms of weight 1e-5 bunched into the top 1% of the cdf (binary search).
MANY_ATOM_DIGESTS = {
    ("dirichlet", 16383): "d278d55fa86fe3a39370d00c237fc3231e576df125e707428c51491a93c167a8",
    ("dirichlet", 16384): "6e3ed413f0b7331ca212f7e3f349aa7ee2c5c07457d4ba99ebe7e73dc87b1f84",
    ("dirichlet", 16385): "eb2ef76f3ae557f9b7f5e886ef0b232869a27a60f6a0a0a0f1a0616fe701e012",
    ("dirichlet", 32769): "5f9f27ab2e199d02fcfbec4d22833ad14ba199ecd058694bf0bf60c9a48463f7",
    ("clustered", 16383): "fcae8953a68ee6b9b79d45e53ba0034788a604346182f7054913864ecdb78ac4",
    ("clustered", 16384): "e819ee04cf3374fc95d35aee294ca555f27477848e48c6b25e596d70a964181f",
    ("clustered", 16385): "e68fcd6aba1e4b48779c7bb25f03365d5a275eba990c0b0779078106e4eb8cbf",
    ("clustered", 32769): "9014d81afc3ceb3dd767b29f9d192b9c18da2c8ff4552bbeb2c7164a305fcb99",
}


def _many_atom_mixture(kind):
    if kind == "dirichlet":
        rng = np.random.default_rng(11)
        weights = rng.dirichlet(np.ones(1000))
        rates = rng.uniform(0.001, 0.1, 1000)
        rates[0] = 0.0
        return DiscreteMixture(weights / weights.sum(), rates)
    weights = np.full(1000, 1e-5)
    weights[0] = 1.0 - 999e-5
    return DiscreteMixture(weights, np.linspace(0.1, 0.0, 1000))


def _guide_span(weights):
    """Most atoms one bucket of the sampler's guide table spans."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    buckets = lr.aggregation._GUIDE_BUCKETS
    guide = cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right")
    return int(np.diff(np.minimum(guide, cdf.size - 1)).max())


def _digest(sample):
    return hashlib.sha256(sample.times.tobytes() + sample.censored.tobytes()).hexdigest()


@pytest.mark.parametrize("kind, n", sorted(CALAMITY_CHUNK_DIGESTS))
def test_sampling_at_chunk_boundaries(kind, n):
    mix = {
        "gamma": GammaMixture(2.0, 0.04),
        "discrete": DiscreteMixture([0.2, 0.3, 0.5], [0.0, 0.01, 0.05]),
        "exponential": ExponentialMixture(0.04),
    }[kind]
    assert _digest(sample_calamity_time(mix, n, seed=7)) == CALAMITY_CHUNK_DIGESTS[kind, n]


@pytest.mark.parametrize("kind, n", sorted(MANY_ATOM_DIGESTS))
def test_many_atom_sampling_at_chunk_boundaries(kind, n):
    mix = _many_atom_mixture(kind)
    guided = _guide_span(mix.weights) <= lr.aggregation._GUIDE_SPAN
    assert guided == (kind == "dirichlet")
    assert _digest(sample_calamity_time(mix, n, seed=7)) == MANY_ATOM_DIGESTS[kind, n]


@settings(max_examples=40, deadline=None)
@given(
    log_weights=st.lists(st.floats(-12.0, 0.0), min_size=1, max_size=300),
    n=st.integers(1, 2 * 16384 + 5),
    seed=st.integers(0, 2**32),
)
def test_discrete_sampling_is_rng_choice(log_weights, n, seed):
    """Every chunk's rates are rng.choice(rates, size=k, p=weights) draw for draw."""
    weights = np.exp(log_weights)
    weights /= weights.sum()
    rates = np.linspace(0.0, 0.1, weights.size)
    mix = DiscreteMixture(weights, rates)
    sample = sample_calamity_time(mix, n, seed, cap=100.0)
    chunk = lr.aggregation._CHUNK
    times = np.empty(n)
    for start in range(0, n, chunk):
        k = min(chunk, n - start)
        rng = lr.aggregation._chunk_rng(seed, (), start // chunk)
        r = rng.choice(mix.rates, size=k, p=mix.weights)
        z = rng.exponential(scale=1.0, size=k)
        with np.errstate(divide="ignore"):
            times[start : start + k] = np.where(r > 0.0, z / r, np.inf)
    np.testing.assert_array_equal(sample.censored, times > 100.0)
    np.testing.assert_array_equal(sample.times, np.minimum(times, 100.0))


def test_gamma_sample_peak_memory():
    """10^6 draws hold the times (8 bytes each) and censoring flags (1 byte each)
    and one chunk's temporaries; measured 9.01e6 bytes at peak."""
    mix, n = GammaMixture(2.0, 0.04), 1_000_000
    sample_calamity_time(mix, 100, seed=1)
    tracemalloc.start()
    try:
        sample_calamity_time(mix, n, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * n + (1 << 19)


@pytest.mark.parametrize("shape, mean_rate, name", [(math.inf, 0.04, "shape"),
                                                    (2.0, math.inf, "mean rate")])
def test_gamma_parameters_must_be_finite(shape, mean_rate, name):
    with pytest.raises(DomainError, match=f"{name} must be finite, got inf"):
        GammaMixture(shape, mean_rate)


def test_seed_is_required():
    with pytest.raises(TypeError):
        sample_calamity_time(GammaMixture(2.0, 0.04), 100)


# sha256 of the sample (times then censoring flags; seed 7, cap 1e4) at draw
# counts around the 16384-draw chunk, and of log_aggregate_discount over
# np.geomspace(1e-2, 1e6, n) for a k-atom Dirichlet mixture at row counts
# around a block's 2^16 // k horizons.  Recorded on 1, 2 and 3 workers while
# both loops still ran serially, so any dependence on the worker count shows.
WORKER_SAMPLE_DIGESTS = {
    ("gamma", 1): "bcd9b18d46b09fb7692e6877d5566ac841f1ba26a11be76f14ea2a1edb0fa713",
    ("gamma", 16383): "e5fc1832f52ccc367d7b70d8d7904a7eb5dbdc158f0572c7338f209f3a9f169f",
    ("gamma", 16384): "336cf0b2668f8e5d9036f138e1662a3a9d1c269a85e1142d9577252fc03dd734",
    ("gamma", 16385): "83bbad440471a441d7b011e513e64d6079fb116bd1b451f641199e8e4c8fe26d",
    ("gamma", 49153): "247cb6cae473af6f1759bac93ad7f515bdbcbdbf1f6313cfb375839bfd3b227a",
    ("discrete", 1): "c8b863ff5f2a497900b88cf73f319f11751017c2aa0b26048f0885e7acae15c1",
    ("discrete", 16383): "fcdf52fc3360ffbe1e2e26fb5ffd4dc25ae60febcaa22763316d79041fdbc1d7",
    ("discrete", 16384): "df7bffe7bea59f6f4023c5d5da4fa5ea62b9a6152b1afb988cd93328ce7b3d4b",
    ("discrete", 16385): "1a28ce6a7ef10d56b4c2b3d5d82663f8cc46bd19e2b752b56fc549255ec4e250",
    ("discrete", 49153): "de796729e553ed4eaaeb14a1ad410ce8b05937c0b477a433c429b186d0290264",
}
WORKER_CURVE_DIGESTS = {
    (1000, 1): "a90ea624098d163b25a3ab7107aa1c10c9ccf6c046d81ec696ea3374349fb1ff",
    (1000, 64): "646bbd197c664c7e0d154a8e1b2ec7d78d1a9c3cdb8bd0a950f29ef4d0a481eb",
    (1000, 65): "6e6333f42950cc367ef78200e4960a2be391ed0533fb3335929ec8ba329a0888",
    (1000, 66): "37de97d5e5e9049b71141166853a6115495d934771a976d26bf95524520b7b41",
    (1000, 131): "e33481aaf8933a7919a93ad3491a6293f7c32c560e93ff9e0423465731c4710e",
    (1000, 196): "48b6672e0df90cb3454786b0818f6e60307160f6083685311293cea656ecc697",
    (65537, 1): "8713beaaaa2be6a475ba244c6f64ce883f5119b4050bcd11fa93e4e7fb46a822",
    (65537, 2): "a1b6be07f7ac25e865e13f67ac374cfa9cd04b2be138f29f42e11c4937505333",
    (65537, 3): "1080b45d4452fcffb2e6070baf862907d0a14f38614384fede0ae9d6697b55e9",
    (65537, 4): "70958febaaeaaa9c9a2334334d3f7d9ccb4db194108a2e9a5b116637c3eecbc9",
}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_sampling_is_bitwise_equal_on_any_worker_count(threads, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    mixes = {
        "gamma": GammaMixture(2.0, 0.04),
        "discrete": DiscreteMixture([0.2, 0.3, 0.5], [0.0, 0.01, 0.05]),
    }
    for (kind, n), digest in WORKER_SAMPLE_DIGESTS.items():
        assert _digest(sample_calamity_time(mixes[kind], n, seed=7)) == digest, (kind, n)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_discrete_curve_is_bitwise_equal_on_any_worker_count(threads, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    for k in (1000, 65537):
        rng = np.random.default_rng(k)
        weights = rng.dirichlet(np.ones(k))
        mix = DiscreteMixture(weights / weights.sum(), rng.uniform(0.001, 0.1, k))
        for (atoms, n), digest in WORKER_CURVE_DIGESTS.items():
            if atoms == k:
                out = log_aggregate_discount(mix, np.geomspace(1e-2, 1e6, n))
                assert hashlib.sha256(out.tobytes()).hexdigest() == digest, (k, n)


def test_sample_chunks_run_on_the_workers(monkeypatch):
    """Three chunks on two workers: the caller and one helper each draw some."""
    ran_on = []
    chunk_rng = lr.aggregation._chunk_rng

    def recording_rng(*args):
        ran_on.append(threading.get_ident())
        return chunk_rng(*args)

    monkeypatch.setattr(lr.aggregation, "_chunk_rng", recording_rng)
    monkeypatch.setenv("LONGRATE_THREADS", "2")
    sample = sample_calamity_time(GammaMixture(2.0, 0.04), 3 * 16384, seed=7)
    assert len(ran_on) == 3 and len(set(ran_on)) == 2 and threading.get_ident() in ran_on
    monkeypatch.setenv("LONGRATE_THREADS", "1")
    monkeypatch.setattr(lr.aggregation, "_chunk_rng", chunk_rng)
    assert _digest(sample) == _digest(sample_calamity_time(GammaMixture(2.0, 0.04), 3 * 16384, 7))
