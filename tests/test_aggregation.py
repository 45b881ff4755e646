"""Aggregate discounting over rate mixtures and calamity-time sampling."""

import hashlib
import math

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


@pytest.mark.parametrize("kind, n", sorted(CALAMITY_CHUNK_DIGESTS))
def test_sampling_at_chunk_boundaries(kind, n):
    mix = {
        "gamma": GammaMixture(2.0, 0.04),
        "discrete": DiscreteMixture([0.2, 0.3, 0.5], [0.0, 0.01, 0.05]),
        "exponential": ExponentialMixture(0.04),
    }[kind]
    sample = sample_calamity_time(mix, n, seed=7)
    digest = hashlib.sha256(sample.times.tobytes() + sample.censored.tobytes()).hexdigest()
    assert digest == CALAMITY_CHUNK_DIGESTS[kind, n]


def test_seed_is_required():
    with pytest.raises(TypeError):
        sample_calamity_time(GammaMixture(2.0, 0.04), 100)
