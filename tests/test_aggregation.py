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
from conftest import g9_digest


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


def _unmasked_logsumexp_rows(a):
    """``aggregation._logsumexp_rows`` as it was before terms below
    ``_EXP_ZERO`` were masked and before the tie test: a bitwise
    reference that needs no scipy."""
    a_max = a.max(axis=1, keepdims=True)
    at_max = np.equal(a, a_max)
    count = np.count_nonzero(at_max, axis=1, keepdims=True).astype(float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.subtract(a, a_max)
        np.copyto(terms, -np.inf, where=at_max)
        np.exp(terms, out=terms)
        s = terms.sum(axis=1, keepdims=True) / count
        out = (np.log1p(s) + np.log(count) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def _assert_same_bits(actual, expected):
    """Equal to the last bit: unlike assert_array_equal, tells -0.0 from 0.0."""
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def _band_case():
    # Shifted terms dense across -746, the exp-zero edge at -745.13 and the
    # subnormal band down from -708.4, in the same rows; 32-row blocks.
    rng = np.random.default_rng(22)
    weights = rng.dirichlet(np.ones(2000))
    mix = DiscreteMixture(weights / weights.sum(), rng.uniform(0.0, 0.3, 2000))
    t = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 40), np.geomspace(2.4e3, 1e4, 400)])
    return mix, t


MASK_CASES = {
    "band": _band_case,
    # one maximum below t = ln 2 / 0.01, a two-way tie above it, in one block
    "tie-crossing": lambda: (
        DiscreteMixture([0.4, 0.2, 0.2, 0.2], [0.01, 0.0, 0.0, 0.1]),
        np.concatenate([[0.0], np.geomspace(1e-2, 1e5, 999)]),
    ),
    # equal weights: 40 atoms tie at the maximum for t > 0, all 1000 at t = 0
    "ties-1000": lambda: (
        DiscreteMixture(np.full(1000, 1e-3), np.r_[np.full(40, 0.001), np.linspace(0.002, 0.1, 960)]),
        np.concatenate([[0.0], np.geomspace(1e-2, 1e6, 300)]),
    ),
    # r t overflows: the last rows are all -inf, or -inf beside a zero rate
    "vanish": lambda: (
        DiscreteMixture([0.25, 0.75], [2.0, 3.0]),
        np.array([0.0, 1e3, 1e300, 1e308, 1e308]),
    ),
    "zero-rate-vanish": lambda: (
        DiscreteMixture([0.5, 0.5], [0.0, 3.0]),
        np.array([0.0, 1e3, 1e300, 1e308]),
    ),
    "single-atom": lambda: (DiscreteMixture([1.0], [0.05]), np.array([0.0, 1.0, 1e300, 1e308])),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("case", sorted(MASK_CASES))
def test_log_aggregate_discount_matches_unmasked_reference_bitwise(case, threads, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    mix, t = MASK_CASES[case]()
    a = np.log(mix.weights)[None, :] - np.outer(t, mix.rates)
    expected = _unmasked_logsumexp_rows(a)
    _assert_same_bits(log_aggregate_discount(mix, t), expected)
    assert log_aggregate_discount(mix, 0.0) == expected[0]
    if case == "band":  # the rows do reach what the mask and the exp edge decide
        shifted = a - a.max(axis=1, keepdims=True)
        edge = math.log(2.0) * -1075
        assert np.count_nonzero(shifted < lr.aggregation._EXP_ZERO) > 100_000
        assert np.count_nonzero((shifted >= lr.aggregation._EXP_ZERO) & (shifted < edge)) > 100
        assert np.count_nonzero((shifted >= edge) & (shifted < -708.4)) > 10_000


def test_logsumexp_rows_matches_unmasked_reference_at_the_edges():
    """Rows built around the mask's edge, with ties, nan and infinities."""
    zero = lr.aggregation._EXP_ZERO
    below, above = np.nextafter(zero, -np.inf), np.nextafter(zero, np.inf)
    rows = np.array([
        [0.0, zero, below, above, -745.1332, -745.1333, -708.4, -1.0],
        [5.0, 5.0 + zero, 5.0 + below, 5.0 + above, -1e308, -np.inf, 4.0, 3.0],
        [0.0, 0.0, zero, below, -750.0, -760.0, -740.0, -1.0],  # a tie
        [np.nan, 0.0, 0.0, zero, -1.0, -2.0, -3.0, -4.0],  # a nan beside a tie
        [-np.inf] * 8,
        [np.inf, 0.0, zero, -np.inf, 1.0, 2.0, 3.0, 4.0],
        [1e308, -1e308, zero, 0.0, 1.0, 2.0, 3.0, 4.0],
    ])
    with np.errstate(invalid="ignore"):
        for picked in ([0], [1], [2], [3], [4], [5], [6], [3, 2], [2, 3], [0, 1, 3],
                       list(range(7))):
            a = rows[picked]
            _assert_same_bits(lr.aggregation._logsumexp_rows(a), _unmasked_logsumexp_rows(a))


def test_exp_is_plus_zero_below_the_mask_threshold():
    """What the log-sum-exp's mask rests on: numpy's exp gives exactly
    +0.0 below ``_EXP_ZERO`` and at -inf (the maxima's lanes in the
    unmasked form), so a numpy that changes this fails here rather than
    changing digits."""
    zero = lr.aggregation._EXP_ZERO
    x = np.concatenate([
        [zero, np.nextafter(zero, -np.inf)],
        np.linspace(zero, -1000.0, 100_001),
        -np.geomspace(1000.0, 1e308, 100_001),
        [-np.finfo(float).max, -np.inf],
    ])
    for offset in range(9):  # every lane position of a SIMD vector, and the tail
        assert not np.exp(x[offset:]).view(np.int64).any()
    mixed = np.empty(2 * x.size)  # each beside an ordinary lane
    mixed[0::2], mixed[1::2] = x, -1.0
    assert not np.exp(mixed)[0::2].view(np.int64).any()
    assert math.exp(zero) == 0.0


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
    ("gamma", 16383): "be084e408a60d47a72513528b52f79a69e3171dbcee6f2a364bc7ce09e0a79c7",
    ("gamma", 16384): "5f1ff0f151b76fa3e2d7120246a8a91a390f0371cc2dac7c78d06731cb5a2ff3",
    ("gamma", 16385): "f1db7a85237bb6259f2e9f1cb8846a98ebc16d251a9f096fa72ccb18dfadb47d",
    ("gamma", 32769): "ab5e5e9d11c7ebe7231935a8f902394b3514e220e05abc7b3fde30f49084eb4e",
    ("discrete", 16383): "e536805f228069072d70d75ec73367a2914f7d8274e8d62737e8f99143458685",
    ("discrete", 16384): "27d1bc1eef999dbd161c98de3f6d29867618da200814c21ca89f2a25101b497d",
    ("discrete", 16385): "9fbb5afee7582c1ac62e90d3baab01b3d5f3fc5af80a0481a796d9df27e94beb",
    ("discrete", 32769): "8f412bffe05b698807cac6018f2dd5ce86bf88b39fdc07172c7e06d38d33d243",
    # recorded when the exponential law drew through rng.exponential
    ("exponential", 16383): "c9b62a9fe7b80836cf14d6fca1239f9e101c91f14a2b8857d927916168654060",
    ("exponential", 16384): "6a4e3553efffb01de3fa3ab0cd6502a6403de748ec33932239a04d98f6c2b11d",
    ("exponential", 16385): "2d5b5027016d3552c0ad5bbf35e29a471d79cadbb591338c464c642f5bd4d24d",
    ("exponential", 32769): "58cb27fa9ec4a2ba8ec2c332cae3e8bd994cf8c5e3b8b9706fab63ffc23e53fa",
}


# The same for 1000-atom mixtures, recorded when discrete rates were drawn
# by rng.choice: Dirichlet weights with one rate-0 atom (guide table), and 999
# atoms of weight 1e-5 bunched into the top 1% of the cdf (binary search).
MANY_ATOM_DIGESTS = {
    ("dirichlet", 16383): "abcd6cda553825bca7a8f82dd5b106bd1caae8e9f639e564b9e00aa638a1ce6b",
    ("dirichlet", 16384): "d2511ef86cf4b52aed14fb06293928e4b34d03f3e78f337e561f2d9a68c04103",
    ("dirichlet", 16385): "942c06adc54ce47fc37ae3bae76c234f2a8ca27eae3513b462c400468ba8c5c4",
    ("dirichlet", 32769): "1b308ccab410ca334f5f75418625a448e8fc6c855b079379362a91d088da411b",
    ("clustered", 16383): "8ea550351f6e8e53d3435ed9396e4bfd7110fd5584921ffec61331a60b773a47",
    ("clustered", 16384): "31a1ed52836b60ce73fbf06d46c9dcefd1beb4c7b81636d6e49fab667dfa04c7",
    ("clustered", 16385): "03fcdc6409a01f8d02682a821de8479bd855c6fe48a55362a4cf3d6c077f5599",
    ("clustered", 32769): "47b9002a7d4615205988c2c07db997297e36914e04ebbdc848f7c1197ba7c111",
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
# counts around the 16384-draw chunk.  First recorded on 1, 2 and 3 workers while
# the loop still ran serially, so any dependence on the worker count shows.
WORKER_SAMPLE_DIGESTS = {
    ("gamma", 1): "fcbbb1ddee61e91514edc784e6ddab4c66343e7f7b10763340b014040fe8f17d",
    ("gamma", 16383): "be084e408a60d47a72513528b52f79a69e3171dbcee6f2a364bc7ce09e0a79c7",
    ("gamma", 16384): "5f1ff0f151b76fa3e2d7120246a8a91a390f0371cc2dac7c78d06731cb5a2ff3",
    ("gamma", 16385): "f1db7a85237bb6259f2e9f1cb8846a98ebc16d251a9f096fa72ccb18dfadb47d",
    ("gamma", 49153): "2d6a674ef63b0d1fd3f5a2a40a69fc8a48f20d1887722eacd6b013a41b05ddf9",
    ("discrete", 1): "12cd69ed5a36d2fca8f3baf24b4da1ac4916c9a12ca4cbc7365eb04f52bdfb1c",
    ("discrete", 16383): "e536805f228069072d70d75ec73367a2914f7d8274e8d62737e8f99143458685",
    ("discrete", 16384): "27d1bc1eef999dbd161c98de3f6d29867618da200814c21ca89f2a25101b497d",
    ("discrete", 16385): "9fbb5afee7582c1ac62e90d3baab01b3d5f3fc5af80a0481a796d9df27e94beb",
    ("discrete", 49153): "a2902169aaa1897d4e2ccbe94d934205d5a1e478ad96a31ae75e63a7f33965db",
}
# log_aggregate_discount over np.geomspace(1e-2, 1e6, n) for a k-atom Dirichlet
# mixture at row counts around a block's 2^16 // k horizons.  On every worker
# count each row has the unmasked log-sum-exp's bits in the same process;
# across commits the digests pin the rows' '%.9g' renderings.
WORKER_CURVE_DIGESTS = {
    (1000, 1): "8fe8dadf75550781fce7cb306d3cc74c6f39412c8216dd9d1566432d73e51a10",
    (1000, 64): "d3895a2239bb9204e7aab3f8fb5ffca4ee84bc508669b7edc5f1690dc36ad787",
    (1000, 65): "c87c43b9a3a993c8736ce368e21ef9873516e83bc01afea233a6238b60732b34",
    (1000, 66): "f77f4f0b4befd3a3fedfa932c7398f8cbc2dce1b2619d703420e9c345cb11b9a",
    (1000, 131): "aa1f123fae864e22fb63657b4c11e4dec8d8b373bdb030f5e1a776e53fcf7f2a",
    (1000, 196): "de6c461c6733ca31c0792e7bd9b247fc095aba000a264e9e6d86a51f4e2b03be",
    (65537, 1): "d01eb061df2133f1bf5c3da9a3f7a8ecd5565a0cb927633a9d17496d3b98ee15",
    (65537, 2): "76f35f4d3c4edee930fe105bca7f0d635dc27312828eb049238a2e7291add169",
    (65537, 3): "8bbe50bcb962f7a9198d35a27c6c62fd51896856b390f2c2190d04df654672dd",
    (65537, 4): "39ec5da7ab9c03642c34d701bf71132861bf7caabb2343dedf11571fab093177",
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
                t = np.geomspace(1e-2, 1e6, n)
                out = log_aggregate_discount(mix, t)
                a = np.log(mix.weights)[None, :] - np.outer(t, mix.rates)
                _assert_same_bits(out, _unmasked_logsumexp_rows(a))
                assert g9_digest(out) == digest, (k, n)


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
