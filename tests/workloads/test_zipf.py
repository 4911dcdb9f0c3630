"""Statistical validation of the zipfian sampler.

The crash fuzz's zipfian address pattern rests on :class:`ZipfSampler`
implementing a *correct* Zipf(theta) distribution — a subtly wrong CDF
(off-by-one rank, unnormalized weights, bisect on the wrong side) would
silently reshape which objects the fuzz hammers. These tests compare the
empirical CDF of a large sample against the analytic one,

    CDF(k) = H_{k,theta} / H_{n,theta},  H_{k,theta} = sum_{r=1..k} r^-theta,

at light, standard, and heavy skew, and pin down the degenerate and
invalid parameter edges.
"""

import random

import pytest

from tests.integration.test_crash_fuzz import ZipfSampler

N_ITEMS = 64
N_SAMPLES = 20_000
#: Max allowed |empirical - analytic| CDF gap. The Dvoretzky–Kiefer–
#: Wolfowitz bound at 20k samples puts P(gap > 0.015) below 1e-3, and the
#: seed is fixed, so this never flakes.
TOLERANCE = 0.015


def analytic_cdf(n: int, theta: float):
    weights = [1.0 / (rank**theta) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


def empirical_cdf(sampler: ZipfSampler, rng, n_samples: int):
    counts = [0] * sampler.n
    for _ in range(n_samples):
        counts[sampler.sample(rng)] += 1
    cdf, acc = [], 0
    for c in counts:
        acc += c
        cdf.append(acc / n_samples)
    return cdf


@pytest.mark.parametrize("theta", [0.5, 0.99, 1.2])
def test_empirical_cdf_matches_analytic(theta):
    sampler = ZipfSampler(N_ITEMS, theta=theta)
    rng = random.Random(42)
    empirical = empirical_cdf(sampler, rng, N_SAMPLES)
    analytic = analytic_cdf(N_ITEMS, theta)
    gap = max(abs(e - a) for e, a in zip(empirical, analytic))
    assert gap <= TOLERANCE, f"theta={theta}: CDF deviates by {gap:.4f}"


def test_skew_orders_item_popularity():
    """Higher theta concentrates more mass on the most popular item."""
    rng_light, rng_heavy = random.Random(7), random.Random(7)
    light = empirical_cdf(ZipfSampler(N_ITEMS, theta=0.5), rng_light, N_SAMPLES)
    heavy = empirical_cdf(ZipfSampler(N_ITEMS, theta=1.2), rng_heavy, N_SAMPLES)
    assert heavy[0] > light[0] > 1.0 / N_ITEMS  # both beat uniform


def test_most_popular_item_is_rank_zero():
    sampler = ZipfSampler(N_ITEMS, theta=0.99)
    rng = random.Random(3)
    counts = [0] * N_ITEMS
    for _ in range(N_SAMPLES):
        counts[sampler.sample(rng)] += 1
    assert counts[0] == max(counts)


def test_single_item_always_sampled():
    sampler = ZipfSampler(1, theta=0.99)
    rng = random.Random(0)
    assert all(sampler.sample(rng) == 0 for _ in range(100))


def test_samples_stay_in_range():
    sampler = ZipfSampler(5, theta=0.99)
    rng = random.Random(11)
    assert all(0 <= sampler.sample(rng) < 5 for _ in range(2_000))


@pytest.mark.parametrize("n", [0, -1])
def test_rejects_empty_item_space(n):
    with pytest.raises(ValueError, match="at least one item"):
        ZipfSampler(n)


@pytest.mark.parametrize("theta", [0.0, -0.5])
def test_rejects_non_positive_theta(theta):
    with pytest.raises(ValueError, match="theta must be positive"):
        ZipfSampler(8, theta=theta)
