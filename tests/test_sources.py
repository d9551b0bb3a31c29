import math
from itertools import product

import numpy as np
import pytest

from noisyip import (
    SvSourceSpec,
    UnsupportedModel,
    rng_from_seed,
    rounded_laplace_pmf,
    rounded_laplace_tail,
    sample_rounded_laplace,
    sample_sv_source,
)
from noisyip.signvectors import unpack_signs
from noisyip.sources import MAX_LAPLACE_SCALE, check_laplace_scale, ip_laplace_scale
from noisyip.sources import rounded_laplace


def test_spec_validation():
    with pytest.raises(ValueError):
        SvSourceSpec(alpha=0.0, n=4)
    with pytest.raises(ValueError):
        SvSourceSpec(alpha=1.5, n=4)
    with pytest.raises(UnsupportedModel):
        SvSourceSpec(alpha=0.5, n=4, model="markov")
    with pytest.raises(ValueError):
        SvSourceSpec(alpha=0.5, n=4, model="per-index-bias", probs=(0.9, 0.9, 0.9, 0.99))
    SvSourceSpec(alpha=0.5, n=2, model="per-index-bias", probs=(1 / 3, 2 / 3))


def test_alpha_one_is_uniform():
    spec = SvSourceSpec.uniform(6)
    assert np.allclose(spec.one_probs(), 0.5)
    rng = rng_from_seed(0)
    draws = unpack_signs(sample_sv_source(spec, rng, 20000), 6)
    assert set(np.unique(draws)) == {-1, 1}
    assert abs(draws.mean()) < 0.02


def test_per_index_extreme_bias_conditional_ratio_exhaustive():
    # n = 8, all p_i = 1/(1+alpha): every conditional odds ratio equals
    # exactly 1/alpha, checked by enumerating the full product distribution.
    alpha = 0.5
    n = 8
    p = 1.0 / (1.0 + alpha)
    spec = SvSourceSpec(alpha=alpha, n=n, model="per-index-bias", probs=(p,) * n)
    probs = spec.one_probs()

    def mass(vec):
        m = 1.0
        for i, v in enumerate(vec):
            m *= probs[i] if v == 1 else 1 - probs[i]
        return m

    for i in range(n):
        for rest in product((-1, 1), repeat=n - 1):
            plus = mass(rest[:i] + (1,) + rest[i:])
            minus = mass(rest[:i] + (-1,) + rest[i:])
            assert plus / minus == pytest.approx(1.0 / alpha, rel=1e-9)


def test_empirical_bit_means_within_hoeffding():
    alpha = 0.4
    n = 16
    trials = 10_000
    spec = SvSourceSpec(alpha=alpha, n=n)
    rng = rng_from_seed(1)
    draws = unpack_signs(sample_sv_source(spec, rng, trials), n)
    target = 2.0 / (1.0 + alpha) - 1.0  # E[X_i] = 2p - 1
    # Hoeffding: with 10^4 draws of a +-1 variable, deviations beyond
    # sqrt(2 ln(2/delta) / trials) have probability < delta; use delta small
    # enough for an n-way union bound.
    bound = math.sqrt(2 * math.log(2 * n / 1e-6) / trials)
    assert np.all(np.abs(draws.mean(axis=0) - target) < bound)


def test_rounded_laplace_basics():
    rng = rng_from_seed(2)
    assert sample_rounded_laplace(0.0, rng) == 0
    draws = sample_rounded_laplace(1.0, rng, size=1_000_000)
    assert abs(draws.mean()) < 0.01  # symmetry


def test_rounded_laplace_tail_bound():
    # Pr[|X| > t * scale] <= e^-t for Laplace; the rounded variant keeps it
    # within Monte Carlo slack.
    rng = rng_from_seed(3)
    trials = 1_000_000
    scale = 1.0
    draws = sample_rounded_laplace(scale, rng, size=trials)
    for t in (1, 2, 5):
        rate = np.count_nonzero(np.abs(draws) > t * scale) / trials
        sigma = math.sqrt(rate * (1 - rate) / trials + 1e-12)
        assert rate <= math.exp(-t) + 3 * sigma


def test_rounded_laplace_zero_mass_at_scale_one():
    # Pr[round(w) = 0] = Pr[|w| <= 1/2] >= 1 - e^(-1/2)
    rng = rng_from_seed(4)
    draws = sample_rounded_laplace(1.0, rng, size=500_000)
    rate = np.count_nonzero(draws == 0) / len(draws)
    assert rate >= 1 - math.exp(-0.5) - 0.005
    assert rounded_laplace_pmf(0, 1.0) == pytest.approx(1 - math.exp(-0.5))


def test_rounded_laplace_pmf_matches_empirical():
    rng = rng_from_seed(5)
    scale = 2.0
    trials = 2_000_000
    draws = sample_rounded_laplace(scale, rng, size=trials)
    total = sum(rounded_laplace_pmf(k, scale) for k in range(-200, 201))
    assert total == pytest.approx(1.0, abs=1e-12)
    for k in (0, 1, -3, 7):
        emp = np.count_nonzero(draws == k) / trials
        exact = rounded_laplace_pmf(k, scale)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(emp - exact) < 5 * sigma
    assert rounded_laplace_tail(3, scale) == pytest.approx(
        sum(rounded_laplace_pmf(k, scale) for k in range(3, 400))
        + sum(rounded_laplace_pmf(-k, scale) for k in range(3, 400)),
        rel=1e-9,
    )


def test_rounded_laplace_at_the_largest_scale_stays_exact():
    # the extreme uniforms on the 2^-53 grid land 36.04 scales from 0, which
    # at scale 2^46 is still below 2^52: exact integers, no int64 wrap
    scale = MAX_LAPLACE_SCALE
    u = np.array([2.0**-53, 1 - 2.0**-53, 0.25, 0.5, 0.75])
    with np.errstate(invalid="raise"):
        got = rounded_laplace(u, scale)
    expected = [-round(scale * 52 * math.log(2)), round(scale * 52 * math.log(2)),
                -round(scale * math.log(2)), 0, round(scale * math.log(2))]
    assert got.dtype == np.int64
    assert np.all(np.abs(got) < 2**52)
    assert np.all(np.abs(got - expected) <= scale * 1e-12)


def test_a_uniform_of_zero_is_read_as_the_next_grid_point():
    # u = 0 used to give log1p(-1) = -inf, cast with a RuntimeWarning (an
    # error in this suite) to INT64_MIN noise
    assert rounded_laplace(np.array([0.0, 2.0**-53]), 1.0).tolist() == [-36, -36]


@pytest.mark.parametrize("scale", [
    np.nextafter(MAX_LAPLACE_SCALE, math.inf), 2.0**60, 2e300, math.inf, -1.0,
    -1e-300, math.nan])
def test_a_scale_outside_the_exact_range_is_rejected(scale):
    with pytest.raises(ValueError, match="eps"):
        check_laplace_scale(scale)
    with pytest.raises(ValueError, match="eps"):
        rounded_laplace(np.array([0.3]), scale)
    with pytest.raises(ValueError, match="eps"):
        sample_rounded_laplace(scale, rng_from_seed(1), 4)


def test_the_scale_check_admits_zero_and_the_bound():
    assert check_laplace_scale(0.0) == 0.0
    assert check_laplace_scale(MAX_LAPLACE_SCALE) == MAX_LAPLACE_SCALE
    assert ip_laplace_scale(math.inf) == 0.0
    assert ip_laplace_scale(2.0**-45) == MAX_LAPLACE_SCALE
    with pytest.raises(ValueError, match="eps"):
        ip_laplace_scale(np.nextafter(2.0**-45, 0))
