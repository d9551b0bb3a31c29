import numpy as np
import pytest

from noisyip import ensure_rng, rng_from_seed, spawn_rngs
from noisyip.rng import keyed_uniform01
from noisyip.signvectors import pack_bits, random_signs


def test_rng_from_seed_deterministic():
    a = rng_from_seed(5).integers(0, 1000, size=10)
    b = rng_from_seed(5).integers(0, 1000, size=10)
    assert np.array_equal(a, b)


def test_ensure_rng_accepts_seed_and_generator():
    g = rng_from_seed(1)
    assert ensure_rng(g) is g
    assert ensure_rng(7).integers(0, 100) == ensure_rng(7).integers(0, 100)
    with pytest.raises(ValueError):
        ensure_rng(None)


def test_spawned_streams_are_disjoint_and_stable():
    parent1 = rng_from_seed(9)
    parent2 = rng_from_seed(9)
    kids1 = spawn_rngs(parent1, 3)
    # drawing from the parent first must not change the children
    parent2.integers(0, 10, size=100)
    kids2 = spawn_rngs(parent2, 3)
    for k1, k2 in zip(kids1, kids2):
        assert np.array_equal(k1.integers(0, 2**32, size=8),
                              k2.integers(0, 2**32, size=8))
    draws = [tuple(k.integers(0, 2**32, size=8)) for k in spawn_rngs(rng_from_seed(9), 3)]
    assert len(set(draws)) == 3


def test_keyed_uniform01_deterministic_per_row_content():
    rng = rng_from_seed(2)
    R = random_signs(33, rng, 100)
    u1 = keyed_uniform01(pack_bits(R > 0), 11)
    u2 = keyed_uniform01(pack_bits(R.copy() > 0), 11)
    assert np.array_equal(u1, u2)
    # a different key decorrelates
    u3 = keyed_uniform01(pack_bits(R > 0), 12)
    assert not np.array_equal(u1, u3)
    # single row matches its batch value
    assert keyed_uniform01(pack_bits(R[:1] > 0), 11)[0] == u1[0]


def test_keyed_uniform01_roughly_uniform():
    rng = rng_from_seed(3)
    R = random_signs(64, rng, 200_000)
    u = keyed_uniform01(pack_bits(R > 0), 4)
    assert np.all((0 <= u) & (u < 1))
    hist, _ = np.histogram(u, bins=16, range=(0, 1))
    expected = len(u) / 16
    chi2 = ((hist - expected) ** 2 / expected).sum()
    assert chi2 < 45  # 15 dof, well beyond the 0.999 quantile (~37.7)


def test_keyed_uniform01_sensitive_to_single_bit():
    rng = rng_from_seed(4)
    R = random_signs(128, rng, 1000)
    R2 = R.copy()
    R2[:, 77] = -R2[:, 77]
    u1 = keyed_uniform01(pack_bits(R > 0), 5)
    u2 = keyed_uniform01(pack_bits(R2 > 0), 5)
    assert np.all(u1 != u2)
