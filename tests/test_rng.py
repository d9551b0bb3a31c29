import json
import os

import numpy as np
import pytest

from noisyip import ensure_rng, rng_from_seed, spawn_rngs
from noisyip.rng import keyed_uniform01, sum_chunks
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


# ---------------------------------------------------------------------------
# sum_chunks: the chunk loop and its checkpoint
# ---------------------------------------------------------------------------


def draws(stream, size):
    """One chunk's counts: a draw from its own stream, and its size."""
    return [int(stream.integers(0, 1000)), size]


class Interrupted(Exception):
    """Stops a run between two chunks, as a kill would."""


def counting(sizes, stop_after=None):
    """``draws`` that records each chunk's size and stops after some chunks."""
    def fn(stream, size):
        if len(sizes) == stop_after:
            raise Interrupted
        sizes.append(size)
        return draws(stream, size)
    return fn


def test_sum_chunks_sums_every_chunk_at_any_thread_count():
    # 95 trials in chunks of 10: nine full chunks and one of 5
    sums = [sum_chunks(draws, rng_from_seed(5), 95, 10, threads) for threads in (1, 2, 3)]
    expected = sum(int(s.integers(0, 1000)) for s in spawn_rngs(rng_from_seed(5), 10))
    for result in sums:
        assert result.dtype == np.int64 and result.tolist() == [expected, 95]


def test_sum_chunks_resumes_from_every_prefix(tmp_path, capsys):
    path = str(tmp_path / "sums.ckpt")
    fresh = sum_chunks(draws, rng_from_seed(5), 95, 10)
    for k in range(1, 10):
        with pytest.raises(Interrupted):
            sum_chunks(counting([], k), rng_from_seed(5), 95, 10, checkpoint=(path, "key"))
        with open(path) as fh:
            assert json.load(fh)["done"] == k
        sizes = []
        resumed = sum_chunks(counting(sizes), rng_from_seed(5), 95, 10, 1 + k % 2,
                             checkpoint=(path, "key"))
        assert np.array_equal(resumed, fresh), k
        assert sizes == [10] * (9 - k) + [5]  # only the chunks after the prefix
        assert not os.path.exists(path)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("saved", [
    {"key": "other", "done": 3, "sums": [10**6, 30]},  # another configuration
    {"key": "key", "chunks": {"0": [10**6, 10]}},  # the per-chunk format
    {"key": "key", "done": 0, "sums": [10**6, 0]},
    {"key": "key", "done": 10, "sums": [10**6, 95]},  # the last chunk is never saved
    {"key": "key", "done": -1, "sums": [10**6, 0]},
    {"key": "key", "done": 2.0, "sums": [10**6, 20]},
    {"key": "key", "done": 2},
    # sums that are not a flat list of int64 counts
    {"key": "key", "done": 2, "sums": [1e300, 20]},
    {"key": "key", "done": 2, "sums": [10.0, 20]},
    {"key": "key", "done": 2, "sums": [True, 20]},
    {"key": "key", "done": 2, "sums": [2**63, 20]},
    {"key": "key", "done": 2, "sums": [[10, 20]]},
    {"key": "key", "done": 2, "sums": 20},
], ids=["other-key", "per-chunk-format", "done-0", "done-count", "done-negative",
        "done-float", "no-sums", "sums-huge-float", "sums-float", "sums-bool",
        "sums-past-int64", "sums-nested", "sums-scalar"])
def test_sum_chunks_ignores_an_unusable_checkpoint(tmp_path, capsys, saved):
    path = tmp_path / "sums.ckpt"
    path.write_text(json.dumps(saved))
    sizes = []
    result = sum_chunks(counting(sizes), rng_from_seed(5), 95, 10,
                        checkpoint=(str(path), "key"))
    assert "ignoring checkpoint" in capsys.readouterr().err
    assert np.array_equal(result, sum_chunks(draws, rng_from_seed(5), 95, 10))
    assert len(sizes) == 10
    assert not path.exists()


@pytest.mark.parametrize("sums", [[5], [], [10**6, 20, 1]], ids=["one", "none", "three"])
@pytest.mark.parametrize("threads", [1, 2])
def test_sum_chunks_ignores_saved_sums_of_another_length(tmp_path, capsys, sums, threads):
    # the length shows only with the first resumed chunk; the prefix is then
    # recomputed from its own streams, never broadcast into the sum
    path = tmp_path / "sums.ckpt"
    path.write_text(json.dumps({"key": "key", "done": 2, "sums": sums}))
    sizes = []
    result = sum_chunks(counting(sizes), rng_from_seed(5), 95, 10, threads,
                        checkpoint=(str(path), "key"))
    assert "ignoring checkpoint" in capsys.readouterr().err
    assert np.array_equal(result, sum_chunks(draws, rng_from_seed(5), 95, 10))
    assert sorted(sizes) == [5] + [10] * 9
    assert not path.exists()


def test_sum_chunks_checkpoint_does_not_grow_with_the_prefix(tmp_path):
    # a save rewrites one running sum, never a record per finished chunk
    path = tmp_path / "sums.ckpt"
    sizes = []

    def ones(stream, size):
        if path.exists():  # chunk c starts after the save of chunks 0..c-1
            sizes.append(path.stat().st_size)
        return [1, 1, 1]

    result = sum_chunks(ones, rng_from_seed(5), 9, 1, checkpoint=(str(path), "key"))
    assert result.tolist() == [9] * 3
    assert len(sizes) == 8 and len(set(sizes)) == 1
