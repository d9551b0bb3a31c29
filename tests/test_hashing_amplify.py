import hashlib
import math
from itertools import product

import numpy as np
import pytest

from noisyip import (
    ToeplitzHash,
    equality_channel,
    eve_amplified,
    gl_decode,
    repeat_until_success,
    repeat_until_success_batch,
    rng_from_seed,
)
from noisyip.amplify import (
    _draw_rounds,
    _majority_bits,
    default_hash_width,
    hashed_parity_trials,
    parity_oracle,
)
from noisyip.hashing import all_toeplitz_hashes, toeplitz_hash
from noisyip.rng import hash_uniform01
from noisyip.signvectors import pack_bits


# ---------------------------------------------------------------------------
# Toeplitz family
# ---------------------------------------------------------------------------


def _sample_hash(n, m, rng):
    diag = rng.integers(0, 2, size=n + m - 1, dtype=np.uint8)
    offset = rng.integers(0, 2, size=m, dtype=np.uint8)
    return ToeplitzHash(n=n, m=m, diag=diag, offset=offset)


def test_pairwise_independence_exhaustive_small():
    # every pair of distinct inputs maps to every output pair equally often
    n, m = 4, 2
    inputs = [np.array(b, dtype=np.uint8) for b in product((0, 1), repeat=n)]
    family = list(all_toeplitz_hashes(n, m))
    assert len(family) == 2 ** (n + 2 * m - 1)
    hashes = np.array([[int("".join(map(str, h.hash_bits(x))), 2) for x in inputs] for h in family])
    target = len(family) / 2 ** (2 * m)
    for i1 in range(len(inputs)):
        for i2 in range(i1 + 1, len(inputs)):
            joint = np.zeros((2**m, 2**m))
            np.add.at(joint, (hashes[:, i1], hashes[:, i2]), 1)
            assert np.all(joint == target)


def test_hash_marginal_uniformity():
    n, m = 5, 2
    x = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    counts = np.zeros(2**m)
    family = list(all_toeplitz_hashes(n, m))
    for h in family:
        counts[int("".join(map(str, h.hash_bits(x))), 2)] += 1
    assert np.all(counts == len(family) / 2**m)


def test_hash_difference_independent_of_offset():
    rng = rng_from_seed(0)
    n, m = 8, 3
    h = _sample_hash(n, m, rng)
    x1 = rng.integers(0, 2, size=n, dtype=np.uint8)
    x2 = rng.integers(0, 2, size=n, dtype=np.uint8)
    diff = (h.hash_bits(x1) ^ h.hash_bits(x2))
    for _ in range(10):
        other = ToeplitzHash(
            n=n, m=m, diag=h.diag,
            offset=rng.integers(0, 2, size=m, dtype=np.uint8),
        )
        assert np.array_equal(other.hash_bits(x1) ^ other.hash_bits(x2), diff)


def test_hash_batch_matches_scalar():
    rng = rng_from_seed(1)
    h = _sample_hash(12, 4, rng)
    X = rng.integers(0, 2, size=(20, 12), dtype=np.uint8)
    batch = h.hash_bits(X)
    for i in range(20):
        assert np.array_equal(batch[i], h.hash_bits(X[i]))


def test_kernel_with_one_hash_per_row_matches_definition():
    rng = rng_from_seed(14)
    batch, n, m = 30, 11, 5
    diag = rng.integers(0, 2, size=(batch, n + m - 1), dtype=np.uint8)
    offset = rng.integers(0, 2, size=(batch, m), dtype=np.uint8)
    X = rng.integers(0, 2, size=(batch, n), dtype=np.uint8)
    got = toeplitz_hash(diag, offset, pack_bits(X))
    assert got.shape == (batch, m) and got.dtype == np.uint8
    for t in range(batch):
        T = np.array([[diag[t, i - j + n - 1] for j in range(n)] for i in range(m)])
        want = (T.astype(np.int64) @ X[t] + offset[t]) % 2
        assert np.array_equal(got[t], want)


def _toeplitz_matrix(diag, n, m):
    i, j = np.arange(m)[:, None], np.arange(n)[None, :]
    return diag[i - j + n - 1].astype(np.int64)


@pytest.mark.parametrize("m", [1, 10, 64, 70])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_kernel_matches_definition_across_lane_boundaries(n, m):
    # windows start at bits 0 .. m-1 of the reversed diagonal: for m > 64
    # some start in its second lane, and for n > 64 every one spans lanes
    rng = rng_from_seed(1000 * n + m)
    batch = 40
    diag = rng.integers(0, 2, size=(batch, n + m - 1), dtype=np.uint8)
    offset = rng.integers(0, 2, size=(batch, m), dtype=np.uint8)
    X = rng.integers(0, 2, size=(batch, n), dtype=np.uint8)
    lanes = pack_bits(X)
    # one hash per row
    got = toeplitz_hash(diag, offset, lanes)
    for t in range(batch):
        want = (_toeplitz_matrix(diag[t], n, m) @ X[t] + offset[t]) % 2
        assert np.array_equal(got[t], want)
    # one hash for every row, on a batch and on a single input
    want = (X @ _toeplitz_matrix(diag[0], n, m).T + offset[0]) % 2
    assert np.array_equal(toeplitz_hash(diag[0], offset[0], lanes), want)
    assert np.array_equal(toeplitz_hash(diag[0], offset[0], lanes[3]), want[3])
    h = ToeplitzHash(n=n, m=m, diag=diag[0], offset=offset[0])
    assert np.array_equal(h.hash_bits(X), want)


# ---------------------------------------------------------------------------
# Hash-and-parity rounds
# ---------------------------------------------------------------------------


def test_identical_inputs_never_abort_and_agree():
    rng = rng_from_seed(2)
    ch = equality_channel(24, 1.0)
    aborted, bit_a, bit_b = hashed_parity_trials(ch, 6, 50, rng)
    assert not aborted.any()
    assert np.array_equal(bit_a, bit_b)
    assert np.all((bit_a == 0) | (bit_a == 1))


def test_no_bits_on_hash_mismatch():
    rng = rng_from_seed(3)
    # with m large and independent inputs, mismatches dominate
    ch = equality_channel(24, 1e-9)
    aborted, bit_a, bit_b = hashed_parity_trials(ch, 12, 50, rng)
    assert aborted.any()
    assert np.all(bit_a[aborted] == -1) and np.all(bit_b[aborted] == -1)
    # the same draws: a round aborts exactly when h(x) != h(y)
    b, diag, offset, *_ = _draw_rounds(ch, 12, 50, rng_from_seed(3))
    hx, hy = (toeplitz_hash(diag, offset, lanes) for lanes in (b.px, b.py))
    assert np.array_equal(aborted, np.any(hx != hy, axis=1))


@pytest.mark.parametrize("m", [0, -1])
def test_hash_width_below_one_is_rejected(m):
    # an empty hash would confirm every round
    with pytest.raises(ValueError, match="at least 1"):
        hashed_parity_trials(equality_channel(16, 0.5), m, 3, rng_from_seed(1))
    b = equality_channel(16, 1.0).sample_batch(3, rng_from_seed(1))
    with pytest.raises(ValueError, match="at least 1"):
        eve_amplified(lambda *view: np.zeros((3, 16)), b, m, rng_from_seed(1))


def test_conditional_agreement_floor():
    # Pr[bit_a = bit_b | no abort] >= alpha / (alpha + 2^-m)
    rng = rng_from_seed(4)
    alpha, n = 0.25, 24
    m = default_hash_width(alpha)
    assert m == 10
    ch = equality_channel(n, alpha)
    aborted, bit_a, bit_b = hashed_parity_trials(ch, m, 60_000, rng)
    ok = ~aborted
    rate = np.mean(bit_a[ok] == bit_b[ok])
    floor = 1.0 / (1.0 + 2.0**-8)
    sigma = math.sqrt(rate * (1 - rate) / ok.sum() + 1e-12)
    assert rate >= floor - 3 * sigma
    assert rate >= 0.9


def test_batch_rounds_match_scalar_semantics():
    rng = rng_from_seed(5)
    ch = equality_channel(16, 0.5)
    aborted, bit_a, bit_b = hashed_parity_trials(ch, 4, 4000, rng)
    assert np.all((bit_a[~aborted] >= 0) & (bit_a[~aborted] <= 1))
    assert np.all(bit_a[aborted] == -1)
    # abort rate close to (1 - beta)(1 - 2^-m)
    beta = 0.5 + 0.5 * 2.0**-16
    expect = (1 - beta) * (1 - 2.0**-4)
    assert np.mean(aborted) == pytest.approx(expect, abs=0.02)


def test_rounds_are_pinned():
    # the draws and output bits of the rounds, as computed by the byte-wise
    # hash and parity this module used before the packed-lane kernel
    ch = equality_channel(32, 0.25)
    aborted, bit_a, bit_b = hashed_parity_trials(ch, 10, 10_000, rng_from_seed(11))
    assert (aborted.dtype, bit_a.dtype, bit_b.dtype) == (bool, np.int64, np.int64)
    digest = hashlib.sha256(aborted.tobytes() + bit_a.tobytes() + bit_b.tobytes())
    assert digest.hexdigest() == (
        "4039e170ba98797993ce89d8471ebce118d0546b8f7b1ab25866bd3d2283af7f"
    )
    digest = hashlib.sha256()
    for seed in range(20):
        b, diag, offset, *_ = _draw_rounds(ch, 10, 1, rng_from_seed(seed))
        digest.update(toeplitz_hash(diag, offset, b.px).tobytes())
    assert digest.hexdigest() == (
        "18baa63390c632978f5f2a8da9c0d24edaf20059b3c8e6c191a69b59a2804b16"
    )


def test_view_hash_is_the_round_hash_of_x():
    for seed in range(20):
        ch = equality_channel(40, 0.5)
        b, diag, offset, r2, aborted, bit_a, _ = _draw_rounds(ch, 6, 1, rng_from_seed(seed))
        hx = toeplitz_hash(diag, offset, b.px)[0]
        x = ch.sample_batch(1, rng_from_seed(seed)).xs[0]
        h = ToeplitzHash(n=40, m=6, diag=diag[0], offset=offset[0])
        assert np.array_equal(hx, h.hash_bits(x < 0))
        if not aborted[0]:
            assert bit_a[0] == int((r2[0] & (x < 0)).sum() % 2)


@pytest.mark.parametrize("channel_alpha", [0.3, 1e-9])
def test_repeat_until_success_takes_first_non_abort_of_one_batch(channel_alpha):
    # the wrapper's alpha sets the cap; a channel whose outputs never agree
    # makes every row abort, up to hash collisions
    ch = equality_channel(16, channel_alpha)
    alpha, m = 0.3, 8
    cap = math.ceil(5 / alpha)
    outcomes = set()
    for seed in range(30):
        res = repeat_until_success(ch, alpha, rng_from_seed(seed), m=m)
        aborted, bit_a, bit_b = hashed_parity_trials(ch, m, cap, rng_from_seed(seed))
        ok = np.flatnonzero(~aborted)
        outcomes.add(ok.size > 0)
        if ok.size == 0:
            assert res.all_failed
            assert (res.bit_a, res.bit_b, res.attempts) == (0, 0, cap)
        else:
            i = int(ok[0])
            assert not res.all_failed
            assert (res.bit_a, res.bit_b, res.attempts) == (bit_a[i], bit_b[i], i + 1)
    assert (channel_alpha > 0.01) in outcomes


@pytest.mark.parametrize("channel_alpha", [0.3, 1e-9])
def test_batch_wrapper_takes_first_non_abort_per_row(channel_alpha):
    ch = equality_channel(16, channel_alpha)
    alpha, m, runs = 0.3, 8, 200
    cap = math.ceil(5 / alpha)
    res = repeat_until_success_batch(ch, alpha, runs, rng_from_seed(3), m=m)
    rows = [a.reshape(runs, cap)
            for a in hashed_parity_trials(ch, m, runs * cap, rng_from_seed(3))]
    for k, (aborted, bit_a, bit_b) in enumerate(zip(*rows)):
        ok = np.flatnonzero(~aborted)
        got = (res.all_failed[k], res.bit_a[k], res.bit_b[k], res.attempts[k])
        if ok.size == 0:
            assert got == (True, 0, 0, cap)
        else:
            i = int(ok[0])
            assert got == (False, bit_a[i], bit_b[i], i + 1)
    if channel_alpha < 0.01:  # all rows abort but those a hash collision rescues
        assert res.all_failed.any() and not res.all_failed.all()


def test_repeat_until_success_is_the_size_one_batch():
    ch = equality_channel(16, 0.1)
    for seed in range(30):
        res = repeat_until_success(ch, 0.2, rng_from_seed(seed), m=6)
        batch = repeat_until_success_batch(ch, 0.2, 1, rng_from_seed(seed), m=6)
        assert (res.all_failed, res.bit_a, res.bit_b, res.attempts) == (
            batch.all_failed[0], batch.bit_a[0], batch.bit_b[0], batch.attempts[0])
        assert type(res.attempts) is int and type(res.all_failed) is bool


def test_repeat_until_success_immediate_on_perfect_channel():
    rng = rng_from_seed(6)
    ch = equality_channel(16, 1.0)
    res = repeat_until_success(ch, 1.0, rng)
    assert not res.all_failed and res.attempts == 1
    assert res.bit_a == res.bit_b


def test_repeat_until_success_attempt_cap_and_all_fail_rate():
    rng = rng_from_seed(7)
    alpha = 0.1
    ch = equality_channel(16, alpha)
    cap = math.ceil(5 / alpha)
    runs = 1500
    res = repeat_until_success_batch(ch, alpha, runs, rng)
    assert np.all((res.attempts >= 1) & (res.attempts <= cap))
    assert not np.any(res.bit_a[res.all_failed] | res.bit_b[res.all_failed])
    assert np.all(res.attempts[res.all_failed] == cap)
    rate = res.all_failed.sum() / runs
    sigma = math.sqrt(max(rate * (1 - rate), 1e-9) / runs)
    assert rate <= math.exp(-5) + 3 * sigma


# ---------------------------------------------------------------------------
# Parity decoding
# ---------------------------------------------------------------------------


def test_majority_bits_is_the_subset_parity_majority():
    # exhaustively over every guess g: bit i of row g is 1 exactly when more
    # than half of the 2^t - 1 votes disagree with the subset parity <S, g>
    rng = rng_from_seed(12)
    for t in range(1, 7):
        votes = rng.integers(0, 2, size=(2**t - 1, 9), dtype=np.uint8)
        codes = np.arange(1, 2**t)
        guesses = np.arange(2**t)
        subset_parities = np.bitwise_count(codes[:, None] & guesses[None, :]) & 1
        counts = (votes[:, None, :] ^ subset_parities[:, :, None]).sum(axis=0)
        expected = (counts > (2**t - 1) / 2).astype(np.uint8)
        assert np.array_equal(_majority_bits(votes), expected), t


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_parity_oracle_is_the_keyed_noisy_parity(n):
    rng = rng_from_seed(n)
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    R = rng.integers(0, 2, size=(300, n), dtype=np.uint8)
    exact = R.astype(np.int64) @ x % 2
    for noise in (0.0, 0.2, 1.0):
        wrong = hash_uniform01(R, 7) < noise
        assert np.array_equal(parity_oracle(x, noise, 7)(R), exact ^ wrong)


def test_gl_decode_noiseless():
    # n = 70 spans two packed lanes in the candidate check and the oracle
    rng = rng_from_seed(8)
    for n in (64, 70):
        for trial in range(10):
            x = rng.integers(0, 2, size=n, dtype=np.uint8)
            got = gl_decode(parity_oracle(x, 0.0, trial), n, rng)
            assert np.array_equal(got, x)


def test_gl_decode_failures_are_pinned():
    # near the noise limit some decodes return a wrong candidate; which one
    # (best agreement, then the lexicographically first bit row) is pinned
    rng = rng_from_seed(4)
    xs, got = [], []
    for _ in range(40):
        xs.append(rng.integers(0, 2, size=16, dtype=np.uint8))
        oracle = parity_oracle(xs[-1], 0.45, int(rng.integers(0, 2**62)))
        got.append(gl_decode(oracle, 16, rng))
    got = np.stack(got).astype(np.uint8)
    assert np.all(got == np.stack(xs), axis=1).sum() == 36
    assert hashlib.sha256(got.tobytes()).hexdigest() == (
        "90353a1ea437d0dbdce1225afe94e7916f26be6df15fc89b8ace767ae08aec13"
    )


def test_gl_decode_ties_go_to_the_lexicographically_first_row():
    # one check probe leaves every candidate of the right parity tied
    rng = rng_from_seed(5)
    got = []
    for _ in range(6):
        x = rng.integers(0, 2, size=8, dtype=np.uint8)
        row = gl_decode(parity_oracle(x, 0.3, 3), 8, rng, check_probes=1)
        got.append("".join(map(str, row)))
    assert got == ["00000000", "00000001", "00001001",
                   "00001101", "00000011", "00000001"]


@pytest.mark.parametrize("kwargs", [{"fail_budget": 0}, {"check_probes": 0},
                                    {"agreement_floor": 0.5}])
def test_gl_decode_rejects_bad_arguments(kwargs):
    x = np.ones(8, dtype=np.uint8)
    with pytest.raises(ValueError, match="fail_budget > 0"):
        gl_decode(parity_oracle(x, 0.0, 1), 8, rng_from_seed(1), **kwargs)


def test_gl_decode_noisy():
    rng = rng_from_seed(9)
    n = 64
    hits = 0
    for trial in range(15):
        x = rng.integers(0, 2, size=n, dtype=np.uint8)
        got = gl_decode(parity_oracle(x, 0.2, 100 + trial), n, rng)
        hits += int(np.array_equal(got, x))
    assert hits >= 14


def test_gl_decode_monotone_in_noise():
    rng = rng_from_seed(10)
    n = 48
    rates = []
    for noise in (0.0, 0.1, 0.2):
        hits = 0
        for trial in range(12):
            x = rng.integers(0, 2, size=n, dtype=np.uint8)
            got = gl_decode(parity_oracle(x, noise, 200 + trial), n, rng)
            hits += int(np.array_equal(got, x))
        rates.append(hits / 12)
    assert rates[0] >= rates[1] >= rates[2] - 1e-9


def test_gl_decode_negative_control_constant_oracle():
    # a constant-zero oracle has no agreement advantage for nonzero x; the
    # decoder settles on the zero parity function instead
    rng = rng_from_seed(11)
    n = 40
    x = np.zeros(n, dtype=np.uint8)
    x[3] = 1

    def oracle(R):
        return np.zeros(R.shape[0], dtype=np.uint8)

    got = gl_decode(oracle, n, rng)
    assert not np.array_equal(got, x)
    assert np.array_equal(got, np.zeros(n, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Adversary dilution wrapper
# ---------------------------------------------------------------------------


def test_eve_amplified_passthrough_and_shapes():
    rng = rng_from_seed(12)
    b = equality_channel(16, 1.0).sample_batch(7, rng)
    fixed = np.ones((7, 16), dtype=np.uint8)
    calls = []

    def ignore_all(outs, extras, diag, offset, v):
        calls.append((outs.shape, diag.shape, offset.shape, v.shape))
        return fixed

    guess = eve_amplified(ignore_all, b, 5, rng)
    assert np.array_equal(guess, fixed)
    assert calls == [((7,), (7, 20), (7, 5), (7, 5))]
    with pytest.raises(ValueError, match="guess per row"):
        eve_amplified(lambda *view: fixed[0], b, 5, rng)


def test_eve_amplified_dilution_is_exactly_two_to_minus_m():
    # an adversary that answers correctly only when handed v = h(x_secret)
    # succeeds with probability 2^-m over the wrapper's samples
    rng = rng_from_seed(13)
    n, m = 12, 3
    xbits = rng.integers(0, 2, size=n, dtype=np.uint8)
    trials = 40_000
    b = equality_channel(n, 1.0).sample_batch(trials, rng)

    def needs_hash(outs, extras, diag, offset, v):
        ok = np.all(v == toeplitz_hash(diag, offset, pack_bits(xbits)), axis=1)
        return np.where(ok[:, None], xbits, 1 - xbits)  # always wrong otherwise

    hits = np.all(eve_amplified(needs_hash, b, m, rng) == xbits, axis=1).sum()
    rate = hits / trials
    sigma = math.sqrt(2.0**-m * (1 - 2.0**-m) / trials)
    assert abs(rate - 2.0**-m) < 4 * sigma
