"""Agreement amplification: hash confirmation plus parity extraction.

A channel whose local outputs agree noticeably more often than an
eavesdropper can guess them is turned into a single-bit channel: party A
publishes a pairwise-independent hash of its output and a random parity
mask, party B confirms or refutes the hash, and on confirmation both sides
output the masked parity of their local value.  A repetition wrapper rides
out the aborts.  The security bridge runs the other way: a guesser of the
output bit implies, through a (Goldreich-Levin style) parity self-corrector
and a hash-guess dilution argument, a guesser of the full pre-hash value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import Channel, Transcript
from .hashing import ToeplitzHash, sample_toeplitz_hash, toeplitz_hash
from .rng import hash_uniform01
from .signvectors import signs_to_bits


@dataclass(frozen=True, eq=False)
class AmplifiedView:
    """Eavesdropper view of one hash-and-parity round."""

    t: Transcript
    h: ToeplitzHash
    hx: np.ndarray
    r2: np.ndarray
    equal_flag: bool


@dataclass(frozen=True, eq=False)
class HashedRound:
    aborted: bool
    bit_a: int | None
    bit_b: int | None
    view: AmplifiedView

    def __post_init__(self):
        if self.view.equal_flag and (self.bit_a is None or self.bit_b is None):
            raise ValueError("hash match must produce output bits")
        if not self.view.equal_flag and not self.aborted:
            raise ValueError("hash mismatch must abort")


def _draw_rounds(channel: Channel, m: int, size: int, rng: np.random.Generator):
    """``size`` rounds: (channel batch, hash diagonals, hash offsets, masks
    r2, h(x), aborted, bit_a, bit_b), bits -1 where aborted.  Channel outputs
    are read as bit strings with the global convention bit = (1 - sign)/2."""
    n = channel.n
    b = channel.sample_batch(size, rng)
    xbits = signs_to_bits(b.xs)
    ybits = signs_to_bits(b.ys)
    diag = rng.integers(0, 2, size=(size, n + m - 1), dtype=np.uint8)
    offset = rng.integers(0, 2, size=(size, m), dtype=np.uint8)
    r2 = rng.integers(0, 2, size=(size, n), dtype=np.uint8)
    hx = toeplitz_hash(diag, offset, xbits)
    aborted = np.any(hx != toeplitz_hash(diag, offset, ybits), axis=1)
    bit_a = np.bitwise_xor.reduce(r2 & xbits, axis=1).astype(np.int64)
    bit_b = np.bitwise_xor.reduce(r2 & ybits, axis=1).astype(np.int64)
    return (b, diag, offset, r2, hx, aborted,
            np.where(aborted, -1, bit_a), np.where(aborted, -1, bit_b))


def hashed_parity_trials(
    channel: Channel, m: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized rounds: (aborted, bit_a, bit_b); bits are -1 where aborted."""
    return _draw_rounds(channel, m, trials, rng)[-3:]


def run_hashed_parity_round(
    channel: Channel, m: int, rng: np.random.Generator
) -> HashedRound:
    """One round with its eavesdropper view: the size-1 case of
    :func:`hashed_parity_trials`, drawing the same random numbers."""
    b, diag, offset, r2, hx, aborted, bit_a, bit_b = _draw_rounds(channel, m, 1, rng)
    h = ToeplitzHash(n=channel.n, m=m, diag=diag[0], offset=offset[0])
    view = AmplifiedView(b.transcript(0), h, hx[0], r2[0], equal_flag=not aborted[0])
    bits = (None, None) if aborted[0] else (int(bit_a[0]), int(bit_b[0]))
    return HashedRound(bool(aborted[0]), *bits, view=view)


def default_hash_width(alpha: float) -> int:
    """m = ceil(log2(1/alpha)) + 8, tuned so hash collisions are negligible
    next to the agreement rate."""
    return math.ceil(math.log2(1.0 / alpha)) + 8


@dataclass(frozen=True, eq=False)
class RepeatResult:
    all_failed: bool
    bit_a: int
    bit_b: int
    attempts: int


def repeat_until_success(
    channel: Channel,
    alpha: float,
    rng: np.random.Generator,
    m: int | None = None,
) -> RepeatResult:
    """The first non-aborting round out of ceil(5/alpha).

    All ceil(5/alpha) rounds are drawn as one batch; ``attempts`` is the
    index (from 1) of the first that did not abort.  Against an
    alpha-agreement channel all of them abort with probability at most
    (1 - alpha)^(5/alpha) <= e^-5.  If every round aborts, both output
    bits default to 0.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    m = default_hash_width(alpha) if m is None else m
    max_attempts = math.ceil(5.0 / alpha)
    aborted, bit_a, bit_b = hashed_parity_trials(channel, m, max_attempts, rng)
    ok = np.flatnonzero(~aborted)
    if ok.size == 0:
        return RepeatResult(all_failed=True, bit_a=0, bit_b=0, attempts=max_attempts)
    i = int(ok[0])
    return RepeatResult(False, int(bit_a[i]), int(bit_b[i]), attempts=i + 1)


# ---------------------------------------------------------------------------
# Parity self-correction (list decoding)
# ---------------------------------------------------------------------------


def gl_decode(
    oracle: Callable[[np.ndarray], np.ndarray],
    n: int,
    rng: np.random.Generator,
    agreement_floor: float = 0.76,
    fail_budget: float = 0.05,
    check_probes: int = 2048,
) -> np.ndarray:
    """Recover x from an oracle predicting the parity <x, r> mod 2.

    Standard subset-sum list decoder: draw t base probes, enumerate all 2^t
    guesses of their parities, and under each guess recover every bit by
    majority vote over the 2^t - 1 pairwise-independent subset-XOR probes
    shifted by the unit vector of that bit.  The candidate with the best
    empirical agreement against fresh probes wins.  t is sized by Chebyshev
    over the pairwise-independent votes so that, whenever the oracle agrees
    with the parity on at least ``agreement_floor`` of all inputs, the
    correct guess yields x itself with failure probability about
    ``fail_budget``.

    ``oracle`` maps a (batch, n) bit matrix to a (batch,) bit vector.
    """
    delta = agreement_floor - 0.5
    if delta <= 0:
        raise ValueError("agreement_floor must exceed 1/2")
    need = n * agreement_floor * (1 - agreement_floor) / (fail_budget * delta**2)
    t = max(3, math.ceil(math.log2(need + 1)))
    t = min(t, 14)  # 2^t candidate enumeration cap
    num_subsets = 2**t - 1

    base = rng.integers(0, 2, size=(t, n), dtype=np.uint8)
    codes = np.arange(1, 2**t, dtype=np.uint32)
    subset_bits = ((codes[:, None] >> np.arange(t)[None, :]) & 1).astype(np.uint8)
    # float32 matmul stays exact here (counts bounded by 2^t << 2^24) and
    # dispatches to BLAS, unlike integer matmuls
    probes = (
        (subset_bits.astype(np.float32) @ base.astype(np.float32)) % 2
    ).astype(np.uint8)  # (S, n)

    # votes[S, i] = oracle(probe_S xor e_i); one batched call per bit
    votes = np.empty((num_subsets, n), dtype=np.uint8)
    for i in range(n):
        shifted = probes.copy()
        shifted[:, i] ^= 1
        votes[:, i] = oracle(shifted)

    # parity of subset S under guess sigma = popcount(code(S) & code(sigma))
    guesses = np.arange(2**t, dtype=np.uint32)
    subset_parities = (
        np.bitwise_count(codes[:, None] & guesses[None, :]) & 1
    ).astype(np.uint8)  # (S, G)

    # majority of votes[S, i] xor subset_parities[S, g] over S, per (g, i):
    # count = sum_S votes + sum_S par - 2 * votes . par
    v_sum = votes.sum(axis=0, dtype=np.int64)  # (n,)
    p_sum = subset_parities.sum(axis=0, dtype=np.int64)  # (G,)
    cross = votes.T.astype(np.float32) @ subset_parities.astype(np.float32)  # (n, G)
    counts = v_sum[:, None] + p_sum[None, :] - 2.0 * cross
    candidates = (counts.T > num_subsets / 2).astype(np.uint8)  # (G, n)
    candidates = np.unique(candidates, axis=0)

    fresh = rng.integers(0, 2, size=(check_probes, n), dtype=np.uint8)
    answers = oracle(fresh).astype(np.int64)
    cand_parities = (
        (candidates.astype(np.float32) @ fresh.T.astype(np.float32)) % 2
    ).astype(np.int64)
    agreement = (cand_parities == answers[None, :]).mean(axis=1)
    return candidates[int(np.argmax(agreement))]


def parity_oracle(
    x: np.ndarray, noise: float, seed: int
) -> Callable[[np.ndarray], np.ndarray]:
    """An oracle for <x, r> mod 2 as :func:`gl_decode` takes it, wrong at r
    exactly when ``hash_uniform01(r, seed) < noise``: a fixed function of r
    that errs on each distinct query with probability ``noise``."""
    x64 = x.astype(np.int64)

    def oracle(R):
        par = R.astype(np.int64) @ x64 % 2
        if noise > 0:
            par = par ^ (hash_uniform01(R, seed) < noise)
        return par.astype(np.uint8)

    return oracle


def eve_amplified(
    hash_adversary: Callable[[Transcript, ToeplitzHash, np.ndarray], np.ndarray],
    t: Transcript,
    n: int,
    m: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run a (transcript, hash, hash-value) guesser on a bare transcript.

    Samples the hash and a uniform candidate hash value itself; on events
    where the parties' values agree, the sampled value matches the real
    hash with probability exactly 2^-m, diluting the adversary's success by
    that factor and no more.
    """
    h = sample_toeplitz_hash(n, m, rng)
    v = rng.integers(0, 2, size=m, dtype=np.uint8)
    guess = np.asarray(hash_adversary(t, h, v), dtype=np.uint8)
    if guess.shape != (n,):
        raise ValueError("hash adversary must return an n-bit guess")
    return guess
