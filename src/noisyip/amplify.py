"""Agreement amplification: hash confirmation plus parity extraction.

A channel whose local outputs agree noticeably more often than an
eavesdropper can guess them is turned into a single-bit channel: party A
publishes a pairwise-independent hash of its output and a random parity
mask, party B confirms or refutes the hash, and on confirmation both sides
output the masked parity of their local value.  A repetition wrapper rides
out the aborts.  The security bridge runs the other way: a guesser of the
output bit implies, through a (Goldreich-Levin style) parity self-corrector
and a hash-guess dilution argument, a guesser of the full pre-hash value.
Both run on batches: a round's eavesdropper view is a row of the arrays
``_draw_rounds`` returns, and ``eve_amplified`` calls its guesser once.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from .channels import Channel, ChannelBatch
from .hashing import toeplitz_hash
from .rng import keyed_uniform01
from .signvectors import pack_bits, random_bits, random_packed


def _draw_hashes(n: int, m: int, size: int, rng: np.random.Generator):
    """``size`` uniform Toeplitz hashes {0,1}^n -> {0,1}^m: (rd, offset), packed."""
    if m < 1:
        raise ValueError("hash width m must be at least 1")
    return random_packed(n + m - 1, size, rng), random_packed(m, size, rng)


def _draw_rounds(channel: Channel, m: int, size: int, rng: np.random.Generator):
    """``size`` rounds: (channel batch, hashes rd and offset, masks r2, all
    packed, aborted, bit_a, bit_b), bits -1 where aborted, read off the packed
    channel lanes (bit = (1 - sign)/2); h(x) = h(y) exactly when T(x xor y) = 0."""
    b = channel.sample_batch(size, rng)
    rd, offset = _draw_hashes(channel.n, m, size, rng)
    r2 = random_packed(channel.n, size, rng)
    aborted = np.any(toeplitz_hash(rd, 0, b.px ^ b.py, m), axis=1)
    par = np.bitwise_count(np.bitwise_xor.reduce(r2 & np.stack((b.px, b.py)), axis=-1)) & 1
    bit_a, bit_b = np.where(aborted, -1, par.astype(np.int64))
    return b, rd, offset, r2, aborted, bit_a, bit_b


def hashed_parity_trials(
    channel: Channel, m: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized rounds: (aborted, bit_a, bit_b); bits are -1 where aborted."""
    return _draw_rounds(channel, m, trials, rng)[-3:]


def default_hash_width(alpha: float) -> int:
    """m = ceil(log2(1/alpha)) + 8, tuned so hash collisions are negligible
    next to the agreement rate."""
    return math.ceil(math.log2(1.0 / alpha)) + 8


@dataclass(frozen=True, eq=False)
class RepeatResult:
    all_failed: bool | np.ndarray  # one entry per run in the batch form
    bit_a: int | np.ndarray
    bit_b: int | np.ndarray
    attempts: int | np.ndarray


def repeat_until_success_batch(
    channel: Channel,
    alpha: float,
    runs: int,
    rng: np.random.Generator,
    m: int | None = None,
) -> RepeatResult:
    """``runs`` wrapper runs, each the first non-aborting round out of
    cap = ceil(5/alpha).

    All runs * cap rounds are drawn as one batch, run k taking rows
    k*cap .. (k+1)*cap - 1; ``attempts`` is the index (from 1) of the first
    that did not abort.  Against an alpha-agreement channel all of them
    abort with probability at most (1 - alpha)^(5/alpha) <= e^-5.  If every
    round aborts, both output bits default to 0 and ``attempts`` is cap.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    m = default_hash_width(alpha) if m is None else m
    cap = math.ceil(5.0 / alpha)
    aborted, bit_a, bit_b = (a.reshape(runs, cap) for a in
                             hashed_parity_trials(channel, m, runs * cap, rng))
    rows, first = np.arange(runs), np.argmin(aborted, axis=1)  # 0 if all abort
    failed = aborted[rows, first]
    bits = (np.maximum(b[rows, first], 0) for b in (bit_a, bit_b))  # abort: -1 -> 0
    return RepeatResult(failed, *bits, np.where(failed, cap, first + 1))


def repeat_until_success(
    channel: Channel, alpha: float, rng: np.random.Generator, m: int | None = None
) -> RepeatResult:
    """One run of :func:`repeat_until_success_batch`, as scalars."""
    r = repeat_until_success_batch(channel, alpha, 1, rng, m)
    return RepeatResult(*(v[0].item() for v in astuple(r)))


# ---------------------------------------------------------------------------
# Parity self-correction (list decoding)
# ---------------------------------------------------------------------------


def _majority_bits(votes: np.ndarray) -> np.ndarray:
    """Row g, bit i: the majority over subset codes S >= 1 of the 0/1 votes
    ``votes[S - 1, i] xor <S, g>``, read off the Walsh-Hadamard transform W
    of the +-1 votes (Kushilevitz-Mansour) in int32: the bit is W < 0, and W
    is never 0 since the 2^t - 1 subsets are odd in number."""
    n = votes.shape[1]
    w = np.pad(1 - 2 * votes.astype(np.int32), ((1, 0), (0, 0)))
    for k in range(len(w).bit_length() - 1):  # butterfly on bit k of the row
        w = w.reshape(-1, 2, 2**k, n)
        w = np.stack((w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]), axis=1)
    return (w.reshape(-1, n) < 0).astype(np.uint8)


def _packed_parities(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """<p, q> mod 2 for every packed row p of P and q of Q: shape (|P|, |Q|)."""
    par = np.zeros((len(P), len(Q)), dtype=np.uint8)
    for j in range(P.shape[1]):
        par ^= np.bitwise_count(P[:, j, None] & Q[None, :, j])
    return par & 1


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
    empirical agreement against fresh probes wins, the lexicographically
    first bit row among equals.  t is sized by Chebyshev over the
    pairwise-independent votes so that, whenever the oracle agrees with the
    parity on at least ``agreement_floor`` of all inputs, the correct guess
    yields x itself with failure probability about ``fail_budget``.

    ``oracle`` maps a (batch, n) bit matrix to a (batch,) bit vector.
    """
    delta = agreement_floor - 0.5
    if delta <= 0 or fail_budget <= 0 or check_probes < 1:
        raise ValueError(
            "need agreement_floor > 1/2, fail_budget > 0 and check_probes >= 1")
    need = n * agreement_floor * (1 - agreement_floor) / (fail_budget * delta**2)
    t = min(max(3, math.ceil(math.log2(need + 1))), 14)  # 2^t candidates, capped

    # probe row c is the XOR of the base rows at the set bits of c
    probes = np.zeros((1, n), dtype=np.uint8)
    for row in random_bits((t, n), rng):
        probes = np.concatenate((probes, probes ^ row))

    # votes[c - 1, i] = oracle(probe_c xor e_i); one batched call per bit
    units = np.eye(n, dtype=np.uint8)
    votes = np.stack([oracle(probes[1:] ^ e) for e in units], axis=1)
    candidates = _majority_bits(votes)  # row g: the bits under guess g

    fresh = random_bits((check_probes, n), rng)
    answers = oracle(fresh)
    parities = _packed_parities(pack_bits(candidates), pack_bits(fresh))
    agreement = (parities == answers).sum(axis=1)
    return min(candidates[agreement == agreement.max()], key=bytes)


def parity_oracle(
    x: np.ndarray, noise: float, seed: int
) -> Callable[[np.ndarray], np.ndarray]:
    """An oracle for <x, r> mod 2 as :func:`gl_decode` takes it, wrong at r
    exactly when ``keyed_uniform01(pack_bits(r), seed) < noise``: a fixed
    function of r that errs on each distinct query with probability
    ``noise``.  Each query batch is packed once, for both the parity and the
    noise key."""
    x_lanes = pack_bits(x[None])

    def oracle(R):
        lanes = pack_bits(R)
        par = _packed_parities(lanes, x_lanes)[:, 0]
        if noise > 0:
            par ^= keyed_uniform01(lanes, seed) < noise
        return par

    return oracle


def eve_amplified(
    hash_adversary: Callable[..., np.ndarray],
    b: ChannelBatch,
    m: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run a (transcript, hash, hash-value) guesser on the transcripts of
    the channel batch ``b``: one call ``hash_adversary(b.outs, b.extras,
    rd, offset, v)`` with a sampled hash (packed as ``toeplitz_hash`` takes
    it) and a uniform packed candidate value v per row, returning its
    (rows, n) bit guess; it never sees the inputs.  Where the parties'
    values agree, v matches the real hash with probability exactly 2^-m,
    diluting the adversary's success by that factor and no more."""
    rd, offset = _draw_hashes(b.n, m, len(b), rng)
    v = random_packed(m, len(b), rng)
    guess = np.asarray(hash_adversary(b.outs, b.extras, rd, offset, v), dtype=np.uint8)
    if guess.shape != (len(b), b.n):
        raise ValueError("hash adversary must return an n-bit guess per row")
    return guess
