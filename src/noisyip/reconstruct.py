"""Bit reconstruction from low-confidence inner-product estimates.

The object under attack is a hidden database z in {-1,+1}^n, accessed only
through an estimator f whose answer f(r) is within ell of <z,r> for at
least a lambda*ell/sqrt(n) fraction of uniform r (everywhere else f is
unrestricted).  Even in this low-confidence regime the single missing bit
z_i is recoverable for most i from z_{-i} and queries to f alone.

The attack scores each query with a three-valued vote: guess that f(r) is
off from <z,r> by exactly k, in which case the residual
a - <z_{-i}, r_{-i}> - k collapses to z_i * r_i and multiplying by r_i
exposes z_i; if the residual is not compatible with offset k (not in
{k-1, k+1}), abstain.  Averaged over a suitably weighted random offset k
and uniform r, the vote correlates positively with z_i.  The offset
distribution is sampled in three stages (a span (s, t), a width m inside
the span, then a uniform offset in [-(m+1), m+1]) with closed-form weights,
so its law is exactly computable; ``brute_force_vote_mean`` evaluates the
vote expectation exactly at small n and serves as the independent oracle
for the Monte Carlo paths.

The attack itself never samples k: it scores each residual with the vote's
exact expectation T over k (Rao-Blackwell: same mean, lower variance), on one
query batch shared by every bit, as in Dinur-Nissim reconstruction.  With
p = a - <z,r>, bit c's residual is p + z_c r_c = p +- 1, so each query reads
T twice, at p + 1 and p - 1 (T is padded to [-2n-1, 2n+1], as p spans
[-2n, 2n]), and every bit's total is one weighted column sum: a BLAS float
product, exact while sum|w| < 2^53, over exact int64 popcount residuals.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, PreconditionViolation
from .rng import CHUNK_TRIALS, keyed_uniform01, sum_chunks
from .signvectors import (
    SIGN_DTYPE,
    as_signs,
    pack_signs,
    packed_inner_products,
    random_packed,
    unpack_signs,
)
from .sources import laplace_from_uniform, round_half_away, rounded_laplace_tail

# ---------------------------------------------------------------------------
# The three-valued offset vote
# ---------------------------------------------------------------------------


def offset_vote(k: int, i: int, z_minus_i, r, a: int) -> int:
    """Vote for z_i assuming the answer a is off from <z,r> by exactly k.

    Returns (a - <z_{-i}, r_{-i}> - k) * r_i when the residual
    a - <z_{-i}, r_{-i}> lies in {k-1, k+1}, else 0.  The output is always
    in {-1, 0, +1}: on a "hit" the residual minus k is +-1 and r_i is +-1.
    Never reads entry i of z (it is not even passed in).
    """
    z_minus_i = np.asarray(z_minus_i, dtype=np.int64)
    r = np.asarray(r, dtype=np.int64)
    return int(_vote_values(int(a) - int(np.dot(z_minus_i, np.delete(r, i))), k, r[i]))


def _vote_values(residuals: np.ndarray, ks: np.ndarray, r_i: np.ndarray) -> np.ndarray:
    """Vectorized offset votes given precomputed residuals a - <z_{-i}, r_{-i}>."""
    diff = residuals - ks
    hit = np.abs(diff) == 1
    return np.where(hit, diff * r_i.astype(np.int64), 0)


# ---------------------------------------------------------------------------
# The staged offset distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OffsetParams:
    """Parameter window of the staged offset distribution.

    Spans are pairs (s, t) with s drawn from [0, ell-1] and t from
    [ell+2, floor(sqrt(n))]; the window is well-defined only when
    ell + 2 <= floor(sqrt(n)).
    """

    n: int
    ell: int

    def __post_init__(self):
        if self.ell < 1:
            raise PreconditionViolation("ell must be >= 1")
        if self.ell + 2 > math.isqrt(self.n):
            raise PreconditionViolation(
                f"need ell + 2 <= floor(sqrt(n)); got ell={self.ell}, n={self.n}"
            )

    @property
    def s_values(self) -> range:
        return range(0, self.ell)

    @property
    def t_values(self) -> range:
        return range(self.ell + 2, math.isqrt(self.n) + 1)


def _span_weight(s: int, t: int) -> int:
    return (t - s) * (t + s + 2)


def width_pmf(s: int, t: int) -> dict[int, Fraction]:
    """Exact law of the width stage: Pr[m] = (2m+3)/((t-s)(t+s+2)) on [s, t-1]."""
    if not 0 <= s < t:
        raise PreconditionViolation("need 0 <= s < t")
    z = _span_weight(s, t)
    return {m: Fraction(2 * m + 3, z) for m in range(s, t)}


def sample_width(s: int, t: int, rng: np.random.Generator, size: int | None = None):
    """Sample the width stage by exact integer inverse-CDF.

    The cumulative weight of [s, m] is (m+2)^2 - (s+1)^2, so the smallest m
    whose cumulative weight exceeds a uniform draw has a closed form.
    """
    if not 0 <= s < t:
        raise PreconditionViolation("need 0 <= s < t")
    ones = np.ones(1 if size is None else size, dtype=np.int64)
    return _sample_width_arrays(s * ones, t * ones, rng, scalar=size is None)


def _sample_width_arrays(s: np.ndarray, t: np.ndarray, rng, scalar: bool = False):
    w = rng.integers(0, _span_weight(s, t))  # uniform in [0, Z)
    m = np.ceil(np.sqrt(w + 1 + (s + 1) ** 2)).astype(np.int64) - 2
    m = np.clip(m, s, t - 1)
    return int(m[0]) if scalar else m


def span_pmf(s_values: Sequence[int], t_values: Sequence[int]) -> dict[tuple[int, int], Fraction]:
    """Exact law of the span stage: Pr[(s,t)] proportional to (t-s)(t+s+2)."""
    s_values = list(s_values)
    t_values = list(t_values)
    if not s_values or not t_values:
        raise PreconditionViolation("span supports must be non-empty")
    if max(s_values) >= min(t_values):
        raise PreconditionViolation("need max(S) < min(T)")
    total = sum(_span_weight(s, t) for s in s_values for t in t_values)
    return {
        (s, t): Fraction(_span_weight(s, t), total)
        for s in s_values
        for t in t_values
    }


def sample_span(
    s_values: Sequence[int],
    t_values: Sequence[int],
    rng: np.random.Generator,
    size: int | None = None,
):
    """Sample span pairs (s, t) with weights (t-s)(t+s+2)."""
    pmf = span_pmf(s_values, t_values)
    pairs = list(pmf.keys())
    probs = np.array([float(p) for p in pmf.values()])
    probs /= probs.sum()
    idx = rng.choice(len(pairs), size=size, p=probs)
    arr = np.asarray(pairs, dtype=np.int64)
    if size is None:
        return tuple(int(v) for v in arr[idx])
    return arr[idx, 0], arr[idx, 1]


def sample_offset(n: int, ell: int, rng: np.random.Generator, size: int | None = None):
    """Staged offset sampler: span, then width, then uniform offset.

    Support is contained in [-floor(sqrt(n)), floor(sqrt(n))] and the law is
    symmetric about 0 with Pr[0] > 0.
    """
    params = OffsetParams(n, ell)
    scalar = size is None
    m = 1 if scalar else size
    s, t = sample_span(params.s_values, params.t_values, rng, size=m)
    widths = _sample_width_arrays(np.asarray(s), np.asarray(t), rng)
    ks = rng.integers(-(widths + 1), widths + 2)
    return int(ks[0]) if scalar else ks


def offset_pmf(n: int, ell: int) -> dict[int, Fraction]:
    """Exact law of the staged offset sampler.

    Marginalizing the width stage, the (2m+3) weights cancel against the
    uniform final stage, leaving Pr[k] = sum over spans of the number of
    widths m in [max(|k|-1, s), t-1], divided by the total span weight.
    """
    params = OffsetParams(n, ell)
    z_total = sum(
        _span_weight(s, t) for s in params.s_values for t in params.t_values
    )
    tmax = math.isqrt(n)
    pmf: dict[int, Fraction] = {}
    for k in range(-tmax, tmax + 1):
        count = 0
        for s in params.s_values:
            for t in params.t_values:
                count += max(0, t - max(abs(k) - 1, s))
        if count:
            pmf[k] = Fraction(count, z_total)
    return pmf


def vote_on_bit(
    i: int, z_minus_i, r, a: int, ell: int, rng: np.random.Generator
) -> int:
    """Randomized single-query vote for z_i: draw an offset, then vote."""
    n = len(z_minus_i) + 1
    k = sample_offset(n, ell, rng)
    return offset_vote(k, i, z_minus_i, r, a)


# ---------------------------------------------------------------------------
# Estimator handles
# ---------------------------------------------------------------------------


class EstimatorHandle:
    """Query wrapper around an inner-product estimator.

    The estimator is one pure function of packed queries (uint64 bit lanes,
    see ``noisyip.signvectors.pack_signs``): the same r always gets the same
    answer, whichever thread, batch or order asks for it, which is the fixed
    function f the attack model assumes.  Sign-valued estimators are wrapped
    with :meth:`from_signs`.  Answers are clipped to [-n, n] (an estimator
    may always do this without losing accuracy, since |<z,r>| <= n), and a
    lock-protected counter tracks oracle usage across threads.
    """

    def __init__(self, packed_fn: Callable[[np.ndarray], np.ndarray], n: int):
        self._packed_fn = packed_fn
        self.n = int(n)
        self._queries = 0
        self._lock = threading.Lock()

    @classmethod
    def from_signs(cls, batch_fn, n: int) -> "EstimatorHandle":
        """Wrap an estimator of sign-matrix queries, (m, n) -> (m,) answers."""
        return cls(lambda P: batch_fn(unpack_signs(P, n)), n)

    @property
    def query_count(self) -> int:
        return self._queries

    def query(self, r) -> int:
        return int(self.query_batch(np.asarray(r, dtype=SIGN_DTYPE)[None, :])[0])

    def query_batch(self, R: np.ndarray) -> np.ndarray:
        R = np.asarray(R)
        if R.ndim != 2 or R.shape[1] != self.n:
            raise ValueError(f"expected queries of shape (m, {self.n})")
        return self._answer(pack_signs(R))

    def query_packed(self, P: np.ndarray) -> np.ndarray:
        return self._answer(P)

    def _answer(self, P: np.ndarray) -> np.ndarray:
        with self._lock:
            self._queries += P.shape[0]
        # two ufuncs: np.clip's Python wrapper outweighs them on small batches
        answers = np.minimum(np.maximum(self._packed_fn(P), -self.n), self.n)
        return answers.astype(np.int64, copy=False)


def exact_estimator(z) -> EstimatorHandle:
    """f(r) = <z, r> exactly."""
    z = as_signs(z)
    n = len(z)
    z_packed = pack_signs(z)[0]
    return EstimatorHandle(lambda P: packed_inner_products(P, z_packed, n), n)


def zero_estimator(n: int) -> EstimatorHandle:
    """f(r) = 0 for every r (the trivial estimator)."""
    return EstimatorHandle(lambda P: np.zeros(P.shape[0], dtype=np.int64), n)


def laplace_estimator(z, scale: float, rng: np.random.Generator) -> EstimatorHandle:
    """f(r) = <z, r> + rounded Laplace(scale) noise keyed by the query.

    One 63-bit key is drawn from ``rng``; the noise at r is the rounded
    Laplace transform of ``keyed_uniform01(r, key)``.  The handle is
    therefore one fixed noisy table over {-1,+1}^n, and the noise of
    distinct queries is independent Laplace up to the quality of the mixer.
    """
    z = as_signs(z)
    n = len(z)
    z_packed = pack_signs(z)[0]
    key = int(rng.integers(0, 2**63))

    def packed(P):
        noise = round_half_away(laplace_from_uniform(keyed_uniform01(P, key), scale))
        return packed_inner_products(P, z_packed, n) + noise

    return EstimatorHandle(packed, n)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorProfile:
    """Empirical quality certificate of an estimator at window ell.

    ``lambda_hat`` is sqrt(n)/ell times the empirical probability that the
    answer lands within ell of the true inner product, matching the quality
    scale on which the reconstruction guarantees are stated.
    """

    lambda_hat: float
    ell: int
    trials: int
    success_rate: float


def certify_estimator(
    f: EstimatorHandle, z, ell: int, trials: int, rng: np.random.Generator
) -> EstimatorProfile:
    """Estimate Pr[|f(R) - <z,R>| < ell] over uniform R and scale it."""
    z = as_signs(z)
    n = len(z)
    z_packed = pack_signs(z)[0]

    def chunk_hits(stream, size):
        P = random_packed(n, size, stream)
        errors = f.query_packed(P) - packed_inner_products(P, z_packed, n)
        return np.count_nonzero(np.abs(errors) < ell)

    hits = int(sum_chunks(chunk_hits, rng, trials, CHUNK_TRIALS))
    rate = hits / trials
    return EstimatorProfile(
        lambda_hat=math.sqrt(n) / ell * rate,
        ell=ell,
        trials=trials,
        success_rate=rate,
    )


def laplace_lambda(n: int, ell: int, scale: float) -> float:
    """Exact quality certificate of the rounded-Laplace estimator.

    Pr[|f(R) - <z,R>| < ell] = Pr[|noise| <= ell-1] = 1 - exp(-(ell-1/2)/scale),
    independent of z, so lambda = sqrt(n)/ell times that.
    """
    return math.sqrt(n) / ell * (1.0 - rounded_laplace_tail(ell, scale))


def best_laplace_ell(n: int, scale: float) -> int:
    """The window ell maximizing the exact Laplace certificate at size n."""
    upper = max(1, math.isqrt(n) - 2)
    return max(range(1, upper + 1), key=lambda ell: laplace_lambda(n, ell, scale))


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def default_num_samples(n: int) -> int:
    """Analysis-scale query count, one batch shared by every bit: 64 n^3
    drives the per-bit failure below 0.01 against the guaranteed vote margin
    at quality >= 64.  Far smaller counts suffice for concrete estimators."""
    return 64 * n**3


_CHUNK_ROWS = 512  # queries per chunk; keeps the (rows, n) temporaries small


@functools.lru_cache(maxsize=None)
def _expected_vote_table(n: int, ells: tuple) -> np.ndarray:
    """D times the offset vote averaged over k, at r_i = +1, one row per
    window in ``ells`` with D the common denominator of its ``offset_pmf``,
    by residual + 2n + 1 over [-2n-1, 2n+1] (0 at both ends); read-only."""
    res, rows = np.arange(-2 * n - 1, 2 * n + 2), []
    for ell in ells:
        pmf = offset_pmf(n, ell)
        denom = math.lcm(*(p.denominator for p in pmf.values()))
        rows.append(sum(int(p * denom) * _vote_values(res, k, np.int64(1))
                        for k, p in pmf.items()))
    table = np.stack(rows)
    table.setflags(write=False)
    return table


def _residuals(a, P, z_lanes, n: int) -> np.ndarray:
    """p = a - <z,r> of the answers a to the packed queries P, exact int64 from
    one popcount per query; column c's residual a - <z_{-c}, r_{-c}> is p + z_c r_c."""
    return a - packed_inner_products(P, z_lanes, n)


def _vote_sums(p, r, z_r, n: int, ells) -> np.ndarray:
    """Expected-vote totals, times D, of the residuals p at each window in
    ``ells`` (rows) and each column r_c of r (columns), z_r holding z_c: two
    table reads per query and one weighted column sum.  As z_c r_c = +-1, the
    vote T[p + z_c r_c] r_c summed over the queries is, exactly (the sum is
    even), (z_c sum(T[p+1] - T[p-1]) + w @ r_c) / 2 with w = T[p+1] + T[p-1],
    w @ r a BLAS float product whose partial sums are integers of size at most
    sum|w| <= 2 rows max|T|: exact in float32 below 2^24, float64 below 2^53."""
    table = _expected_vote_table(n, tuple(ells))
    hi, lo = np.take(table, p + (2 * n + 2), axis=1), np.take(table, p + 2 * n, axis=1)
    bound = 2 * len(p) * int(np.abs(table).max())
    if bound >= 2**53:
        raise PreconditionViolation(f"vote sums up to {bound} are not exact in float64")
    dtype = np.float32 if bound < 2**24 else np.float64
    sums = ((hi + lo).astype(dtype) @ r.astype(dtype)).astype(np.int64)
    return (np.multiply.outer((hi - lo).sum(axis=1), z_r) + sums) // 2


def _database_lanes(z, f: EstimatorHandle) -> np.ndarray:
    """The one-row lanes of the sign vector z that f answers queries about."""
    if len(z) != f.n:
        raise DimensionMismatch(f"database length {len(z)} != estimator size {f.n}")
    return pack_signs(z)[0]


def _vote_totals(pairs, cols, ells, num_queries, rng, threads=1) -> np.ndarray:
    """Expected-vote totals (len(pairs), len(ells), columns), times D of
    ``_expected_vote_table``, of each (estimator f, database lanes z) pair
    at each window in ``ells`` and each index c in ``cols`` of z, in which
    z_c cancels exactly, over ``num_queries`` uniform queries shared by
    every pair and column: two table reads per query and one exact weighted
    column sum per pair and chunk, the same for any ``threads`` or BLAS threads."""
    n = pairs[0][0].n
    z_cols = [unpack_signs(z[None], n)[0, cols] for _, z in pairs]

    def chunk(stream: np.random.Generator, rows: int) -> list:
        P = random_packed(n, rows, stream)
        ps = [_residuals(f.query_packed(P), P, z, n) for f, z in pairs]
        R = unpack_signs(P, n)[:, cols]
        return [_vote_sums(p, R, z_c, n, ells) for p, z_c in zip(ps, z_cols)]

    return sum_chunks(chunk, rng, num_queries, _CHUNK_ROWS, threads)


def reconstruct_bit(
    i: int,
    z_minus_i,
    f: EstimatorHandle,
    ell: int,
    num_samples: int,
    rng: np.random.Generator,
) -> int:
    """Recover z_i as the sign of the expected vote over fresh queries: the
    one-column case of the vote kernel, in which z_i cancels exactly.  Ties
    resolve to -1 (sign(v) is +1 for v > 0 and -1 otherwise), so an
    estimator whose every vote is 0 outputs -1."""
    z_minus_i = as_signs(z_minus_i, "z_minus_i")
    if not 0 <= i <= len(z_minus_i):
        raise PreconditionViolation("index must lie in [0, n)")
    z = np.insert(z_minus_i, i, 1)  # any sign: the kernel cancels it
    pair = (f, _database_lanes(z, f))
    total = _vote_totals([pair], [i], [ell], num_samples, rng)[0, 0, 0]
    return 1 if total > 0 else -1


@dataclass(frozen=True)
class ReconstructionResult:
    guess: np.ndarray
    frac_correct: float
    queries: int


def reconstruct_all(
    z,
    f: EstimatorHandle,
    ell: int,
    num_samples_per_bit: int | None,
    rng: np.random.Generator,
    threads: int = 1,
) -> ReconstructionResult:
    """Attack every bit i from z_{-i} as :func:`reconstruct_bit` does, on one
    batch of ``num_samples_per_bit`` queries shared by all bits: the adversary
    holds all of the database but the bit under attack.  ``frac_correct`` is
    the fraction of positions recovered; since the estimator is a pure function
    of the query, neither it nor the query count depends on ``threads``."""
    z = as_signs(z)
    n = len(z)
    num = default_num_samples(n) if num_samples_per_bit is None else num_samples_per_bit
    queries_before = f.query_count
    pair = (f, _database_lanes(z, f))
    totals = _vote_totals([pair], slice(None), [ell], num, rng, threads)[0, 0]
    guess = np.where(totals > 0, 1, -1).astype(SIGN_DTYPE)
    return ReconstructionResult(
        guess=guess,
        frac_correct=float(np.count_nonzero(guess == z)) / n,
        queries=f.query_count - queries_before,
    )


# ---------------------------------------------------------------------------
# Exact brute-force oracle
# ---------------------------------------------------------------------------


def all_sign_vectors(n: int) -> np.ndarray:
    """All 2^n sign vectors, one per row (n <= 16 enforced by callers)."""
    codes = np.arange(2**n, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n)[None, :]) & 1
    return (2 * bits.astype(np.int8) - 1).astype(SIGN_DTYPE)


def brute_force_vote_mean(i: int, z, f: EstimatorHandle, ell: int) -> Fraction:
    """Exact expected vote E_{offset, r uniform}[vote for z_i], as a Fraction.

    Enumerates every r in {-1,+1}^n and combines the votes with the exact
    rational offset law.  Requires n <= 16 and a total (deterministic)
    estimator; this is the independent oracle the Monte Carlo reconstruction
    paths are validated against.
    """
    z = as_signs(z)
    n = len(z)
    if n > 16:
        raise PreconditionViolation("brute force requires n <= 16")
    R = all_sign_vectors(n)
    answers = f.query_batch(R)
    z0 = z.astype(np.int64).copy()
    z0[i] = 0
    residuals = answers - R.astype(np.int64) @ z0
    r_i = R[:, i].astype(np.int64)
    pmf = offset_pmf(n, ell)
    total = Fraction(0)
    for k, pk in pmf.items():
        votes = _vote_values(residuals, np.int64(k), r_i)
        total += pk * Fraction(int(votes.sum()), 2**n)
    return total
