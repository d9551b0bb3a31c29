"""Distinguishers and min-entropy experiments over channel triplets.

Given a distribution of triplets (x, y, t) and an estimator f that, from the
seed-restricted view (r, x_{r+}, y_{r-}, t), predicts the masked product
<x*y, r> unusually well, the machinery here turns f into a privacy
distinguisher: an algorithm that tells (x, y) apart from the same pair with
one bit flipped, given only the transcript and the rest of the pair.

A triplet is a size-1 ``ChannelBatch``, whose ``outs`` and ``extras`` are
its transcript.  f sees the eavesdropper's views as one ``EveViews`` batch
per query batch: row k holds the k-th seed r, the claimed pair (x, y)
restricted by it, and the triplet's transcript.

* ``reconstruct_product_bit`` recovers (x*y)_j with the database attack of
  ``noisyip.reconstruct`` applied to z = x*y: the sign of the expected
  offset vote over random seeds, each seed answered by f on the seed's
  restricted view.
* ``flip_distinguisher`` wraps the reconstruction into three one-bit tests
  that compare the reconstructed product bit against a claimed pair, after
  applying one of three flip patterns.
* ``eve_distinguisher`` adds the abort rule: it first measures, without
  depending on the bit under test, how often f is within a window of the
  partial masked product, and proceeds only when that empirical rate clears
  a threshold.
* ``search_eve_params`` grid-searches the distinguisher parameters for the
  largest empirical gap between acceptance on real and flipped pairs.  It
  evaluates each pair once, on one gate batch and one reconstruction batch,
  and reads every parameter triple off that evaluation.

The module also hosts the min-entropy experiments: the residual entropy of
<X,Y> mod m for independent product sources, and of <X*Y, R> conditioned on
the seed-restricted leakage (R, X_{R+}, Y_{R-}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import Channel, ChannelBatch
from .errors import PreconditionViolation, UnsupportedModel
from .keyagreement import EveViews
from .rng import keyed_uniform01, map_streams, rng_from_seed
from .signvectors import flip_lanes, pack_bits, pack_signs, random_packed
from .signvectors import bits_to_signs, random_signs
from .reconstruct import EstimatorHandle, _residuals, _vote_sums, _vote_totals
from .reconstruct import reconstruct_bit
from .sources import SvSourceSpec, check_laplace_scale, rounded_laplace


class _Abort:
    def __repr__(self):
        return "ABORT"


ABORT = _Abort()


# ---------------------------------------------------------------------------
# Triplet views and estimators
# ---------------------------------------------------------------------------


def _triplet_views(pr: np.ndarray, px, py, t: ChannelBatch) -> EveViews:
    """The eavesdropper's views of the triplet t, one per query lane of pr:
    the claimed pair's lanes px, py (one row each) in place of t's inputs,
    t's transcript on every row, and no shift (V = 0)."""
    rows = np.zeros(len(pr), dtype=np.intp)  # t's one row, once per query
    extras = {k: v.take(rows, axis=0) for k, v in t.extras.items()}
    return EveViews(t.n, pr, np.zeros(len(pr), dtype=np.int64), t.outs.take(rows),
                    extras, px.take(rows, axis=0), py.take(rows, axis=0))

class TripletEstimator:
    """Interface: integer estimates of <x*y, r>, one per row of an
    ``EveViews`` batch (r, x_{r+}, y_{r-}, t)."""

    n: int

    def query_masked(self, views: EveViews, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class ScalarTripletEstimator(TripletEstimator):
    """Adapter for estimator functions fn(views, rng) -> one int per row,
    such as ``keyagreement.adversary_to_ip_estimator``'s."""

    def __init__(self, fn: Callable, n: int):
        self.fn = fn
        self.n = int(n)

    def query_masked(self, views, rng):
        return np.asarray(self.fn(views, rng), dtype=np.int64)


class OpenTranscriptEstimator(TripletEstimator):
    """Reads the full inputs from a leaky transcript: f = <x*y, r> + noise.

    Only works on channels that place ``x`` and ``y`` in the transcript
    (e.g. ``exact_ip_channel(n, leak_inputs=True)``).  The optional noise is
    a *pure* function of r (keyed by the lanes of -r, ``views.pr`` with every
    entry's bit flipped, under the fixed key 7), so the estimator is a fixed
    function and can be queried repeatedly with consistent answers.
    """

    def __init__(self, n: int, noise_scale: float = 0.0):
        self.n = int(n)
        self.noise_scale = check_laplace_scale(float(noise_scale))
        self._flip_all = pack_bits(np.ones(self.n, dtype=bool))

    def query_masked(self, views, rng):
        R, extras = views.R, views.extras
        answers = (R * extras["x"] * extras["y"]).sum(axis=1, dtype=np.int64)
        if self.noise_scale:
            u = keyed_uniform01(views.pr ^ self._flip_all, 7)
            answers += rounded_laplace(u, self.noise_scale)
        return answers


def open_transcript_estimator(n: int, noise_scale: float = 0.0) -> OpenTranscriptEstimator:
    return OpenTranscriptEstimator(n, noise_scale)


# ---------------------------------------------------------------------------
# Product-bit reconstruction over triplets
# ---------------------------------------------------------------------------


def _signs_at(lanes, j: int) -> np.ndarray:
    """Entry j of each packed sign row, read off bit j % 64 of lane j // 64."""
    return bits_to_signs((lanes[..., j // 64] >> (j % 64)) & 1)


def _pair_estimator(px, py, t: ChannelBatch, f: TripletEstimator, rng) -> EstimatorHandle:
    """f as a database estimator of z = x*y, whose lanes are px ^ py: it
    answers each query lane on the triplet views of the pair with lanes px,
    py, and every call passes f the same ``rng``."""
    return EstimatorHandle(lambda P: f.query_masked(_triplet_views(P, px, py, t), rng), t.n)


def reconstruct_product_bit(
    j: int,
    x: np.ndarray,
    y: np.ndarray,
    t: ChannelBatch,
    f: TripletEstimator,
    ell: int,
    samples: int,
    rng: np.random.Generator,
) -> int:
    """Recover (x*y)_j by the database attack on z = x*y: ``reconstruct_bit``
    with f answering each query on the triplet views of (x, y).  Ties
    resolve to -1.  Position j of the product cancels exactly from every
    residual."""
    f_xy = _pair_estimator(pack_signs(x), pack_signs(y), t, f, rng)
    return reconstruct_bit(j, np.delete(x * y, j), f_xy, ell, samples, rng)


def variant_vote_split(
    j: int,
    x: np.ndarray,
    y: np.ndarray,
    t: ChannelBatch,
    f: TripletEstimator,
    ell: int,
    R: np.ndarray,
    rng: np.random.Generator,
) -> dict[str, tuple[int, int]]:
    """Expected-vote sums (times the vote table's denominator D) of the four
    flip variants over the queries R, split by the sign of r_j.

    Requires a pure estimator.  Each vote is a fixed function of
    (residual, r_j), and (x*y)_j cancels exactly from the residual; so the
    r_j = +1 side does not depend on y_j and the r_j = -1 side does not
    depend on x_j, and the four variants satisfy the exchange identity

        total(x,y) + total(x^,y^) == total(x^,y) + total(x,y^)

    where ^ flips position j.
    """
    pr, px, py = pack_signs(R), pack_signs(x), pack_signs(y)
    bit = pack_bits(np.arange(t.n) == j)  # XOR negates entry j
    variants = {"xy": (px, py), "fx_y": (px ^ bit, py),
                "x_fy": (px, py ^ bit), "fx_fy": (px ^ bit, py ^ bit)}
    r_j, out = _signs_at(pr, j), {}
    for name, (vx, vy) in variants.items():
        z = (vx ^ vy)[0]  # the lanes of x*y
        p = _residuals(_pair_estimator(vx, vy, t, f, rng).query_packed(pr), pr, z, t.n)
        out[name] = tuple(int(_vote_sums(p[m], r_j[m], _signs_at(z, j), t.n, [ell])[0])
                          for m in (r_j < 0, r_j > 0))
    return out


# ---------------------------------------------------------------------------
# Flip distinguishers
# ---------------------------------------------------------------------------

# Flip pattern d -> (flip x_j, flip y_j, fires when i addresses the x half).
_PATTERNS = {1: (True, False, True), 2: (False, True, False), 3: (True, True, True)}


def _flip_outputs(i: int, px, py, t: ChannelBatch, f, ells, samples: int, rng):
    """Outputs (3, len(ells)) of the three flip patterns of the pair with
    one-row lanes px, py at each reconstruction window in ``ells``; every
    pattern that fires flips bit j of its lanes and is scored on one shared
    reconstruction batch, and the others output 0."""
    if not 0 <= i < 2 * t.n:
        raise PreconditionViolation("index must lie in [0, 2n)")
    j = i % t.n
    bit = pack_bits(np.arange(t.n) == j)
    fired = {d: (px ^ bit if fx else px, py ^ bit if fy else py)
             for d, (fx, fy, low) in _PATTERNS.items() if low == (i < t.n)}
    pairs = [(_pair_estimator(xf, yf, t, f, rng), (xf ^ yf)[0])
             for xf, yf in fired.values()]
    totals = _vote_totals(pairs, [j], ells, samples, rng)[..., 0]
    out = np.zeros((3, len(ells)), dtype=bool)
    for d, (_, z), total in zip(fired, pairs, totals):
        out[d - 1] = np.where(total > 0, 1, -1) != _signs_at(z, j)
    return out


def flip_distinguisher(
    d: int,
    i: int,
    x: np.ndarray,
    y: np.ndarray,
    t: ChannelBatch,
    f: TripletEstimator,
    ell: int,
    samples: int,
    rng: np.random.Generator,
) -> int:
    """One of three flip-pattern distinguishers, selected by d in {1,2,3}.

    Pattern 1 flips coordinate i of the concatenated pair and only fires on
    the x half; pattern 2 does the same on the y half; pattern 3 flips
    *both* halves at position j(i) and fires on the x half.  Each one
    reconstructs the product bit of the modified pair and outputs 1 when
    the reconstruction contradicts the modified pair.
    """
    if d not in _PATTERNS:
        raise ValueError("d must be 1, 2 or 3")
    outputs = _flip_outputs(i, pack_signs(x), pack_signs(y), t, f, [ell], samples, rng)
    return int(outputs[d - 1, 0])


# ---------------------------------------------------------------------------
# The abort-gated distinguisher
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EveParams:
    """Distinguisher parameters: window, abort threshold, flip pattern."""

    ell_hat: int
    v_hat: float
    d: int

    def __post_init__(self):
        if self.d not in _PATTERNS:
            raise ValueError("d must be 1, 2 or 3")
        if self.v_hat < 0:
            raise ValueError("v_hat must be >= 0")


def _eve_outputs(i: int, px, py, t: ChannelBatch, f, ell_hats, v_min, samples: int, rng):
    """Gate rates (len(ell_hats),) and flip-pattern outputs (3, len(ell_hats))
    for every window in ``ell_hats`` of the claimed pair with one-row lanes
    px, py, from one gate batch and one reconstruction batch: the triple
    (ell_hat, v_hat, d) at window index l aborts when rates[l] <= v_hat and
    otherwise outputs outputs[d-1, l].  Windows whose rate is at most
    ``v_min`` abort for every threshold, so they are never reconstructed."""
    n = t.n
    if not 0 <= i < 2 * n:
        raise PreconditionViolation("index must lie in [0, 2n)")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    j = i % n
    bit = pack_bits(np.arange(n) == j)  # the gate's r_j: -1 (bit set) below n
    pr = random_packed(n, samples, rng)
    pr = pr | bit if i < n else pr & ~bit
    z = (px ^ py)[0]  # the lanes of x*y
    p = _residuals(_pair_estimator(px, py, t, f, rng).query_packed(pr), pr, z, n)
    distance = np.abs(p + _signs_at(z, j) * _signs_at(pr, j))
    rates = np.array([np.count_nonzero(distance <= lh) for lh in ell_hats]) / samples
    outputs = np.zeros((3, len(ell_hats)), dtype=bool)
    live = rates > v_min
    if live.any():
        ells = [int(lh) + 1 for lh in np.asarray(ell_hats)[live]]
        outputs[:, live] = _flip_outputs(i, px, py, t, f, ells, samples, rng)
    return rates, outputs


def eve_distinguisher(
    params: EveParams,
    i: int,
    x: np.ndarray,
    y: np.ndarray,
    t: ChannelBatch,
    f: TripletEstimator,
    samples: int,
    rng: np.random.Generator,
):
    """Abort-gated flip distinguisher; returns 0, 1 or ABORT.

    The gate estimates, over seeds conditioned to hide position j(i) of the
    relevant half (r_j = -1 when i addresses x, +1 when it addresses y),
    the rate q at which f lands within ell_hat of the partial masked
    product <(x*y)_{-j}, r_{-j}>.  The seed restriction handed to f hides
    the flipped coordinate, and it cancels exactly from the partial product,
    so the abort decision is invariant to flipping bit i of the input pair.
    If q > v_hat, the flip-pattern test runs at window ell_hat + 1.  The
    gate and the reconstruction each ask ``samples`` queries.
    """
    rates, outputs = _eve_outputs(i, pack_signs(x), pack_signs(y), t, f,
                                  [params.ell_hat], params.v_hat, samples, rng)
    return ABORT if rates[0] <= params.v_hat else int(outputs[params.d - 1, 0])


def v_hat_grid(n: int, ell: int, eps: float, c_eps: float = 1.0,
               cap: int | None = None) -> np.ndarray:
    """Threshold grid [c ell/4 sqrt(n), c ell/2 sqrt(n)] in steps of
    ell/(sqrt(n) log2(n)^3), with c = c_eps * e^(4 eps), or only ``cap`` of
    its points spread evenly from end to end.

    The scale constant is exposed because the analysis-level value is far
    too large to be meaningful at experiment sizes.  The step needs n >= 2,
    and the grid at most 2^53 points.
    """
    if n < 2:
        raise PreconditionViolation("the threshold grid needs n >= 2")
    try:
        c = c_eps * math.exp(4 * eps)
    except OverflowError:  # past float range, and so is the grid's size
        c = math.inf
    root = math.sqrt(n)
    lo = c * ell / (4 * root)
    hi = c * ell / (2 * root)
    alpha = ell / (root * math.log2(n) ** 3)
    steps = (hi - lo) / alpha
    if not steps < 2**53:  # float64 indexes are exact below 2^53; fails on nan
        raise PreconditionViolation(f"the threshold grid at eps={eps} has over 2^53 points")
    count = int(math.floor(steps)) + 1
    keep = (np.arange(count) if cap is None or count <= cap
            else np.unique(np.linspace(0, count - 1, cap).astype(int)))
    return lo + alpha * keep


@dataclass(frozen=True)
class SearchReport:
    params: "EveParams"
    gap: float
    real_rate: float
    flipped_rate: float
    abort_rate: float
    num_triplets: int
    samples: int


def search_eve_params(
    channel: Channel,
    f: TripletEstimator,
    ell: int,
    eps: float,
    budget: int,
    rng: np.random.Generator,
    c_eps: float = 1.0,
    ell_hat_candidates: Sequence[int] | None = None,
    d_candidates: Sequence[int] = (1, 2, 3),
    num_triplets: int = 48,
    grid_cap: int = 8,
) -> SearchReport:
    """Grid-search (ell_hat, v_hat, d) for the largest distinguishing gap.

    The gap of a parameter triple is

        Pr[Eve = 1 on the real pair] - e^(-eps) Pr[Eve = 1 on a flipped pair]

    estimated over shared triplets, shared flip indices and shared internal
    randomness (common random numbers) to cut comparison variance: each
    (triplet, real-or-flipped) pair is evaluated once, on one gate batch and
    one reconstruction batch from its own seed, and every triple reads its
    outcome off that evaluation exactly as ``eve_distinguisher`` would.  The
    gate and the reconstruction each get max(64, budget // 2E) queries, with
    E = 2 * num_triplets * (number of triples), so the search asks at most
    the budget only above that 64-query floor.  f must be pure.  Each
    triplet is a size-1 batch of ``channel``.
    """
    if ell_hat_candidates is None:
        ell_hat_candidates = (ell + 1, ell + 2, ell + 4)
    if num_triplets < 1 or grid_cap < 1 or not ell_hat_candidates or not d_candidates:
        raise ValueError("the search needs a triplet and a nonempty parameter grid")
    grid = v_hat_grid(channel.n, ell, eps, c_eps, grid_cap)
    combos = [
        (EveParams(ell_hat=int(lh), v_hat=float(v), d=int(d)), l, g)
        for d in d_candidates
        for l, lh in enumerate(ell_hat_candidates)
        for g, v in enumerate(grid)
    ]
    evals = 2 * num_triplets * len(combos)
    samples = max(64, budget // (2 * evals))

    # hits[side, d - 1, l, g]: Eve = 1 on the real (0) or flipped (1) pair
    hits = np.zeros((2, 3, len(ell_hat_candidates), len(grid)), dtype=np.int64)
    aborts = np.zeros((len(ell_hat_candidates), len(grid)), dtype=np.int64)
    for seed in rng.integers(0, 2**63, size=num_triplets):
        t = channel.sample_batch(1, rng)
        i = int(rng.integers(0, 2 * channel.n))
        for side, pair in enumerate(((t.px, t.py), flip_lanes(t.px, t.py, i, t.n))):
            rates, outputs = _eve_outputs(
                i, *pair, t, f, ell_hat_candidates, grid[0], samples,
                rng_from_seed(int(seed)),
            )
            passed = rates[:, None] > grid
            hits[side] += outputs[:, :, None] & passed
            if side == 0:
                aborts += ~passed

    best = None
    for params, l, g in combos:
        real_rate = int(hits[0, params.d - 1, l, g]) / num_triplets
        flip_rate = int(hits[1, params.d - 1, l, g]) / num_triplets
        gap = real_rate - math.exp(-eps) * flip_rate
        report = SearchReport(
            params, gap, real_rate, flip_rate, int(aborts[l, g]) / num_triplets,
            num_triplets, samples,
        )
        if best is None or report.gap > best.gap:
            best = report
    return best


# ---------------------------------------------------------------------------
# Min-entropy experiments
# ---------------------------------------------------------------------------


def _require_product_source(spec) -> SvSourceSpec:
    if not isinstance(spec, SvSourceSpec):
        raise UnsupportedModel(
            "condenser experiments require product sources (SvSourceSpec)"
        )
    return spec


def _grouped_signed_sum(
    probs: np.ndarray, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample sums of independent +-1 variables with the given +1 probs.

    Independence across positions lets the sum be drawn as grouped
    binomials over distinct probability values: exact, and far cheaper
    than materializing the vectors; the reference for ``_signed_sum_pmf``.
    """
    n = probs.size
    values, counts = np.unique(np.round(probs, 12), return_counts=True)
    plus = np.zeros(trials, dtype=np.int64)
    for p, c in zip(values, counts):
        plus += rng.binomial(int(c), float(p), size=trials)
    return 2 * plus - n


def _signed_sum_pmf(probs: np.ndarray) -> np.ndarray:
    """Exact law of the sum of independent +-1 variables with the given +1
    probs: entry k is Pr[k of them are +1], that is Pr[sum = 2k - n].

    Equal probabilities are grouped as in ``_grouped_signed_sum``; each
    group's binomial pmf is computed in log space, its entries below 2^-60
    of its mode are dropped, and the groups are convolved directly.
    """
    n = probs.size
    _, first, counts = np.unique(np.round(probs, 12), return_index=True,
                                 return_counts=True)
    pmf, lo = np.ones(1), 0
    for p, c in zip(probs[first], counts):  # a member's own probability
        k = np.arange(c + 1)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
        with np.errstate(divide="ignore", invalid="ignore"):  # p = 0 or 1
            logs = (log_fact[c] - log_fact - log_fact[::-1]
                    + np.where(k > 0, k * np.log(p), 0)
                    + np.where(k < c, (c - k) * np.log1p(-p), 0))
        kept = np.flatnonzero(logs >= logs.max() - 60 * math.log(2))
        pmf = np.convolve(pmf, np.exp(logs[kept[0]:kept[-1] + 1]))
        lo += kept[0]
    return np.pad(pmf, (lo, n + 1 - lo - pmf.size))


@dataclass(frozen=True)
class CondenseReport:
    experiment: str
    n: int
    modulus: int
    max_prob: float
    min_entropy_bits: float


def condense_mod_experiment(
    source_a: SvSourceSpec, source_b: SvSourceSpec, modulus: int
) -> CondenseReport:
    """Exact min-entropy of <X,Y> mod modulus for independent sources.

    X*Y of independent product sources is again a product source, so <X,Y>
    is a sum of independent +-1 variables: its law is ``_signed_sum_pmf``
    of the product's +1 probabilities.  That law reduced mod modulus gives
    the largest bucket probability and -log2 of it, with no sampling.
    """
    if modulus < 2:
        raise PreconditionViolation("modulus must be >= 2")
    a = _require_product_source(source_a)
    b = _require_product_source(source_b)
    if a.n != b.n:
        raise PreconditionViolation("sources must have equal size")
    pa, pb = a.one_probs(), b.one_probs()
    pmf = _signed_sum_pmf(pa * pb + (1 - pa) * (1 - pb))
    sums = 2 * np.arange(a.n + 1) - a.n
    _, buckets = np.unique(sums % modulus, return_inverse=True)  # n + 1 at most
    max_prob = float(np.bincount(buckets, pmf).max())
    # 0.0 - log2(1) is 0.0, where -log2(1) would be written as -0.0
    return CondenseReport("mod", a.n, modulus, max_prob, 0.0 - math.log2(max_prob))


@dataclass(frozen=True)
class SeededCondenseReport:
    experiment: str
    n: int
    alpha_a: float
    alpha_b: float
    trials_outer: int
    delta: float
    quantile_bits: float
    median_bits: float
    min_bits: float


def seeded_condense_experiment(
    source_a: SvSourceSpec,
    source_b: SvSourceSpec,
    trials_outer: int,
    rng: np.random.Generator,
    delta: float = 0.5,
) -> SeededCondenseReport:
    """Conditional min-entropy of <X*Y, R> given (R, X_{R+}, Y_{R-}).

    Each of ``trials_outer`` streams samples a conditioning
    (r, x_{r+}, y_{r-}).  Given it, the masked product is a sum of
    independent signs over the free coordinates (x on the -1 side, y on the
    +1 side) -- independent because the sources are product form -- so its
    exact law is ``_signed_sum_pmf`` and the conditioning's min-entropy is
    -log2 of its largest entry.  Reports the delta-quantile over
    conditionings, matching the "at least 1 - delta of conditionings retain
    this much entropy" reading.
    """
    a = _require_product_source(source_a)
    b = _require_product_source(source_b)
    if a.n != b.n:
        raise PreconditionViolation("sources must have equal size")
    n = a.n
    pa, pb = a.one_probs(), b.one_probs()

    def conditioned_bits(_, orng: np.random.Generator) -> float:
        x = np.where(orng.random(n) < pa, 1, -1)
        y = np.where(orng.random(n) < pb, 1, -1)
        r = random_signs(n, orng)
        # conditional law of <x*y, r>: sum over i in r+ of x_i * Y_i plus
        # sum over i in r- of (-y_i) * X_i, all independent signs
        plus_mask = r == 1
        term_probs = np.where(
            plus_mask,
            np.where(x == 1, pb, 1 - pb),
            np.where(y == 1, 1 - pa, pa),
        )
        return 0.0 - math.log2(_signed_sum_pmf(term_probs).max())  # never -0.0

    estimates = np.array(list(map_streams(conditioned_bits, rng, trials_outer)))
    return SeededCondenseReport(
        experiment="seeded",
        n=n,
        alpha_a=a.alpha,
        alpha_b=b.alpha,
        trials_outer=trials_outer,
        delta=delta,
        quantile_bits=float(np.quantile(estimates, delta)),
        median_bits=float(np.median(estimates)),
        min_bits=float(estimates.min()),
    )
