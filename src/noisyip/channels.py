"""Channels: joint samplers of two private sign vectors and a transcript.

A channel of size n is a distribution over (x, y, t) where x and y are the
parties' local outputs in {-1,+1}^n and t is a public transcript carrying a
designated integer output ``out(t)``.  Channels here are stateless samplers;
concurrent use requires per-thread generator streams.

Built-in channels:

* ``exact_ip_channel``     -- out = <x,y> exactly (a stand-in for a channel
  realized by secure computation; blatantly non-private).
* ``laplace_ip_channel``   -- out = <x,y> + rounded Laplace(2/eps) noise.
* ``randomized_response_channel`` -- one party releases per-entry flipped
  data, the other releases a debiased noisy estimate.
* ``constant_channel``     -- out is a fixed integer, inputs drawn from
  configurable product sources; the transcript carries no data at all.
* ``equality_channel``     -- X = Y with a given probability, otherwise
  independent; used by the agreement-amplification experiments.

``exact_ip_channel(..., leak_inputs=True)`` additionally places the inputs'
own lanes in the transcript (a vector message holds lanes; ``unpack_signs``
reads them): the worst-case non-private channel of the attack experiments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .reporting import Rate
from .rng import CHUNK_TRIALS, sum_chunks
from .signvectors import flip_lanes, pack_bits, packed_inner_products
from .signvectors import random_packed, unpack_signs
from .sources import SvSourceSpec, check_laplace_scale, ip_laplace_scale
from .sources import laplace_from_uniform, round_half_away, sample_rounded_laplace
from .sources import sample_sv_source


@dataclass(frozen=True, eq=False)
class Transcript:
    """Ordered public messages plus the designated integer output.

    The designated output is stored redundantly in ``out`` and must equal
    the message named ``"out"``.
    """

    messages: tuple[tuple[str, object], ...]
    out: int

    def __post_init__(self):
        declared = dict(self.messages).get("out")
        if declared is None or int(declared) != int(self.out):
            raise ValueError("designated output must match the 'out' message")

    def message(self, name: str):
        return dict(self.messages)[name]


@dataclass(eq=False)
class ChannelBatch:
    """Column-major batch of channel samples.  The inputs are held only as
    packed uint64 lanes ``px``/``py`` (``noisyip.signvectors`` layout); the
    (size, n) int8 sign rows ``xs``/``ys`` are unpacked on first read, and
    the inner products ``ips`` = <x,y> computed on first read unless the
    channel that sampled the batch set them."""

    n: int
    px: np.ndarray       # (size, packed_width(n)) uint64
    py: np.ndarray       # (size, packed_width(n)) uint64
    outs: np.ndarray     # (size,) int64
    extras: dict[str, np.ndarray] = field(default_factory=dict)

    @functools.cached_property
    def xs(self) -> np.ndarray:
        return unpack_signs(self.px, self.n)

    @functools.cached_property
    def ys(self) -> np.ndarray:
        return unpack_signs(self.py, self.n)

    @functools.cached_property
    def ips(self) -> np.ndarray:
        return packed_inner_products(self.px, self.py, self.n)

    def __len__(self) -> int:
        return self.px.shape[0]

    def transcript(self, i: int) -> Transcript:
        out = int(self.outs[i])
        messages = (*((name, arr[i]) for name, arr in self.extras.items()), ("out", out))
        return Transcript(messages=messages, out=out)


class Channel:
    """A stateless sampler of (x, y, transcript) triplets; one triplet is a
    size-1 batch, ``sample_batch(1, rng)``."""

    def __init__(self, n: int, kind: str, params: dict, batch_fn: Callable):
        self.n = int(n)
        self.kind = kind
        self.params = dict(params)
        self._batch_fn = batch_fn

    def sample_batch(self, size: int, rng: np.random.Generator) -> ChannelBatch:
        return self._batch_fn(size, rng)

    def __repr__(self):  # pragma: no cover
        return f"Channel(kind={self.kind!r}, n={self.n}, params={self.params})"


def exact_ip_channel(n: int, leak_inputs: bool = False) -> Channel:
    """Channel with uniform inputs whose output is the exact inner product."""

    def batch(size, rng):
        px, py = random_packed(n, size, rng), random_packed(n, size, rng)
        extras = {"x": px, "y": py} if leak_inputs else {}
        b = ChannelBatch(n, px, py, packed_inner_products(px, py, n), extras)
        b.ips = b.outs
        return b

    kind = "exact_open" if leak_inputs else "exact"
    return Channel(n, kind, {"leak_inputs": leak_inputs}, batch)


def laplace_ip_channel(n: int, eps: float) -> Channel:
    """Uniform inputs; out = <x,y> + rounded Laplace(2/eps).

    eps = inf is accepted and degenerates to the exact channel (zero noise).
    """
    scale = ip_laplace_scale(eps)

    def batch(size, rng):
        px, py = random_packed(n, size, rng), random_packed(n, size, rng)
        noise = sample_rounded_laplace(scale, rng, size)
        ips = packed_inner_products(px, py, n)
        b = ChannelBatch(n, px, py, ips + noise)
        b.ips = ips
        return b

    return Channel(n, "laplace", {"eps": eps, "scale": scale}, batch)


def randomized_response_p(eps: float) -> float:
    """Bias parameter p = e^eps/(e^eps+1) - 1/2 of the per-entry flip.
    Below eps ~ 1e-16 p rounds to 0, leaving no Laplace scale 1/(p*eps), and
    eps is rejected; a positive p is at least 2^-53, so 1/(p*eps) is finite."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    p = math.exp(eps) / (math.exp(eps) + 1.0) - 0.5
    if not p > 0:
        raise ValueError(f"eps={eps} is too small: p = e^eps/(e^eps+1) - 1/2 is 0")
    return p


def randomized_response_variance(n: int, eps: float) -> float:
    """Exact Var[z | x, y] of the released estimate.

    z = (1/2p) * sum_i y_i xhat_i + Laplace(1/(p*eps)); each xhat_i has
    variance 1 - 4p^2, and the Laplace term contributes 2/(p*eps)^2.
    """
    p = randomized_response_p(eps)
    return n * (1.0 / (4 * p * p) - 1.0) + 2.0 / (p * eps) ** 2


def randomized_response_channel(n: int, eps: float) -> Channel:
    """Per-entry randomized response followed by a debiased noisy release.

    One party publishes the lanes ``flipped`` of xhat (each entry equal to
    x_i with probability 1/2 + p), the other z = (1/2p) <y, xhat> +
    Laplace(1/(p*eps)).  The designated output is z rounded to the nearest
    integer so that all channel outputs are integers; the unrounded release
    stays in the transcript.
    """
    if n < 1:
        raise ValueError("n must be positive")
    p = randomized_response_p(eps)
    lap_scale = check_laplace_scale(1.0 / (p * eps))

    def batch(size, rng):
        px, py = random_packed(n, size, rng), random_packed(n, size, rng)
        # xhat keeps x_i with probability 1/2 + p: flip where the draw is above
        pxhat = px ^ pack_bits(rng.random((size, n)) >= 0.5 + p)
        lap = laplace_from_uniform(rng.random(size), lap_scale)
        z = packed_inner_products(py, pxhat, n) / (2.0 * p) + lap
        extras = {"flipped": pxhat, "release": z}
        return ChannelBatch(n, px, py, round_half_away(z), extras)

    return Channel(n, "randomized_response", {"eps": eps, "p": p}, batch)


def constant_channel(
    n: int,
    z_out: int,
    source_a: SvSourceSpec | None = None,
    source_b: SvSourceSpec | None = None,
) -> Channel:
    """Inputs from two independent product sources; out is the constant z_out.

    The transcript carries nothing but the constant, so this channel is
    trivially private (0-DP) and its accuracy for the inner product is
    exactly the probability mass the input distribution puts near z_out.
    """
    if not -n <= z_out <= n:
        raise ValueError("z_out must lie in [-n, n]")
    source_a = source_a or SvSourceSpec.uniform(n)
    source_b = source_b or SvSourceSpec.uniform(n)
    if source_a.n != n or source_b.n != n:
        raise DimensionMismatch("source specs must match the channel size")

    def batch(size, rng):
        px = sample_sv_source(source_a, rng, size)
        py = sample_sv_source(source_b, rng, size)
        return ChannelBatch(n, px, py, np.full(size, int(z_out), dtype=np.int64))

    return Channel(
        n,
        "constant",
        {"z_out": z_out, "alpha_a": source_a.alpha, "alpha_b": source_b.alpha},
        batch,
    )


def equality_channel(n: int, alpha: float) -> Channel:
    """X = Y with probability alpha, otherwise independent uniform.

    out(t) is fixed to 0: the output plays no role in the agreement
    amplification experiments this channel feeds.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")

    def batch(size, rng):
        px, py = random_packed(n, size, rng), random_packed(n, size, rng)
        same = rng.random(size) < alpha
        py[same] = px[same]
        return ChannelBatch(n, px, py, np.zeros(size, dtype=np.int64))

    return Channel(n, "equality", {"alpha": alpha}, batch)


def estimate_accuracy(
    channel: Channel, alpha: int, trials: int, rng: np.random.Generator
) -> Rate:
    """Monte Carlo estimate of the (alpha, gamma)-accuracy of a channel for
    the inner product, gamma = Pr[|out(t) - <x,y>| <= alpha]."""

    def hits(stream, size):
        b = channel.sample_batch(size, stream)
        return np.count_nonzero(np.abs(b.outs - b.ips) <= alpha)

    return Rate(int(sum_chunks(hits, rng, trials, CHUNK_TRIALS)), trials)


@dataclass(frozen=True)
class DpAuditReport:
    p_real: float
    p_flipped: float
    eps_hat_lower: float
    flip_index: int
    trials: int


def dp_audit(
    channel: Channel,
    distinguisher: Callable,
    flip_index: int,
    trials: int,
    rng: np.random.Generator,
    threads: int = 1,
) -> DpAuditReport:
    """Hypothesis-test style lower bound on the privacy parameter.

    The distinguisher maps ``(flip_index, px, py, batch)`` to one bool per
    row: ``px``/``py`` are the batch's uint64 lanes and ``batch`` is the sampled
    ``ChannelBatch``, whose ``outs`` and ``extras`` carry the transcripts.
    The trials run in ``CHUNK_TRIALS`` chunks, each sampled from its own
    stream of ``sum_chunks``, and the distinguisher is called twice per
    chunk: on ``batch.px, batch.py``, and against the same transcripts on
    ``flip_lanes(batch.px, batch.py, flip_index, n)``, with entry
    ``flip_index`` of every concatenated pair negated.  A large ratio
    between the two acceptance rates certifies that the channel is *not*
    eps-private for eps below the returned lower bound.  This audits a
    lower bound only: a small value never certifies privacy.

    ``flip_index`` addresses the concatenated pair: values below n flip an
    x entry, values in [n, 2n) flip a y entry.
    """
    n = channel.n
    if not 0 <= flip_index < 2 * n:
        raise ValueError("flip_index must lie in [0, 2n)")

    def counts(stream, size):
        b = channel.sample_batch(size, stream)
        return [np.count_nonzero(distinguisher(flip_index, *lanes, b))
                for lanes in ((b.px, b.py), flip_lanes(b.px, b.py, flip_index, n))]

    real, flipped = map(int, sum_chunks(counts, rng, trials, CHUNK_TRIALS, threads))
    floor = 1.0 / trials
    p_real, p_flipped = real / trials, flipped / trials
    eps_hat = math.log(max(p_real, floor) / max(p_flipped, floor))
    return DpAuditReport(p_real, p_flipped, eps_hat, flip_index, trials)


def channel_from_config(config: dict) -> Channel:
    """Build a channel from a config record (used by the CLI).

    Expected keys: ``kind`` plus kind-specific parameters:
    ``exact``/``exact_open`` (n), ``laplace`` (n, eps),
    ``randomized_response`` (n, eps), ``constant`` (n, z, alpha_a, alpha_b),
    ``equality`` (n, alpha).
    """
    kind = config.get("kind")
    n = int(config["n"])
    if kind == "exact":
        return exact_ip_channel(n)
    if kind == "exact_open":
        return exact_ip_channel(n, leak_inputs=True)
    if kind == "laplace":
        return laplace_ip_channel(n, float(config["eps"]))
    if kind == "randomized_response":
        return randomized_response_channel(n, float(config["eps"]))
    if kind == "constant":
        source_a = SvSourceSpec(alpha=float(config.get("alpha_a", 1.0)), n=n)
        source_b = SvSourceSpec(alpha=float(config.get("alpha_b", 1.0)), n=n)
        return constant_channel(n, int(config.get("z", 0)), source_a, source_b)
    if kind == "equality":
        return equality_channel(n, float(config["alpha"]))
    raise ValueError(f"unknown channel kind {kind!r}")
