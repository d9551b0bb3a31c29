"""Random sources: biased product sign sources and rounded Laplace noise.

The bit sources implemented here are *product* sources: entries are drawn
independently, each with Pr[X_i = +1] = p_i.  A product source with every
odds ratio p_i/(1-p_i) inside [alpha, 1/alpha] satisfies the strong
unpredictability requirement that each bit stays alpha-hard to guess even
given all other bits (independence makes the conditioning vacuous).
Correlated sources are deliberately out of scope: the condenser
experiments compute exact laws that rely on product form, where the free
coordinates stay independent under any conditioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedModel
from .signvectors import pack_bits, random_packed

IID_BIAS = "iid-bias"
PER_INDEX_BIAS = "per-index-bias"


@dataclass(frozen=True)
class SvSourceSpec:
    """Parameters of a product sign source with bounded per-bit odds.

    alpha:
        Bound on the odds ratio Pr[X_i=+1]/Pr[X_i=-1], which must lie in
        [alpha, 1/alpha] for every i.  alpha = 1 forces the uniform source.
    model:
        ``"iid-bias"`` uses the extreme allowed bias p = 1/(1+alpha) at
        every position; ``"per-index-bias"`` takes explicit probabilities.
    probs:
        Per-position Pr[X_i = +1]; required for the per-index model.
    """

    alpha: float
    n: int
    model: str = IID_BIAS
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.model not in (IID_BIAS, PER_INDEX_BIAS):
            raise UnsupportedModel(f"unknown source model {self.model!r}")
        if self.model == PER_INDEX_BIAS:
            if self.probs is None or len(self.probs) != self.n:
                raise ValueError("per-index-bias requires n probabilities")
            lo, hi = 1 / (1 + 1 / self.alpha), 1 / (1 + self.alpha)
            for p in self.probs:
                ratio_ok = lo - 1e-12 <= p <= hi + 1e-12
                if not ratio_ok:
                    raise ValueError(
                        f"p={p} has odds ratio outside [alpha, 1/alpha]"
                    )
        elif self.probs is not None:
            raise ValueError("probs is only meaningful for per-index-bias")

    @classmethod
    def uniform(cls, n: int) -> "SvSourceSpec":
        return cls(alpha=1.0, n=n)

    def one_probs(self) -> np.ndarray:
        """Pr[X_i = +1] for every position."""
        if self.model == IID_BIAS:
            return np.full(self.n, 1.0 / (1.0 + self.alpha))
        return np.asarray(self.probs, dtype=float)


def sample_sv_source(
    spec: SvSourceSpec, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw ``size`` vectors from a product source as packed uint64 lanes,
    shape (size, packed_width(n)) (``noisyip.signvectors`` layout; read the
    signs with ``unpack_signs``).  A uniform source is Bernoulli(1/2) bits,
    drawn packed; a biased one compares one float64 per entry with
    Pr[X_i = +1], the sign being -1 (bit 1) where the draw is >= p_i."""
    p = spec.one_probs()
    if np.all(p == 0.5):
        return random_packed(spec.n, size, rng)
    return pack_bits(rng.random((size, spec.n)) >= p)


def laplace_from_uniform(u: np.ndarray, scale: float) -> np.ndarray:
    """Laplace(scale) by inverse CDF: -scale sign(c) log(1 - 2|c|), c = u - 1/2."""
    c = u - 0.5
    return -scale * np.sign(c) * np.log1p(-2.0 * np.abs(c))


def round_half_away(w: np.ndarray) -> np.ndarray:
    """Round to the nearest integer, halves away from zero, as int64."""
    return (np.sign(w) * np.floor(np.abs(w) + 0.5)).astype(np.int64)


MAX_LAPLACE_SCALE = 2.0**46


def check_laplace_scale(scale: float) -> float:
    """``scale`` if it lies in [0, 2^46], else ValueError.  A uniform on the
    2^-53 grid (``rng.random``, ``keyed_uniform01``) other than 0 lands at
    most 36.04 scales from 0, so up to the bound rounded noise is an exact
    integer far inside int64; past it (a tiny eps) the noise would wrap."""
    if not 0 <= scale <= MAX_LAPLACE_SCALE:
        raise ValueError(f"Laplace scale {scale!r} is outside [0, 2^46]: eps is "
                         "too small (or the scale negative) for exact integer noise")
    return scale


def ip_laplace_scale(eps: float) -> float:
    """The Laplace scale 2/eps of an eps-private <x,y>, whose sensitivity is
    2 (0 at eps = inf), checked by :func:`check_laplace_scale`."""
    if not eps > 0:  # also rejects nan
        raise ValueError("eps must be positive")
    return check_laplace_scale(2.0 / eps)


def rounded_laplace(u: np.ndarray, scale: float) -> np.ndarray:
    """The rounded-Laplace transform of uniforms ``u`` in [0, 1):
    :func:`laplace_from_uniform` rounded by :func:`round_half_away`, as
    int64, at a scale :func:`check_laplace_scale` accepts."""
    return round_half_away(laplace_from_uniform(u, check_laplace_scale(scale)))


def sample_rounded_laplace(
    scale: float, rng: np.random.Generator, size: int | None = None
):
    """Rounded Laplace noise: :func:`rounded_laplace` of a uniform draw.
    scale = 0 degenerates to exactly 0 and draws nothing."""
    shape = () if size is None else (size,)
    out = (rounded_laplace(rng.random(shape), scale) if check_laplace_scale(scale)
           else np.zeros(shape, dtype=np.int64))
    return int(out) if size is None else out


def rounded_laplace_pmf(k: int, scale: float) -> float:
    """Exact Pr[round(Laplace(scale)) = k].

    P[0] = 1 - exp(-1/(2b)) and P[k] = exp(-|k|/b) * sinh(1/(2b)) for k != 0,
    from integrating the density over (k - 1/2, k + 1/2).
    """
    if scale <= 0:
        return 1.0 if k == 0 else 0.0
    if k == 0:
        return 1.0 - math.exp(-0.5 / scale)
    return math.exp(-abs(k) / scale) * math.sinh(0.5 / scale)


def rounded_laplace_tail(t: int, scale: float) -> float:
    """Exact Pr[|round(Laplace(scale))| >= t] for integer t >= 1."""
    if t <= 0:
        return 1.0
    if scale <= 0:
        return 0.0
    return math.exp(-(t - 0.5) / scale)
