"""Key-agreement rounds built on an inner-product channel.

One round: the parties call the channel to get (x, y, t); party A draws a
uniform mask r and a uniform quantization shift v in [1, ell] and sends
(v, x restricted to the +1 positions of r, r); party B replies with y
restricted to the -1 positions.  A then knows <x_{r-}, y_{r-}> directly and
B recovers the same quantity as out(t) - <x_{r+}, y_{r+}> up to the
channel's estimation error; both sides output their value shifted by v and
snapped down to a multiple of ell.  When the channel output is within
ell/2 of <x,y>, the snapped values collide with probability >= 1/2.

The eavesdropper's view of a round is (x_{r+}, y_{r-}, t, r, v), and
``EveViews`` holds a batch of them, one per row.  It is the one view
interface: an adversary guesses A's output for every row in one call, and
``adversary_to_ip_estimator`` turns it into an estimator of the masked
product <x*y, r> per row of the same kind of batch, which is the bridge into
the distinguisher pipeline (``noisyip.condense``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import Channel, ChannelBatch
from .reporting import Rate
from .rng import CHUNK_TRIALS, sum_chunks
from .signvectors import packed_inner_products, packed_width, random_packed
from .signvectors import unpack_signs


def _quantize(u: np.ndarray, v: np.ndarray, ell: int) -> np.ndarray:
    # floor division toward -inf keeps the block structure exact for
    # negative values of u - v
    return ((u - v) // ell) * ell


@dataclass(eq=False)
class KARoundBatch:
    """Vectorized outcomes of many independent protocol rounds; the masks
    are packed lanes ``pr``, unpacked to sign rows ``R`` on first read."""

    o_a: np.ndarray
    o_b: np.ndarray
    u_a: np.ndarray
    u_b: np.ndarray
    outs: np.ndarray
    ips: np.ndarray
    pr: np.ndarray
    V: np.ndarray
    channel_batch: ChannelBatch

    @functools.cached_property
    def R(self) -> np.ndarray:
        return unpack_signs(self.pr, self.channel_batch.n)

    def ka_transcript(self, i: int) -> "EveViews":
        """Round i's eavesdropper view, as a size-1 ``EveViews``."""
        i = range(len(self.outs))[i]  # negative from the end; IndexError past it
        b, s = self.channel_batch, slice(i, i + 1)
        extras = {k: v[s] for k, v in b.extras.items()}
        return EveViews(b.n, self.pr[s], self.V[s], self.outs[s], extras,
                        b.px[s], b.py[s])

    def eve_views(self) -> "EveViews":
        b = self.channel_batch
        return EveViews(b.n, self.pr, self.V, self.outs, b.extras, b.px, b.py)


class EveViews:
    """The eavesdropper's view of a batch of rounds or queries, one per row.

    It shows the masks ``R``, the shifts ``V``, the channel outputs ``outs``,
    the transcript ``extras`` (name -> per-row array; lanes for a vector),
    and x on r+ and y on r- as zero-masked int8 rows ``x_plus``/``y_minus``;
    these three are unpacked from the (rows, packed_width(n)) lanes ``pr``,
    ``px`` and ``py`` on first read.  An adversary reads x and y only through
    ``x_plus``/``y_minus`` and the transcript: ``px``/``py`` hold the full inputs.
    """

    def __init__(self, n, pr, V, outs, extras, px, py):
        rows, width = len(pr), packed_width(n)
        if any(np.shape(a) != (rows, width) for a in (pr, px, py)):
            raise ValueError(f"lanes must have shape ({rows}, {width})")
        if np.shape(V) != (rows,) or np.shape(outs) != (rows,):
            raise ValueError(f"V and outs must have {rows} rows")
        self.V, self.outs, self.extras = V, outs, extras
        self.n, self.pr, self.px, self.py = n, pr, px, py

    @functools.cached_property
    def R(self) -> np.ndarray:
        return unpack_signs(self.pr, self.n)

    @functools.cached_property
    def x_plus(self) -> np.ndarray:
        return (self.R == 1) * unpack_signs(self.px, self.n)

    @functools.cached_property
    def y_minus(self) -> np.ndarray:
        return (self.R == -1) * unpack_signs(self.py, self.n)


# maps a batch of eavesdropper views to an int64 guess of o_A per row
Adversary = Callable[[EveViews], np.ndarray]


def run_ka_rounds(
    channel: Channel, ell: int, trials: int, rng: np.random.Generator
) -> KARoundBatch:
    """Execute `trials` independent rounds on packed lanes, where <x,y> =
    n - 2 popcount(x ^ y) and <x*y, r> = n - 2 popcount(x ^ y ^ r)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    n = channel.n
    b = channel.sample_batch(trials, rng)
    pr = random_packed(n, trials, rng)
    V = rng.integers(1, ell + 1, size=trials)
    # u_a = ip_minus = (<x,y> - <x*y, r>) / 2 exactly; u_b = out - ip_plus
    u_a = (b.ips - packed_inner_products(b.px ^ b.py, pr, n)) // 2
    u_b = b.outs - (b.ips - u_a)
    return KARoundBatch(
        o_a=_quantize(u_a, V, ell), o_b=_quantize(u_b, V, ell), u_a=u_a, u_b=u_b,
        outs=b.outs, ips=b.ips, pr=pr, V=V, channel_batch=b,
    )


def count_rounds(
    channel: Channel,
    ell: int,
    trials: int,
    rng: np.random.Generator,
    adversary: Adversary | None = None,
) -> tuple[int, int]:
    """Run one batch of `trials` rounds; return the number of agreement
    events o_A = o_B and how many of them `adversary` guessed o_A in (0
    without an adversary).

    The adversary sees the batch's eavesdropper views in one call.  Every
    round is also checked against the structural implication that agreement
    forces |out(t) - <x,y>| < ell.
    """
    batch = run_ka_rounds(channel, ell, trials, rng)
    agree = batch.o_a == batch.o_b
    if np.any(np.abs(batch.outs - batch.ips)[agree] >= ell):
        raise RuntimeError("agreement without out(t) being ell-close to <x,y>")
    hits = 0
    if adversary is not None:
        guess = adversary(batch.eve_views())
        hits = int(np.count_nonzero(agree & (guess == batch.o_a)))
    return int(np.count_nonzero(agree)), hits


def agreement_rate(
    channel: Channel, ell: int, trials: int, rng: np.random.Generator
) -> Rate:
    """Monte Carlo Pr[o_A = o_B] over independent rounds: ``count_rounds`` on
    the ``ka`` command's chunks, so on ``rng_from_seed(s)`` it counts what
    ``ka --seed s`` counts."""
    events, _ = sum_chunks(
        lambda stream, size: count_rounds(channel, ell, size, stream),
        rng, trials, CHUNK_TRIALS,
    )
    return Rate(int(events), trials)


def equality_leakage_rate(
    channel: Channel,
    ell: int,
    adversary: Adversary,
    trials: int,
    rng: np.random.Generator,
) -> Rate:
    """Adversary success at guessing o_A conditioned on o_A = o_B: the hits
    over the agreement events, so its ``trials`` count the events (0, with
    a nan rate, when no round agrees).

    The adversary maps an ``EveViews`` batch to an int64 guess per row; it
    is called once per chunk of rounds (as in ``agreement_rate``), on every
    round, and scored on the agreeing ones.
    """
    events, hits = map(int, sum_chunks(
        lambda stream, size: count_rounds(channel, ell, size, stream, adversary),
        rng, trials, CHUNK_TRIALS,
    ))
    return Rate(hits, events)


# ---------------------------------------------------------------------------
# Built-in adversaries
# ---------------------------------------------------------------------------


def blind_adversary(ell: int) -> Adversary:
    """Ignores all data and quantizes u = 0 (a measurable baseline)."""
    return lambda views: _quantize(0, views.V, ell)


def readout_adversary(ell: int) -> Adversary:
    """Uses the designated output only: guesses u_A as out(t)/2.

    For uniform inputs E[<x_{r-}, y_{r-}> | <x,y>] = <x,y>/2, which makes
    this the natural transcript-only point guess.
    """
    return lambda views: _quantize(views.outs // 2, views.V, ell)


def openbook_adversary(ell: int) -> Adversary:
    """Reads leaked inputs from a non-private transcript and wins exactly.

    Requires a channel whose transcript carries the lanes of x and y (as
    ``exact_ip_channel(n, leak_inputs=True)``); party A's value u_A =
    (<x,y> - <x*y, r>) / 2 is computed outright from two popcounts of them.
    """

    def guess(views: EveViews) -> np.ndarray:
        x, y, n = views.extras["x"], views.extras["y"], views.n
        diff = packed_inner_products(x, y, n) - packed_inner_products(x ^ y, views.pr, n)
        return _quantize(diff // 2, views.V, ell)

    return guess


# ---------------------------------------------------------------------------
# From adversaries to inner-product estimators
# ---------------------------------------------------------------------------


def adversary_to_ip_estimator(adversary: Adversary, ell: int) -> Callable:
    """Convert an output-guessing adversary into a masked-product estimator.

    The returned function maps an ``EveViews`` batch, one row per query
    (r, x_{r+}, y_{r-}, t), and a generator to an int64 estimate of
    <x*y, r> per row.  It draws its own uniform shift v per row and asks
    the adversary about the whole batch, with those shifts, in one call.
    Since 2*<x_{r-}, y_{r-}> = <x,y> - <x*y, r> and the adversary's guess
    g approximates <x_{r-}, y_{r-}> - v up to one quantization block,

        f := out(t) - 2*(g + v)

    lands within 3*ell of <x*y, r> whenever |out(t) - <x,y>| < ell and the
    adversary guesses A's output.  (Note the orientation: 2*(g + v) - out(t)
    would approximate the negated masked product.)
    """

    def estimator(views: EveViews, rng: np.random.Generator) -> np.ndarray:
        V = rng.integers(1, ell + 1, size=len(views.outs))
        shifted = EveViews(views.n, views.pr, V, views.outs, views.extras,
                           views.px, views.py)
        return views.outs - 2 * (adversary(shifted) + V)

    return estimator
