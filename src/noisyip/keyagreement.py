"""Key-agreement rounds built on an inner-product channel.

One round: the parties call the channel to get (x, y, t); party A draws a
uniform mask r and a uniform quantization shift v in [1, ell] and sends
(v, x restricted to the +1 positions of r, r); party B replies with y
restricted to the -1 positions.  A then knows <x_{r-}, y_{r-}> directly and
B recovers the same quantity as out(t) - <x_{r+}, y_{r+}> up to the
channel's estimation error; both sides output their value shifted by v and
snapped down to a multiple of ell.  When the channel output is within
ell/2 of <x,y>, the snapped values collide with probability >= 1/2.

The eavesdropper's view of a round is (x_{r+}, y_{r-}, t, r, v).  An
adversary guessing A's output from that view converts into an estimator of
the masked product <x*y, r> from the same view, which is the bridge into
the distinguisher pipeline (``noisyip.condense``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import Channel, Transcript
from .reporting import wald_half_width
from .signvectors import SIGN_DTYPE, random_signs


@dataclass(frozen=True, eq=False)
class KATranscript:
    """Everything an eavesdropper sees in one round."""

    x_plus: np.ndarray   # values of x at positions where r = +1
    y_minus: np.ndarray  # values of y at positions where r = -1
    t: Transcript
    r: np.ndarray
    v: int

    def __post_init__(self):
        n_plus = int(np.count_nonzero(np.asarray(self.r) == 1))
        if len(self.x_plus) != n_plus or len(self.y_minus) != len(self.r) - n_plus:
            raise ValueError("restriction lengths inconsistent with the mask")
        if self.v < 1:
            raise ValueError("v must be >= 1")


@dataclass(frozen=True)
class PartyOutputs:
    """Both parties' pre- and post-quantization values for one round.

    Structurally o = floor((u - v)/ell) * ell on both sides, so the outputs
    always differ by a multiple of the block size.
    """

    o_a: int
    o_b: int
    u_a: int
    u_b: int


def _quantize(u: np.ndarray, v: np.ndarray, ell: int) -> np.ndarray:
    # floor division toward -inf keeps the block structure exact for
    # negative values of u - v
    return ((u - v) // ell) * ell


@dataclass(eq=False)
class KARoundBatch:
    """Vectorized outcomes of many independent protocol rounds."""

    o_a: np.ndarray
    o_b: np.ndarray
    u_a: np.ndarray
    u_b: np.ndarray
    outs: np.ndarray
    ips: np.ndarray
    R: np.ndarray
    V: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    channel_batch: object

    def __len__(self):
        return len(self.o_a)

    def ka_transcript(self, i: int) -> KATranscript:
        r = self.R[i]
        return KATranscript(
            x_plus=self.xs[i][r == 1],
            y_minus=self.ys[i][r == -1],
            t=self.channel_batch.transcript(i),
            r=r,
            v=int(self.V[i]),
        )


def run_ka_rounds(
    channel: Channel, ell: int, trials: int, rng: np.random.Generator
) -> KARoundBatch:
    """Execute `trials` independent rounds, vectorized."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    n = channel.n
    b = channel.sample_batch(trials, rng)
    R = random_signs(n, rng, trials)
    V = rng.integers(1, ell + 1, size=trials)
    prods = b.xs.astype(np.int64) * b.ys.astype(np.int64)
    ip_plus = np.where(R == 1, prods, 0).sum(axis=1)
    ip_minus = np.where(R == -1, prods, 0).sum(axis=1)
    u_a = ip_minus
    u_b = b.outs - ip_plus
    return KARoundBatch(
        o_a=_quantize(u_a, V, ell),
        o_b=_quantize(u_b, V, ell),
        u_a=u_a,
        u_b=u_b,
        outs=b.outs,
        ips=ip_plus + ip_minus,
        R=R,
        V=V,
        xs=b.xs,
        ys=b.ys,
        channel_batch=b,
    )


def run_ka_round(
    channel: Channel, ell: int, rng: np.random.Generator
) -> tuple[PartyOutputs, KATranscript]:
    """Single faithful round; the transcript is exactly the eavesdropper view."""
    batch = run_ka_rounds(channel, ell, 1, rng)
    outputs = PartyOutputs(
        o_a=int(batch.o_a[0]),
        o_b=int(batch.o_b[0]),
        u_a=int(batch.u_a[0]),
        u_b=int(batch.u_b[0]),
    )
    return outputs, batch.ka_transcript(0)


@dataclass(frozen=True)
class RateReport:
    rate: float
    half_width: float
    trials: int


def _rate_report(hits: int, trials: int) -> RateReport:
    rate = hits / trials if trials else float("nan")
    half = wald_half_width(rate, trials) if trials else float("nan")
    return RateReport(rate=rate, half_width=half, trials=trials)


def agreement_rate(
    channel: Channel,
    ell: int,
    trials: int,
    rng: np.random.Generator,
    batch_size: int = 65536,
) -> RateReport:
    """Monte Carlo Pr[o_A = o_B] over independent rounds.

    Every sampled round is also checked against the structural implication
    that agreement forces |out(t) - <x,y>| < ell.
    """
    hits = 0
    done = 0
    while done < trials:
        size = min(batch_size, trials - done)
        batch = run_ka_rounds(channel, ell, size, rng)
        agree = batch.o_a == batch.o_b
        if not np.all(np.abs(batch.outs[agree] - batch.ips[agree]) < ell):
            raise RuntimeError("agreement without out(t) being ell-close to <x,y>")
        hits += int(np.count_nonzero(agree))
        done += size
    return _rate_report(hits, trials)


@dataclass(frozen=True)
class LeakageReport:
    rate: float
    half_width: float
    agreement_events: int
    trials: int
    degenerate: bool


def equality_leakage_rate(
    channel: Channel,
    ell: int,
    adversary: Callable[[KATranscript], int],
    trials: int,
    rng: np.random.Generator,
    batch_size: int = 8192,
) -> LeakageReport:
    """Adversary success at guessing o_A conditioned on o_A = o_B."""
    events = 0
    hits = 0
    done = 0
    while done < trials:
        size = min(batch_size, trials - done)
        batch = run_ka_rounds(channel, ell, size, rng)
        agree_idx = np.flatnonzero(batch.o_a == batch.o_b)
        events += len(agree_idx)
        for i in agree_idx:
            guess = int(adversary(batch.ka_transcript(int(i))))
            hits += int(guess == int(batch.o_a[i]))
        done += size
    if events == 0:
        return LeakageReport(
            rate=float("nan"),
            half_width=float("nan"),
            agreement_events=0,
            trials=trials,
            degenerate=True,
        )
    base = _rate_report(hits, events)
    return LeakageReport(
        rate=base.rate,
        half_width=base.half_width,
        agreement_events=events,
        trials=trials,
        degenerate=False,
    )


# ---------------------------------------------------------------------------
# Built-in adversaries
# ---------------------------------------------------------------------------


def blind_adversary(ell: int) -> Callable[[KATranscript], int]:
    """Ignores all data and quantizes u = 0 (a measurable baseline)."""

    def adversary(view: KATranscript) -> int:
        return int((0 - view.v) // ell) * ell

    return adversary


def readout_adversary(ell: int) -> Callable[[KATranscript], int]:
    """Uses the designated output only: guesses u_A as out(t)/2.

    For uniform inputs E[<x_{r-}, y_{r-}> | <x,y>] = <x,y>/2, which makes
    this the natural transcript-only point guess.
    """

    def adversary(view: KATranscript) -> int:
        u_guess = view.t.out // 2
        return int((u_guess - view.v) // ell) * ell

    return adversary


def openbook_adversary(ell: int) -> Callable[[KATranscript], int]:
    """Reads leaked inputs from a non-private transcript and wins exactly.

    Requires a channel whose transcript carries the full x (for instance
    ``exact_ip_channel(n, leak_inputs=True)``); combined with the view's
    y_{r-}, party A's value u_A is computed outright.
    """

    def adversary(view: KATranscript) -> int:
        x = np.asarray(view.t.message("x"), dtype=np.int64)
        r = np.asarray(view.r)
        u_a = int(np.dot(x[r == -1], np.asarray(view.y_minus, dtype=np.int64)))
        return int((u_a - view.v) // ell) * ell

    return adversary


# ---------------------------------------------------------------------------
# From adversaries to inner-product estimators
# ---------------------------------------------------------------------------


def adversary_to_ip_estimator(
    adversary: Callable[[KATranscript], int], ell: int
) -> Callable:
    """Convert an output-guessing adversary into a masked-product estimator.

    The returned function maps an eavesdropper view (r, x_{r+}, y_{r-}, t)
    to an integer estimate of <x*y, r>, drawing its own uniform shift v.
    Since 2*<x_{r-}, y_{r-}> = <x,y> - <x*y, r> and the adversary's guess
    g approximates <x_{r-}, y_{r-}> - v up to one quantization block,

        f := out(t) - 2*(g + v)

    lands within 3*ell of <x*y, r> whenever |out(t) - <x,y>| < ell and the
    adversary guesses A's output.  (Note the orientation: 2*(g + v) - out(t)
    would approximate the negated masked product.)
    """

    def estimator(
        r: np.ndarray,
        x_plus: np.ndarray,
        y_minus: np.ndarray,
        t: Transcript,
        rng: np.random.Generator,
    ) -> int:
        v = int(rng.integers(1, ell + 1))
        view = KATranscript(
            x_plus=np.asarray(x_plus, dtype=SIGN_DTYPE),
            y_minus=np.asarray(y_minus, dtype=SIGN_DTYPE),
            t=t,
            r=np.asarray(r, dtype=SIGN_DTYPE),
            v=v,
        )
        return int(t.out) - 2 * (int(adversary(view)) + v)

    return estimator
