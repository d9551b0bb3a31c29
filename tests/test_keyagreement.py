import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyip import (
    SvSourceSpec,
    adversary_to_ip_estimator,
    agreement_rate,
    blind_adversary,
    constant_channel,
    count_rounds,
    equality_channel,
    equality_leakage_rate,
    exact_ip_channel,
    laplace_ip_channel,
    openbook_adversary,
    randomized_response_channel,
    readout_adversary,
    reconstruct_product_bit,
    rng_from_seed,
)
from noisyip import channels as channels_module
from noisyip import keyagreement, signvectors
from noisyip.channels import Channel, ChannelBatch
from noisyip.condense import ScalarTripletEstimator
from noisyip.keyagreement import EveViews, _quantize, run_ka_rounds
from noisyip.reconstruct import _CHUNK_ROWS
from noisyip.signvectors import pack_signs, random_packed, random_signs
from noisyip.sources import laplace_from_uniform, round_half_away, sample_rounded_laplace


def bounded_noise_channel(n: int, half_window: int) -> Channel:
    """out = <x,y> + uniform noise strictly inside (-half_window, half_window)."""

    def batch(size, rng):
        xs = random_signs(n, rng, size)
        ys = random_signs(n, rng, size)
        noise = rng.integers(-(half_window - 1), half_window, size=size)
        outs = np.einsum("ij,ij->i", xs.astype(np.int64), ys.astype(np.int64)) + noise
        return ChannelBatch(n, pack_signs(xs), pack_signs(ys), outs)

    return Channel(n, "bounded", {"half_window": half_window}, batch)


# ---------------------------------------------------------------------------
# Quantization mechanics
# ---------------------------------------------------------------------------


@given(
    st.integers(-500, 500),
    st.integers(-500, 500),
    st.integers(1, 40),
    st.integers(1, 40),
)
@settings(max_examples=200, deadline=None)
def test_quantization_invariant(u_a, u_b, v, ell):
    v = min(v, ell)
    o_a = int(_quantize(np.array([u_a]), np.array([v]), ell)[0])
    o_b = int(_quantize(np.array([u_b]), np.array([v]), ell)[0])
    assert (o_a - o_b) % ell == 0
    assert (o_a == o_b) == ((u_a - v) // ell == (u_b - v) // ell)
    assert o_a <= u_a - v < o_a + ell  # floor toward -inf


def test_uniform_shift_makes_half_blocks_exact():
    # over v uniform in [1, ell] with ell even, Pr[(u - v) mod ell < ell/2]
    # is exactly 1/2 for every fixed u
    for ell in (2, 4, 8, 10):
        for u in range(-25, 26):
            count = sum(1 for v in range(1, ell + 1) if (u - v) % ell < ell // 2)
            assert count * 2 == ell


# ---------------------------------------------------------------------------
# Protocol rounds
# ---------------------------------------------------------------------------


def test_exact_channel_always_agrees():
    rng = rng_from_seed(0)
    ch = exact_ip_channel(64)
    batch = run_ka_rounds(ch, 4, 2000, rng)
    assert np.array_equal(batch.u_a, batch.u_b)
    assert np.array_equal(batch.o_a, batch.o_b)


def test_round_view_consistency():
    rng = rng_from_seed(1)
    outputs = run_ka_rounds(exact_ip_channel(32), 6, 1, rng)
    view = outputs.ka_transcript(0)
    v, r = int(view.V[0]), view.R[0]
    assert 1 <= v <= 6
    assert np.count_nonzero(view.x_plus[0]) == np.count_nonzero(r == 1)
    assert np.count_nonzero(view.y_minus[0]) == np.count_nonzero(r == -1)
    assert outputs.o_a[0] == ((outputs.u_a[0] - v) // 6) * 6


def test_ka_transcript_indexes_like_a_sequence():
    # negative indices count from the end, as ChannelBatch.transcript does;
    # indices past either end raise instead of returning an empty view
    batch = run_ka_rounds(exact_ip_channel(70, leak_inputs=True), 4, 5, rng_from_seed(3))
    for i in (-1, -5, 4):
        view, row = batch.ka_transcript(i), range(5)[i]
        assert np.array_equal(view.R, batch.R[row:row + 1])
        assert (view.V[0], view.outs[0]) == (batch.V[row], batch.outs[row])
        assert np.array_equal(view.extras["x"][0], batch.channel_batch.xs[row])
        assert view.outs[0] == batch.channel_batch.transcript(i).out
    for i in (5, 6, -6):
        with pytest.raises(IndexError):
            batch.ka_transcript(i)
        with pytest.raises(IndexError):
            batch.channel_batch.transcript(i)


def test_agreement_implies_out_close_to_ip():
    # asserted internally on every Monte Carlo sample; exercise it through a
    # channel that frequently disagrees
    rng = rng_from_seed(2)
    ch = constant_channel(64, 0)
    report = agreement_rate(ch, 8, 4000, rng)  # internal assertion must hold
    assert 0 <= report.rate <= 1


def test_agreement_rate_rejects_agreement_far_from_ip(monkeypatch):
    # a batch that breaks the structural implication raises a real error,
    # which (unlike an assert) also holds under python -O
    import noisyip.keyagreement as ka

    real = ka.run_ka_rounds

    def violating(channel, ell, trials, rng):
        batch = real(channel, ell, trials, rng)  # exact channel: all agree
        batch.outs = batch.ips + ell
        return batch

    monkeypatch.setattr(ka, "run_ka_rounds", violating)
    with pytest.raises(RuntimeError, match="ell-close"):
        agreement_rate(exact_ip_channel(16), 4, 100, rng_from_seed(5))


@pytest.mark.parametrize("seed", [3, 4])
def test_library_rates_count_what_the_ka_command_counts(seed, tmp_path):
    # the library rates run the command's chunks from the same root seed
    import json

    from noisyip.cli import main

    ch, ell, trials = laplace_ip_channel(64, 1.0), 4, 25_000
    agreement = agreement_rate(ch, ell, trials, rng_from_seed(seed))
    leak = equality_leakage_rate(ch, ell, blind_adversary(ell), trials,
                                 rng_from_seed(seed))
    assert leak.trials == round(agreement.rate * trials)
    for threads in ("1", "2"):
        out = tmp_path / f"ka{threads}.json"
        assert main(["ka", "--channel", "laplace", "--eps", "1.0", "--n", "64",
                     "--ell", str(ell), "--trials", str(trials), "--adversary",
                     "blind", "--threads", threads, "--seed", str(seed),
                     "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["agreement"]["value"] == agreement.rate
        assert metrics["equality_leakage"]["trials"] == leak.trials
        assert metrics["equality_leakage"]["value"] == leak.rate


def test_agreement_rate_runs_one_chunk_of_rounds_at_a_time(monkeypatch):
    # at n = 1024 the round temporaries are ~n bytes per row each, so the
    # batch size must not grow with the trial count
    import noisyip.keyagreement as ka
    from noisyip.rng import CHUNK_TRIALS

    sizes = []
    real = ka.run_ka_rounds

    def spy(channel, ell, trials, rng):
        sizes.append(trials)
        return real(channel, ell, trials, rng)

    monkeypatch.setattr(ka, "run_ka_rounds", spy)
    agreement_rate(laplace_ip_channel(1024, 1.0), 8, 65_536, rng_from_seed(1))
    assert max(sizes) <= CHUNK_TRIALS
    assert sum(sizes) == 65_536


def test_estimator_transform_identity():
    # out(t) - 2*(o_A + v) is within 3*ell of <x*y, r> whenever
    # |out(t) - <x,y>| < ell
    rng = rng_from_seed(3)
    ell = 6
    ch = laplace_ip_channel(128, 2.0)
    batch = run_ka_rounds(ch, ell, 4000, rng)
    b = batch.channel_batch
    masked = np.einsum(
        "ij,ij->i",
        (b.xs.astype(np.int64) * b.ys.astype(np.int64)),
        batch.R.astype(np.int64),
    )
    close = np.abs(batch.outs - batch.ips) < ell
    assert close.any()
    f = batch.outs - 2 * (batch.o_a + batch.V)
    assert np.all(np.abs(f[close] - masked[close]) <= 3 * ell)


def test_agreement_with_bounded_noise_channel():
    # |out - <x,y>| < ell/2 always -> agreement >= 1/2
    rng = rng_from_seed(4)
    ell = 8
    ch = bounded_noise_channel(64, ell // 2)
    rep = agreement_rate(ch, ell, 20_000, rng)
    assert rep.rate >= 0.5 - 3 * rep.half_width


def exact_binomial_window(n: int, width: int) -> float:
    total = Fraction(0)
    for ones in range(n + 1):
        if abs(2 * ones - n) < width:
            total += Fraction(math.comb(n, ones), 2**n)
    return float(total)


def test_agreement_rate_deterministic_per_seed():
    ch = constant_channel(32, 0)
    r1 = agreement_rate(ch, 4, 3000, rng_from_seed(77))
    r2 = agreement_rate(ch, 4, 3000, rng_from_seed(77))
    assert r1 == r2


def test_agreement_floor_constant_channel():
    # Pr[o_A = o_B] >= 1/4 Pr[|out - <X,Y>| < ell] on the trivial channel
    rng = rng_from_seed(5)
    n, ell = 64, 8
    ch = constant_channel(n, 0)
    rep = agreement_rate(ch, ell, 40_000, rng)
    floor = 0.25 * exact_binomial_window(n, ell)
    assert rep.rate >= floor - 3 * rep.half_width


# ---------------------------------------------------------------------------
# Adversaries and leakage
# ---------------------------------------------------------------------------


def blind_success_exact_enumeration(n: int, ell: int) -> float:
    """Exact success of the blind adversary on the exact channel at tiny n."""
    hits = 0
    total = 0
    vectors = list(product((-1, 1), repeat=n))
    for x in vectors:
        for y in vectors:
            for r in vectors:
                u_a = sum(
                    xi * yi for xi, yi, ri in zip(x, y, r) if ri == -1
                )
                for v in range(1, ell + 1):
                    total += 1
                    hits += int((u_a - v) // ell == (0 - v) // ell)
    return hits / total


def test_blind_adversary_matches_exact_baseline():
    n, ell = 4, 2
    exact = blind_success_exact_enumeration(n, ell)
    rng = rng_from_seed(6)
    ch = exact_ip_channel(n)
    rep = equality_leakage_rate(ch, ell, blind_adversary(ell), 8000, rng)
    assert rep.trials > 0
    sigma = math.sqrt(exact * (1 - exact) / rep.trials)
    assert abs(rep.rate - exact) < 4 * sigma


def test_openbook_adversary_wins_on_leaky_channel():
    rng = rng_from_seed(7)
    ch = exact_ip_channel(32, leak_inputs=True)
    rep = equality_leakage_rate(ch, 4, openbook_adversary(4), 600, rng)
    assert rep.rate == 1.0


def test_readout_adversary_success_decreases_with_n():
    rng = rng_from_seed(8)
    ell = 4
    rates = []
    for n in (8, 64, 512):
        ch = exact_ip_channel(n)
        rep = equality_leakage_rate(ch, ell, readout_adversary(ell), 4000, rng)
        rates.append(rep.rate)
    assert rates[0] > rates[1] > rates[2]


def scalar_guess(name: str, view: EveViews, ell: int) -> int:
    """The built-in adversaries' definitions on a size-1 round view."""
    r, v = view.R[0], int(view.V[0])
    if name == "blind":
        u = 0
    elif name == "readout":
        u = int(view.outs[0]) // 2
    else:  # openbook: u_A = <x_{r-}, y_{r-}> with x read from the transcript
        x = np.asarray(view.extras["x"][0], dtype=np.int64)
        u = int(np.dot(x[r == -1], view.y_minus[0][r == -1].astype(np.int64)))
    return ((u - v) // ell) * ell


@pytest.mark.parametrize("channel, names", [
    (exact_ip_channel(24, leak_inputs=True), ("blind", "readout", "openbook")),
    (laplace_ip_channel(24, 1.0), ("blind", "readout")),
])
def test_batch_adversaries_match_scalar_definitions(channel, names):
    ell = 4
    batch = run_ka_rounds(channel, ell, 300, rng_from_seed(13))
    views = batch.eve_views()
    assert not hasattr(views, "xs") and not hasattr(views, "ys")
    b = batch.channel_batch
    assert np.array_equal(views.x_plus, np.where(batch.R == 1, b.xs, 0))
    assert np.array_equal(views.y_minus, np.where(batch.R == -1, b.ys, 0))
    factories = {"blind": blind_adversary, "readout": readout_adversary,
                 "openbook": openbook_adversary}
    for name in names:
        guesses = factories[name](ell)(views)
        assert guesses.shape == (300,)
        expected = [scalar_guess(name, batch.ka_transcript(i), ell)
                    for i in range(300)]
        assert guesses.tolist() == expected, name


def test_leakage_degenerate_flagged():
    # a channel that never agrees: constant output far outside reach
    rng = rng_from_seed(9)
    ch = constant_channel(16, 16)
    rep = equality_leakage_rate(ch, 1, blind_adversary(1), 300, rng)
    if rep.trials == 0:
        assert math.isnan(rep.rate) and math.isnan(rep.half_width)
    else:  # agreement is possible but rare; rate must still be defined
        assert not math.isnan(rep.rate)


# ---------------------------------------------------------------------------
# Adversary -> estimator bridge
# ---------------------------------------------------------------------------


def query_views(channel, queries, rng):
    """Views of `queries` channel samples under uniform masks, no shift,
    and the masked products <x*y, r> they estimate."""
    b = channel.sample_batch(queries, rng)
    pr = random_packed(channel.n, queries, rng)
    views = EveViews(channel.n, pr, np.zeros(queries, dtype=np.int64), b.outs,
                     b.extras, b.px, b.py)
    masked = (b.xs.astype(np.int64) * b.ys * views.R).sum(axis=1)
    return views, masked


def test_perfect_adversary_estimator_within_3_ell():
    rng = rng_from_seed(10)
    n, ell = 32, 4
    est = adversary_to_ip_estimator(openbook_adversary(ell), ell)
    views, masked = query_views(exact_ip_channel(n, leak_inputs=True), 200, rng)
    value = est(views, rng)
    assert value.shape == (200,)
    assert np.all(np.abs(value - masked) <= 3 * ell)


def test_adversary_estimator_affine_law():
    # shifting the adversary's output by ell shifts the estimate by 2*ell
    ell = 5
    base = blind_adversary(ell)

    def shifted(view):
        return base(view) + ell

    est0 = adversary_to_ip_estimator(base, ell)
    est1 = adversary_to_ip_estimator(shifted, ell)
    views, _ = query_views(exact_ip_channel(16), 50, rng_from_seed(11))
    v0 = est0(views, rng_from_seed(99))
    v1 = est1(views, rng_from_seed(99))
    assert np.all(v1 - v0 == -2 * ell)


def test_bridge_asks_the_adversary_once_per_query_chunk():
    n, ell, samples = 16, 2, 2 * _CHUNK_ROWS + 276
    calls = []

    def counted(views):
        calls.append(len(views.outs))
        return openbook_adversary(ell)(views)

    f = ScalarTripletEstimator(adversary_to_ip_estimator(counted, ell), n)
    t = exact_ip_channel(n, leak_inputs=True).sample_batch(1, rng_from_seed(14))
    bit = reconstruct_product_bit(3, t.xs[0], t.ys[0], t, f, 1, samples,
                                  rng_from_seed(15))
    assert bit in (-1, 1)
    assert calls == [_CHUNK_ROWS, _CHUNK_ROWS, 276]


def test_ka_transcript_validation():
    # every lane array is (rows, packed_width(n)); V and outs have rows entries
    rng = rng_from_seed(12)
    b = exact_ip_channel(2).sample_batch(3, rng)
    pr = random_packed(2, 3, rng)
    ok = dict(n=2, pr=pr, V=np.ones(3, dtype=np.int64), outs=b.outs, extras={},
              px=b.px, py=b.py)
    views = EveViews(**ok)
    assert np.array_equal(views.x_plus, np.where(views.R == 1, b.xs, 0))
    wide = np.zeros((3, 2), dtype=np.uint64)
    for bad in ({"pr": pr[:2]}, {"px": b.px[:2]}, {"V": np.ones(2)},
                {"outs": b.outs[:1]}, {"py": wide}, {"pr": pr[0]}, {"n": 65}):
        with pytest.raises(ValueError):
            EveViews(**{**ok, **bad})


# ---------------------------------------------------------------------------
# Packed lanes: the round algebra against the sign algebra
# ---------------------------------------------------------------------------


def _replay_uniform_inputs(seed, n, size):
    """A generator positioned after a channel's two uniform lane draws."""
    rng = rng_from_seed(seed)
    random_packed(n, size, rng), random_packed(n, size, rng)
    return rng


def _laplace_noise(channel, seed, size, xs, ys):
    rng = _replay_uniform_inputs(seed, channel.n, size)
    return sample_rounded_laplace(channel.params["scale"], rng, size)


def _randomized_response_noise(channel, seed, size, xs, ys):
    # x-hat keeps x_i where the per-entry draw is below 1/2 + p; the release
    # adds Laplace(1/(p eps)) to the debiased <y, x-hat> and is rounded
    p, eps = channel.params["p"], channel.params["eps"]
    rng = _replay_uniform_inputs(seed, channel.n, size)
    xhat = np.where(rng.random(xs.shape) < 0.5 + p, xs, -xs)
    lap = laplace_from_uniform(rng.random(size), 1.0 / (p * eps))
    release = (ys * xhat).sum(axis=1) / (2.0 * p) + lap
    return round_half_away(release) - (xs * ys).sum(axis=1)


LANE_N = 100  # not a multiple of 64: the last lane has 28 pad bits
LANE_CHANNELS = {
    "exact": (exact_ip_channel(LANE_N), lambda *a: 0),
    "exact_open": (exact_ip_channel(LANE_N, leak_inputs=True), lambda *a: 0),
    "laplace": (laplace_ip_channel(LANE_N, 0.5), _laplace_noise),
    "randomized_response": (randomized_response_channel(LANE_N, 2.0),
                            _randomized_response_noise),
    "constant": (constant_channel(LANE_N, 4),
                 lambda ch, s, m, xs, ys: 4 - (xs * ys).sum(axis=1)),
    "constant_biased": (
        constant_channel(LANE_N, -2, SvSourceSpec(0.3, LANE_N), SvSourceSpec(0.6, LANE_N)),
        lambda ch, s, m, xs, ys: -2 - (xs * ys).sum(axis=1)),
    "equality": (equality_channel(LANE_N, 0.5),
                 lambda ch, s, m, xs, ys: -(xs * ys).sum(axis=1)),
}


@pytest.mark.parametrize("name", LANE_CHANNELS)
def test_lane_round_algebra_matches_sign_algebra(name):
    channel, noise = LANE_CHANNELS[name]
    seed, size, ell = 29, 600, 6
    batch = run_ka_rounds(channel, ell, size, rng_from_seed(seed))
    b = batch.channel_batch
    for lanes in (b.px, b.py, batch.pr):
        assert lanes.dtype == np.uint64 and lanes.shape == (size, 2)
        assert not np.any(lanes[:, -1] >> np.uint64(LANE_N % 64)), "pad bits set"
    xs, ys, R = (a.astype(np.int64) for a in (b.xs, b.ys, batch.R))
    assert set(np.unique(R)) == {-1, 1}
    prods = xs * ys
    assert np.array_equal(batch.ips, prods.sum(axis=1))
    assert np.array_equal(batch.u_a, (prods * (R == -1)).sum(axis=1))
    assert np.array_equal(batch.u_b, batch.outs - (prods * (R == 1)).sum(axis=1))
    assert np.array_equal(
        batch.outs - batch.ips, np.broadcast_to(noise(channel, seed, size, xs, ys), size))
    views = batch.eve_views()
    assert np.array_equal(views.R, batch.R)
    assert np.array_equal(views.x_plus, np.where(R == 1, xs, 0))
    assert np.array_equal(views.y_minus, np.where(R == -1, ys, 0))


@pytest.mark.parametrize("make_adversary", [blind_adversary, readout_adversary])
def test_transcript_adversaries_build_no_sign_rows(make_adversary, monkeypatch):
    unpacked = []

    def counting_unpack(P, n):
        unpacked.append(P.shape)
        return signvectors.bits_to_signs(signvectors.unpack_bits(P, n))

    for module in (signvectors, channels_module, keyagreement):
        monkeypatch.setattr(module, "unpack_signs", counting_unpack)
    ell = 8
    adversary = make_adversary(ell)
    for channel in (laplace_ip_channel(LANE_N, 1.0), constant_channel(LANE_N, 0)):
        agree, hits = count_rounds(channel, ell, 2000, rng_from_seed(31), adversary)
        assert 0 < hits <= agree
    assert unpacked == []
    # the counter does see a read at the public boundary
    run_ka_rounds(laplace_ip_channel(LANE_N, 1.0), ell, 10, rng_from_seed(1)).R
    assert unpacked == [(10, 2)]
