import math
from fractions import Fraction

import numpy as np
import pytest

from noisyip import (
    SvSourceSpec,
    Transcript,
    channel_from_config,
    constant_channel,
    dp_audit,
    equality_channel,
    estimate_accuracy,
    exact_ip_channel,
    inner_product,
    laplace_ip_channel,
    randomized_response_channel,
    randomized_response_variance,
    rng_from_seed,
    rounded_laplace_pmf,
)
from noisyip.channels import randomized_response_p
from noisyip.signvectors import flip, packed_inner_products, unpack_bits
from noisyip.signvectors import unpack_signs


def exact_binomial_window(n: int, width: int) -> Fraction:
    """Pr[|S_n| <= width] for S_n a sum of n uniform +-1, exact."""
    total = Fraction(0)
    for ones in range(n + 1):
        s = 2 * ones - n
        if abs(s) <= width:
            total += Fraction(math.comb(n, ones), 2**n)
    return total


def test_transcript_out_consistency():
    t = Transcript(messages=(("out", 3),), out=3)
    assert t.out == 3 and t.message("out") == 3
    with pytest.raises(ValueError):
        Transcript(messages=(("out", 3),), out=4)


def test_exact_channel_is_exact():
    rng = rng_from_seed(0)
    ch = exact_ip_channel(32)
    b = ch.sample_batch(200, rng)
    ips = np.einsum("ij,ij->i", b.xs.astype(int), b.ys.astype(int))
    assert np.array_equal(b.outs, ips)
    rep = estimate_accuracy(ch, 0, 500, rng)
    assert rep.rate == 1.0


def test_exact_open_channel_leaks_inputs():
    rng = rng_from_seed(1)
    b = exact_ip_channel(16, leak_inputs=True).sample_batch(1, rng)
    t = b.transcript(0)
    assert np.array_equal(t.message("x"), b.xs[0])
    assert np.array_equal(t.message("y"), b.ys[0])
    assert t.out == inner_product(b.xs[0], b.ys[0])


def test_laplace_channel_infinite_eps_is_exact():
    rng = rng_from_seed(2)
    ch = laplace_ip_channel(24, math.inf)
    b = ch.sample_batch(300, rng)
    ips = np.einsum("ij,ij->i", b.xs.astype(int), b.ys.astype(int))
    assert np.array_equal(b.outs, ips)


def test_laplace_channel_concentration():
    # Pr[|out - <X,Y>| <= 2t/eps] >= 1 - e^-t - tolerance at t = 3
    rng = rng_from_seed(3)
    n, eps, t = 1000, 1.0, 3
    ch = laplace_ip_channel(n, eps)
    rep = estimate_accuracy(ch, int(2 * t / eps), 30_000, rng)
    assert rep.rate >= 1 - math.exp(-t) - 3 * rep.half_width


def test_laplace_channel_exact_window_oracle():
    # gamma_hat at alpha = 10 matches the exact rounded-Laplace window mass
    rng = rng_from_seed(4)
    n, eps, alpha = 100, 1.0, 10
    ch = laplace_ip_channel(n, eps)
    trials = 60_000
    rep = estimate_accuracy(ch, alpha, trials, rng)
    exact = sum(rounded_laplace_pmf(k, 2.0 / eps) for k in range(-alpha, alpha + 1))
    assert abs(rep.rate - exact) <= 3 * rep.half_width + 1e-9


def test_laplace_neighbor_likelihood_ratio_exact():
    # On neighboring inputs the output distributions of the noisy inner
    # product differ by a shift of 2; the exact pmf ratio stays within
    # e^eps since the discrete Laplace tail decays by e^(1/scale) per step.
    eps = 1.0
    scale = 2.0 / eps
    for out_minus_ip in range(-8, 9):
        p = rounded_laplace_pmf(out_minus_ip, scale)
        q = rounded_laplace_pmf(out_minus_ip + 2, scale)
        assert p <= math.exp(eps) * q + 1e-15
        assert q <= math.exp(eps) * p + 1e-15


def test_randomized_response_p_value():
    assert randomized_response_p(math.log(3)) == pytest.approx(0.25)


def test_randomized_response_unbiased_and_variance():
    rng = rng_from_seed(5)
    n, eps = 64, 1.0
    ch = randomized_response_channel(n, eps)
    trials = 100_000
    b = ch.sample_batch(trials, rng)
    ips = np.einsum("ij,ij->i", b.xs.astype(int), b.ys.astype(int))
    release = b.extras["release"]
    resid = release - ips
    var_oracle = randomized_response_variance(n, eps)
    # E[z | x, y] = <x,y>: residual mean within 4 predicted standard errors
    assert abs(resid.mean()) <= 4 * math.sqrt(var_oracle / trials)
    assert resid.var() == pytest.approx(var_oracle, rel=0.05)


def test_randomized_response_accuracy_from_variance_oracle():
    # Chebyshev on the exact variance: |out - <x,y>| <= sqrt(2 Var) with
    # probability >= 1/2.
    rng = rng_from_seed(6)
    n, eps = 10_000, 0.5
    ch = randomized_response_channel(n, eps)
    c_eps = math.sqrt(2 * randomized_response_variance(n, eps) / n)
    rep = estimate_accuracy(ch, int(c_eps * math.sqrt(n)), 4000, rng)
    assert rep.rate >= 0.5 - 3 * rep.half_width


def test_constant_channel_properties():
    rng = rng_from_seed(7)
    spec = SvSourceSpec(alpha=0.5, n=20)
    ch = constant_channel(20, 3, spec, spec)
    b = ch.sample_batch(100, rng)
    assert np.all(b.outs == 3)
    # marginals match the source spec (Hoeffding bound)
    big = ch.sample_batch(20_000, rng)
    target = 2 / (1 + 0.5) - 1
    bound = math.sqrt(2 * math.log(2 * 20 / 1e-6) / 20_000)
    assert np.all(np.abs(big.xs.mean(axis=0) - target) < bound)
    assert np.all(np.abs(big.ys.mean(axis=0) - target) < bound)


def test_constant_channel_accuracy_matches_binomial_oracle():
    # gamma_hat at window ell equals Pr[|<X,Y>| <= ell] for uniform inputs
    rng = rng_from_seed(8)
    n, ell = 30, 4
    ch = constant_channel(n, 0)
    trials = 40_000
    rep = estimate_accuracy(ch, ell, trials, rng)
    exact = float(exact_binomial_window(n, ell))
    assert abs(rep.rate - exact) <= 3 * rep.half_width


def test_accuracy_monotone_in_alpha():
    rng = rng_from_seed(9)
    ch = laplace_ip_channel(64, 1.0)
    b = ch.sample_batch(5000, rng)
    err = np.abs(b.outs - np.einsum("ij,ij->i", b.xs.astype(int), b.ys.astype(int)))
    rates = [np.mean(err <= a) for a in range(0, 12)]
    assert all(r1 <= r2 for r1, r2 in zip(rates, rates[1:]))


def test_channel_determinism_per_seed():
    for cfg in (
        {"kind": "exact", "n": 16},
        {"kind": "laplace", "n": 16, "eps": 1.0},
        {"kind": "randomized_response", "n": 16, "eps": 1.0},
        {"kind": "constant", "n": 16, "z": 2},
        {"kind": "equality", "n": 16, "alpha": 0.5},
    ):
        b1 = channel_from_config(cfg).sample_batch(50, rng_from_seed(123))
        b2 = channel_from_config(cfg).sample_batch(50, rng_from_seed(123))
        assert np.array_equal(b1.xs, b2.xs)
        assert np.array_equal(b1.ys, b2.ys)
        assert np.array_equal(b1.outs, b2.outs)


def test_dp_audit_constant_channel_no_signal():
    rng = rng_from_seed(10)
    ch = constant_channel(16, 0)

    def dist(i, px, py, batch):
        return batch.outs % 2 == 0

    rep = dp_audit(ch, dist, 3, 2000, rng)
    assert rep.eps_hat_lower == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):  # sum_chunks rejects an empty audit
        dp_audit(ch, dist, 3, 0, rng)


def test_dp_audit_exact_channel_blatant():
    rng = rng_from_seed(11)
    trials = 2000
    ch = exact_ip_channel(16)

    def dist(i, px, py, batch):
        return batch.outs == packed_inner_products(px, py, batch.n)

    rep = dp_audit(ch, dist, 5, trials, rng)
    assert rep.p_real == 1.0
    assert rep.eps_hat_lower >= math.log(trials) / 2


@pytest.mark.parametrize("n", [8, 64, 70, 130])
def test_dp_audit_flips_one_bit_of_the_addressed_lanes(n):
    # the second call sees the sampled rows with entry flip_index of the
    # concatenated pair negated, as lanes whose pad bits stay zero; the
    # first sees the batch's own lanes
    ch = laplace_ip_channel(n, 1.0)
    for flip_index in range(2 * n):
        calls = []

        def record(i, px, py, batch):
            calls.append((i, px, py, batch))
            return np.zeros(len(batch), dtype=bool)

        dp_audit(ch, record, flip_index, 3, rng_from_seed(flip_index))
        (_, px, py, b), (i, fx, fy, fb) = calls
        assert px is b.px and py is b.py and fb is b and i == flip_index
        # only the addressed half is copied
        assert (fy is b.py) if flip_index < n else (fx is b.px)
        xf, yf = ((flip(b.xs, flip_index), b.ys) if flip_index < n
                  else (b.xs, flip(b.ys, flip_index - n)))
        assert np.array_equal(unpack_signs(fx, n), xf)
        assert np.array_equal(unpack_signs(fy, n), yf)
        for lanes in (fx, fy):
            assert not unpack_bits(lanes, 64 * lanes.shape[1])[:, n:].any()


@pytest.mark.parametrize("width", [0, 2])
def test_dp_audit_counts_the_accuracy_estimates_chunk_streams(width):
    # 25,000 trials are three chunks; dp_audit's real-pair rate of near:w
    # counts exactly the rows estimate_accuracy counts at alpha = w
    ch, trials = laplace_ip_channel(64, 1.0), 25_000

    def near(i, px, py, batch):
        return np.abs(batch.outs - packed_inner_products(px, py, batch.n)) <= width

    for seed in (1, 5):
        acc = estimate_accuracy(ch, width, trials, rng_from_seed(seed))
        rep = dp_audit(ch, near, 0, trials, rng_from_seed(seed))
        assert rep.p_real == acc.rate


def test_dp_audit_laplace_within_eps():
    rng = rng_from_seed(12)
    n, eps = 8, 1.0
    ch = laplace_ip_channel(n, eps)

    def dist(i, px, py, batch):
        return batch.outs == packed_inner_products(px, py, batch.n)

    trials = 60_000
    rep = dp_audit(ch, dist, 2, trials, rng)
    # exact rates: p_real = P[noise=0], p_flipped = P[noise = +-2] mixed
    sigma = 3 * math.sqrt(0.25 / trials)
    slack = math.log((rep.p_real + sigma) / max(rep.p_flipped - sigma, 1e-6)) - math.log(
        rep.p_real / rep.p_flipped
    )
    assert rep.eps_hat_lower <= eps + slack + 0.1


def test_bad_eps_rejected():
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            laplace_ip_channel(8, eps)
        with pytest.raises(ValueError):
            randomized_response_channel(8, eps)
    with pytest.raises(ValueError):
        randomized_response_channel(8, math.inf)  # p would be nan


def test_equality_channel_rate():
    rng = rng_from_seed(13)
    ch = equality_channel(32, 0.25)
    b = ch.sample_batch(40_000, rng)
    same = np.all(b.xs == b.ys, axis=1).mean()
    assert same == pytest.approx(0.25, abs=0.01)


def test_channel_from_config_rejects_unknown():
    with pytest.raises(ValueError):
        channel_from_config({"kind": "quantum", "n": 4})


def test_laplace_channels_reject_an_eps_whose_noise_would_wrap():
    # scale 2/eps meets the 2^46 bound at eps = 2^-45; randomized response's
    # 1/(p*eps), about 4/eps^2, meets it near eps = 2^-22
    rng = rng_from_seed(3)
    with np.errstate(invalid="raise"):
        b = laplace_ip_channel(8, 2.0**-45).sample_batch(2000, rng)
        randomized_response_channel(8, 2.0**-21).sample_batch(100, rng)
    assert np.all(np.abs(b.outs) < 2**52)
    for eps in (np.nextafter(2.0**-45, 0), 1e-18, 1e-300):
        with pytest.raises(ValueError, match="eps"):
            laplace_ip_channel(8, eps)
    for eps in (2.0**-23, 1e-15):
        with pytest.raises(ValueError, match="eps"):
            randomized_response_channel(8, eps)
