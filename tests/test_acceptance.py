"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 1 is implemented exactly as stated and marked as an
expected failure: a (300, ell)-quality certificate cannot exist at n = 256
because the certificate value is capped by sqrt(n)/ell <= 16; the constant
300 is meaningful only asymptotically (n well above 10^6).  Its operational
content -- recovering >= 90% of bits from the rounded-Laplace estimator --
is demonstrated by the companion test at a Hoeffding-derived query budget.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from noisyip import (
    SvSourceSpec,
    condense_mod_experiment,
    constant_channel,
    equality_channel,
    estimate_accuracy,
    exact_ip_channel,
    gl_decode,
    open_transcript_estimator,
    repeat_until_success_batch,
    rng_from_seed,
    sample_offset,
    spawn_rngs,
)
from noisyip.amplify import hashed_parity_trials, parity_oracle
from noisyip.condense import TripletEstimator, _grouped_signed_sum, variant_vote_split
from noisyip.hashing import all_toeplitz_hashes
from noisyip.keyagreement import agreement_rate
from noisyip.reconstruct import (
    all_sign_vectors,
    best_laplace_ell,
    brute_force_vote_mean,
    certify_estimator,
    exact_estimator,
    laplace_estimator,
    laplace_lambda,
    offset_pmf,
    reconstruct_all,
    span_pmf,
    width_pmf,
)
from noisyip.signvectors import random_signs

from test_appendix_props import (
    check_multiplicative_distance,
    check_raz_bound,
    check_truncated_abs_sum,
    random_events,
)
from test_keyagreement import bounded_noise_channel


def report(idx: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {idx:>2} ({name}): {status}  {detail}")


def binomial_abs_window(n: int, width: int, strict: bool = False) -> float:
    total = Fraction(0)
    for ones in range(n + 1):
        s = abs(2 * ones - n)
        if (s < width) if strict else (s <= width):
            total += Fraction(math.comb(n, ones), 2**n)
    return float(total)


# ---------------------------------------------------------------------------
# 1. Reconstruction at n = 256
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="a (lambda >= 300, ell)-certificate cannot exist at n = 256: "
    "lambda_hat = sqrt(n)/ell * rate <= sqrt(n)/ell <= 16 for every window; "
    "the constant 300 is meaningful only asymptotically",
)
def test_criterion_1_reconstruction_as_stated():
    rng = rng_from_seed(1001)
    n, scale = 256, 2.0
    ell = best_laplace_ell(n, scale)  # oracle-derived window
    z = random_signs(n, rng)
    f = laplace_estimator(z, scale, rng)
    profile = certify_estimator(f, z, ell, 200_000, rng)
    ok = profile.lambda_hat >= 300
    report(
        1,
        "reconstruction n=256 as stated",
        ok,
        f"lambda_hat={profile.lambda_hat:.2f} at ell={ell} "
        f"(cap sqrt(n)/ell={math.sqrt(n)/ell:.1f}); 64n^3 samples/bit "
        "additionally exceeds any minutes-scale budget",
    )
    assert ok
    # unreachable at this scale: 20 seeded trials of reconstruct_all with
    # 64 n^3 samples per bit would follow here


def test_criterion_1_companion_operational_reconstruction():
    # the operational content of criterion 1 at the same size: the
    # rounded-Laplace estimator leaks >= 90% of the database in >= 18/20
    # seeded trials, at a query budget sized by the exact vote margin
    n, scale, ell = 256, 2.0, 1
    num_samples = 65_536
    trials = 20
    successes = 0
    lambda_exact = laplace_lambda(n, ell, scale)
    rngs = spawn_rngs(rng_from_seed(1002), trials)
    fracs = []
    for t in range(trials):
        z = random_signs(n, rngs[t])
        f = laplace_estimator(z, scale, rngs[t])
        res = reconstruct_all(z, f, ell, num_samples, rngs[t])
        fracs.append(res.frac_correct)
        successes += int(res.frac_correct >= 0.9)
    ok = successes >= 18
    report(
        1,
        "reconstruction n=256 companion",
        ok,
        f"{successes}/20 trials >= 0.9 bits (min frac {min(fracs):.3f}) "
        f"with {num_samples} shared queries; exact lambda_hat={lambda_exact:.2f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. Perfect-oracle exactness
# ---------------------------------------------------------------------------


def test_criterion_2_brute_force_exactness():
    rng = rng_from_seed(1003)
    n, ell = 12, 1
    z = random_signs(n, rng)
    f = exact_estimator(z)
    signs_ok = all(
        (brute_force_vote_mean(i, z, f, ell) > 0) == (z[i] > 0) for i in range(n)
    )

    # Monte Carlo predictor mean matches the exact value within 4 sigma
    i = 5
    mu = float(brute_force_vote_mean(i, z, f, ell))
    trials = 200_000
    R = all_sign_vectors(n)[rng.integers(0, 2**n, size=trials)]
    answers = f.query_batch(R)
    z0 = z.astype(np.int64).copy()
    z0[i] = 0
    residuals = answers - R.astype(np.int64) @ z0
    ks = sample_offset(n, ell, rng, size=trials)
    from noisyip.reconstruct import _vote_values

    votes = _vote_values(residuals, ks, R[:, i].astype(np.int64))
    sigma = votes.std() / math.sqrt(trials)
    mc_ok = abs(votes.mean() - mu) < 4 * sigma
    ok = signs_ok and mc_ok
    report(2, "perfect-oracle exactness", ok,
           f"signs exact for all i; |MC - exact| = {abs(votes.mean()-mu):.2e} < 4s")
    assert ok


# ---------------------------------------------------------------------------
# 3. Distribution exactness
# ---------------------------------------------------------------------------


def test_criterion_3_staged_distribution_exactness():
    # exhaustive rational normalization for all (s, t) with t <= 60
    for t in range(1, 61):
        for s in range(0, t):
            pmf = width_pmf(s, t)
            assert sum(pmf.values()) == 1
            assert sum(2 * m + 3 for m in range(s, t)) == (t - s) * (t + s + 2)

    from noisyip.reconstruct import sample_span, sample_width

    rng = rng_from_seed(1004)
    draws_per_set = 1_000_000
    tvs = []
    for n, ell in ((100, 1), (400, 5), (900, 10)):
        # width stage
        s0, t0 = ell - 1 if ell > 1 else 0, ell + 5
        wd = sample_width(s0, t0, rng, size=draws_per_set)
        wpmf = width_pmf(s0, t0)
        tv_w = 0.5 * sum(
            abs(np.count_nonzero(wd == m) / draws_per_set - float(p))
            for m, p in wpmf.items()
        )
        # span stage
        S = range(0, ell)
        T = range(ell + 2, math.isqrt(n) + 1)
        s_arr, t_arr = sample_span(S, T, rng, size=draws_per_set)
        spmf = span_pmf(S, T)
        tv_s = 0.5 * sum(
            abs(
                np.count_nonzero((s_arr == s) & (t_arr == t)) / draws_per_set
                - float(p)
            )
            for (s, t), p in spmf.items()
        )
        # composite stage
        kd = sample_offset(n, ell, rng, size=draws_per_set)
        kpmf = offset_pmf(n, ell)
        tv_k = 0.5 * sum(
            abs(np.count_nonzero(kd == k) / draws_per_set - float(p))
            for k, p in kpmf.items()
        )
        tvs.extend([tv_w, tv_s, tv_k])
    ok = all(tv <= 0.01 for tv in tvs)
    report(3, "staged distribution exactness", ok, f"max TV = {max(tvs):.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 4. Parity decoder
# ---------------------------------------------------------------------------


def test_criterion_4_gl_decoder():
    n = 64
    rng = rng_from_seed(1005)
    noisy_hits = 0
    for run in range(100):
        x = rng.integers(0, 2, size=n, dtype=np.uint8)
        got = gl_decode(parity_oracle(x, 0.2, 2000 + run), n, rng)
        noisy_hits += int(np.array_equal(got, x))
    clean_hits = 0
    for run in range(100):
        x = rng.integers(0, 2, size=n, dtype=np.uint8)
        got = gl_decode(parity_oracle(x, 0.0, 0), n, rng)
        clean_hits += int(np.array_equal(got, x))
    ok = noisy_hits >= 95 and clean_hits >= 99
    report(4, "parity decoder", ok,
           f"noise 0.2: {noisy_hits}/100; noiseless: {clean_hits}/100")
    assert ok


# ---------------------------------------------------------------------------
# 5. Pairwise independence
# ---------------------------------------------------------------------------


def test_criterion_5_pairwise_independence_exhaustive():
    n, m = 6, 3
    inputs = np.array(list(product((0, 1), repeat=n)), dtype=np.uint8)
    values = []
    for h in all_toeplitz_hashes(n, m):
        bits = h.hash_bits(inputs)  # (64, 3)
        values.append(bits[:, 0] * 4 + bits[:, 1] * 2 + bits[:, 2])
    codes = np.array(values)  # (family, 64)
    family_size = codes.shape[0]
    assert family_size == 2 ** (n + 2 * m - 1)
    target = family_size / 2 ** (2 * m)
    ok = True
    for i1 in range(64):
        for i2 in range(i1 + 1, 64):
            joint = np.bincount(codes[:, i1] * 8 + codes[:, i2], minlength=64)
            if not np.all(joint == target):
                ok = False
                break
        if not ok:
            break
    report(5, "pairwise independence", ok,
           f"all input pairs hit every output pair exactly {target:.0f} times")
    assert ok


# ---------------------------------------------------------------------------
# 6. Protocol agreement floors
# ---------------------------------------------------------------------------


def test_criterion_6_agreement_floors():
    rng = rng_from_seed(1006)
    n, ell = 1024, 8  # even window so the half-block argument is exact

    exact_rep = agreement_rate(exact_ip_channel(n), ell, 10_000, rng)
    exact_ok = exact_rep.rate == 1.0

    bounded = bounded_noise_channel(n, ell // 2)
    brep = agreement_rate(bounded, ell, 10_000, rng)
    sigma_b = math.sqrt(max(brep.rate * (1 - brep.rate), 1e-9) / brep.trials)
    cond_ok = brep.rate >= 0.5 - 3 * sigma_b

    n2 = 64
    crep = agreement_rate(constant_channel(n2, 0), ell, 40_000, rng)
    floor = 0.25 * binomial_abs_window(n2, ell, strict=True)
    sigma_c = math.sqrt(max(crep.rate * (1 - crep.rate), 1e-9) / crep.trials)
    floor_ok = crep.rate >= floor - 3 * sigma_c

    ok = exact_ok and cond_ok and floor_ok
    report(
        6,
        "protocol agreement floors",
        ok,
        f"exact={exact_rep.rate:.3f}; bounded-noise rate={brep.rate:.3f}>=0.5-3s; "
        f"constant rate={crep.rate:.3f}>=floor {floor:.3f}-3s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. Amplifier
# ---------------------------------------------------------------------------


def test_criterion_7_amplifier():
    rng = rng_from_seed(1007)
    n, alpha, m = 32, 0.25, 10
    channel = equality_channel(n, alpha)
    matches = 0
    ok_runs = 0
    while ok_runs < 100_000:
        aborted, bit_a, bit_b = hashed_parity_trials(channel, m, 100_000, rng)
        good = ~aborted
        matched = bit_a[good] == bit_b[good]
        take = min(100_000 - ok_runs, good.sum())
        matches += int(matched[:take].sum())
        ok_runs += int(take)
    rate = matches / ok_runs
    sigma = math.sqrt(rate * (1 - rate) / ok_runs + 1e-12)
    agree_ok = rate >= 0.9 - 3 * sigma

    wrapper_runs = 3000
    fails = int(repeat_until_success_batch(channel, alpha, wrapper_runs, rng, m=m)
                .all_failed.sum())
    fail_rate = fails / wrapper_runs
    sigma_f = math.sqrt(max(fail_rate * (1 - fail_rate), 1e-9) / wrapper_runs)
    fail_ok = fail_rate <= math.exp(-5) + 3 * sigma_f

    ok = agree_ok and fail_ok
    report(
        7,
        "amplifier",
        ok,
        f"conditional agreement {rate:.4f} over {ok_runs} non-aborting; "
        f"all-fail {fail_rate:.4f} <= e^-5 + 3s = {math.exp(-5)+3*sigma_f:.4f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Appendix property suite at full size
# ---------------------------------------------------------------------------


def test_criterion_8_appendix_properties():
    check_raz_bound(12)
    check_truncated_abs_sum(20)
    check_multiplicative_distance(
        14, random_events(14, 6, seed=1008), qs=(0.3, 0.55, 0.75, 1.0)
    )
    report(8, "appendix property suite", True,
           "Raz n=12 (all I), truncated |S_n| n=20 (all thresholds), "
           "multiplicative distance n=14: zero violations")


# ---------------------------------------------------------------------------
# 9. Condenser sanity + exchange identity fuzz
# ---------------------------------------------------------------------------


class MaskedViewEstimator(TripletEstimator):
    """A pure estimator that reads only the zero-masked views it is handed."""

    def __init__(self, n):
        self.n = n
        self.w = np.arange(n) % 5 - 2

    def query_masked(self, views, rng):
        return (3 * views.x_plus + views.y_minus) @ self.w


def test_criterion_9_condenser_sanity():
    rng = rng_from_seed(1009)
    n, trials = 4096, 10_000_000
    modulus = math.isqrt(n)
    spec = SvSourceSpec.uniform(n)
    rep = condense_mod_experiment(spec, spec, modulus)
    bound = 10 * math.log2(n) / math.sqrt(n)
    freq_ok = rep.max_prob <= bound
    # sharper sanity: the reference sampler's max bucket frequency is close
    # to the library's exact max bucket probability
    sums = _grouped_signed_sum(np.full(n, 0.5), trials, rng)
    max_freq = np.bincount(sums % modulus, minlength=modulus).max() / trials
    exact_max = rep.max_prob
    close_ok = abs(max_freq - exact_max) < 5 * math.sqrt(exact_max / trials)

    # exchange identity fuzz: zero violations over 1e5 (triplet, seed) votes,
    # for a transcript reader and for an estimator of the masked views alone
    n2 = 64
    channel = exact_ip_channel(n2, leak_inputs=True)
    estimators = (open_transcript_estimator(n2, noise_scale=2.0),
                  MaskedViewEstimator(n2))
    violations = 0
    samples_done = 0
    for trip in range(25):
        t = channel.sample_batch(1, rng)
        R = random_signs(n2, rng, 4000)
        j = int(rng.integers(0, n2))
        for f in estimators:
            split = variant_vote_split(j, t.xs[0], t.ys[0], t, f, 1, R, rng)
            total = {k: a + b for k, (a, b) in split.items()}
            # the r_j = +1 side (index 1) never reads y_j, the -1 side x_j
            if (total["xy"] + total["fx_fy"] != total["fx_y"] + total["x_fy"]
                    or split["xy"][1] != split["x_fy"][1]
                    or split["fx_y"][1] != split["fx_fy"][1]
                    or split["xy"][0] != split["fx_y"][0]
                    or split["x_fy"][0] != split["fx_fy"][0]):
                violations += 1
        samples_done += 4000
    ok = freq_ok and close_ok and violations == 0
    report(
        9,
        "condenser sanity",
        ok,
        f"exact max bucket prob {exact_max:.5f} <= {bound:.3f} "
        f"(sampled {max_freq:.5f}); exchange identity: {violations} violations over "
        f"{samples_done} fuzzed samples",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. Trivial-protocol tightness
# ---------------------------------------------------------------------------


def test_criterion_10_trivial_protocol_tightness():
    rng = rng_from_seed(1010)
    trials = 200_000
    worst = 0.0
    ok = True
    for n in (100, 400):
        for ell in (1, 5, 10):
            ch = constant_channel(n, 0)
            rep = estimate_accuracy(ch, ell, trials, rng)
            exact = binomial_abs_window(n, ell)
            sigma = math.sqrt(exact * (1 - exact) / trials)
            dev = abs(rep.gamma_hat - exact)
            worst = max(worst, dev / sigma if sigma else 0.0)
            if dev > 3 * sigma:
                ok = False
    report(10, "trivial-protocol tightness", ok,
           f"all six (n, ell) combos within 3 sigma (worst {worst:.2f} sigma)")
    assert ok
