import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from noisyip import (
    DimensionMismatch,
    PreconditionViolation,
    rng_from_seed,
    random_signs,
)
from noisyip import condense, open_transcript_estimator, reconstruct
from noisyip.channels import ChannelBatch
from noisyip.reconstruct import (
    EstimatorHandle,
    OffsetParams,
    all_sign_vectors,
    best_laplace_ell,
    brute_force_vote_mean,
    certify_estimator,
    default_num_samples,
    exact_estimator,
    laplace_estimator,
    laplace_lambda,
    offset_pmf,
    offset_vote,
    reconstruct_all,
    reconstruct_bit,
    sample_offset,
    sample_span,
    sample_width,
    span_pmf,
    vote_on_bit,
    width_pmf,
    zero_estimator,
)
from noisyip.signvectors import flip, pack_signs, random_packed, unpack_signs


# ---------------------------------------------------------------------------
# Independent oracle: the staged offset law by direct staged enumeration
# ---------------------------------------------------------------------------


def staged_offset_pmf_oracle(n: int, ell: int) -> dict[int, Fraction]:
    """Brute-force composition of the three stages with exact rationals."""
    params = OffsetParams(n, ell)
    pmf: dict[int, Fraction] = {}
    spans = span_pmf(params.s_values, params.t_values)
    for (s, t), p_st in spans.items():
        for m, p_m in width_pmf(s, t).items():
            p_k = Fraction(1, 2 * m + 3)
            for k in range(-(m + 1), m + 2):
                key = k
                pmf[key] = pmf.get(key, Fraction(0)) + p_st * p_m * p_k
    return {k: v for k, v in pmf.items() if v}


# ---------------------------------------------------------------------------
# Width stage
# ---------------------------------------------------------------------------


def test_width_pmf_example():
    # s=0, t=3: probabilities (3/15, 5/15, 7/15)
    pmf = width_pmf(0, 3)
    assert pmf == {0: Fraction(3, 15), 1: Fraction(5, 15), 2: Fraction(7, 15)}


def test_width_singleton_support():
    rng = rng_from_seed(0)
    assert width_pmf(0, 1) == {0: Fraction(1)}
    assert all(sample_width(0, 1, rng) == 0 for _ in range(20))


def test_width_normalizer_identity_exhaustive():
    # sum_{m=s}^{t-1} (2m+3) == (t-s)(t+s+2) for all s < t <= 60
    for t in range(1, 61):
        for s in range(0, t):
            assert sum(2 * m + 3 for m in range(s, t)) == (t - s) * (t + s + 2)
            assert sum(width_pmf(s, t).values()) == 1


def test_width_inverse_cdf_closed_form_exhaustive():
    # the sampler maps a uniform integer w in [0, Z) to the smallest m with
    # cumulative weight (m+2)^2 - (s+1)^2 > w; check the closed form against
    # direct CDF inversion for every (s, t, w) with t <= 12
    for t in range(1, 13):
        for s in range(0, t):
            z = (t - s) * (t + s + 2)
            for w in range(z):
                closed = math.ceil(math.sqrt(w + 1 + (s + 1) ** 2)) - 2
                direct = next(
                    m for m in range(s, t) if (m + 2) ** 2 - (s + 1) ** 2 >= w + 1
                )
                assert min(max(closed, s), t - 1) == direct


def test_width_sampler_matches_pmf():
    rng = rng_from_seed(1)
    s, t, trials = 2, 9, 200_000
    draws = sample_width(s, t, rng, size=trials)
    assert draws.min() >= s and draws.max() <= t - 1
    pmf = width_pmf(s, t)
    for m, p in pmf.items():
        emp = np.count_nonzero(draws == m) / trials
        assert abs(emp - float(p)) < 4 * math.sqrt(float(p) / trials)


# ---------------------------------------------------------------------------
# Span stage
# ---------------------------------------------------------------------------


def test_span_pmf_example():
    # S={0}, T={2,3} -> probabilities (8/23, 15/23)
    pmf = span_pmf([0], [2, 3])
    assert pmf == {(0, 2): Fraction(8, 23), (0, 3): Fraction(15, 23)}


def test_span_singletons():
    rng = rng_from_seed(2)
    assert sample_span([1], [5], rng) == (1, 5)


def test_span_empirical_matches_exact():
    rng = rng_from_seed(3)
    S, T = range(0, 5), range(7, 13)
    pmf = span_pmf(S, T)
    trials = 1_000_000
    s_arr, t_arr = sample_span(S, T, rng, size=trials)
    for (s, t), p in pmf.items():
        emp = np.count_nonzero((s_arr == s) & (t_arr == t)) / trials
        assert abs(emp - float(p)) < 4 * math.sqrt(float(p) / trials)


def test_span_precondition():
    with pytest.raises(PreconditionViolation):
        span_pmf([3], [2, 4])
    with pytest.raises(PreconditionViolation):
        span_pmf([], [2])


# ---------------------------------------------------------------------------
# Composite offset stage
# ---------------------------------------------------------------------------


def test_offset_pmf_matches_staged_enumeration():
    for n, ell in ((100, 1), (64, 2), (144, 5)):
        closed = offset_pmf(n, ell)
        oracle = staged_offset_pmf_oracle(n, ell)
        assert closed == oracle
        assert sum(closed.values()) == 1


def test_offset_symmetry_zero_mass_and_support():
    for n, ell in ((100, 1), (400, 8)):
        pmf = offset_pmf(n, ell)
        tmax = math.isqrt(n)
        assert pmf[0] > 0
        assert all(-tmax <= k <= tmax for k in pmf)
        for k in pmf:
            assert pmf[k] == pmf[-k]


def test_offset_normalization_all_windows():
    # staged laws sum to 1 (exact rationals) for every admissible window:
    # every n up to 100, and all perfect squares up to 400 (where the
    # window range is largest)
    sizes = list(range(9, 101)) + [144, 225, 324, 400]
    for n in sizes:
        for ell in range(1, math.isqrt(n) - 1):
            assert sum(offset_pmf(n, ell).values()) == 1


def test_offset_sampler_tv_small():
    rng = rng_from_seed(4)
    n, ell, trials = 100, 1, 1_000_000
    draws = sample_offset(n, ell, rng, size=trials)
    pmf = offset_pmf(n, ell)
    tv = Fraction(0)
    counts = {k: int(np.count_nonzero(draws == k)) for k in pmf}
    assert sum(counts.values()) == trials
    tv = 0.5 * sum(
        abs(counts.get(k, 0) / trials - float(p)) for k, p in pmf.items()
    )
    assert tv <= 0.01


def test_offset_precondition():
    with pytest.raises(PreconditionViolation):
        sample_offset(16, 3, rng_from_seed(0))  # ell + 2 > sqrt(16)


# ---------------------------------------------------------------------------
# The vote function
# ---------------------------------------------------------------------------


def test_vote_zero_when_residual_equals_k():
    z = random_signs(8, rng_from_seed(5))
    r = random_signs(8, rng_from_seed(6))
    z_minus = np.delete(z, 3)
    a = int(np.dot(np.delete(z, 3).astype(int), np.delete(r, 3).astype(int))) + 4
    assert offset_vote(4, 3, z_minus, r, a) == 0


def test_vote_perfect_oracle_k0_recovers_bit():
    # a = <z,r> exactly and k = 0: vote = z_i for every r
    rng = rng_from_seed(7)
    z = random_signs(10, rng)
    for r_tuple in product((-1, 1), repeat=10):
        r = np.array(r_tuple, dtype=np.int8)
        a = int(np.dot(z.astype(int), r.astype(int)))
        for i in (0, 4, 9):
            assert offset_vote(0, i, np.delete(z, i), r, a) == z[i]


def test_vote_perfect_oracle_k2_mean_is_minus_half():
    # a = <z,r>, k = 2: vote = -z_i when z_i r_i = 1, else 0, so the
    # exhaustive mean is -z_i / 2
    rng = rng_from_seed(8)
    n = 8
    z = random_signs(n, rng)
    i = 2
    total = Fraction(0)
    for r_tuple in product((-1, 1), repeat=n):
        r = np.array(r_tuple, dtype=np.int8)
        a = int(np.dot(z.astype(int), r.astype(int)))
        v = offset_vote(2, i, np.delete(z, i), r, a)
        if z[i] * r[i] == 1:
            assert v == -z[i]
        else:
            assert v == 0
        total += Fraction(int(v), 2**n)
    assert total == Fraction(-int(z[i]), 2)


def test_vote_range_fuzz():
    rng = rng_from_seed(9)
    n = 20
    for _ in range(500):
        z = random_signs(n, rng)
        r = random_signs(n, rng)
        i = int(rng.integers(0, n))
        a = int(rng.integers(-n, n + 1))
        k = int(rng.integers(-10, 11))
        assert offset_vote(k, i, np.delete(z, i), r, a) in (-1, 0, 1)


def test_vote_range_fuzz_vectorized_million():
    # 10^6 random (residual, offset, r_i) combinations stay in {-1, 0, 1}
    from noisyip.reconstruct import _vote_values

    rng = rng_from_seed(90)
    m = 1_000_000
    residuals = rng.integers(-64, 65, size=m)
    ks = rng.integers(-20, 21, size=m)
    r_i = 1 - 2 * rng.integers(0, 2, size=m)
    votes = _vote_values(residuals, ks, r_i)
    assert set(np.unique(votes)) <= {-1, 0, 1}


def test_vote_on_bit_output_range():
    rng = rng_from_seed(10)
    z = random_signs(100, rng)
    for _ in range(200):
        r = random_signs(100, rng)
        a = int(rng.integers(-100, 101))
        assert vote_on_bit(5, np.delete(z, 5), r, a, 1, rng) in (-1, 0, 1)


# ---------------------------------------------------------------------------
# Estimator handles and certification
# ---------------------------------------------------------------------------


def test_handle_clips_and_counts():
    n = 8

    def wild(R):
        return np.full(R.shape[0], 1000, dtype=np.int64)

    h = EstimatorHandle.from_signs(wild, n=n)
    R = random_signs(n, rng_from_seed(11), 5)
    assert np.all(h.query_batch(R) == n)
    assert h.query_count == 5


def test_laplace_handle_is_a_fixed_function():
    # the noise is keyed by the query, so the same r gets the same answer
    # at every size, through the sign and the packed interfaces alike
    from noisyip.signvectors import pack_signs

    rng = rng_from_seed(12)
    for n in (12, 256):
        z = random_signs(n, rng)
        f = laplace_estimator(z, 2.0, rng)
        R = random_signs(n, rng, 50)
        first = f.query_batch(R)
        assert len(set(first - R.astype(np.int64) @ z)) > 1  # noise is on
        for _ in range(10):
            assert all(f.query(R[j]) == first[j] for j in range(3))
            assert np.array_equal(f.query_packed(pack_signs(R)), first)
            assert np.array_equal(f.query_batch(R[::-1]), first[::-1])


def test_packed_and_sign_paths_agree_for_deterministic_estimators():
    rng = rng_from_seed(13)
    z = random_signs(130, rng)
    f = exact_estimator(z)
    R = random_signs(130, rng, 64)
    from noisyip.signvectors import pack_signs

    assert np.array_equal(f.query_batch(R), f.query_packed(pack_signs(R)))


def test_certify_exact_estimator():
    rng = rng_from_seed(14)
    z = random_signs(49, rng)
    prof = certify_estimator(exact_estimator(z), z, 3, 2000, rng)
    assert prof.success_rate == 1.0
    assert prof.lambda_hat == pytest.approx(7.0 / 3.0)


def test_certify_zero_estimator_against_binomial_oracle():
    # the trivial estimator is a (lambda, ell)-estimator for a small
    # constant lambda; its exact rate is the central binomial window mass
    rng = rng_from_seed(15)
    n, ell = 30, 3
    z = random_signs(n, rng)
    trials = 200_000
    prof = certify_estimator(zero_estimator(n), z, ell, trials, rng)
    exact = sum(
        Fraction(math.comb(n, ones), 2**n)
        for ones in range(n + 1)
        if abs(2 * ones - n) < ell
    )
    sigma = math.sqrt(float(exact) * (1 - float(exact)) / trials)
    assert abs(prof.success_rate - float(exact)) < 4 * sigma
    assert prof.lambda_hat < 2.0  # small constant at this window


@pytest.mark.parametrize("scale", [-1.0, math.nan, 2.0**47, 2e300])
def test_laplace_estimator_rejects_a_scale_outside_the_exact_range(scale):
    with pytest.raises(ValueError, match="eps"):
        laplace_estimator(random_signs(8, rng_from_seed(1)), scale, rng_from_seed(2))


def test_certify_laplace_estimator_matches_exact_oracle():
    rng = rng_from_seed(16)
    n, ell, scale = 1024, 6, 2.0
    z = random_signs(n, rng)
    trials = 100_000
    prof = certify_estimator(laplace_estimator(z, scale, rng), z, ell, trials, rng)
    exact_rate = 1 - math.exp(-(ell - 0.5) / scale)
    sigma = math.sqrt(exact_rate * (1 - exact_rate) / trials)
    assert abs(prof.success_rate - exact_rate) < 4 * sigma
    assert prof.lambda_hat == pytest.approx(
        laplace_lambda(n, ell, scale), abs=4 * sigma * math.sqrt(n) / ell
    )


def test_best_laplace_ell_is_argmax():
    n, scale = 1024, 2.0
    ell = best_laplace_ell(n, scale)
    values = {e: laplace_lambda(n, e, scale) for e in range(1, 31)}
    assert values[ell] == max(values.values())


# ---------------------------------------------------------------------------
# Brute-force oracle and reconstruction
# ---------------------------------------------------------------------------


def test_brute_force_exact_oracle_sign_and_closed_form():
    # with the perfect estimator the exact vote mean is z_i * (P[0] - P[2])
    rng = rng_from_seed(17)
    for n in (9, 12):
        z = random_signs(n, rng)
        f = exact_estimator(z)
        pmf = offset_pmf(n, 1)
        expected_mag = pmf[0] - pmf.get(2, Fraction(0))
        for i in range(n):
            mu = brute_force_vote_mean(i, z, f, 1)
            assert mu == int(z[i]) * expected_mag
            assert (mu > 0) == (z[i] > 0)


def test_vote_margin_bound_nonvacuous_at_exact_estimator():
    # the analysis guarantees z_i * E[vote] >= lambda / (8 n^1.5) for most
    # indices; with the perfect estimator at n = 12 the certified quality is
    # lambda_hat = sqrt(n)/ell and the bound holds for every index
    rng = rng_from_seed(170)
    n, ell = 12, 1
    z = random_signs(n, rng)
    f = exact_estimator(z)
    lam = math.sqrt(n) / ell  # success rate is exactly 1
    floor = lam / (8 * n**1.5)
    for i in range(n):
        mu = brute_force_vote_mean(i, z, f, ell)
        assert int(z[i]) * float(mu) >= floor


def test_brute_force_zero_estimator_is_exactly_zero():
    rng = rng_from_seed(18)
    n = 12
    z = random_signs(n, rng)
    f = zero_estimator(n)
    for i in (0, 3, 11):
        assert brute_force_vote_mean(i, z, f, 1) == 0


def test_brute_force_rejects_large_n():
    z = random_signs(17, rng_from_seed(19))
    with pytest.raises(PreconditionViolation):
        brute_force_vote_mean(0, z, exact_estimator(z), 1)


def test_monte_carlo_matches_brute_force_within_4_sigma():
    rng = rng_from_seed(20)
    n, ell = 12, 1
    z = random_signs(n, rng)
    f = laplace_estimator(z, 2.0, rng)  # a fixed noisy table
    i = 4
    mu = float(brute_force_vote_mean(i, z, f, ell))
    trials = 150_000
    R = all_sign_vectors(n)
    draws = rng.integers(0, 2**n, size=trials)
    rs = R[draws]
    answers = f.query_batch(rs)
    z0 = z.astype(np.int64).copy()
    z0[i] = 0
    residuals = answers - rs.astype(np.int64) @ z0
    ks = sample_offset(n, ell, rng, size=trials)
    from noisyip.reconstruct import _vote_values

    votes = _vote_values(residuals, ks, rs[:, i].astype(np.int64))
    emp = votes.mean()
    sigma = votes.std() / math.sqrt(trials)
    assert abs(emp - mu) < 4 * sigma


def test_reconstruct_bit_perfect_oracle():
    rng = rng_from_seed(21)
    n = 64
    z = random_signs(n, rng)
    f = exact_estimator(z)
    for i in (0, 17, 63):
        assert reconstruct_bit(i, np.delete(z, i), f, 2, 4000, rng) == z[i]


def test_reconstruct_bit_packed_path_with_padded_width():
    # n = 70 exercises the pad-bit masking of the packed fast path end to end
    rng = rng_from_seed(210)
    n = 70
    z = random_signs(n, rng)
    f = exact_estimator(z)
    for i in (0, 63, 64, 69):
        assert reconstruct_bit(i, np.delete(z, i), f, 2, 20_000, rng) == z[i]


def test_sign_and_packed_pipelines_statistically_consistent():
    # a sign-valued estimator wrapped by from_signs (its queries unpacked)
    # answers exactly like the built-in packed one and recovers every bit
    rng = rng_from_seed(211)
    n = 48
    z = random_signs(n, rng)
    fast = exact_estimator(z)

    def batch(R):
        return R.astype(np.int64) @ z.astype(np.int64)

    slow = EstimatorHandle.from_signs(batch, n=n)
    R = random_signs(n, rng, 500)
    assert np.array_equal(slow.query_batch(R), fast.query_batch(R))
    for i in (0, 23, 47):
        a = reconstruct_bit(i, np.delete(z, i), fast, 2, 20_000, rng)
        b = reconstruct_bit(i, np.delete(z, i), slow, 2, 20_000, rng)
        assert a == b == z[i]


def test_reconstruct_bit_exact_tie_is_minus_one():
    # an estimator whose answers sit far outside every admissible offset
    # produces all-zero votes, so the empirical mean is exactly 0 and the
    # tie convention sign(0) = -1 fires deterministically
    rng = rng_from_seed(22)
    n = 32
    z = random_signs(n, rng)

    def far(R):
        return np.full(R.shape[0], n, dtype=np.int64)  # clipped to n >> sqrt(n)

    f = EstimatorHandle.from_signs(far, n=n)
    for i in (0, 15):
        assert reconstruct_bit(i, np.delete(z, i), f, 2, 1000, rng) == -1


def test_reconstruct_bit_zero_estimator_is_coin_flip_not_bias():
    # f = 0 has exact vote mean 0 (see the brute-force test); the finite
    # sample mean is a symmetric random walk, so per-bit outputs are fair
    # coins rather than a deterministic value
    rng = rng_from_seed(220)
    n = 128
    z = random_signs(n, rng)
    f = zero_estimator(n)
    outs = [reconstruct_bit(i, np.delete(z, i), f, 2, 501, rng) for i in range(n)]
    rate_minus = np.mean(np.array(outs) == -1)
    assert 0.3 < rate_minus < 0.7


def test_reconstruct_all_perfect_oracle_and_query_accounting():
    # every bit shares one batch of num queries
    rng = rng_from_seed(23)
    n = 32
    z = random_signs(n, rng)
    f = exact_estimator(z)
    num = 2000
    res = reconstruct_all(z, f, 2, num, rng)
    assert res.frac_correct == 1.0
    assert res.queries == num


def test_reconstruct_all_packed_path_with_padded_width():
    # n = 70 leaves 58 pad bits in the last lane of every shared query
    rng = rng_from_seed(212)
    n = 70
    z = random_signs(n, rng)
    res = reconstruct_all(z, exact_estimator(z), 2, 1000, rng)
    assert res.frac_correct == 1.0
    assert res.queries == 1000


def test_reconstruct_all_zero_estimator_is_trivial():
    # against a uniform database the trivial estimator recovers about half
    # the bits on average over seeds: the guesses carry no signal (one run's
    # fraction is noisy, since the bits share queries and their coins are
    # correlated)
    n = 128
    fracs = []
    for seed in range(50):
        rng = rng_from_seed(2400 + seed)
        z = random_signs(n, rng)
        fracs.append(reconstruct_all(z, zero_estimator(n), 2, 501, rng).frac_correct)
    assert 0.4 < np.mean(fracs) < 0.6


def test_reconstruct_threads_do_not_change_results():
    # 1,300 queries make three chunks (two full, one partial)
    n = 24
    z = random_signs(n, rng_from_seed(26))

    def noisy(z):
        return laplace_estimator(z, 1.0, rng_from_seed(27))

    for make in (exact_estimator, noisy):
        rng1 = rng_from_seed(25)
        rng2 = rng_from_seed(25)
        res1 = reconstruct_all(z, make(z), 2, 1300, rng1, threads=1)
        res2 = reconstruct_all(z, make(z), 2, 1300, rng2, threads=3)
        assert np.array_equal(res1.guess, res2.guess)
        assert res1.queries == res2.queries == 1300


def _totals(f, z, cols, ell, queries, rng):
    """The vote loop's totals of the one database z at the one window ell."""
    pair = (f, pack_signs(z)[0])
    return reconstruct._vote_totals([pair], cols, [ell], queries, rng)[0, 0]


@pytest.mark.parametrize("n", [9, 16])
def test_vote_kernel_exhaustive_total_is_brute_force_mean(n, monkeypatch):
    # fed all 2^n queries as one chunk, the kernel's integer totals divided
    # by D * 2^n are exactly the oracle's expected vote, for every window
    rng = rng_from_seed(213 + n)
    z = random_signs(n, rng)
    P = pack_signs(all_sign_vectors(n))
    monkeypatch.setattr(reconstruct, "_CHUNK_ROWS", 2**n)
    monkeypatch.setattr(reconstruct, "random_packed", lambda n, size, rng: P)
    estimators = (exact_estimator(z), zero_estimator(n), laplace_estimator(z, 1.5, rng))
    # the triplet attack: f read through the views of a size-1 triplet batch
    # with x*y = z, at noise 0 and 2, scored by the shared vote loop on all
    # 2^n queries; the oracle asks the same f through its own handle
    x = random_signs(n, rng)
    y = x * z
    ip = np.array([np.dot(x.astype(np.int64), y)])
    px, py = pack_signs(x), pack_signs(y)
    t = ChannelBatch(n, px, py, ip, {"x": x[None], "y": y[None]})
    triplet = [open_transcript_estimator(n, noise) for noise in (0.0, 2.0)]
    oracles = [
        EstimatorHandle(
            lambda Q, g=g: g.query_masked(condense._triplet_views(Q, px, py, t), rng), n
        )
        for g in triplet
    ]
    for ell in range(1, math.isqrt(n) - 1):
        denom = math.lcm(*(p.denominator for p in offset_pmf(n, ell).values()))
        for f in estimators:
            totals = _totals(f, z, slice(None), ell, 2**n, rng)
            for i in (0, 3, n - 1):
                assert Fraction(int(totals[i]), denom * 2**n) == (
                    brute_force_vote_mean(i, z, f, ell)
                )
        for g, oracle in zip(triplet, oracles):
            for j in (0, 3, n - 1):
                pair = (condense._pair_estimator(px, py, t, g, rng), (px ^ py)[0])
                total = reconstruct._vote_totals([pair], [j], [ell], 2**n, rng)[0, 0, 0]
                assert Fraction(int(total), denom * 2**n) == (
                    brute_force_vote_mean(j, z, oracle, ell)
                )


def test_reconstruct_all_spawns_chunk_streams_lazily():
    # the default budget at n=128 is 262,144 chunks; streams are spawned as
    # chunks are submitted, so an estimator that fails on its first query
    # leaves almost all of them unspawned
    n = 128

    def fail(P):
        raise RuntimeError("estimator failed")

    for threads in (1, 2):
        rng = rng_from_seed(17)
        z = random_signs(n, rng)
        with pytest.raises(RuntimeError):
            reconstruct_all(
                z, EstimatorHandle(fail, n), 1, default_num_samples(n), rng, threads
            )
        assert rng.bit_generator.seed_seq.n_children_spawned <= 8 * threads


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_residual_kernel_is_the_masked_int64_product(n, monkeypatch):
    # p + z_c r_c, with p = a - <z,r>, is for every column c the residual
    # against the database with entry c zeroed; and the two-read vote sums
    # equal the per-element scoring (T[res + 2n] * r_c).sum(axis=0) on the
    # unpadded table, here for an arbitrary padded table of two windows
    rng = rng_from_seed(230 + n)
    z = random_signs(n, rng)
    P = random_packed(n, 300, rng)
    R = unpack_signs(P, n)
    a = rng.integers(-n, n + 1, size=300)
    p = reconstruct._residuals(a, P, pack_signs(z)[0], n)
    assert p.dtype == np.int64
    residuals = p[:, None] + R * z
    for c in range(n):
        z0 = z.astype(np.int64)
        z0[c] = 0
        assert np.array_equal(residuals[:, c], a - R.astype(np.int64) @ z0)
    T = rng.integers(-10**6, 10**6, size=(2, 4 * n + 3))
    monkeypatch.setattr(reconstruct, "_expected_vote_table", lambda n, ells: T)
    for cols in ([n - 1, 0], slice(None)):
        totals = reconstruct._vote_sums(p, R[:, cols], z[cols], n, (1, 2))
        old = [(T[w, 1:-1][residuals[:, cols] + 2 * n] * R[:, cols]).sum(axis=0)
               for w in range(2)]
        assert totals.dtype == np.int64
        assert np.array_equal(totals, old)


@pytest.mark.parametrize("c", [129055, 129057, 2**53 // 65],
                         ids=["below_2^24", "above_2^24", "above_2^53"])
def test_vote_sums_are_exact_at_the_float_switch(c, monkeypatch):
    # T = c or c - 1 by index // 2 % 2 makes every w = T[p+1] + T[p-1] equal
    # 2c - 1, so over 65 queries sum|w| = 65 (2c - 1): 2^24 - 131 (float32),
    # 2^24 + 129 (float64; the all-(+1) column's odd sum is not a float32,
    # so a plain float32 product rounds it) and >= 2^53, which is refused
    n, rows = 8, 65
    rng = rng_from_seed(280)
    T = c - (np.arange(4 * n + 3) // 2 % 2)[None, :]
    monkeypatch.setattr(reconstruct, "_expected_vote_table", lambda n, ells: T)
    p = rng.integers(-2 * n, 2 * n + 1, size=rows)
    R = unpack_signs(random_packed(n, rows, rng), n)
    R[:, 0] = 1
    z = random_signs(n, rng)
    hi, lo = T[:, p + 2 * n + 2], T[:, p + 2 * n]
    w = hi + lo
    assert np.all(w == 2 * c - 1)
    if rows * (2 * c - 1) >= 2**53:
        with pytest.raises(PreconditionViolation):
            reconstruct._vote_sums(p, R, z, n, (1,))
        return
    exact = w @ R.astype(np.int64)
    if c > 2**24 // (2 * rows):
        assert exact[0, 0] > 2**24
        assert (w.astype(np.float32) @ R.astype(np.float32))[0, 0] != exact[0, 0]
    totals = reconstruct._vote_sums(p, R, z, n, (1,))
    assert totals.dtype == np.int64
    assert np.array_equal(totals, (np.multiply.outer((hi - lo).sum(axis=1), z) + exact) // 2)


def test_vote_totals_reach_both_ends_of_the_padded_table(monkeypatch):
    # f = -<z,r> puts p = a - <z,r> = -2<z,r> at both -2n and 2n (r = +-z), so
    # the vote sums read the table at -2n-1 and 2n+1; over all 2^n queries in
    # one chunk the totals divided by D * 2^n are the oracle's expected vote
    # for every column and every window
    n = 9
    z = random_signs(n, rng_from_seed(270))
    P = pack_signs(all_sign_vectors(n))
    monkeypatch.setattr(reconstruct, "_CHUNK_ROWS", 2**n)
    monkeypatch.setattr(reconstruct, "random_packed", lambda n, size, rng: P)
    f = EstimatorHandle.from_signs(lambda R: -(R @ z.astype(np.int64)), n)
    for ell in range(1, math.isqrt(n) - 1):
        denom = math.lcm(*(p.denominator for p in offset_pmf(n, ell).values()))
        totals = _totals(f, z, slice(None), ell, 2**n, rng_from_seed(271))
        for i in range(n):
            assert Fraction(int(totals[i]), denom * 2**n) == (
                brute_force_vote_mean(i, z, f, ell)
            )


@pytest.mark.parametrize("n, queries", [(9, 2**9), (63, 1300), (64, 1300),
                                        (65, 1300), (130, 1300)])
def test_vote_totals_never_depend_on_the_attacked_bit(n, queries, monkeypatch):
    # the no-peeking guarantee: flipping z_i leaves column i's totals as
    # they were, on the same estimator and queries, for every i; n = 9 asks
    # all 2^9 queries in one chunk, 1,300 queries make three chunks
    if queries == 2**n:
        P = pack_signs(all_sign_vectors(n))
        monkeypatch.setattr(reconstruct, "_CHUNK_ROWS", 2**n)
        monkeypatch.setattr(reconstruct, "random_packed", lambda n, size, rng: P)
    z = random_signs(n, rng_from_seed(240 + n))
    ell = 1 if n < 16 else 2
    negated = EstimatorHandle.from_signs(lambda R: -(R @ z.astype(np.int64)), n)
    for f in (exact_estimator(z), laplace_estimator(z, 1.5, rng_from_seed(250)),
              negated):
        totals = _totals(f, z, slice(None), ell, queries, rng_from_seed(260))
        for i in range(n):
            flipped = _totals(f, flip(z, i), [i], ell, queries, rng_from_seed(260))
            assert flipped[0] == totals[i], i


@pytest.mark.parametrize("n, kind, digest", [
    (64, "exact", "3324f993ff63cc8b9966737a8e348bca906463f33a601ceed26deb0205ff3a2b"),
    (64, "laplace", "a9d58a52112d9fc2d8c4a46768750f74713b0bad068ea0d8681d1334f51ec0c2"),
    (130, "exact", "2e2a960b1271dbf546f563636068628de02dff3ec291078df300ed0b2906837d"),
    (130, "laplace", "688aaea00add63913824e8615ea3db3651e4315a87021a0ccdbc9713f01928f7"),
])
def test_vote_totals_are_pinned(n, kind, digest):
    # the int64 totals of 1,300 queries at window 2, as the float32 GEMM
    # kernel computed them before the rank-one kernel replaced it
    rng = rng_from_seed(300 + n)
    z = random_signs(n, rng)
    f = exact_estimator(z) if kind == "exact" else laplace_estimator(z, 2.0, rng)
    totals = _totals(f, z, slice(None), 2, 1300, rng)
    assert totals.dtype == np.int64
    assert hashlib.sha256(totals.tobytes()).hexdigest() == digest


def test_reconstruct_bit_validates_its_inputs():
    # lanes keep only the sign, so a 0 or 2 entry must be refused, not read
    # as +1; the index must address one of the n bits, and z_minus_i must
    # hold the other n - 1 (60 signs pack to f's one lane at n = 62)
    n = 62
    f = zero_estimator(n)
    rng = rng_from_seed(0)
    for bad in (np.full(n - 1, 2), np.r_[np.ones(n - 2), 0]):
        with pytest.raises(ValueError, match="must all be"):
            reconstruct_bit(0, bad, f, 1, 10, rng)
    z_minus_i = np.ones(n - 1, dtype=np.int8)
    for i in (-1, n, n + 5):
        with pytest.raises(PreconditionViolation):
            reconstruct_bit(i, z_minus_i, f, 1, 10, rng)
    for z_rest in (z_minus_i[1:], np.ones(n, dtype=np.int8)):
        with pytest.raises(DimensionMismatch):
            reconstruct_bit(0, z_rest, f, 1, 10, rng)
    # reconstruct_all refuses a database whose lanes f cannot match
    for m in (10, 60, 70):
        with pytest.raises(DimensionMismatch):
            reconstruct_all(np.ones(m, dtype=np.int8), f, 1, 10, rng)
    assert f.query_count == 0
    assert reconstruct_bit(n - 1, z_minus_i, f, 1, 10, rng) in (-1, 1)


def test_default_num_samples():
    assert default_num_samples(10) == 64_000
