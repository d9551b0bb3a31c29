import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from noisyip import (
    ABORT,
    EveParams,
    PreconditionViolation,
    SvSourceSpec,
    UnsupportedModel,
    condense_mod_experiment,
    constant_channel,
    eve_distinguisher,
    exact_ip_channel,
    flip_distinguisher,
    open_transcript_estimator,
    reconstruct_product_bit,
    rng_from_seed,
    search_eve_params,
    seeded_condense_experiment,
    v_hat_grid,
)
from noisyip import condense, exact_estimator, reconstruct, reconstruct_bit
from noisyip.condense import (
    ScalarTripletEstimator,
    TripletEstimator,
    variant_vote_split,
)
from noisyip.cli import main
from noisyip.rng import spawn_rngs
from noisyip.signvectors import flip, pack_signs, random_signs, unpack_bits


class ZeroTripletEstimator(TripletEstimator):
    def __init__(self, n):
        self.n = n

    def query_masked(self, views, rng):
        return np.zeros(len(views.outs), dtype=np.int64)


def open_triplet(n, seed):
    t = exact_ip_channel(n, leak_inputs=True).sample_batch(1, rng_from_seed(seed))
    return t.xs[0], t.ys[0], t


# ---------------------------------------------------------------------------
# Product-bit reconstruction over triplets
# ---------------------------------------------------------------------------


def test_rec_exact_estimator_recovers_every_product_bit():
    n = 36
    x, y, t = open_triplet(n, 0)
    f = open_transcript_estimator(n)
    rng = rng_from_seed(1)
    for j in range(n):
        got = reconstruct_product_bit(j, x, y, t, f, 1, 20_000, rng)
        assert got == int(x[j]) * int(y[j])


def test_rec_deterministic_under_fixed_seed():
    n = 25
    x, y, t = open_triplet(n, 2)
    f = open_transcript_estimator(n, noise_scale=2.0)
    a = reconstruct_product_bit(3, x, y, t, f, 1, 5000, rng_from_seed(5))
    b = reconstruct_product_bit(3, x, y, t, f, 1, 5000, rng_from_seed(5))
    assert a == b


def test_open_transcript_noise_is_keyed_by_the_lanes_of_minus_r(monkeypatch):
    from noisyip.rng import keyed_uniform01
    from noisyip.signvectors import pack_bits
    from noisyip.sources import rounded_laplace

    for bad in (-1.0, -1e-300, math.nan, 2.0**47):
        with pytest.raises(ValueError, match="eps"):
            open_transcript_estimator(8, noise_scale=bad)
    n = 70
    x, y, t = open_triplet(n, 3)
    pr = pack_signs(random_signs(n, rng_from_seed(4), 40))
    views = condense._triplet_views(pr, pack_signs(x), pack_signs(y), t)
    exact = open_transcript_estimator(n).query_masked(views, None)
    assert np.array_equal(exact, views.R.astype(np.int64) @ (x * y))
    noisy = open_transcript_estimator(n, noise_scale=2.0).query_masked(views, None)
    u = keyed_uniform01(pack_bits(views.R > 0), 7)
    assert np.array_equal(noisy - exact, rounded_laplace(u, 2.0))

    def no_noise(*args):
        raise AssertionError("scale 0 computed keyed uniforms")

    monkeypatch.setattr(condense, "keyed_uniform01", no_noise)
    assert np.array_equal(open_transcript_estimator(n).query_masked(views, None), exact)


def test_open_transcript_estimator_reads_lanes_only():
    # one popcount of the leaked lanes: no mask or restricted sign row is built
    n = 70
    x, y, t = open_triplet(n, 3)
    pr = pack_signs(random_signs(n, rng_from_seed(4), 40))
    views = condense._triplet_views(pr, pack_signs(x), pack_signs(y), t)
    got = open_transcript_estimator(n).query_masked(views, None)
    assert not {"R", "x_plus", "y_minus"} & set(vars(views))
    assert np.array_equal(got, views.R.astype(np.int64) @ (x * y))


def test_rec_success_floor_on_certified_good_estimators():
    # Monte Carlo success over (j, triplet) with 95% confidence margin.
    # The analysis-level precondition constant (a rate >= 1024 e^eps ell /
    # sqrt(n)) is unsatisfiable below n ~ 10^6, so the floor is exercised
    # with the best realizable estimator (rate 1: the exact reader) and a
    # noisy one with positive margin.
    rng = rng_from_seed(3)
    n = 64
    f = open_transcript_estimator(n)
    trials, hits = 0, 0
    for s in range(40):
        x, y, t = open_triplet(n, 100 + s)
        j = int(rng.integers(0, n))
        got = reconstruct_product_bit(j, x, y, t, f, 1, 30_000, rng)
        hits += int(got == int(x[j]) * int(y[j]))
        trials += 1
    rate = hits / trials
    assert rate - 1.96 * math.sqrt(rate * (1 - rate) / trials + 1e-12) >= 0.75


# ---------------------------------------------------------------------------
# Exchange (rhombus) identity
# ---------------------------------------------------------------------------


class MaskedViewEstimator(TripletEstimator):
    """A pure estimator that reads only the zero-masked views it is handed."""

    def __init__(self, n):
        self.n = n
        self.w = np.arange(n) % 3 + 1

    def query_masked(self, views, rng):
        return (views.x_plus - 2 * views.y_minus) @ self.w


def scalar_view_reader(views, rng):
    """A pure estimator of the restricted views alone, one query at a time
    on the restrictions x[r == 1] and y[r == -1]."""
    w = np.arange(views.R.shape[1]) % 3 + 1
    return [int(xp[r == 1].astype(int) @ w[r == 1]
                - 2 * ym[r == -1].astype(int) @ w[r == -1])
            for r, xp, ym in zip(views.R, views.x_plus, views.y_minus)]


# keyed by test id; the transcript readers keep their noise-scale ids
RHOMBUS_ESTIMATORS = {
    "0.0": lambda n: open_transcript_estimator(n),
    "2.0": lambda n: open_transcript_estimator(n, noise_scale=2.0),
    "scalar-views": lambda n: ScalarTripletEstimator(scalar_view_reader, n),
    "masked-views": MaskedViewEstimator,
}


@pytest.mark.parametrize("name", list(RHOMBUS_ESTIMATORS))
def test_rhombus_identity_exact_per_sample(name):
    n = 40
    x, y, t = open_triplet(n, 4)
    f = RHOMBUS_ESTIMATORS[name](n)
    rng = rng_from_seed(5)
    moved = False
    for j in (0, 7, 39):
        R = random_signs(n, rng, 500)
        split = variant_vote_split(j, x, y, t, f, 1, R, rng)
        total = {k: a + b for k, (a, b) in split.items()}
        assert total["xy"] + total["fx_fy"] == total["fx_y"] + total["x_fy"]
        # the r_j = +1 side (index 1) sees x_j but never y_j
        assert split["xy"][1] == split["x_fy"][1]
        assert split["fx_y"][1] == split["fx_fy"][1]
        # the r_j = -1 side (index 0) sees y_j but never x_j
        assert split["xy"][0] == split["fx_y"][0]
        assert split["x_fy"][0] == split["fx_fy"][0]
        moved |= split["xy"] != split["fx_fy"]
    # a view-reading estimator does react to x_j and y_j, so the asserts
    # above are not vacuous for it
    assert moved == name.endswith("views")


# ---------------------------------------------------------------------------
# Flip distinguishers
# ---------------------------------------------------------------------------


def test_distinguisher_exact_oracle_case_analysis():
    # with a perfect estimator, pattern 1 on the x half fires on the real
    # pair (the reconstruction sees through the flip) and stays silent on
    # the flipped pair
    n = 32
    x, y, t = open_triplet(n, 6)
    f = open_transcript_estimator(n)
    rng = rng_from_seed(7)
    for i in (0, 5, 31):
        real = flip_distinguisher(1, i, x, y, t, f, 1, 20_000, rng)
        assert real == 1
        xf = x.copy()
        xf[i] = -xf[i]
        flipped = flip_distinguisher(1, i, xf, y, t, f, 1, 20_000, rng)
        assert flipped == 0


def test_distinguisher_suppressed_half_outputs_zero():
    n = 16
    x, y, t = open_triplet(n, 8)
    f = open_transcript_estimator(n)
    rng = rng_from_seed(9)
    assert flip_distinguisher(1, n + 3, x, y, t, f, 2, 100, rng) == 0
    assert flip_distinguisher(2, 3, x, y, t, f, 2, 100, rng) == 0
    assert flip_distinguisher(3, n + 3, x, y, t, f, 2, 100, rng) == 0


def test_distinguisher_output_range():
    n = 16
    x, y, t = open_triplet(n, 10)
    f = ZeroTripletEstimator(n)
    rng = rng_from_seed(11)
    for d in (1, 2, 3):
        for i in (0, 3, n + 1):
            assert flip_distinguisher(d, i, x, y, t, f, 2, 200, rng) in (0, 1)
    with pytest.raises(ValueError):
        flip_distinguisher(4, 0, x, y, t, f, 2, 10, rng)


# ---------------------------------------------------------------------------
# Abort-gated distinguisher
# ---------------------------------------------------------------------------


def test_eve_never_aborts_on_exact_estimator_with_zero_threshold():
    n = 36
    x, y, t = open_triplet(n, 12)
    f = open_transcript_estimator(n)
    rng = rng_from_seed(13)
    params = EveParams(ell_hat=2, v_hat=0.0, d=1)
    for i in (0, 10, n + 5):
        assert eve_distinguisher(params, i, x, y, t, f, 500, rng) is not ABORT


def test_eve_always_aborts_at_threshold_one():
    n = 36
    x, y, t = open_triplet(n, 14)
    f = open_transcript_estimator(n)
    rng = rng_from_seed(15)
    params = EveParams(ell_hat=2, v_hat=1.0, d=1)
    assert eve_distinguisher(params, 3, x, y, t, f, 500, rng) is ABORT


def test_eve_abort_decision_invariant_to_flipping_bit_i():
    n = 36
    x, y, t = open_triplet(n, 16)
    f = open_transcript_estimator(n, noise_scale=1.0)
    for i in (0, 7, n + 2, 2 * n - 1):
        for v_hat in (0.2, 0.5, 0.9):
            params = EveParams(ell_hat=2, v_hat=v_hat, d=1)
            j = i if i < n else i - n
            if i < n:
                xf, yf = x.copy(), y
                xf = x.copy()
                xf[j] = -xf[j]
                pair_f = (xf, y)
            else:
                yf = y.copy()
                yf[j] = -yf[j]
                pair_f = (x, yf)
            out_real = eve_distinguisher(
                params, i, x, y, t, f, 400, rng_from_seed(1000 + i)
            )
            out_flip = eve_distinguisher(
                params, i, *pair_f, t, f, 400, rng_from_seed(1000 + i)
            )
            assert (out_real is ABORT) == (out_flip is ABORT)


def test_eve_params_validation():
    with pytest.raises(ValueError):
        EveParams(ell_hat=2, v_hat=0.1, d=4)
    with pytest.raises(ValueError):
        EveParams(ell_hat=2, v_hat=-0.5, d=1)


# ---------------------------------------------------------------------------
# Parameter search
# ---------------------------------------------------------------------------


def test_grid_shape():
    grid = v_hat_grid(64, 1, 0.0, c_eps=1.0)
    assert grid[0] == pytest.approx(1 / 32)
    assert grid[-1] <= 1 / 16 + 1e-12
    step = 1 / (8 * math.log2(64) ** 3)
    assert np.allclose(np.diff(grid), step)


def test_capped_grid_is_the_full_grid_subsampled():
    # the search's cap keeps evenly spread points, computed without the rest
    for eps in (0.0, 0.3, 1.0, 2.0):
        grid = v_hat_grid(64, 2, eps)
        for cap in (1, 3, 8, len(grid), len(grid) + 5):
            keep = np.unique(np.linspace(0, len(grid) - 1, cap).astype(int))
            expected = grid if cap >= len(grid) else grid[keep]
            assert np.array_equal(v_hat_grid(64, 2, eps, cap=cap), expected)
    # at most 2^53 points, and a size past float range is refused too
    assert len(v_hat_grid(64, 1, 8.0, cap=8)) == 8
    for eps in (10.0, 177.0, 178.0, math.inf):
        with pytest.raises(PreconditionViolation, match="2\\^53"):
            v_hat_grid(64, 1, eps, cap=8)


def test_search_positive_gap_on_open_channel():
    rng = rng_from_seed(17)
    n = 64
    channel = exact_ip_channel(n, leak_inputs=True)
    f = open_transcript_estimator(n)
    report = search_eve_params(
        channel, f, ell=1, eps=0.0, budget=3_000_000, rng=rng,
        num_triplets=32, grid_cap=3, ell_hat_candidates=(2,),
    )
    assert report.gap > 0
    grid = v_hat_grid(n, 1, 0.0, c_eps=1.0)
    assert np.any(np.isclose(report.params.v_hat, grid))


def test_search_no_gap_on_constant_channel():
    rng = rng_from_seed(18)
    n = 64
    channel = constant_channel(n, 0)
    f = ZeroTripletEstimator(n)
    report = search_eve_params(
        channel, f, ell=1, eps=0.0, budget=1_000_000, rng=rng,
        num_triplets=32, grid_cap=3, ell_hat_candidates=(2,),
    )
    # best gap over the grid stays within selection noise of zero
    assert report.gap <= 4 * math.sqrt(0.25 / report.num_triplets)


@pytest.mark.parametrize("name, c_eps", [("2.0", 1.6), ("masked-views", 0.2)])
def test_search_counts_equal_separate_eve_calls(name, c_eps, monkeypatch):
    # every triple's real, flipped and abort counts in the search are those
    # of separate eve_distinguisher calls on the triplet's own seed
    n, num_triplets = 36, 10
    f = RHOMBUS_ESTIMATORS[name](n)
    channel = exact_ip_channel(n, leak_inputs=True)
    reports, report_type = [], condense.SearchReport

    def record(*args, **kwargs):
        reports.append(report_type(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(condense, "SearchReport", record)
    search_eve_params(
        channel, f, ell=1, eps=0.5, budget=0, rng=rng_from_seed(22), c_eps=c_eps,
        ell_hat_candidates=(1, 2, 3), num_triplets=num_triplets, grid_cap=4,
    )
    # the search's draws: one seed per triplet, then the triplets
    rng = rng_from_seed(22)
    seeds = rng.integers(0, 2**63, size=num_triplets)
    triplets = []
    for _ in range(num_triplets):
        t = channel.sample_batch(1, rng)
        x, y = t.xs[0], t.ys[0]
        triplets.append((x, y, t, int(rng.integers(0, 2 * n))))
    assert len(reports) == 3 * 3 * 4
    aborted = set()
    for rep in reports:
        counts = [0, 0, 0]
        for (x, y, t, i), seed in zip(triplets, seeds):
            flipped = (flip(x, i), y) if i < n else (x, flip(y, i - n))
            for side, pair in enumerate(((x, y), flipped)):
                out = eve_distinguisher(
                    rep.params, i, *pair, t, f, rep.samples, rng_from_seed(int(seed))
                )
                counts[side] += int(out is not ABORT and out == 1)
                counts[2] += int(side == 0 and out is ABORT)
        assert [round(r * num_triplets) for r in
                (rep.real_rate, rep.flipped_rate, rep.abort_rate)] == counts
        aborted.add(counts[2])
    # the thresholds sit where the gate passes for some triples, not others
    assert len(aborted) > 1


def test_search_queries_each_triplet_pair_a_bounded_number_of_times():
    # per (triplet, side): the gate once and the reconstruction once per
    # firing flip pattern (at most two), however many (ell_hat, v_hat, d)
    # triples and windows read them
    class Counting(TripletEstimator):
        def __init__(self, n):
            self.n, self.calls, self.inner = n, 0, open_transcript_estimator(n)

        def query_masked(self, *args):
            self.calls += 1
            return self.inner.query_masked(*args)

    n, num_triplets, ell_hats = 64, 8, (2, 3, 5)
    f = Counting(n)
    channel = exact_ip_channel(n, leak_inputs=True)
    search_eve_params(channel, f, 1, 0.0, 20_000, rng_from_seed(23),
                      ell_hat_candidates=ell_hats, num_triplets=num_triplets)
    assert 0 < f.calls <= 2 * num_triplets * 3


@pytest.mark.parametrize("empty", [
    {"num_triplets": 0}, {"d_candidates": ()}, {"ell_hat_candidates": ()},
    {"grid_cap": 0},
])
def test_search_rejects_empty_grids(empty):
    # each of these was a ZeroDivisionError at the per-evaluation budget
    n = 16
    channel = exact_ip_channel(n, leak_inputs=True)
    with pytest.raises(ValueError):
        search_eve_params(channel, open_transcript_estimator(n), 1, 0.0, 20_000,
                          rng_from_seed(26), **empty)


def test_search_refuses_a_budget_over_one_chunk_per_evaluation_before_drawing():
    # at n = 64 and eps = 0 the grid keeps 8 points, so E = 2 * 48 * 72 and a
    # budget of 10,001 * 2E is the first to ask more than one chunk per batch
    n, evals = 64, 2 * 48 * 72
    channel = exact_ip_channel(n, leak_inputs=True)
    rng = rng_from_seed(27)
    with pytest.raises(ValueError, match="gives 10001 queries per evaluation"):
        search_eve_params(channel, open_transcript_estimator(n), 1, 0.0,
                          10_001 * 2 * evals, rng)
    assert rng.random() == rng_from_seed(27).random()  # nothing was drawn


@pytest.mark.parametrize("seed, gap", [(1, 0.625), (5, 0.5), (7, 0.5833333333333334)])
def test_search_reports_are_pinned(seed, gap):
    # audit --channel exact_open --n 64 --search's search, as the int64 GEMV
    # residual path reported it before the shared rank-one kernel
    n = 64
    report = search_eve_params(exact_ip_channel(n, leak_inputs=True),
                               open_transcript_estimator(n), 1, 0.0, 2_000_000,
                               rng_from_seed(seed))
    assert report == condense.SearchReport(
        EveParams(ell_hat=2, v_hat=0.03125, d=1), gap, gap, 0.0, 0.0, 48, 144
    )


# sha256 of a noisy estimator's vote totals (two pairs, three windows,
# 1,300 queries in three chunks), as computed before the shared rank-one
# kernel, and of its gate rates and outputs, as computed since the gate
# draws its queries packed
PRODUCT_PINS = {
    64: ("1bd0d594fd6013a4aee492bcccd31183a4d0b50f98b275a1e83eaa442132953a",
         "58b88a6f3c0d7f60a89e3c5faf5c5b4aa0f4b676de5f5f1fe74099c82cf5a152"),
    130: ("be31b3ebf75e42cbe6f192af4bcb37acc13937583460866b8df1265d59b579c8",
          "8a68e6f5915ed90e5b017dd380626ee39fc924faed9d4b569d671c5e39f44d34"),
}


@pytest.mark.parametrize("n", sorted(PRODUCT_PINS))
def test_product_totals_and_gate_are_pinned(n):
    totals_digest, gate_digest = PRODUCT_PINS[n]
    rng = rng_from_seed(400 + n)
    t = exact_ip_channel(n, leak_inputs=True).sample_batch(1, rng)
    x, y = t.xs[0], t.ys[0]
    f = open_transcript_estimator(n, noise_scale=2.0)
    pairs = [(pack_signs(x), pack_signs(y)), (pack_signs(flip(x, 3)), pack_signs(y))]
    handles = [(condense._pair_estimator(px, py, t, f, rng), (px ^ py)[0])
               for px, py in pairs]
    totals = reconstruct._vote_totals(handles, [3], [1, 2, 3], 1300, rng)
    assert totals.shape == (2, 3, 1) and totals.dtype == np.int64
    totals = totals.tobytes()
    assert hashlib.sha256(totals).hexdigest() == totals_digest
    rates, outs = condense._eve_outputs(n + 5, *pairs[0], t, f, [2, 3, 5], 0.0, 700, rng)
    assert hashlib.sha256(rates.tobytes() + outs.tobytes()).hexdigest() == gate_digest


@pytest.mark.parametrize("n", [64, 70])
def test_triplet_attack_is_the_database_attack(n):
    # f read through the views of a size-1 exact_open triplet at noise 0
    # answers <x*y, r> exactly, so the triplet attack is reconstruct_bit
    # on z = x*y with the exact estimator: the same bit at every j from
    # the same seed, and the same vote totals at every column
    t = exact_ip_channel(n, leak_inputs=True).sample_batch(1, rng_from_seed(500 + n))
    x, y = t.xs[0], t.ys[0]
    f, z, ell = open_transcript_estimator(n), x * y, 2
    for j in range(n):
        s = 510 + j
        assert reconstruct_product_bit(j, x, y, t, f, ell, 1300, rng_from_seed(s)) == (
            reconstruct_bit(j, np.delete(z, j), exact_estimator(z), ell, 1300,
                            rng_from_seed(s))
        )
    lanes = (t.px ^ t.py)[0]
    assert np.array_equal(lanes, pack_signs(z)[0])
    totals = [
        reconstruct._vote_totals([(g, lanes)], slice(None), [ell], 1300, rng_from_seed(520))
        for g in (condense._pair_estimator(t.px, t.py, t, f, rng_from_seed(521)),
                  exact_estimator(z))
    ]
    assert np.array_equal(*totals)


def test_condense_mod_buckets_only_the_residues_that_occur(tmp_path):
    # a modulus above 2n leaves every residue of <X,Y> in its own bucket,
    # so 10^12 reads the same law as 2n + 1, without a 10^12-entry count
    n = 8
    spec = SvSourceSpec(alpha=0.5, n=n)
    huge = condense_mod_experiment(spec, spec, 10**12)
    assert huge.max_prob == condense_mod_experiment(spec, spec, 2 * n + 1).max_prob
    assert huge.min_entropy_bits > 0
    out = tmp_path / "mod.json"
    assert main(["condense", "--mode", "mod", "--n", str(n), "--modulus", str(10**12),
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("n", [36, 64, 70, 130])
def test_gate_queries_fix_bit_j_and_keep_pad_bits_zero(n):
    # the gate draws its queries packed: bit j is set (r_j = -1) when i
    # addresses x, cleared (r_j = +1) when i addresses y, the other bits
    # are uniform and the pad bits are zero
    class Recording(TripletEstimator):
        def __init__(self):
            self.n, self.lanes = n, []

        def query_masked(self, views, rng):
            self.lanes.append(views.pr)
            return np.zeros(len(views.outs), dtype=np.int64)

    x, y, t = open_triplet(n, 40 + n)
    px, py = pack_signs(x), pack_signs(y)
    for i in (0, n - 1, n, 2 * n - 1, 3 * n // 2):
        f = Recording()
        # v_min = 1 aborts every window, so the gate is the only query batch
        condense._eve_outputs(i, px, py, t, f, [2], 1.0, 400, rng_from_seed(i))
        (pr,) = f.lanes
        bits = unpack_bits(pr, 64 * pr.shape[1])
        j = i % n
        assert (bits[:, j] == (i < n)).all()
        assert not bits[:, n:].any()
        assert 0.45 < np.delete(bits[:, :n], j, axis=1).mean() < 0.55


# ---------------------------------------------------------------------------
# Min-entropy experiments
# ---------------------------------------------------------------------------


def _enumerated_pmf(probs):
    """Pr[k of the signs are +1], exactly, by enumerating all 2^n sign
    vectors with rational arithmetic on the floats' exact values."""
    law = [Fraction(0)] * (len(probs) + 1)

    def visit(i, plus, weight):
        if i == len(probs):
            law[plus] += weight
            return
        p = Fraction(float(probs[i]))
        visit(i + 1, plus + 1, weight * p)
        visit(i + 1, plus, weight * (1 - p))

    visit(0, 0, Fraction(1))
    return law


@pytest.mark.parametrize("probs", [
    (0.5,) * 16,
    (0.3,) * 16,  # iid-bias
    (0.3, 0.7, 0.45, 0.3, 0.85, 0.7, 0.5, 0.3, 0.45, 0.6, 0.85, 0.7),  # per-index
    (0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 0.35, 0.2) * 2,
    (0.9,),
    (0.0, 1.0, 0.25, 1.0, 0.75),  # degenerate positions are constant signs
], ids=["uniform-16", "iid-16", "per-index-12", "per-index-16", "single", "degenerate"])
def test_signed_sum_pmf_matches_fraction_enumeration(probs):
    pmf = condense._signed_sum_pmf(np.array(probs))
    exact = _enumerated_pmf(probs)
    assert pmf.shape == (len(probs) + 1,)
    assert np.abs(pmf - np.array([float(v) for v in exact])).max() < 1e-12


def test_signed_sum_pmf_matches_grouped_sampler():
    # the law of the reference sampler, at a size no enumeration reaches
    probs = np.repeat([0.2, 0.5, 0.55, 0.9], [300, 500, 200, 24])
    trials = 400_000
    sums = condense._grouped_signed_sum(probs, trials, rng_from_seed(26))
    pmf = condense._signed_sum_pmf(probs)
    freq = np.bincount((sums + probs.size) // 2, minlength=probs.size + 1) / trials
    assert abs(pmf.sum() - 1) < 1e-9
    assert np.all(np.abs(freq - pmf) <= 5 * np.sqrt(pmf / trials) + 1e-6)


def test_condense_mod_near_constant_sources_have_no_entropy():
    alpha = 1e-6
    n = 64
    hi = 1.0 / (1.0 + alpha)
    spec = SvSourceSpec(alpha=alpha, n=n, model="per-index-bias", probs=(hi,) * n)
    rep = condense_mod_experiment(spec, spec, 8)
    assert rep.min_entropy_bits <= 0.01


def test_condense_mod_uniform_matches_exact_binomial_oracle():
    n, modulus = 256, 16
    spec = SvSourceSpec.uniform(n)
    rep = condense_mod_experiment(spec, spec, modulus)
    # exact law: <X,Y> =d sum of n uniform signs; reduce the binomial mod m
    pmf = np.zeros(modulus)
    for ones in range(n + 1):
        s = 2 * ones - n
        pmf[s % modulus] += math.comb(n, ones) / 2.0**n
    exact_max = pmf.max()
    assert rep.max_prob == pytest.approx(exact_max, abs=1e-12)
    assert rep.min_entropy_bits == pytest.approx(-math.log2(exact_max), abs=1e-9)


def test_condense_mod_biased_within_constant_band_of_uniform():
    n, modulus = 1024, 32
    uniform = condense_mod_experiment(
        SvSourceSpec.uniform(n), SvSourceSpec.uniform(n), modulus
    )
    alpha = math.exp(-1)
    biased_spec = SvSourceSpec(alpha=alpha, n=n)
    biased = condense_mod_experiment(biased_spec, biased_spec, modulus)
    assert biased.min_entropy_bits <= uniform.min_entropy_bits + 1e-9
    assert biased.min_entropy_bits >= uniform.min_entropy_bits - math.log2(math.e**2)


def test_condense_mod_rejects_bad_modulus_and_model():
    spec = SvSourceSpec.uniform(8)
    with pytest.raises(PreconditionViolation):
        condense_mod_experiment(spec, spec, 1)
    with pytest.raises(UnsupportedModel):
        condense_mod_experiment("markov", spec, 4)


def test_seeded_condense_uniform_matches_binomial_oracle():
    # with both sources uniform the conditional masked product is a shifted
    # binomial; its max probability is the central binomial coefficient
    rng = rng_from_seed(23)
    n = 256
    spec = SvSourceSpec.uniform(n)
    rep = seeded_condense_experiment(spec, spec, 24, rng)
    central = math.comb(n, n // 2) / 2.0**n
    expected_bits = -math.log2(central)
    assert abs(rep.median_bits - expected_bits) < 1e-9
    assert abs(rep.min_bits - expected_bits) < 1e-9
    assert rep.quantile_bits >= math.log2(math.sqrt(n)) - 3


def test_seeded_condense_conditioning_matches_enumeration():
    # one conditioning, redrawn from the experiment's stream 0; its free
    # coordinates (x on r-, y on r+) are enumerated with exact rationals
    n = 10
    pa = (0.3, 0.45, 0.6, 0.7, 0.5, 0.3, 0.65, 0.4, 0.55, 0.35)
    pb = (0.6, 0.4, 0.5, 0.35, 0.7, 0.65, 0.3, 0.45, 0.6, 0.5)
    a = SvSourceSpec(alpha=0.4, n=n, model="per-index-bias", probs=pa)
    b = SvSourceSpec(alpha=0.4, n=n, model="per-index-bias", probs=pb)
    rep = seeded_condense_experiment(a, b, 1, rng_from_seed(27))

    orng = spawn_rngs(rng_from_seed(27), 1)[0]
    x = np.where(orng.random(n) < np.array(pa), 1, -1)
    y = np.where(orng.random(n) < np.array(pb), 1, -1)
    r = random_signs(n, orng)
    law = {}
    for free in itertools.product((1, -1), repeat=n):
        xx = np.where(r == 1, x, free)  # x is free where r = -1
        yy = np.where(r == 1, free, y)  # y is free where r = +1
        weight = Fraction(1)
        for i, s in enumerate(free):
            p = Fraction(pa[i] if r[i] == -1 else pb[i])
            weight *= p if s == 1 else 1 - p
        value = int(np.dot(xx * yy, r))
        law[value] = law.get(value, 0) + weight
    assert sum(law.values()) == 1
    expected = -math.log2(float(max(law.values())))
    assert rep.min_bits == pytest.approx(expected, abs=1e-12)
    assert rep.median_bits == rep.quantile_bits == rep.min_bits


def test_seeded_condense_degrades_for_near_constant_sources():
    rng = rng_from_seed(24)
    n = 128
    alpha = 1e-6
    hi = 1.0 / (1.0 + alpha)
    spec = SvSourceSpec(alpha=alpha, n=n, model="per-index-bias", probs=(hi,) * n)
    rep = seeded_condense_experiment(spec, spec, 16, rng)
    assert rep.median_bits <= 0.05


def test_scalar_estimator_adapter_and_masked_views():
    n = 12
    rng = rng_from_seed(25)
    R = random_signs(n, rng, 20)
    x, y = random_signs(n, rng), random_signs(n, rng)
    t = exact_ip_channel(n).sample_batch(1, rng)
    views = condense._triplet_views(pack_signs(R), pack_signs(x), pack_signs(y), t)
    xp, ym = views.x_plus, views.y_minus
    assert np.array_equal(views.R, R)
    assert np.all(xp[R == -1] == 0)
    assert np.all(ym[R == 1] == 0)
    assert np.all(xp[R == 1] == np.broadcast_to(x, R.shape)[R == 1])
    assert np.all(ym[R == -1] == np.broadcast_to(y, R.shape)[R == -1])
    assert np.all(views.outs == t.outs[0]) and np.all(views.V == 0)

    def fn(views_, rng_):
        return views_.x_plus.sum(axis=1) + views_.y_minus.sum(axis=1)

    est = ScalarTripletEstimator(fn, n)
    out = est.query_masked(views, rng)
    expected = xp.sum(axis=1) + ym.sum(axis=1)
    assert out.dtype == np.int64
    assert np.array_equal(out, expected)
