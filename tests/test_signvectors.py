import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyip import (
    DimensionMismatch,
    as_signs,
    bits_to_signs,
    flip,
    inner_product,
    random_signs,
    rng_from_seed,
    signs_to_bits,
)
from noisyip.keyagreement import EveViews
from noisyip.signvectors import (
    _IP_BLOCK_WORDS,
    flip_lanes,
    pack_bits,
    pack_signs,
    packed_inner_products,
    packed_width,
    random_bits,
    random_packed,
    signs_at,
    unpack_bits,
    unpack_signs,
)

sign_vectors = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=24)


def paired(draw_len=24):
    return st.integers(min_value=1, max_value=draw_len).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
            st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
            st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
        )
    )


def test_inner_product_self_and_negation():
    rng = rng_from_seed(0)
    x = random_signs(17, rng)
    assert inner_product(x, x) == 17
    assert inner_product(x, -x) == -17


def test_inner_product_length_mismatch():
    with pytest.raises(DimensionMismatch):
        inner_product([1, -1], [1, -1, 1])


@given(paired())
@settings(max_examples=100, deadline=None)
def test_inner_product_hamming_identity(xyr):
    # the lane kernel computes n - 2 * popcount(x xor y)
    x, y, _ = xyr
    n = len(x)
    hamming = int(np.count_nonzero(np.array(x) != np.array(y)))
    lane_ip = packed_inner_products(pack_signs(x), pack_signs(y), n)[0]
    assert inner_product(x, y) == n - 2 * hamming == lane_ip


@given(paired())
@settings(max_examples=100, deadline=None)
def test_masked_split_identities(xyr):
    # the key-agreement round's split of <x,y> by the mask r; on lanes the
    # masked product is n - 2 * popcount(x xor y xor r)
    x, y, r = xyr
    prod, r = np.array(x) * np.array(y), np.array(r)
    ip_plus, ip_minus = int(prod[r == 1].sum()), int(prod[r == -1].sum())
    assert ip_plus + ip_minus == inner_product(x, y)
    lanes = pack_signs(x) ^ pack_signs(y)
    lane_masked = packed_inner_products(lanes, pack_signs(r), len(r))[0]
    assert ip_plus - ip_minus == inner_product(prod, r) == lane_masked


def test_masked_split_exhaustive_small_n():
    # exhaustive over all (x, y, r) triples up to n = 6 (the 2^(3n)
    # enumeration is the binding constraint), vectorized over (x, y)
    for n in range(1, 7):
        codes = np.arange(2**n, dtype=np.uint32)
        vecs = (1 - 2 * ((codes[:, None] >> np.arange(n)[None, :]) & 1)).astype(
            np.int64
        )
        ips = vecs @ vecs.T  # all pairwise inner products
        for r in vecs:
            plus = np.where(r == 1, 1, 0)
            prods_plus = (vecs[:, None, :] * vecs[None, :, :] * plus).sum(axis=2)
            prods_minus = ips - prods_plus
            assert np.array_equal(prods_plus + prods_minus, ips)
            masked = (vecs[:, None, :] * vecs[None, :, :] * r).sum(axis=2)
            assert np.array_equal(prods_plus - prods_minus, masked)


def test_masked_split_randomized_large_n():
    rng = rng_from_seed(17)
    n = 1000
    x, y, r = (random_signs(n, rng, 50) for _ in range(3))
    prod = x.astype(np.int64) * y
    p, m = (prod * (r == 1)).sum(axis=1), (prod * (r == -1)).sum(axis=1)
    px, py = pack_signs(x), pack_signs(y)
    assert np.array_equal(p + m, packed_inner_products(px, py, n))
    assert np.array_equal(p - m, packed_inner_products(px ^ py, pack_signs(r), n))
    assert np.array_equal(p - m, (prod * r).sum(axis=1))


def test_hamming_identity_exhaustive_small_n():
    for n in range(1, 11):
        codes = np.arange(2**n, dtype=np.uint32)
        vecs = (1 - 2 * ((codes[:, None] >> np.arange(n)[None, :]) & 1)).astype(
            np.int64
        )
        ips = vecs @ vecs.T
        hams = (vecs[:, None, :] != vecs[None, :, :]).sum(axis=2)
        assert np.array_equal(ips, n - 2 * hams)


def test_masked_all_one_masks():
    rng = rng_from_seed(1)
    x, y = random_signs(9, rng), random_signs(9, rng)
    lanes = pack_signs(x) ^ pack_signs(y)
    for sign in (1, -1):  # every position on one side of the split
        masked = packed_inner_products(lanes, pack_signs(sign * np.ones(9)), 9)[0]
        assert masked == sign * inner_product(x, y)


def test_flip_involution_and_example():
    v = np.array([1, 1], dtype=np.int8)
    assert list(flip(v, 0)) == [-1, 1]
    rng = rng_from_seed(2)
    w = random_signs(11, rng)
    assert np.array_equal(flip(flip(w, 4), 4), w)
    with pytest.raises(IndexError):
        flip(w, 11)


def test_flip_lanes_negates_one_entry_of_the_concatenated_pair():
    rng = rng_from_seed(3)
    for n, rows in itertools.product((8, 64, 70, 130), (None, 5)):
        x, y = random_signs(n, rng, rows), random_signs(n, rng, rows)
        pair = np.concatenate([x, y], axis=-1)
        px, py = pack_signs(x), pack_signs(y)
        for i in range(2 * n):
            fx, fy = flip_lanes(px, py, i, n)
            flipped = np.concatenate([unpack_signs(fx, n), unpack_signs(fy, n)], axis=-1)
            assert np.array_equal(flipped, np.atleast_2d(flip(pair, i)))
            # pad bits stay zero
            for lanes in (fx, fy):
                assert not unpack_bits(lanes, 64 * lanes.shape[1])[:, n:].any()
            # the half without entry i is passed through, not copied
            assert (fy is py) if i < n else (fx is px)
        # and the addressed half is a copy: the inputs are left as they were
        assert np.array_equal(px, pack_signs(x)) and np.array_equal(py, pack_signs(y))
        for i in (-1, 2 * n):
            with pytest.raises(IndexError):
                flip_lanes(px, py, i, n)


@given(paired())
@settings(max_examples=60, deadline=None)
def test_flip_changes_masked_product_by_one_term(xyr):
    x, y, r = xyr
    i = len(x) // 2
    prod = np.array(x) * np.array(y)
    before = inner_product(prod, r)
    after = inner_product(np.array(flip(x, i)) * np.array(y), r)
    assert after == before - 2 * x[i] * y[i] * r[i]


def test_as_signs_rejects_bad_entries():
    with pytest.raises(ValueError):
        as_signs([1, 0, -1])
    with pytest.raises(ValueError):
        as_signs([])


def test_bit_conventions_roundtrip():
    rng = rng_from_seed(3)
    v = random_signs(33, rng)
    assert np.array_equal(bits_to_signs(signs_to_bits(v)), v)
    # fixed global convention: bit = (1 - sign)/2
    assert signs_to_bits(np.array([1, -1]))[0] == 0
    assert signs_to_bits(np.array([1, -1]))[1] == 1


@pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64])
def test_bits_to_signs_and_random_signs_are_int8(dtype):
    signs = bits_to_signs(np.array([[0, 1, 1], [1, 0, 0]], dtype=dtype))
    assert signs.dtype == np.int8
    assert signs.tolist() == [[1, -1, -1], [-1, 1, 1]]
    rng = rng_from_seed(6)
    assert random_signs(5, rng).dtype == random_signs(5, rng, 3).dtype == np.int8


@pytest.mark.parametrize("shape", [(0,), (1,), (3,), (4,), (5,), (7, 41), (10000, 10)])
def test_random_bits_is_numpys_bounded_uint8_draw(shape):
    # both generators have drawn an odd number of 32-bit words, so a half
    # of a 64-bit output is buffered when the bit draws start
    ours, numpys = rng_from_seed(8), rng_from_seed(8)
    for g in (ours, numpys):
        g.integers(0, 2**32, 3, dtype=np.uint32)
    got = random_bits(shape, ours)
    want = numpys.integers(0, 2, shape, dtype=np.uint8)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert ours.integers(0, 2**63, 5).tolist() == numpys.integers(0, 2**63, 5).tolist()
    # random_signs draws through it: the same stream as numpy's int8 draw
    signs = random_signs(shape[-1], rng_from_seed(3), 2)
    assert np.array_equal(
        signs, 2 * rng_from_seed(3).integers(0, 2, (2, shape[-1]), dtype=np.int8) - 1)


@pytest.mark.parametrize("n", [1, 7, 41, 63, 64, 65, 130])
def test_pack_bits_roundtrip_with_zero_pad_bits(n):
    bits = random_bits((9, n), rng_from_seed(n))
    P = pack_bits(bits)
    assert P.dtype == np.uint64 and P.shape == (9, packed_width(n))
    assert np.array_equal(unpack_bits(P, n), bits)
    assert not unpack_bits(P, 64 * packed_width(n))[:, n:].any()
    assert np.array_equal(pack_bits(bits[0]), pack_bits(bits)[0])


def test_index_sets():
    # the restrictions by r are zero-masked rows: x on r = +1, y on r = -1
    r = np.array([1, -1, 1, 1, -1], dtype=np.int8)
    x = np.array([-1, 1, 1, -1, -1], dtype=np.int8)
    y = np.array([1, 1, -1, -1, 1], dtype=np.int8)
    views = EveViews(5, pack_signs(r), np.ones(1), np.zeros(1), {},
                     pack_signs(x), pack_signs(y))
    assert tuple(np.flatnonzero(views.x_plus[0])) == (0, 2, 3)
    assert tuple(np.flatnonzero(views.y_minus[0])) == (1, 4)
    assert np.array_equal(views.x_plus[0][r == 1], x[r == 1])
    assert np.array_equal(views.y_minus[0][r == -1], y[r == -1])


def test_packed_roundtrip_and_inner_products():
    rng = rng_from_seed(4)
    for n in (5, 64, 130, 256):
        R = random_signs(n, rng, 50)
        z = random_signs(n, rng)
        P = pack_signs(R)
        assert P.shape == (50, packed_width(n))
        assert np.array_equal(unpack_signs(P, n), R)
        zp = pack_signs(z)[0]
        expected = R.astype(np.int64) @ z.astype(np.int64)
        assert np.array_equal(packed_inner_products(P, zp, n), expected)
        for j in {0, 63 % n, n // 2, n - 1}:  # entry j read off its lane
            assert np.array_equal(signs_at(P, j), R[:, j]) and signs_at(zp, j) == z[j]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1024])
def test_packed_inner_products_is_the_unpacked_dot(n):
    # row counts around the kernel's row blocks, against a full matrix Q and
    # a one-row broadcast Q
    rng = rng_from_seed(6)
    block = _IP_BLOCK_WORDS // packed_width(n)
    for rows in (0, 1, block - 1, block, block + 1):
        P, Q = random_packed(n, rows, rng), random_packed(n, rows, rng)
        q = random_packed(n, 1, rng)[0]
        X, Y = unpack_signs(P, n).astype(np.int64), unpack_signs(Q, n).astype(np.int64)
        full, broadcast = packed_inner_products(P, Q, n), packed_inner_products(P, q, n)
        assert full.dtype == broadcast.dtype == np.int64
        assert np.array_equal(full, np.einsum("ij,ij->i", X, Y))
        assert np.array_equal(broadcast, X @ unpack_signs(q[None], n)[0].astype(np.int64))


def test_packed_inner_products_exact_past_float32():
    # a popcount of 2^24 + 1 rounds to 2^24 in float32
    n = 2**24 + 1
    P = np.full((2, packed_width(n)), 2**64 - 1, np.uint64)
    P[:, -1] = 1  # every bit set, pad bits clear
    Q = np.zeros_like(P)
    Q[1] = P[1]
    assert packed_inner_products(P, Q, n).tolist() == [-n, n]
    assert packed_inner_products(P, Q[0], n).tolist() == [-n, -n]


PRIOR_DRAWS = {
    "fresh": lambda g: None,
    "buffered_uint32": lambda g: g.integers(0, 2**32, 1, dtype=np.uint32),
    "after_random": lambda g: g.random(),
}


@pytest.mark.parametrize("prior", PRIOR_DRAWS)
@pytest.mark.parametrize("n", [1, 64, 65, 130])
@pytest.mark.parametrize("size", [0, 1, 2, 3, 1001])
def test_random_packed_is_the_byte_draw(prior, n, size):
    # the words and the generator's next draws are those of rng.bytes
    ours, bytes_ = rng_from_seed(9), rng_from_seed(9)
    for g in (ours, bytes_):
        PRIOR_DRAWS[prior](g)
    got = random_packed(n, size, ours)
    w = packed_width(n)
    want = np.frombuffer(bytes_.bytes(8 * size * w), np.uint64).reshape(size, w).copy()
    if n % 64:
        want[:, -1] &= np.uint64((1 << n % 64) - 1)
    assert got.dtype == np.uint64 and np.array_equal(got, want)
    for g in (ours, bytes_):
        g.bytes(4)  # leaves a uint32 buffered if none was
    assert ours.integers(0, 2**32, 3, dtype=np.uint32).tolist() == \
        bytes_.integers(0, 2**32, 3, dtype=np.uint32).tolist()
    assert ours.integers(0, 2**63, 3).tolist() == bytes_.integers(0, 2**63, 3).tolist()


def test_random_packed_matches_uniform_marginals():
    rng = rng_from_seed(5)
    n = 70
    P = random_packed(n, 4000, rng)
    # pad bits cleared
    assert np.all(P[:, -1] >> np.uint64(70 - 64) == 0)
    ones = (unpack_signs(P, n) < 0).mean()
    assert abs(ones - 0.5) < 0.01
