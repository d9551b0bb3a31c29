"""Sign-vector arithmetic.

Databases, seeds and masks are all vectors over {-1,+1}^n, represented as
numpy int8 arrays.  All indices are 0-based.  The two standard restrictions
of a vector ``v`` by a mask ``r`` keep v on r = +1 or on r = -1; they are
held as zero-masked rows, ``(r == 1) * v`` and ``(r == -1) * v``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

SIGN_DTYPE = np.int8


def as_signs(values, name: str = "vector") -> np.ndarray:
    """Validate and convert a sequence of +-1 entries to an int8 array."""
    v = np.asarray(values)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    v = v.astype(SIGN_DTYPE, copy=True)
    if v.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.abs(v) == 1):
        raise ValueError(f"{name} entries must all be +1 or -1")
    return v


def random_signs(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform sign vector(s): shape (n,) or (size, n)."""
    return 2 * random_bits((n,) if size is None else (size, n), rng).view(SIGN_DTYPE) - 1


def inner_product(x, y) -> int:
    """Integer inner product of two equal-length sign vectors."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise DimensionMismatch(f"length mismatch: {x.shape} vs {y.shape}")
    return int(np.dot(x.astype(np.int64), y.astype(np.int64)))


def flip(v, i: int) -> np.ndarray:
    """Copy of v with entry i negated."""
    v = np.asarray(v)
    if not 0 <= i < v.shape[-1]:
        raise IndexError(f"index {i} out of range for length {v.shape[-1]}")
    out = v.copy()
    out[..., i] = -out[..., i]
    return out


def signs_to_bits(v) -> np.ndarray:
    """Map signs to bits with the fixed convention bit = (1 - sign)/2."""
    v = np.asarray(v)
    return ((1 - v.astype(np.int8)) // 2).astype(np.uint8)


def bits_to_signs(b) -> np.ndarray:
    """Inverse of :func:`signs_to_bits`."""
    return 1 - 2 * np.asarray(b).astype(SIGN_DTYPE)


# ---------------------------------------------------------------------------
# Packed representation: sign vectors as 64-bit lanes
# ---------------------------------------------------------------------------
#
# Bit j (little-endian within each word) of lane i//64 holds position i with
# the package-wide convention bit = (1 - sign)/2, so +1 packs to 0.  Unused
# high bits of the last lane are zero.  The packed form is the internal
# representation of queries, channel batches and key-agreement rounds; the
# external contract everywhere is sign-valued.


def packed_width(n: int) -> int:
    return (n + 63) // 64


def random_bits(shape, rng: np.random.Generator) -> np.ndarray:
    """Uniform 0/1 uint8 entries: ``rng.integers(0, 2, shape, dtype=np.uint8)``
    exactly, and the same generator state after, as numpy's bounded draw
    (Lemire) at range 2 is the top bit of each byte of ceil(k/4) uint32s."""
    k = int(np.prod(shape))
    bytes_ = rng.integers(0, 2**32, -(-k // 4), dtype=np.uint32).view(np.uint8)
    return np.right_shift(bytes_, 7, out=bytes_)[:k].reshape(shape)


def pack_bits(bits) -> np.ndarray:
    """Pack rows of 0/1 entries into uint64 lanes (layout as above)."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = 8 * packed_width(np.shape(bits)[-1]) - packed.shape[-1]
    if pad:
        packed = np.concatenate((packed, np.zeros((*packed.shape[:-1], pad), np.uint8)), -1)
    return packed.view(np.uint64)


def pack_signs(v) -> np.ndarray:
    """Pack sign vector(s) into uint64 lanes: shape (..., packed_width(n))."""
    return pack_bits(np.atleast_2d(v) < 0)


def flip_lanes(px, py, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(px, py) with entry i of the concatenated pair of length-n rows
    negated: bit i % n is XORed into a copy of the addressed half only (x
    below n, y from n on).  Works on one-row and on (batch, W) lanes."""
    if not 0 <= i < 2 * n:
        raise IndexError(f"index {i} out of range for a pair of length {n}")
    bit = pack_bits(np.arange(n) == i % n)
    return (px ^ bit, py) if i < n else (px, py ^ bit)


def unpack_bits(P: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` for rows of n bits: shape (m, n) uint8."""
    bytes_ = np.ascontiguousarray(P).view(np.uint8)
    return np.unpackbits(bytes_, axis=-1, count=n, bitorder="little")


def unpack_signs(P: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_signs` for rows of n signs: shape (m, n)."""
    return bits_to_signs(unpack_bits(P, n))


def signs_at(lanes, j: int) -> np.ndarray:
    """Entry j of each packed sign row, read off bit j % 64 of lane j // 64."""
    return bits_to_signs((lanes[..., j // 64] >> (j % 64)) & 1)


def random_packed(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform packed sign vectors, pad bits cleared: shape (size, W).  The
    words and the next draws are those of ``rng.bytes(8 * size * W)``, which
    draws the same uint32s, a uint64's low half first, and copies them."""
    w = packed_width(n)
    if size * w == 0:  # rng.bytes(0) still draws one uint32
        rng.bytes(0)
        return np.zeros((size, w), np.uint64)
    raw = rng.integers(0, 2**32, (size, 2 * w), dtype=np.uint32).view(np.uint64)
    if n % 64:  # clear the pad bits
        raw[:, -1] &= np.uint64(2**64 - 1) >> np.uint64(-n % 64)
    return raw


# Words per block of the inner-product kernel: the XOR and popcount
# temporaries of one block stay in cache.
_IP_BLOCK_WORDS = 2**13


def packed_inner_products(P: np.ndarray, Q: np.ndarray, n: int) -> np.ndarray:
    """<p, q> for each packed row p of P against Q: a single packed vector,
    or one packed row per row of P.

    Signs agree exactly where the packed bits agree, so the inner product
    is n - 2 * popcount(p xor q).  The popcounts of a block of rows are
    summed over the lanes by one BLAS product with a ones vector, whose
    partial sums are integers of at most n: exact in float32 below 2^24,
    float64 above.  One-lane rows need no sum.
    """
    rows, w = P.shape
    if w == 1:
        ham = np.bitwise_count(P[:, 0] ^ Q[..., 0])
    else:
        dtype = np.float32 if n < 2**24 else np.float64
        ones, step = np.ones(w, dtype), max(1, _IP_BLOCK_WORDS // max(w, 1))
        ham = np.empty(rows, dtype)
        for s in range(0, rows, step):
            blk = slice(s, s + step)
            counts = np.bitwise_count(P[blk] ^ (Q if Q.ndim == 1 else Q[blk]))
            np.dot(counts.astype(dtype), ones, out=ham[blk])
    return n - 2 * ham.astype(np.int64)
