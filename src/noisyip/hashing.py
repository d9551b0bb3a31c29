"""Pairwise-independent hashing via affine Toeplitz maps over GF(2).

h(x) = T x + b where T is an m-by-n Toeplitz bit matrix (constant along
diagonals, described by n+m-1 bits) and b is a uniform offset.  For any two
distinct inputs the pair (h(x1), h(x2)) is exactly uniform over 2^(2m)
outcomes: T(x1 xor x2) is uniform because convolution with a non-zero
vector is a surjective linear map of the diagonal bits, and b decouples
h(x2) from T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signvectors import pack_bits, packed_width


@dataclass(frozen=True, eq=False)
class ToeplitzHash:
    """An affine GF(2) map {0,1}^n -> {0,1}^m with Toeplitz matrix."""

    n: int
    m: int
    diag: np.ndarray    # (n + m - 1,) bits, T[i, j] = diag[i - j + n - 1]
    offset: np.ndarray  # (m,) bits

    def __post_init__(self):
        if self.diag.shape != (self.n + self.m - 1,):
            raise ValueError("diag must have n + m - 1 bits")
        if self.offset.shape != (self.m,):
            raise ValueError("offset must have m bits")

    def hash_bits(self, xbits: np.ndarray) -> np.ndarray:
        """Hash bit vector(s); accepts shape (n,) or (batch, n)."""
        return toeplitz_hash(self.diag, self.offset, pack_bits(xbits))


def toeplitz_hash(diag: np.ndarray, offset: np.ndarray, lanes) -> np.ndarray:
    """h(x) = T x xor b over GF(2), with T[i, j] = diag[..., i - j + n - 1],
    for x given as packed uint64 lanes (``noisyip.signvectors`` layout).

    One hash (diag (n+m-1,), offset (m,)) applies to lanes of shape (W,) or
    (batch, W); a batch of hashes (diag (batch, n+m-1), offset (batch, m))
    applies row by row to lanes of shape (batch, W).  Returns uint8 bits.
    With rd the reversed diagonal, packed once from a contiguous copy plus a
    zero lane, (T x)_i is the parity of x & rd[m-1-i : m-1-i+n]: lane by lane
    a funnel shift of two rd columns by a constant (numpy shifts by 64 give
    0), ANDed with x's lane (its zero pad bits mask the tail), XORed into a word.
    """
    m, w, d = offset.shape[-1], lanes.shape[-1], diag.shape[-1]
    rd = pack_bits(np.ascontiguousarray(diag[..., ::-1]), packed_width(d) + 1)
    words = np.zeros((*np.broadcast_shapes(diag.shape[:-1], lanes.shape[:-1]), m), np.uint64)
    for i in range(m):
        q, r = divmod(m - 1 - i, 64)  # window i starts at bit m-1-i
        for k in range(w):
            window = (rd[..., q + k] >> r) | (rd[..., q + k + 1] << (64 - r))
            words[..., i] ^= window & lanes[..., k]
    return (np.bitwise_count(words) & 1) ^ offset


def all_toeplitz_hashes(n: int, m: int):
    """Iterate the entire affine family (2^(n+2m-1) members); small n, m only."""
    d_bits = n + m - 1
    for d_code in range(2**d_bits):
        diag = np.array([(d_code >> i) & 1 for i in range(d_bits)], dtype=np.uint8)
        for b_code in range(2**m):
            offset = np.array([(b_code >> i) & 1 for i in range(m)], dtype=np.uint8)
            yield ToeplitzHash(n=n, m=m, diag=diag, offset=offset)
