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

from .signvectors import pack_bits, packed_width, unpack_bits


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
        rd, offset = pack_bits(self.diag[::-1]), pack_bits(self.offset)
        return unpack_bits(toeplitz_hash(rd, offset, pack_bits(xbits), self.m), self.m)


def toeplitz_hash(rd: np.ndarray, offset, lanes: np.ndarray, m: int) -> np.ndarray:
    """h(x) = T x xor b over GF(2) as packed words, shape (..., packed_width(m)),
    for x as packed lanes.  rd packs the reversed diagonal (T[i, j] is bit
    m-1-i+j of rd; a uniform diagonal's reversal is uniform) and ``offset``
    packs b (0 gives T x).  One hash (rd (D,), offset (M,)) applies to lanes
    (W,) or (batch, W); a batch of hashes (rd (batch, D), offset (batch, M))
    applies row by row to lanes (batch, W).  (T x)_i is the parity of
    x & rd[m-1-i : m-1-i+n]: lane by lane a funnel shift of two rd lanes by a
    constant (shifts by 64 give 0; past rd's last lane x has only zero pad
    bits), ANDed with x's lane."""
    out = np.zeros((*np.broadcast_shapes(rd.shape[:-1], lanes.shape[:-1]), packed_width(m)),
                   np.uint64)
    for i in range(m):
        q, r = divmod(m - 1 - i, 64)  # window i starts at bit m-1-i
        word = 0
        for k in range(lanes.shape[-1]):
            window = rd[..., q + k] >> r
            if q + k + 1 < rd.shape[-1]:
                window |= rd[..., q + k + 1] << (64 - r)
            word ^= window & lanes[..., k]
        out[..., i // 64] |= (np.bitwise_count(word) & 1).astype(np.uint64) << i % 64
    return out ^ offset


def all_toeplitz_hashes(n: int, m: int):
    """Iterate the entire affine family (2^(n+2m-1) members); small n, m only."""
    d_bits = n + m - 1
    for d_code in range(2**d_bits):
        diag = np.array([(d_code >> i) & 1 for i in range(d_bits)], dtype=np.uint8)
        for b_code in range(2**m):
            offset = np.array([(b_code >> i) & 1 for i in range(m)], dtype=np.uint8)
            yield ToeplitzHash(n=n, m=m, diag=diag, offset=offset)
