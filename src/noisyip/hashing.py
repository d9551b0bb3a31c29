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

from .signvectors import pack_bits


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
    With rd the reversed diagonal, (T x)_i is the parity of
    x & rd[m-1-i : m-1-i+n].  rd is packed once, with one zero lane
    appended, and each window is a funnel shift of two of its lanes (numpy
    shifts by 64 give 0); x's zero pad bits mask the window's tail.
    """
    m, w = offset.shape[-1], lanes.shape[-1]
    rd = np.pad(pack_bits(diag[..., ::-1]), [(0, 0)] * (diag.ndim - 1) + [(0, 1)])
    q, r = np.divmod(np.arange(m - 1, -1, -1), 64)  # window i starts at bit m-1-i
    idx, r = q[:, None] + np.arange(w), r[:, None].astype(np.uint64)
    win = (rd[..., idx] >> r) | (rd[..., idx + 1] << (np.uint64(64) - r))
    lin = np.bitwise_count(np.bitwise_xor.reduce(win & lanes[..., None, :], axis=-1))
    return (lin & 1) ^ offset


def sample_toeplitz_hash(n: int, m: int, rng: np.random.Generator) -> ToeplitzHash:
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    diag = rng.integers(0, 2, size=n + m - 1, dtype=np.uint8)
    offset = rng.integers(0, 2, size=m, dtype=np.uint8)
    return ToeplitzHash(n=n, m=m, diag=diag, offset=offset)


def all_toeplitz_hashes(n: int, m: int):
    """Iterate the entire affine family (2^(n+2m-1) members); small n, m only."""
    d_bits = n + m - 1
    for d_code in range(2**d_bits):
        diag = np.array([(d_code >> i) & 1 for i in range(d_bits)], dtype=np.uint8)
        for b_code in range(2**m):
            offset = np.array([(b_code >> i) & 1 for i in range(m)], dtype=np.uint8)
            yield ToeplitzHash(n=n, m=m, diag=diag, offset=offset)
