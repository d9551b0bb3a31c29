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
        return toeplitz_hash(self.diag, self.offset, xbits)


def toeplitz_hash(diag: np.ndarray, offset: np.ndarray, xbits) -> np.ndarray:
    """h(x) = T x xor b over GF(2), with T[i, j] = diag[..., i - j + n - 1].

    One hash (diag (n+m-1,), offset (m,)) applies to x of shape (n,) or
    (batch, n); a batch of hashes (diag (batch, n+m-1), offset (batch, m))
    applies row by row to x of shape (batch, n).  Returns uint8 bits.
    """
    xbits = np.asarray(xbits, dtype=np.uint8)
    m, n = offset.shape[-1], xbits.shape[-1]
    idx = np.arange(m)[:, None] - np.arange(n)[None, :] + n - 1
    lin = np.bitwise_xor.reduce(diag[..., idx] & xbits[..., None, :], axis=-1)
    return lin ^ offset


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
