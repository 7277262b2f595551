"""Bit-string bases for fixed-magnetization blocks of open spin-1/2 chains.

A chain of L sites is encoded in an integer: bit i set means the spin on
site i+1 points down, so the number of down spins is a popcount. Each
(L, n_d) block is closed under the dynamics, and the blocks belonging to
one conserved sector label N = L + n_d + 1 span chains of several lengths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np


@dataclass(frozen=True, order=True)
class SectorKey:
    """Label of one magnetization block: chain length L, down-spin count n_d."""

    L: int
    n_d: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if not 0 <= self.n_d <= self.L:
            raise ValueError(f"n_d must lie in [0, L], got {self.n_d} for L={self.L}")

    @property
    def dimension(self) -> int:
        return comb(self.L, self.n_d)

    @property
    def parity(self) -> int:
        """(-1)**n_d, the fermion-number-like parity of the block."""
        return -1 if self.n_d % 2 else 1


@dataclass(frozen=True)
class NSector:
    """All (L, n_d) blocks sharing the conserved label N = L + n_d + 1."""

    N: int
    members: tuple[SectorKey, ...]


def enumerate_sector(key: SectorKey) -> np.ndarray:
    """The C(L, n_d) bit patterns of the block, ascending, as int64."""
    bits = [sum(1 << i for i in sites)
            for sites in itertools.combinations(range(key.L), key.n_d)]
    return np.array(sorted(bits), dtype=np.int64)


def _member_lengths(N: int) -> range:
    """Chain lengths of sector N's blocks (L, N-L-1): ceil((N-1)/2) <= L <= N-1.

    The lower bound comes from n_d <= L; the upper from n_d >= 0.
    """
    if N < 3:
        raise ValueError(f"sector label must be >= 3, got {N}")
    return range(-((1 - N) // 2), N)


def decompose_n_sector(N: int) -> NSector:
    """Blocks {(L, N-L-1)} for ceil((N-1)/2) <= L <= N-1, ascending in L."""
    return NSector(N, tuple(SectorKey(L, N - L - 1) for L in _member_lengths(N)))
