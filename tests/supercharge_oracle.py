"""Independent supercharge oracle: each sector is the M1 fermion chain.

Sector N is the open chain of M = N - 2 sites holding spinless fermions
with no two on neighbouring sites (the Rydberg blockade constraint). Its
supercharge creates a fermion wherever both neighbours are empty,

    Q = sum_i (-1)^{f<i} P_{i-1} c_i^dagger P_{i+1},

with P the projector onto an empty site and f<i the fermions left of
site i; H = Q Q^dagger + Q^dagger Q. Site amplitudes lambda_i, a factor on
each term of Q, keep Q^2 = 0 and so the supersymmetry; unit amplitudes give
the XXZ chain. The f-fermion block of H is the XXZ
block (L = N - 1 - f, n_d = f) at the supersymmetric point (Fendley,
Schoutens & de Boer, PRL 90, 120402, 2003; Fendley, Nienhuis & Schoutens,
J. Phys. A 36, 12399, 2003). Everything here is built from occupation
numbers alone, without the package; the tests compare the two.
"""

import itertools
from math import comb

import numpy as np


def exclusion_configs(M: int, f: int) -> list[int]:
    """Bit masks of f fermions on M sites, no two adjacent, ascending."""
    return sorted(
        sum(1 << s for s in sites)
        for sites in itertools.combinations(range(M), f)
        if all(b - a > 1 for a, b in zip(sites, sites[1:]))
    )


def supercharge(M: int, f: int, amplitudes=None) -> np.ndarray:
    """Q from the f-fermion block to the (f+1)-fermion block, dense.

    Rows follow exclusion_configs(M, f + 1) and columns exclusion_configs(M, f).
    `amplitudes` holds lambda_i for each of the M sites, 1 each by default.
    """
    amplitudes = np.ones(M) if amplitudes is None else amplitudes
    rows = {c: r for r, c in enumerate(exclusion_configs(M, f + 1))}
    cols = exclusion_configs(M, f)
    Q = np.zeros((len(rows), len(cols)))
    for j, c in enumerate(cols):
        for i in range(M):
            # site i and both of its neighbours empty (sites past the ends are empty)
            if c & (0b111 << i >> 1) == 0:
                Q[rows[c | 1 << i], j] = amplitudes[i] * (-1) ** bin(c & ((1 << i) - 1)).count("1")
    return Q


def hamiltonian(M: int, f: int, amplitudes=None) -> np.ndarray:
    """The f-fermion block of H = Q Q^dagger + Q^dagger Q."""
    H = np.zeros((len(exclusion_configs(M, f)),) * 2)
    if f > 0:
        down = supercharge(M, f - 1, amplitudes)
        H += down @ down.T
    up = supercharge(M, f, amplitudes)
    return H + up.T @ up


def to_spin(config: int, M: int) -> int:
    """XXZ bit pattern of an exclusion config: with one empty site appended,
    each "fermion, empty" pair becomes a down spin and every other empty
    site an up spin, read from site 1. Bit k set means spin k+1 is down."""
    spins, k, i = 0, 0, 0
    while i <= M:
        if config >> i & 1:
            spins |= 1 << k
            i += 2
        else:
            i += 1
        k += 1
    return spins


def counted_index(N: int) -> int:
    """sum over exclusion configs of M = N - 2 sites of (-1)^f, by recurrence.

    A config of m sites either leaves site m empty (a config of m - 1
    sites) or fills it with site m - 1 empty (one of m - 2 sites, one
    more fermion), so a(m) = a(m - 1) - a(m - 2) with a(0) = a(-1) = 1.
    """
    before, index = 1, 1  # a(-1), a(0)
    for _ in range(N - 2):
        before, index = index, index - before
    return index


def counted_index_by_blocks(N: int) -> int:
    """The same sum from block sizes: C(M - f + 1, f) configs hold f fermions."""
    M = N - 2
    return sum((-1) ** f * comb(M - f + 1, f) for f in range(M // 2 + 2))
