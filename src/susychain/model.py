"""Dense block Hamiltonians for the open XXZ chain with boundary fields.

The model on L sites, restricted to one (L, n_d) magnetization block:

    H = sum_{i=1}^{L-1} [ J (S+_i S-_{i+1} + S-_i S+_{i+1}) + Delta Sz_i Sz_{i+1} ]
        - h (Sz_1 + Sz_L) + (3L - 1)/4

The constant term prices chain length so blocks of different L can share an
energy reference. At (J, Delta, h) = (-1, 1, 1/2) the spectrum is
non-negative and every positive level is two-fold degenerate across
neighboring lengths with opposite parity; that supersymmetric structure is
what the rest of the package measures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import SectorKey, enumerate_sector


@dataclass(frozen=True)
class ModelParams:
    """Couplings: hopping J, Ising anisotropy Delta, edge field h."""

    J: float = -1.0
    Delta: float = 1.0
    h: float = 0.5

    def __post_init__(self):
        for name in ("J", "Delta", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


# Couplings with exact binary representations; the degeneracy structure
# holds only exactly at this point.
SUSY_POINT = ModelParams()


@functools.cache
def _block_operators(key: SectorKey) -> tuple[tuple, np.ndarray, np.ndarray]:
    """((rows, cols), D, B) of one block: H = J A + Delta diag(D) - h diag(B) + const.

    A, the 0/1 adjacency of adjacent-exchange moves, is kept as the indices
    of its ones: S+ S- + S- S+ on a bond swaps an adjacent up/down pair and
    never leaves the block (magnetization is conserved). D is
    sum_i Sz_i Sz_{i+1} and B is Sz_1 + Sz_L per config; on a single site B
    reads site 1 twice, the only convention that keeps the N=3 pair
    degenerate. Built once per block and shared, so the arrays are read-only.
    """
    bits = enumerate_sector(key)
    down = (bits[:, None] >> np.arange(key.L)) & 1
    # an exchange acts on every bond whose two sites differ
    col, bond = np.nonzero(down[:, :-1] ^ down[:, 1:])
    # configs are sorted by bits, so searchsorted finds the swapped one
    row = np.searchsorted(bits, bits[col] ^ (3 << bond))
    sz = 0.5 - down
    D = (sz[:, :-1] * sz[:, 1:]).sum(axis=1)
    B = sz[:, 0] + sz[:, -1]
    for a in (row, col, D, B):
        a.flags.writeable = False
    return (row, col), D, B


def build_hamiltonian(key: SectorKey, params: ModelParams) -> np.ndarray:
    """Hamiltonian restricted to the (L, n_d) block, a dense float64 array."""
    pairs, D, B = _block_operators(key)
    H = np.zeros((key.dimension, key.dimension))
    H[pairs] = params.J
    np.fill_diagonal(H, (params.Delta * D - params.h * B) + (3.0 * key.L - 1.0) / 4.0)
    return H


def level_slopes(key: SectorKey, field: str, states: np.ndarray) -> np.ndarray:
    """<psi|dH/dc|psi> for every column psi of `states`, c the ModelParams field.

    Read from the block's operator pieces, so no dense derivative is built:
    sum_k D_k psi_k**2 for Delta, and the sum over the exchange pairs of
    psi_row psi_col for J, taken a block dimension of pairs at a time so the
    gathered rows never outgrow `states`. Both are exact in a column's sign.
    """
    (rows, cols), D, _ = _block_operators(key)
    if field == "Delta":
        return D @ np.square(states)
    if field != "J":
        raise ValueError(f"no slope for coupling field {field!r}")
    slopes = np.zeros(states.shape[1])
    step = len(states)
    for k in range(0, len(rows), step):
        slopes += np.einsum("ij,ij->j", states[rows[k:k + step]], states[cols[k:k + step]])
    return slopes
