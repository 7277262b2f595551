from collections import Counter

import numpy as np
import pytest

from supercharge_oracle import (
    counted_index,
    counted_index_by_blocks,
    exclusion_configs,
    hamiltonian,
    supercharge,
    to_spin,
)
from susychain.basis import SectorKey, enumerate_sector
from susychain.model import SUSY_POINT, build_hamiltonian
from susychain.susy import assemble

BLOCKS = [SectorKey(L, n_d) for L in range(1, 12) for n_d in range(L + 1)]


@pytest.mark.parametrize("key", BLOCKS, ids=str)
def test_xxz_block_is_the_m1_block(key):
    # block (L, n_d) of sector N = L + n_d + 1 holds f = n_d fermions on M = N - 2 sites
    M, f = key.L + key.n_d - 1, key.n_d
    m1 = hamiltonian(M, f)
    xxz = build_hamiltonian(key, SUSY_POINT)
    assert np.abs(np.linalg.eigvalsh(m1) - np.linalg.eigvalsh(xxz)).max() <= 1e-12
    # the basis map is a bijection onto the block, and |H| agrees entry by entry
    bits = enumerate_sector(key)
    spins = [to_spin(c, M) for c in exclusion_configs(M, f)]
    assert sorted(spins) == bits.tolist()
    order = np.searchsorted(bits, spins)
    assert np.array_equal(np.abs(xxz[np.ix_(order, order)]), np.abs(m1))


def pair_counts(spec, levels) -> dict[int, int]:
    """f -> the pairs `assemble` formed among `levels` between blocks n_d = f and f + 1."""
    blocks = {}  # pair -> the n_d of its members
    for i in levels:
        if spec.pair_ids[i] is not None:
            blocks.setdefault(spec.pair_ids[i], []).append(spec.N - spec.lengths[i] - 1)
    return dict(Counter(int(min(pair)) for pair in blocks.values()))


def supercharge_ranks(M: int, eigen, E: float) -> dict[int, int]:
    """f -> the rank of Q from the f- to the (f + 1)-fermion eigenspace at energy E > 0,
    where it is not 0; eigen[f] is the eigh of the f-fermion block of M sites. On such an
    eigenspace (Q^dagger Q)^2 = E Q^dagger Q, so each singular value is sqrt(E) or 0."""
    spaces = [vectors[:, np.abs(values - E) < 1e-8] for values, vectors in eigen]
    ranks = {}
    for f, (below, above) in enumerate(zip(spaces, spaces[1:])):
        if below.shape[1] and above.shape[1]:
            s = np.linalg.svd(above.T @ supercharge(M, f) @ below, compute_uv=False)
            if rank := int((s > np.sqrt(E) / 2).sum()):
                ranks[f] = rank
    return ranks


@pytest.mark.parametrize("N", range(3, 13))
def test_supercharge_rank_is_the_pair_count(N):
    # at each positive energy, Q joins as many states of adjacent blocks as
    # assemble pairs between them: the multiplets are Q's, not a tolerance's
    spec = assemble(N, SUSY_POINT)
    M = N - 2
    eigen = [np.linalg.eigh(hamiltonian(M, f)) for f in range((N - 1) // 2 + 1)]
    positive = np.flatnonzero(spec.energies > 1e-8)
    groups = np.split(positive, np.flatnonzero(np.diff(spec.energies[positive]) > 1e-8) + 1)
    for levels in groups:
        E = spec.energies[levels].mean()
        assert supercharge_ranks(M, eigen, E) == pair_counts(spec, levels), f"E = {E}"


@pytest.mark.parametrize("M", range(1, 13))
def test_supercharge_is_nilpotent_and_commutes_with_h(M):
    for f in range((M + 1) // 2):  # every f whose f + 1 block is not empty
        Q = supercharge(M, f)
        assert not (supercharge(M, f + 1) @ Q).any()
        assert np.abs(hamiltonian(M, f + 1) @ Q - Q @ hamiltonian(M, f)).max() <= 1e-12


def test_counted_index_recurrence():
    assert [counted_index(N) for N in range(3, 9)] == [0, -1, -1, 0, 1, 1]
    for N in range(3, 31):
        assert counted_index(N) == counted_index_by_blocks(N)
    # the recurrence is checked against enumeration where that is cheap
    for N in range(3, 15):
        M = N - 2
        assert counted_index(N) == sum((-1) ** f * len(exclusion_configs(M, f))
                                       for f in range(M // 2 + 2))


@pytest.mark.parametrize("N", range(3, 15))
def test_counted_index_is_the_zero_mode_census(N):
    spec = assemble(N, SUSY_POINT)
    zeros = np.abs(spec.energies) < 1e-10
    assert spec.zero_mode_count == abs(counted_index(N))
    assert spec.parities[zeros].sum() == counted_index(N)
