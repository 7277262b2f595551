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

BLOCKS = [SectorKey(L, n_d) for L in range(1, 11) for n_d in range(L + 1)]


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
