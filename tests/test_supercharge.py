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
from susychain.susy import (
    SusySpectrum,
    assemble,
    params_at,
    witten_regularized,
    wtilde_gca_exact,
)

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


# Random site amplitudes deform Q but keep Q^2 = 0, so the index is the abstract's
# topological number: no level may cross zero, whatever the amplitudes do to the
# gap. lambda_i in [0.3, 2] for the M = N - 2 sites of each sector, drawn in turn
# from one stream at seed 7.
_draws = np.random.default_rng(7)
AMPLITUDES = {N: _draws.uniform(0.3, 2.0, N - 2) for N in range(4, 13)}


def deformed_spectrum(N: int) -> SusySpectrum:
    """Sector N of the M1 chain under AMPLITUDES[N], levels sorted by (energy, L) as
    the package sorts them; block f is (L = N - 1 - f, n_d = f), parity (-1)**f."""
    M, columns = N - 2, []
    for f in range((M + 1) // 2 + 1):
        energies = np.linalg.eigvalsh(hamiltonian(M, f, AMPLITUDES[N]))
        columns.append((energies, np.full(len(energies), N - 1 - f),
                        np.full(len(energies), (-1) ** f)))
    energies, lengths, parities = (np.concatenate(c) for c in zip(*columns))
    order = np.lexsort((lengths, energies))
    energies, lengths, parities = energies[order], lengths[order], parities[order]
    zeros = np.flatnonzero(np.abs(energies) < 1e-10)
    return SusySpectrum(N, energies, lengths, parities, (None,) * len(energies), len(zeros),
                        int(lengths[zeros[0]]) if len(zeros) == 1 else None)


@pytest.mark.parametrize("N", sorted(AMPLITUDES))
def test_deformed_supercharge_is_nilpotent(N):
    M = N - 2
    for f in range((M + 1) // 2):
        Q = supercharge(M, f, AMPLITUDES[N])
        assert np.abs(supercharge(M, f + 1, AMPLITUDES[N]) @ Q).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("N", sorted(AMPLITUDES))
def test_regularized_index_survives_deformed_amplitudes(N):
    spec = deformed_spectrum(N)
    # the gap moves (N = 11: 1.0441 -> 0.4685), and the index does not
    assert abs(spec.first_excited - assemble(N, SUSY_POINT).first_excited) > 0.05
    assert spec.zero_mode_count == abs(counted_index(N))
    for beta0 in (0.5, 5.0):
        assert witten_regularized(spec, beta0) == pytest.approx(counted_index(N), abs=1e-10)


@pytest.mark.parametrize("N", sorted(AMPLITUDES))
def test_deformed_gca_estimate_reaches_the_index(N):
    # With Tr(-1)^F e^(-beta H) = W at every beta, W~ = W / Z, and Z = |W| plus the
    # D - |W| positive levels' weights, each at most e^(-beta E1). So
    # |W~ - W| <= (D - |W|) e^(-beta E1), to rounding; the bound was set before
    # any value was computed.
    spec = deformed_spectrum(N)
    W, D = counted_index(N), len(spec.energies)
    errors = {beta: abs(wtilde_gca_exact(spec, beta) - W) for beta in (5.0, 20.0, 40.0)}
    for beta, error in errors.items():
        assert error <= (D - abs(W)) * np.exp(-beta * spec.first_excited) + 1e-12
    assert errors[40.0] <= 1e-6  # N = 11 reads -0.8293, -0.99983 and -1.000000 at beta = 5, 20, 40


def test_anisotropy_moves_the_regularized_index_itself():
    # Delta breaks Q^2 = 0 where the amplitudes did not: at N = 10 the trace
    # depends on beta0 and leaves W = -1
    spec = assemble(10, params_at("delta", 1.3))
    values = [witten_regularized(spec, beta0) for beta0 in (0.5, 1.0, 5.0)]
    assert values == pytest.approx([-1.2348, -1.3497, -3.1119], abs=1e-4)
    assert min(abs(v - counted_index(10)) for v in values) > 0.2
