import hashlib
from dataclasses import replace

import numpy as np
import pytest

from susychain.basis import SectorKey, enumerate_sector
from susychain.model import (
    SUSY_POINT,
    ModelParams,
    _block_operators,
    build_hamiltonian,
    level_slopes,
)

SUSY = ModelParams()


# dH/dc as dense matrices, built from the block's operator pieces
def build_dh_ddelta(key: SectorKey) -> np.ndarray:
    return np.diag(_block_operators(key)[1])


def build_dh_dj(key: SectorKey) -> np.ndarray:
    A = np.zeros((key.dimension, key.dimension))
    A[_block_operators(key)[0]] = 1.0
    return A


def test_susy_point_predicate():
    assert SUSY == SUSY_POINT
    assert ModelParams(Delta=1.0 + 1e-12) != SUSY_POINT


def test_hand_golden_two_site_block():
    H = build_hamiltonian(SectorKey(2, 1), SUSY)
    assert np.array_equal(H, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_hand_golden_three_site_all_up():
    H = build_hamiltonian(SectorKey(3, 0), SUSY)
    assert np.array_equal(H, np.array([[2.0]]))


def test_hand_golden_single_site():
    # boundary term reads the single site twice
    H = build_hamiltonian(SectorKey(1, 1), SUSY)
    assert np.array_equal(H, np.array([[1.0]]))
    H0 = build_hamiltonian(SectorKey(1, 0), SUSY)
    assert np.array_equal(H0, np.array([[0.0]]))


@pytest.mark.parametrize("L,nd", [(3, 1), (4, 2), (5, 2), (6, 3)])
def test_exact_symmetry(L, nd):
    H = build_hamiltonian(SectorKey(L, nd), SUSY)
    assert np.array_equal(H, H.T)


def test_off_diagonal_connections_are_adjacent_exchanges():
    key = SectorKey(4, 2)
    states = enumerate_sector(key).tolist()
    H = build_hamiltonian(key, SUSY)
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            if i == j:
                continue
            diff = a ^ b
            adjacent_pair = diff.bit_count() == 2 and (diff & (diff >> 1)) != 0
            if H[i, j] != 0.0:
                assert adjacent_pair
                assert H[i, j] == SUSY.J


def test_derivative_goldens():
    assert np.array_equal(build_dh_ddelta(SectorKey(2, 1)), np.diag([-0.25, -0.25]))
    assert np.array_equal(build_dh_ddelta(SectorKey(3, 0)), [[0.5]])
    assert np.array_equal(build_dh_ddelta(SectorKey(1, 1)), [[0.0]])
    assert np.array_equal(build_dh_dj(SectorKey(2, 1)), [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(build_dh_dj(SectorKey(3, 0)), [[0.0]])
    assert np.array_equal(build_dh_dj(SectorKey(1, 1)), [[0.0]])


EPS = 1e-4


def central_difference(key: SectorKey, field: str) -> np.ndarray:
    """(H(c + EPS) - H(c - EPS)) / 2 EPS at the supersymmetric point."""
    c = getattr(SUSY, field)
    up, dn = (build_hamiltonian(key, replace(SUSY, **{field: c + s}))
              for s in (EPS, -EPS))
    return (up - dn) / (2 * EPS)


@pytest.mark.parametrize("L,nd", [(3, 1), (4, 2), (5, 3)])
def test_finite_difference_consistency(L, nd):
    key = SectorKey(L, nd)
    for field, build in (("Delta", build_dh_ddelta), ("J", build_dh_dj)):
        assert np.allclose(central_difference(key, field), build(key), atol=1e-10)


@pytest.mark.parametrize("L,nd", [(1, 1), (3, 1), (4, 2), (6, 3), (8, 4), (10, 5)])
@pytest.mark.parametrize("field", ["J", "Delta"])
def test_level_slopes_match_central_difference(L, nd, field):
    key = SectorKey(L, nd)
    _, states = np.linalg.eigh(build_hamiltonian(key, SUSY))
    expected = np.einsum("ij,ij->j", states, central_difference(key, field) @ states)
    assert np.allclose(level_slopes(key, field, states), expected, rtol=0, atol=1e-10)


def test_level_slopes_reject_other_fields():
    with pytest.raises(ValueError, match="'h'"):
        level_slopes(SectorKey(2, 1), "h", np.eye(2))


def test_block_operators_are_read_only():
    # every caller shares one memoized copy of each block's operators
    (rows, cols), D, B = _block_operators(SectorKey(4, 2))
    for a in (rows, cols, D, B):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize("L", range(1, 9))
def test_susy_point_spectrum_nonnegative(L):
    for nd in range(L + 1):
        evals = np.linalg.eigvalsh(build_hamiltonian(SectorKey(L, nd), SUSY))
        assert evals.min() >= -1e-10


# sha256 over the entries of every block with L <= 10, in (L, n_d) order,
# recorded before the operators were rebuilt from one shared helper; the
# sweeps' finite differences see any change in the last bit. dH/dc comes
# from the dense builders above, so the digests pin the operator pieces.
FROZEN_BLOCKS = [SectorKey(L, nd) for L in range(1, 11) for nd in range(L + 1)]
GENERIC = ModelParams(J=-0.73, Delta=1.37, h=0.29)
FROZEN_DIGESTS = {
    "H susy": "40b568ba8b910dbd9f395803f978ea112c8ff4ff3f25eada4352361a6f5680d9",
    "H generic": "d0c4daad3aae28628437fd5614b72dd7e45b5946db94cdfb98564a66b31d56f5",
    "dH/dJ": "3325d2d607f94cfa6d87782b8a73cd5b3c80ca4d5074825936a46228ed3cb393",
    "dH/dDelta": "27e08450f5f20bfbb33d92c25b18196356c3b4a1833e295cf9f82e913a240e8c",
}


@pytest.mark.parametrize("name,build", [
    ("H susy", lambda key: build_hamiltonian(key, SUSY)),
    ("H generic", lambda key: build_hamiltonian(key, GENERIC)),
    ("dH/dJ", build_dh_dj),
    ("dH/dDelta", build_dh_ddelta),
])
def test_operator_entries_are_frozen(name, build):
    digest = hashlib.sha256()
    for key in FROZEN_BLOCKS:
        digest.update(build(key).tobytes())
    assert digest.hexdigest() == FROZEN_DIGESTS[name]


@pytest.mark.parametrize("field", ["J", "Delta", "h"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_couplings_are_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        ModelParams(**{field: value})
