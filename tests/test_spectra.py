import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import susychain.spectra as spectra
from susychain.basis import SectorKey
from susychain.cli import main
from susychain.model import ModelParams, SectorMatrix, build_hamiltonian
from susychain.spectra import (
    cache_get,
    cache_header,
    cache_put,
    diagonalize,
    full_chain_spectrum,
)

from charpoly_oracle import charpoly_eigenvalues

SUSY = ModelParams()


def test_diagonalize_two_by_two():
    spec = diagonalize(build_hamiltonian(SectorKey(2, 1), SUSY))
    assert np.allclose(spec.energies, [0.0, 2.0], atol=1e-12)


def test_diagonalize_trivial_block():
    spec = diagonalize(build_hamiltonian(SectorKey(3, 0), SUSY))
    assert spec.energies.tolist() == [2.0]


def test_diagonalize_identity():
    m = SectorMatrix(SectorKey(4, 1), None, np.eye(4))
    spec = diagonalize(m)
    assert np.allclose(spec.energies, np.ones(4))
    assert np.allclose(spec.states @ spec.states.T, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("L,nd", [(4, 2), (5, 2), (6, 3), (7, 3)])
def test_residual_and_orthonormality(L, nd):
    m = build_hamiltonian(SectorKey(L, nd), SUSY)
    spec = diagonalize(m)
    H = m.entries
    bound = 1e-9 * max(1.0, np.linalg.norm(H, "fro"))
    for k in range(len(spec.energies)):
        r = H @ spec.states[:, k] - spec.energies[k] * spec.states[:, k]
        assert np.linalg.norm(r) <= bound
    gram = spec.states.T @ spec.states
    assert np.abs(gram - np.eye(len(spec.energies))).max() <= 1e-9
    assert np.all(np.diff(spec.energies) >= 0)


def test_trace_preserved():
    m = build_hamiltonian(SectorKey(6, 3), SUSY)
    spec = diagonalize(m)
    assert np.isclose(spec.energies.sum(), np.trace(m.entries), rtol=1e-8)


def test_sign_convention_deterministic():
    m = build_hamiltonian(SectorKey(5, 2), SUSY)
    a = diagonalize(m)
    b = diagonalize(m)
    assert np.array_equal(a.states, b.states)
    for k in range(a.states.shape[1]):
        lead = np.argmax(np.abs(a.states[:, k]))
        assert a.states[lead, k] > 0


def reference_flip(states):
    """Negate, one column at a time, each column whose first entry of
    largest magnitude is negative."""
    states = states.copy()
    for k in range(states.shape[1]):
        lead = np.argmax(np.abs(states[:, k]))
        if states[lead, k] < 0:
            states[:, k] = -states[:, k]
    return states


def assert_flip_matches_reference(m):
    spec = diagonalize(m)
    energies, states = np.linalg.eigh(m.entries)
    assert spec.energies.tobytes() == energies.tobytes()
    assert spec.states.tobytes() == reference_flip(states).tobytes()
    lead = np.argmax(np.abs(spec.states), axis=0)
    assert np.all(spec.states[lead, np.arange(len(lead))] > 0)


@pytest.mark.parametrize("params", [SUSY, ModelParams(J=-0.73, Delta=1.37, h=0.29)])
def test_sign_flip_matches_the_per_column_loop(params):
    for L in range(1, 11):
        for nd in range(L + 1):
            assert_flip_matches_reference(build_hamiltonian(SectorKey(L, nd), params))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=n, max_size=n),
    min_size=n, max_size=n,
)))
def test_sign_flip_matches_the_per_column_loop_on_ties(rows):
    # small integer matrices give eigenvectors with entries of equal magnitude
    a = np.array(rows)
    assert_flip_matches_reference(SectorMatrix(SectorKey(len(rows), 1), None, a + a.T))


@pytest.mark.parametrize("L,nd", [(2, 1), (3, 1), (4, 2), (4, 1), (8, 1)])
def test_charpoly_oracle_agrees(L, nd):
    m = build_hamiltonian(SectorKey(L, nd), SUSY)
    if m.entries.shape[0] > 8:
        pytest.skip("oracle restricted to small blocks")
    spec = diagonalize(m)
    roots = charpoly_eigenvalues(m.entries)
    assert np.abs(roots - spec.energies).max() <= 1e-8


def test_full_chain_level_counts_and_zero_modes():
    for L in range(1, 9):
        chain = full_chain_spectrum(L, SUSY)
        assert len(chain.all_energies()) == 2**L
        zeros = (np.abs(chain.all_energies()) < 1e-10).sum()
        assert zeros == 1


def test_full_chain_small_spectra():
    chain1 = full_chain_spectrum(1, SUSY)
    assert np.allclose(np.sort(chain1.all_energies()), [0.0, 1.0], atol=1e-12)
    chain2 = full_chain_spectrum(2, SUSY)
    assert np.allclose(np.sort(chain2.all_energies()), [0.0, 1.0, 2.0, 2.0], atol=1e-12)


class TestCache:
    def _spec(self):
        return diagonalize(build_hamiltonian(SectorKey(2, 1), SUSY))

    def test_roundtrip_bit_exact(self, tmp_path):
        spec = self._spec()
        cache_put(tmp_path, spec)
        loaded = cache_get(tmp_path, spec.key, spec.params)
        assert loaded is not None
        assert np.array_equal(loaded.energies, spec.energies)
        assert np.array_equal(loaded.states, spec.states)

    def test_key_exactness(self, tmp_path):
        spec = self._spec()
        cache_put(tmp_path, spec)
        near = ModelParams(Delta=1.000001)
        assert cache_get(tmp_path, spec.key, near) is None

    def test_corruption_is_a_miss(self, tmp_path):
        spec = self._spec()
        path = cache_put(tmp_path, spec)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert cache_get(tmp_path, spec.key, spec.params) is None

    def test_truncation_is_a_miss(self, tmp_path):
        spec = self._spec()
        path = cache_put(tmp_path, spec)
        path.write_bytes(path.read_bytes()[:10])
        assert cache_get(tmp_path, spec.key, spec.params) is None

    def test_every_flipped_byte_and_truncation_is_a_miss(self, tmp_path):
        spec = self._spec()
        path = cache_put(tmp_path, spec)
        raw = path.read_bytes()
        damaged = [raw[:n] for n in range(len(raw))]
        damaged += [raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:] for i in range(len(raw))]
        for bad in damaged:
            path.write_bytes(bad)
            assert cache_get(tmp_path, spec.key, spec.params) is None
            assert cache_header(path) is None

    def test_version_bump_is_a_miss(self, tmp_path, monkeypatch):
        spec = self._spec()
        cache_put(tmp_path, spec)
        monkeypatch.setattr(spectra, "CACHE_VERSION", 2)
        assert cache_get(tmp_path, spec.key, spec.params) is None


COUPLINGS = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def block_spectra(draw):
    L = draw(st.integers(1, 6))
    key = SectorKey(L, draw(st.integers(0, L)))
    params = ModelParams(J=draw(COUPLINGS), Delta=draw(COUPLINGS), h=draw(COUPLINGS))
    return diagonalize(build_hamiltonian(key, params))


def run_inspect(root):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["cache", "inspect", "--cache-dir", str(root)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None, database=None)
@given(spec=block_spectra())
def test_cache_roundtrip_of_random_blocks_is_bit_exact(tmp_path_factory, spec):
    root = tmp_path_factory.mktemp("cache")
    path = cache_put(root, spec)
    loaded = cache_get(root, spec.key, spec.params)
    assert loaded.energies.tobytes() == spec.energies.tobytes()
    assert loaded.states.tobytes() == spec.states.tobytes()
    p = spec.params
    assert cache_header(path) == (spec.key.L, spec.key.n_d, p.J, p.Delta, p.h,
                                  len(spec.energies))
    assert [q.name for q in root.rglob("*") if q.is_file()] == [path.name]


@settings(max_examples=80, deadline=None, database=None)
@given(spec=block_spectra(), flip=st.booleans(), data=st.data())
def test_damaged_cache_entry_is_a_miss_and_skipped(tmp_path_factory, spec, flip, data):
    root = tmp_path_factory.mktemp("cache")
    path = cache_put(root, spec)
    raw = path.read_bytes()
    # half the draws land in the header, whose key fields no checksum covers
    header = st.integers(0, spectra._HEADER.size - 1)
    at = data.draw(st.one_of(header, st.integers(0, len(raw) - 1)), label="byte")
    if flip:
        mask = data.draw(st.integers(1, 255), label="mask")
        raw = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]
    else:
        raw = raw[:at]
    path.write_bytes(raw)
    assert cache_get(root, spec.key, spec.params) is None
    assert cache_header(path) is None
    code, out, err = run_inspect(root)
    assert (code, out) == (0, "0 entries\n")
    assert "skipped" in err and "Traceback" not in err
