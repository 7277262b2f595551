import hashlib
import io
import pickle
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import susychain.spectra as spectra
from susychain.basis import SectorKey
from susychain.cli import main
from susychain.model import ModelParams, build_hamiltonian
from susychain.spectra import (
    SolverError,
    _solve_block,
    cache_get,
    cache_header,
    cache_put,
    full_chain_spectrum,
)

from charpoly_oracle import charpoly_eigenvalues

SUSY = ModelParams()


def test_diagonalize_two_by_two():
    energies, _ = _solve_block(SectorKey(2, 1), SUSY, vectors=True)
    assert np.allclose(energies, [0.0, 2.0], atol=1e-12)


def test_diagonalize_trivial_block():
    energies, _ = _solve_block(SectorKey(3, 0), SUSY, vectors=True)
    assert energies.tolist() == [2.0]


def test_solver_error_survives_a_pickle_round_trip():
    # a forked worker pickles it back to the process that reports it
    error = pickle.loads(pickle.dumps(SolverError(SectorKey(9, 0), "did not converge")))
    assert (type(error), error.key, error.detail, str(error)) == (
        SolverError, SectorKey(9, 0), "did not converge",
        "eigensolver failed on block (L=9, n_d=0): did not converge")


@pytest.mark.parametrize("L,nd", [(4, 2), (5, 2), (6, 3), (7, 3)])
def test_residual_and_orthonormality(L, nd):
    H = build_hamiltonian(SectorKey(L, nd), SUSY)
    energies, states = _solve_block(SectorKey(L, nd), SUSY, vectors=True)
    bound = 1e-9 * max(1.0, np.linalg.norm(H, "fro"))
    for k in range(len(energies)):
        r = H @ states[:, k] - energies[k] * states[:, k]
        assert np.linalg.norm(r) <= bound
    gram = states.T @ states
    assert np.abs(gram - np.eye(len(energies))).max() <= 1e-9
    assert np.all(np.diff(energies) >= 0)


def test_trace_preserved():
    energies, _ = _solve_block(SectorKey(6, 3), SUSY, vectors=True)
    assert np.isclose(energies.sum(), np.trace(build_hamiltonian(SectorKey(6, 3), SUSY)),
                      rtol=1e-8)


def test_sign_convention_deterministic():
    _, a = _solve_block(SectorKey(5, 2), SUSY, vectors=True)
    _, b = _solve_block(SectorKey(5, 2), SUSY, vectors=True)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("params", [SUSY, ModelParams(J=-0.73, Delta=1.37, h=0.29)])
def test_energies_are_the_bytes_eigh_returns(params):
    blocks = [SectorKey(L, nd) for L in range(1, 11) for nd in range(L + 1)]
    assert len(blocks) == 65
    for key in blocks:
        energies, _ = _solve_block(key, params, vectors=True)
        assert energies.tobytes() == np.linalg.eigh(build_hamiltonian(key, params))[0].tobytes()


@pytest.mark.parametrize("L,nd", [(2, 1), (3, 1), (4, 2), (4, 1), (8, 1)])
def test_charpoly_oracle_agrees(L, nd):
    H = build_hamiltonian(SectorKey(L, nd), SUSY)
    if H.shape[0] > 8:
        pytest.skip("oracle restricted to small blocks")
    energies, _ = _solve_block(SectorKey(L, nd), SUSY, vectors=True)
    roots = charpoly_eigenvalues(H)
    assert np.abs(roots - energies).max() <= 1e-8


def test_full_chain_level_counts_and_zero_modes():
    for L in range(1, 9):
        energies = np.concatenate(full_chain_spectrum(L, SUSY))
        assert len(energies) == 2**L
        zeros = (np.abs(energies) < 1e-10).sum()
        assert zeros == 1


def test_full_chain_small_spectra():
    chain1 = np.concatenate(full_chain_spectrum(1, SUSY))
    assert np.allclose(np.sort(chain1), [0.0, 1.0], atol=1e-12)
    chain2 = np.concatenate(full_chain_spectrum(2, SUSY))
    assert np.allclose(np.sort(chain2), [0.0, 1.0, 2.0, 2.0], atol=1e-12)


def test_full_chain_spectrum_is_memoized_and_read_only(solves):
    chain = full_chain_spectrum(5, SUSY)
    assert full_chain_spectrum(5, SUSY) is chain
    assert len(solves) == 6
    for block in chain:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0] = 0.0


class TestCache:
    def _spec(self):
        """(key, energies, states) of a two-level block."""
        return (SectorKey(2, 1), *_solve_block(SectorKey(2, 1), SUSY, vectors=True))

    def test_roundtrip_bit_exact(self, tmp_path):
        key, energies, _ = self._spec()
        cache_put(tmp_path, key, SUSY, energies)
        loaded = cache_get(tmp_path, key, SUSY)
        assert loaded is not None
        assert np.array_equal(loaded, energies)

    def test_key_exactness(self, tmp_path):
        key, energies, _ = self._spec()
        cache_put(tmp_path, key, SUSY, energies)
        near = ModelParams(Delta=1.000001)
        assert cache_get(tmp_path, key, near) is None

    def test_corruption_is_a_miss(self, tmp_path):
        key, energies, _ = self._spec()
        path = cache_put(tmp_path, key, SUSY, energies)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert cache_get(tmp_path, key, SUSY) is None

    def test_truncation_is_a_miss(self, tmp_path):
        key, energies, _ = self._spec()
        path = cache_put(tmp_path, key, SUSY, energies)
        path.write_bytes(path.read_bytes()[:10])
        assert cache_get(tmp_path, key, SUSY) is None

    def test_every_flipped_byte_and_truncation_is_a_miss(self, tmp_path):
        key, energies, _ = self._spec()
        path = cache_put(tmp_path, key, SUSY, energies)
        raw = path.read_bytes()
        damaged = [raw[:n] for n in range(len(raw))]
        damaged += [raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:] for i in range(len(raw))]
        for bad in damaged:
            path.write_bytes(bad)
            assert cache_get(tmp_path, key, SUSY) is None
            assert cache_header(path) is None

    def test_version_bump_is_a_miss(self, tmp_path, monkeypatch):
        key, energies, _ = self._spec()
        cache_put(tmp_path, key, SUSY, energies)
        monkeypatch.setattr(spectra, "CACHE_VERSION", spectra.CACHE_VERSION + 1)
        assert cache_get(tmp_path, key, SUSY) is None

    def test_payload_is_the_energies_alone(self, tmp_path):
        key, energies = SectorKey(6, 3), _solve_block(SectorKey(6, 3), SUSY)
        path = cache_put(tmp_path, key, SUSY, energies)
        assert path.stat().st_size == spectra._HEADER.size + 8 * 20
        assert path.read_bytes()[spectra._HEADER.size:] == energies.tobytes()

    def test_hit_and_miss_return_the_same_energies_and_type(self, tmp_path):
        plain = full_chain_spectrum(6, SUSY)
        cold = full_chain_spectrum(6, SUSY, tmp_path)
        full_chain_spectrum.cache_clear()  # read the chain back from disk, not the memo
        warm = full_chain_spectrum(6, SUSY, tmp_path)
        assert warm is not cold
        for chain in (plain, cold, warm):
            assert type(chain) is tuple and len(chain) == 7
            for nd, block in enumerate(chain):
                assert type(block) is np.ndarray and block.dtype == np.float64
                assert block.tobytes() == plain[nd].tobytes()

    def test_version_1_entry_is_a_miss_and_not_counted(self, tmp_path):
        # a block as version 1 stored it: energies, then the eigenvector matrix
        key, energies, states = self._spec()
        p = SUSY
        payload = energies.tobytes() + states.tobytes()
        old = spectra._HEADER.pack(spectra._MAGIC, 1, key.L, key.n_d, p.J, p.Delta, p.h,
                                   len(energies), hashlib.sha256(payload).digest())
        name = spectra._entry_name(key.L, key.n_d, p.J, p.Delta, p.h)
        (tmp_path / "v1").mkdir()
        (tmp_path / "v1" / name).write_bytes(old + payload)
        assert cache_get(tmp_path, key, p) is None
        code, out, err = run_inspect(tmp_path)
        assert (code, out) == (0, "0 entries\n")
        assert err == "1 entries of other cache versions not listed; `cache clear` removes them\n"
        # the same bytes under the current version's directory are still a miss
        path = cache_put(tmp_path, key, p, energies)
        path.write_bytes(old + payload)
        assert cache_get(tmp_path, key, p) is None
        code, out, err = run_inspect(tmp_path)
        assert out == "0 entries\n" and f"{name}: damaged or foreign entry, skipped" in err
        cache_put(tmp_path, key, p, energies)
        code, out, err = run_inspect(tmp_path)
        assert out.splitlines()[-1] == "1 entries" and "skipped" not in err
        assert err.count("other cache versions") == 1

    def test_version_2_entry_is_a_miss_counted_and_cleared(self, tmp_path):
        # a block as version 2 stored it: the energies alone, checked by sha256
        key, energies, _ = self._spec()
        p = SUSY
        payload = energies.tobytes()
        old = spectra._HEADER.pack(spectra._MAGIC, 2, key.L, key.n_d, p.J, p.Delta, p.h,
                                   len(energies), hashlib.sha256(payload).digest())
        name = spectra._entry_name(key.L, key.n_d, p.J, p.Delta, p.h)
        (tmp_path / "v2").mkdir()
        (tmp_path / "v2" / name).write_bytes(old + payload)
        assert cache_get(tmp_path, key, p) is None
        code, out, err = run_inspect(tmp_path)
        assert (code, out) == (0, "0 entries\n")
        assert err == "1 entries of other cache versions not listed; `cache clear` removes them\n"
        # the same bytes under the current version's directory are still a miss
        path = cache_put(tmp_path, key, p, energies)
        assert path.read_bytes()[spectra._HEADER.size:] == payload
        path.write_bytes(old + payload)
        assert cache_get(tmp_path, key, p) is None
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert not tmp_path.exists()

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(spectra.os, "replace", refuse)
        key, energies, _ = self._spec()
        with pytest.raises(OSError, match="No space left"):
            cache_put(tmp_path, key, SUSY, energies)
        assert list(tmp_path.rglob("*.tmp")) == []
        root = tmp_path / "cli"
        assert main(["spectrum", "--N", "4", "--cache-dir", str(root)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("I/O error: ")
        assert list(root.rglob("*.tmp")) == []


COUPLINGS = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def block_spectra(draw):
    L = draw(st.integers(1, 6))
    key = SectorKey(L, draw(st.integers(0, L)))
    params = ModelParams(J=draw(COUPLINGS), Delta=draw(COUPLINGS), h=draw(COUPLINGS))
    return params, key, _solve_block(key, params)


@settings(max_examples=60, deadline=None, database=None)
@given(payload=st.binary(max_size=4096))
def test_digest_is_blake2b_256(payload):
    assert spectra._digest(payload) == hashlib.blake2b(payload, digest_size=32).digest()


def run_inspect(root):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["cache", "inspect", "--cache-dir", str(root)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None, database=None)
@given(block=block_spectra())
def test_cache_roundtrip_of_random_blocks_is_bit_exact(tmp_path_factory, block):
    p, key, energies = block
    root = tmp_path_factory.mktemp("cache")
    path = cache_put(root, key, p, energies)
    loaded = cache_get(root, key, p)
    assert loaded.tobytes() == energies.tobytes()
    assert cache_header(path) == (key.L, key.n_d, p.J, p.Delta, p.h,
                                  len(energies))
    assert [q.name for q in root.rglob("*") if q.is_file()] == [path.name]


@settings(max_examples=80, deadline=None, database=None)
@given(block=block_spectra(), flip=st.booleans(), data=st.data())
def test_damaged_cache_entry_is_a_miss_and_skipped(tmp_path_factory, block, flip, data):
    params, key, energies = block
    root = tmp_path_factory.mktemp("cache")
    path = cache_put(root, key, params, energies)
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
    assert cache_get(root, key, params) is None
    assert cache_header(path) is None
    code, out, err = run_inspect(root)
    assert (code, out) == (0, "0 entries\n")
    assert "skipped" in err and "Traceback" not in err
