"""Eigendecomposition of block matrices, full-chain spectra, and a disk cache.

Spectra are the only expensive objects in the package (everything else is
arithmetic over them), so their energies get a checksummed binary cache
keyed by the block and the exact coupling values. They are solved without
eigenvectors (`eigvalsh`). Only the slope path calls `diagonalize` (`eigh`):
the Hellmann-Feynman slope reads its eigenvectors, and the finite-difference
slope reads its energies so both estimates come from one solver.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import SectorKey, decompose_n_sector
from .model import ModelParams, SectorMatrix, build_hamiltonian

CACHE_VERSION = 2  # 1 also stored the eigenvectors
_MAGIC = b"SCSP"
# magic, version, L, n_d, J, Delta, h, dimension, sha256 of the payload
_HEADER = struct.Struct("<4sIII3dI32s")

# Largest dense float64 block the package builds. Paths over a sector's own
# blocks pass N <= 22 (C(15,6) = 5005, 191 MiB); paths over whole member
# chains pass N <= 15 (C(14,7) = 3432, 90 MiB).
MAX_BLOCK_BYTES = 256 * 2**20

# thread-count symbols of numpy's bundled OpenBLAS, by symbol prefix and suffix
_OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))


class SolverError(RuntimeError):
    """Eigensolver failed to converge on a block."""

    def __init__(self, key: SectorKey, detail: str):
        super().__init__(f"eigensolver failed on block (L={key.L}, n_d={key.n_d}): {detail}")
        self.key = key


@dataclass(frozen=True)
class BlockEigenpairs:
    """Eigenpairs of one (L, n_d) block: ascending energies, column states."""

    key: SectorKey
    energies: np.ndarray
    states: np.ndarray


def _check_block(owner: str, key: SectorKey) -> None:
    """Refuse block `key`, which `owner` needs, if it exceeds MAX_BLOCK_BYTES as a dense matrix."""
    size = 8 * key.dimension**2
    if size > MAX_BLOCK_BYTES:
        raise ValueError(
            f"{owner} needs the dense block (L={key.L}, n_d={key.n_d}) of dimension "
            f"{key.dimension}, {size} bytes; the limit is {MAX_BLOCK_BYTES} bytes "
            f"({MAX_BLOCK_BYTES // 2**20} MiB) per block")


def _check_sector(N: int, full_chains: bool = False) -> None:
    """Refuse sector N, before any basis is enumerated, if a block it needs is too large."""
    keys = decompose_n_sector(N).members
    if full_chains:  # every block of each member chain: the largest is n_d = L//2
        keys = [SectorKey(key.L, key.L // 2) for key in keys]
    _check_block(f"N={N}", max(keys, key=lambda k: k.dimension))


def diagonalize(matrix: SectorMatrix) -> BlockEigenpairs:
    """Dense symmetric eigendecomposition: eigh's energies and column vectors.

    A column's sign is whatever LAPACK returns; the only reader of vectors,
    the Hellmann-Feynman slope, forms psi^T (dH/dc) psi, where it cancels.
    """
    try:
        energies, states = np.linalg.eigh(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise SolverError(matrix.key, str(exc)) from exc
    return BlockEigenpairs(matrix.key, energies, states)


def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS uses now, or None if there is none."""
    calls = _openblas()
    return None if calls is None else calls[0]()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with the bundled OpenBLAS on one thread, then restore its count.

    The blocks the command line diagonalizes are small (dimension 252 at
    L=10), where a second BLAS thread spins without saving wall time.
    Without a bundled OpenBLAS this does nothing.
    """
    get, put = _openblas() or (lambda: None, lambda n: None)
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# ---------------------------------------------------------------------------
# disk cache

def _fmt(x: float) -> str:
    return repr(float(x))


def _entry_name(L: int, n_d: int, J: float, Delta: float, h: float) -> str:
    return f"L{L}_nd{n_d}_J{_fmt(J)}_D{_fmt(Delta)}_h{_fmt(h)}.spec"


def _entry_path(cache_dir: Path, key: SectorKey, params: ModelParams) -> Path:
    name = _entry_name(key.L, key.n_d, params.J, params.Delta, params.h)
    return cache_dir / f"v{CACHE_VERSION}" / name


def _digest(payload: bytes) -> bytes:
    """sha256 of a cache payload."""
    import hashlib  # loads OpenSSL, which only cache reads and writes need

    return hashlib.sha256(payload).digest()


def cache_put(cache_dir: str | Path, key: SectorKey, params: ModelParams,
              energies: np.ndarray) -> Path:
    """Store a block's energies; atomic via rename, checksummed payload."""
    path = _entry_path(Path(cache_dir), key, params)
    path.parent.mkdir(parents=True, exist_ok=True)
    dim = len(energies)
    payload = np.ascontiguousarray(energies, dtype=np.float64).tobytes()
    header = _HEADER.pack(
        _MAGIC,
        CACHE_VERSION,
        key.L,
        key.n_d,
        params.J,
        params.Delta,
        params.h,
        dim,
        _digest(payload),
    )
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(header)
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _read_entry(path: Path) -> tuple[tuple, bytes] | None:
    """((L, n_d, J, Delta, h, dim), payload) of an intact entry, else None.

    The header must name the file it sits in, so a damaged key field is
    caught as surely as a damaged payload.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    if len(raw) < _HEADER.size:
        return None
    magic, version, *key, dim, digest = _HEADER.unpack_from(raw)
    payload = raw[_HEADER.size:]
    if (
        magic != _MAGIC
        or version != CACHE_VERSION
        or path.name != _entry_name(*key)
        or len(payload) != dim * 8
        or _digest(payload) != digest
    ):
        return None
    return (*key, dim), payload


def cache_header(path: str | Path) -> tuple[int, int, float, float, float, int] | None:
    """(L, n_d, J, Delta, h, levels) of an intact cache entry, else None."""
    entry = _read_entry(Path(path))
    return None if entry is None else entry[0]


def cache_get(
    cache_dir: str | Path, key: SectorKey, params: ModelParams
) -> np.ndarray | None:
    """Load a block's ascending energies; any corruption or mismatch is a miss."""
    entry = _read_entry(_entry_path(Path(cache_dir), key, params))
    if entry is None:
        return None
    return np.frombuffer(entry[1], dtype=np.float64).copy()


def cached_block(
    key: SectorKey, params: ModelParams, cache_dir: str | Path | None = None
) -> np.ndarray:
    """Ascending energies of one block, going through the cache when one is configured."""
    if cache_dir is not None:
        hit = cache_get(cache_dir, key, params)
        if hit is not None:
            return hit
    matrix = build_hamiltonian(key, params)
    try:
        energies = np.linalg.eigvalsh(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise SolverError(key, str(exc)) from exc
    if cache_dir is not None:
        cache_put(cache_dir, key, params, energies)
    return energies


# 16 chains hold one coupling value's member chains for every sector the
# full-chain size guard admits (lengths 1..14); at 2**14 levels or fewer
# each, that is at most 2 MiB of energies
@functools.lru_cache(maxsize=16)
def full_chain_spectrum(
    L: int, params: ModelParams, cache_dir: str | Path | None = None
) -> tuple[np.ndarray, ...]:
    """Energies of every block of an L-site chain, indexed by n_d; 2**L levels in all.

    Memoized per process and shared by every caller, so the arrays are read-only.
    """
    _check_block(f"the L={L} chain", SectorKey(L, L // 2))
    chain = tuple(cached_block(SectorKey(L, nd), params, cache_dir) for nd in range(L + 1))
    for energies in chain:
        energies.flags.writeable = False
    return chain
