"""Eigendecomposition of block matrices, full-chain spectra, and a disk cache.

Spectra are the only expensive objects in the package (everything else is
arithmetic over them), so they get a checksummed binary cache keyed by the
block and the exact coupling values.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import SectorKey
from .model import ModelParams, SectorMatrix, build_hamiltonian

CACHE_VERSION = 1
_MAGIC = b"SCSP"
# magic, version, L, n_d, J, Delta, h, dimension, sha256 of the payload
_HEADER = struct.Struct("<4sIII3dI32s")


class SolverError(RuntimeError):
    """Eigensolver failed to converge on a block."""

    def __init__(self, key: SectorKey, detail: str):
        super().__init__(f"eigensolver failed on block (L={key.L}, n_d={key.n_d}): {detail}")
        self.key = key


@dataclass(frozen=True)
class ChainSectorSpectrum:
    """Eigenpairs of one (L, n_d) block: ascending energies, column states."""

    key: SectorKey
    params: ModelParams
    energies: np.ndarray
    states: np.ndarray


@dataclass(frozen=True)
class FullChainSpectrum:
    """All magnetization blocks of one chain; 2**L levels in total."""

    L: int
    params: ModelParams
    blocks: tuple[ChainSectorSpectrum, ...]

    def all_energies(self) -> np.ndarray:
        return np.concatenate([b.energies for b in self.blocks])


def diagonalize(matrix: SectorMatrix) -> ChainSectorSpectrum:
    """Dense symmetric eigendecomposition with a fixed sign convention.

    Each eigenvector is normalized so the first of its largest-magnitude
    components is positive, making the output reproducible across runs and
    cacheable byte-for-byte.
    """
    try:
        energies, states = np.linalg.eigh(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise SolverError(matrix.key, str(exc)) from exc
    cols = np.arange(states.shape[1])
    hi, lo = states.argmax(axis=0), states.argmin(axis=0)
    top, bottom = states[hi, cols], -states[lo, cols]
    # flip where the first largest-magnitude entry is the min; x * -1.0 is exact
    states *= np.where((bottom > top) | ((bottom == top) & (lo < hi)), -1.0, 1.0)
    return ChainSectorSpectrum(matrix.key, matrix.params, energies, states)


def partition_function(spec: FullChainSpectrum, beta: float) -> float:
    """Canonical Z = sum over all 2**L levels of exp(-beta E)."""
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    return float(np.exp(-beta * spec.all_energies()).sum())


# ---------------------------------------------------------------------------
# disk cache

def _fmt(x: float) -> str:
    return repr(float(x))


def _entry_name(L: int, n_d: int, J: float, Delta: float, h: float) -> str:
    return f"L{L}_nd{n_d}_J{_fmt(J)}_D{_fmt(Delta)}_h{_fmt(h)}.spec"


def _entry_path(cache_dir: Path, key: SectorKey, params: ModelParams) -> Path:
    name = _entry_name(key.L, key.n_d, params.J, params.Delta, params.h)
    return cache_dir / f"v{CACHE_VERSION}" / name


def cache_put(cache_dir: str | Path, spectrum: ChainSectorSpectrum) -> Path:
    """Store a block spectrum; atomic via rename, checksummed payload."""
    path = _entry_path(Path(cache_dir), spectrum.key, spectrum.params)
    path.parent.mkdir(parents=True, exist_ok=True)
    dim = len(spectrum.energies)
    payload = (
        np.ascontiguousarray(spectrum.energies, dtype=np.float64).tobytes()
        + np.ascontiguousarray(spectrum.states, dtype=np.float64).tobytes()
    )
    header = _HEADER.pack(
        _MAGIC,
        CACHE_VERSION,
        spectrum.key.L,
        spectrum.key.n_d,
        spectrum.params.J,
        spectrum.params.Delta,
        spectrum.params.h,
        dim,
        hashlib.sha256(payload).digest(),
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
        or len(payload) != dim * 8 + dim * dim * 8
        or hashlib.sha256(payload).digest() != digest
    ):
        return None
    return (*key, dim), payload


def cache_header(path: str | Path) -> tuple[int, int, float, float, float, int] | None:
    """(L, n_d, J, Delta, h, levels) of an intact cache entry, else None."""
    entry = _read_entry(Path(path))
    return None if entry is None else entry[0]


def cache_get(
    cache_dir: str | Path, key: SectorKey, params: ModelParams
) -> ChainSectorSpectrum | None:
    """Load a block spectrum; any corruption or mismatch is a miss."""
    entry = _read_entry(_entry_path(Path(cache_dir), key, params))
    if entry is None:
        return None
    (*_, dim), payload = entry
    energies = np.frombuffer(payload[: dim * 8], dtype=np.float64).copy()
    states = (
        np.frombuffer(payload[dim * 8 :], dtype=np.float64).reshape(dim, dim).copy()
    )
    return ChainSectorSpectrum(key, params, energies, states)


def cached_block(
    key: SectorKey, params: ModelParams, cache_dir: str | Path | None = None
) -> ChainSectorSpectrum:
    """Diagonalize one block, going through the cache when one is configured."""
    if cache_dir is not None:
        hit = cache_get(cache_dir, key, params)
        if hit is not None:
            return hit
    spec = diagonalize(build_hamiltonian(key, params))
    if cache_dir is not None:
        cache_put(cache_dir, spec)
    return spec


def full_chain_spectrum(
    L: int, params: ModelParams, cache_dir: str | Path | None = None
) -> FullChainSpectrum:
    """Every n_d block of an L-site chain, through the cache when one is configured."""
    blocks = tuple(cached_block(SectorKey(L, nd), params, cache_dir) for nd in range(L + 1))
    return FullChainSpectrum(L, params, blocks)
