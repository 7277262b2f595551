"""Eigendecomposition of block matrices, full-chain spectra, and a disk cache.

Every block solve of the package goes through `_solve_block`, and every
question of which blocks make a sector through `_check_sector`. Spectra
are the only expensive objects in the package (all else is arithmetic over
them), so their energies get a disk cache keyed by the block and the exact
couplings and checked by a BLAKE2b-256 digest. They are solved without
eigenvectors (`eigvalsh`). Only the slope path solves by `eigh`
(`_eigenpairs`): the Hellmann-Feynman slope reads its eigenvectors, and the
finite-difference slope reads its energies so both come from one solver.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .basis import SectorKey, _member_lengths, decompose_n_sector
from .model import SUSY_POINT, ModelParams, build_hamiltonian

CACHE_VERSION = 3  # 1 also stored the eigenvectors; 1 and 2 checked with sha256
_MAGIC = b"SCSP"
# magic, version, L, n_d, J, Delta, h, dimension, BLAKE2b-256 of the payload
_HEADER = struct.Struct("<4sIII3dI32s")

# Largest dense float64 block the package builds. Paths over a sector's own
# blocks pass N <= 22 (C(15,6) = 5005, 191 MiB); paths over whole member
# chains pass N <= 15 (C(14,7) = 3432, 90 MiB).
MAX_BLOCK_BYTES = 256 * 2**20


class SolverError(RuntimeError):
    """Eigensolver failed to converge on a block."""

    def __init__(self, key: SectorKey, detail: str):
        super().__init__(f"eigensolver failed on block (L={key.L}, n_d={key.n_d}): {detail}")
        self.key, self.detail = key, detail

    def __reduce__(self):  # rebuilt from (key, detail) when a worker process sends it back
        return type(self), (self.key, self.detail)


def _check_block(owner: str, key: SectorKey) -> None:
    """Refuse block `key`, which `owner` needs, if it exceeds MAX_BLOCK_BYTES as a dense matrix.

    A dimension of 10**15 or more, far past the limit, is never computed: the
    message gives it and the size to three digits, from lgamma.
    """
    try:
        log10_dim = (math.lgamma(key.L + 1) - math.lgamma(key.n_d + 1)
                     - math.lgamma(key.L - key.n_d + 1)) / math.log(10)
    except OverflowError:  # L past the float range
        log10_dim = math.inf
    if log10_dim < 15:
        size = 8 * key.dimension**2
        if size <= MAX_BLOCK_BYTES:
            return
        figures = f"{key.dimension}, {size} bytes"
    else:
        figures = f"{_about(log10_dim)}, {_about(math.log10(8) + 2 * log10_dim)} bytes"
    raise ValueError(
        f"{owner} needs the dense block (L={key.L}, n_d={key.n_d}) of dimension "
        f"{figures}; the limit is {MAX_BLOCK_BYTES} bytes "
        f"({MAX_BLOCK_BYTES // 2**20} MiB) per block")


def _about(log10: float) -> str:
    """10**log10 to three significant digits."""
    if log10 == math.inf:
        return "more than 1e+308"
    mantissa, carry = f"{10 ** (log10 % 1):.2e}".split("e")  # carry: 1 if it rounds to 10
    return f"about {mantissa}e+{math.floor(log10) + int(carry)}"


def _check_sector(N: int, full_chains: bool = False) -> tuple[SectorKey, ...]:
    """Sector N's member blocks; refuses N, building no basis, if a block it needs is too large.

    The largest block is found without a binomial or a key per member. Of each
    member chain it is n_d = L // 2, so the largest is the longest chain's.
    The members' own dimensions C(L, N-L-1) rise and then fall in L (binomials
    along a line of Pascal's triangle are log-concave), so a bisection finds
    the first largest: the first L whose successor is not larger.
    """
    lengths = _member_lengths(N)  # refuses N < 3 first
    if full_chains:
        L, n_d = N - 1, (N - 1) // 2
    else:
        lo, hi = lengths.start, lengths.stop - 1
        while lo < hi:
            mid = (lo + hi) // 2
            k = N - mid - 1  # C(mid+1, k-1) / C(mid, k) = (mid+1) k / ((mid-k+1)(mid-k+2))
            if (mid + 1) * k > (mid - k + 1) * (mid - k + 2):
                lo = mid + 1
            else:
                hi = mid
        L, n_d = lo, N - lo - 1
    _check_block(f"N={N}", SectorKey(L, n_d))
    return decompose_n_sector(N).members


def _solve_block(key: SectorKey, params: ModelParams, vectors: bool = False):
    """Ascending energies of block `key` at `params` by eigvalsh, or eigh's (energies, states).

    The one place a LAPACK failure, or a level that is not finite, becomes a
    SolverError. The solver is read from np.linalg at each call. A column's
    sign is whatever LAPACK returns; the only reader of vectors, the
    Hellmann-Feynman slope, forms psi^T (dH/dc) psi, where it cancels.
    Overflow warnings are not raised: the check on the levels refuses the block.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        H = build_hamiltonian(key, params)
        try:
            solved = np.linalg.eigh(H) if vectors else np.linalg.eigvalsh(H)
        except np.linalg.LinAlgError as exc:
            raise SolverError(key, str(exc)) from exc
    # couplings near the float64 limit overflow the matrix, or LAPACK's scaling of it
    if not np.isfinite(solved[0] if vectors else solved).all():
        raise SolverError(key, "a level is not finite; the couplings overflow float64")
    return solved


def _eigenpairs(N: int, params: ModelParams = SUSY_POINT) -> list:
    """eigh's (energies, states) of every member block of sector N, in member order."""
    return [_solve_block(key, params, vectors=True) for key in _check_sector(N)]


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
    """BLAKE2b-256 of a cache payload, from CPython's built-in BLAKE2, which loads no OpenSSL."""
    from _blake2 import blake2b  # imported here: only cache reads and writes need it
    return blake2b(payload, digest_size=32).digest()


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
    energies = _solve_block(key, params)
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
