"""Collisional Metropolis sampling of the normalized Witten index.

Each Monte Carlo run is one walker over eigenstates. A collision proposes
a uniformly random eigenstate from the walker's pool and accepts it with
probability min(1, e^{-beta dE}), which drives the pool population to the
Gibbs distribution. Two pool shapes are implemented:

  GCA  - one pool holding every eigenstate of every chain length in the
         sector's window; walkers hop across lengths freely.
  QGCA - one pool per chain length (the chain's own 2**L eigenstates);
         walkers never change length and each chain thermalizes alone.

At every iteration the index estimate is the parity average over walkers
currently inside the target sector (n_d = N - L - 1). Uniform proposals
are symmetric, so no proposal correction is needed, and they make every
pool state reachable in one step.

Reproducibility: walkers are partitioned into fixed-size blocks; each
block consumes its own counter-based random stream seeded by (base seed,
protocol tag, N, first run index of the block). Blocks run as tasks of
one process map and are folded in task order, so outputs are
bit-identical for any worker count.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basis import decompose_n_sector
from .model import ModelParams
from .spectra import MAX_BLOCK_BYTES, _check_sector, full_chain_spectrum

PROTOCOL_GCA = "gca"
PROTOCOL_QGCA = "qgca"

BLOCK_SIZE = 8192

# Bytes per iteration that run_protocol's fold holds beside the gathered
# results: the summed counts and sums. The trace it builds once they are
# freed (counts, estimate, stderr and one temporary) takes no more.
FOLD_BYTES = 16


@dataclass(frozen=True)
class ProtocolConfig:
    protocol: str
    N: int
    beta: float
    iterations: int = 500
    runs: int = 50000
    base_seed: int = 1
    params: ModelParams = field(default_factory=ModelParams)

    def __post_init__(self):
        _check_sector(self.N, full_chains=True)  # the pools are whole member chains
        if self.protocol not in (PROTOCOL_GCA, PROTOCOL_QGCA):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.iterations < 1 or self.runs < 1:
            raise ValueError("iterations and runs must be >= 1")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        # Each walker task returns int64 counts and float64 sums per iteration, all
        # held by the fold of the run's ceil(runs / BLOCK_SIZE) tasks per pool; each
        # walker also returns two window tallies, which the fold turns into one residual.
        pools = 1 if self.protocol == PROTOCOL_GCA else len(decompose_n_sector(self.N).members)
        tasks = pools * -(-self.runs // BLOCK_SIZE)
        per_iteration = 16 * tasks + FOLD_BYTES
        window = self.iterations - _window_start(self.iterations)
        per_walker = 2 * _tally_dtype(window).itemsize + 8  # and a float64 residual
        limit = f"the limit is {MAX_BLOCK_BYTES} bytes ({MAX_BLOCK_BYTES // 2**20} MiB)"
        if per_iteration * self.iterations > MAX_BLOCK_BYTES:
            raise ValueError(
                f"N={self.N} needs {per_iteration * self.iterations} bytes of walker results "
                f"and trace, {per_iteration} per iteration: 16 from each of {tasks} tasks and "
                f"{FOLD_BYTES} to fold them; {limit}")
        if per_walker * pools * self.runs > MAX_BLOCK_BYTES:
            raise ValueError(
                f"N={self.N} needs {per_walker * pools * self.runs} bytes of window tallies "
                f"and residuals, {per_walker} per walker of {pools * self.runs} walkers; {limit}")


@dataclass(frozen=True)
class WittenTrace:
    """Per-iteration estimates, a steady-state window summary and the final occupancy.

    estimate[i] is NaN when no walker was in the sector at iteration i
    (a gap, not a zero). The window covers the last 20% of iterations;
    window_stderr treats each walker's window contribution as one cluster,
    which absorbs the strong within-walker autocorrelation that a naive
    per-sample error estimate would ignore.

    occupancy counts the walkers on each pool state after the last
    iteration, member chains in ascending L and their blocks in n_d order:
    an i.i.d. sample of the long-run occupation, since walkers are independent.
    """

    config: ProtocolConfig
    estimate: np.ndarray
    stderr: np.ndarray
    legitimate_count: np.ndarray
    window_estimate: float
    window_stderr: float
    window_legit: int
    occupancy: np.ndarray

    def __post_init__(self):
        n = self.config.iterations
        if not (len(self.estimate) == len(self.stderr) == len(self.legitimate_count) == n):
            raise ValueError("trace arrays must have one entry per iteration")


def metropolis_accept(delta_e, beta: float, u):
    """Accept iff u < min(1, e^{-beta dE}); vectorized over delta_e and u.

    Written as u < e^{-beta max(dE, 0)} to avoid overflow for downhill
    moves; the two forms are identical for u in [0, 1).
    """
    delta_e = np.asarray(delta_e, dtype=float)
    u = np.asarray(u, dtype=float)
    return u < np.exp(-beta * np.maximum(delta_e, 0.0))


def seed_stream(base_seed: int, tag: str, N: int, run_index: int) -> np.random.Generator:
    """Independent reproducible stream for one (protocol, sector, run) task."""
    ss = np.random.SeedSequence(
        entropy=int(base_seed),
        spawn_key=(zlib.crc32(tag.encode()), int(N), int(run_index)),
    )
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class _Pool:
    """Pool states: energies, and int8 codes: parity (-1)**n_d in the sector, 0 outside."""

    energies: np.ndarray
    signed: np.ndarray


def _pools(config: ProtocolConfig, cache_dir) -> list[tuple[str, _Pool]]:
    """Tagged pools of one run: one per member chain, or their union for GCA."""
    pools = []
    for key in decompose_n_sector(config.N).members:
        chain = full_chain_spectrum(key.L, config.params, cache_dir)
        signed = [np.full(len(e), key.parity if nd == key.n_d else 0, dtype=np.int8)
                  for nd, e in enumerate(chain)]
        pools.append((f"qgca:L{key.L}", _Pool(np.concatenate(chain), np.concatenate(signed))))
    if config.protocol == PROTOCOL_QGCA:
        return pools
    return [("gca", _Pool(np.concatenate([p.energies for _, p in pools]),
                          np.concatenate([p.signed for _, p in pools])))]


def _window_start(iterations: int) -> int:
    """First iteration of the steady-state window, the last 20% (at least one)."""
    return iterations - max(1, iterations // 5)


def _tally_dtype(window: int) -> np.dtype:
    """Smallest signed integer dtype that holds +-window, a walker's window tally."""
    # a signed dtype holding -(w + 1) holds +w too; min_scalar_type(-w) is int8 at w = 128
    return np.min_scalar_type(-window - 1)


def _walk_block(key: tuple, pool: _Pool, beta: float, iterations: int, size: int):
    """One block of walkers, full trajectory, deterministic draw order.

    `key` is the block's seed_stream key. The stream draws `size` start
    states, then each iteration `size` proposals and `size` uniforms. Only
    accepted walkers are updated; `n` and `s` stay the in-sector count and
    parity sum of the current states. The window tallies come in
    _tally_dtype of the window length, which keeps the results the
    coordinator gathers small. The last result counts the walkers per pool
    state after the last iteration, in the smallest dtype that holds `size`.
    """
    rng = seed_stream(*key)
    energies, codes = pool.energies, pool.signed
    dim = len(energies)
    cur = rng.integers(0, dim, size)
    ecur, scur = energies[cur], codes[cur]
    n, s = np.count_nonzero(scur), int(scur.sum())
    counts = np.zeros(iterations, dtype=np.int64)
    sums = np.zeros(iterations)
    window_start = _window_start(iterations)
    tally = _tally_dtype(iterations - window_start)
    wsum = np.zeros(size, dtype=tally)
    wcnt = np.zeros(size, dtype=tally)
    for t in range(iterations):
        prop = rng.integers(0, dim, size)
        u = rng.random(size)
        moved = np.flatnonzero(metropolis_accept(energies[prop] - ecur, beta, u))
        new = prop[moved]
        old, code = scur[moved], codes[new]
        n += np.count_nonzero(code) - np.count_nonzero(old)
        s += int(code.sum() - old.sum())
        cur[moved], ecur[moved], scur[moved] = new, energies[new], code
        counts[t], sums[t] = n, s  # parity sums are integers, exact in float64
        if n and t >= window_start:
            wsum += scur
            wcnt += scur != 0
    return counts, sums, wsum, wcnt, np.bincount(cur, minlength=dim).astype(
        np.min_scalar_type(size))


def _worker_count(threads: int, tasks: int, cpus: int) -> int:
    """Worker processes for a map: never more than threads, tasks or CPUs."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return max(1, min(threads, tasks, cpus))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _parallel_map(fn, tasks: list[tuple], workers: int) -> list:
    """[fn(*task) for task in tasks] over worker processes, in task order.

    Workers are forked where the platform offers it: pools are built in the
    parent and workers never call LAPACK. `fn` is module-level and the
    tasks pickle, so the default start method works elsewhere.
    """
    workers = _worker_count(workers, len(tasks), _usable_cpus())
    if workers == 1:
        return [fn(*task) for task in tasks]
    import multiprocessing as mp
    from concurrent.futures.process import ProcessPoolExecutor

    method = "fork" if "fork" in mp.get_all_start_methods() else None
    with ProcessPoolExecutor(workers, mp_context=mp.get_context(method)) as ex:
        return list(ex.map(fn, *zip(*tasks)))


def run_protocol(config: ProtocolConfig, cache_dir=None, threads: int = 1) -> WittenTrace:
    """Drive `config.runs` walkers over each pool of the protocol and fold the results.

    GCA walkers share the union pool of all chain lengths in the sector
    window; QGCA walkers stay on one member chain each. The QGCA estimate
    pools in-sector walkers across all chains, so it tracks the parity
    histogram a per-chain measurement protocol accumulates.
    """
    starts = range(0, config.runs, BLOCK_SIZE)
    # one map task per (pool, block), pool-major
    tasks = [((config.base_seed, tag, config.N, start), pool, config.beta, config.iterations,
              min(BLOCK_SIZE, config.runs - start))
             for tag, pool in _pools(config, cache_dir) for start in starts]
    cnts, task_sums, wsums, wcnts, finals = zip(*_parallel_map(_walk_block, tasks, threads))
    counts, sums = np.zeros(config.iterations, dtype=np.int64), np.zeros(config.iterations)
    for c, s in zip(cnts, task_sums):  # task order: deterministic fold
        counts += c
        sums += s
    del cnts, task_sums, c, s  # the gathered trace arrays, freed before the trace is built
    # each pool's compact per-task counts, added as int64, pools in order
    occupancy = np.concatenate([
        sum(finals[i:i + len(starts)], np.zeros(len(finals[i]), dtype=np.int64))
        for i in range(0, len(finals), len(starts))
    ])

    # in place; entries with counts <= 1 divide by zero here and are set after
    with np.errstate(invalid="ignore", divide="ignore"):
        estimate = sums / counts
        stderr = np.square(sums, out=sums)  # parities are +-1: var = (n - s^2/n)/(n-1)
        stderr /= counts
        np.subtract(counts, stderr, out=stderr)
        stderr /= counts - 1
        np.maximum(stderr, 0.0, out=stderr)
        stderr /= counts
        np.sqrt(stderr, out=stderr)
    estimate[counts == 0] = np.nan
    stderr[counts == 1] = 0.0
    stderr[counts == 0] = np.nan

    window = estimate[_window_start(config.iterations):]
    valid = ~np.isnan(window)
    window_estimate = float(window[valid].mean()) if valid.any() else float("nan")
    total = sum(int(c.sum()) for c in wcnts)
    if total > 0:
        # window tallies are integers, so adding them per task is exact
        ratio = sum(float(w.sum()) for w in wsums) / total
        # one float64 residual array, filled per task and squared in place
        ends = np.cumsum([len(w) for w in wsums])
        resid = np.empty(ends[-1])
        for part, w, c in zip(np.split(resid, ends[:-1]), wsums, wcnts):
            np.subtract(w, np.multiply(c, ratio, out=part), out=part)
        window_stderr = float(np.sqrt(np.square(resid, out=resid).sum()) / total)
    else:
        window_stderr = float("nan")

    return WittenTrace(
        config=config,
        estimate=estimate,
        stderr=stderr,
        legitimate_count=counts,
        window_estimate=window_estimate,
        window_stderr=window_stderr,
        window_legit=total,
        occupancy=occupancy,
    )


def write_trace_csv(trace: WittenTrace, path: str | Path, extra_meta: dict | None = None) -> None:
    """CSV with a JSON metadata header line; floats in round-trip form."""
    cfg = trace.config
    meta = {
        "protocol": cfg.protocol,
        "N": cfg.N,
        "beta": cfg.beta,
        "params": {"J": cfg.params.J, "Delta": cfg.params.Delta, "h": cfg.params.h},
        "base_seed": cfg.base_seed,
        "runs": cfg.runs,
        "iterations": cfg.iterations,
        "window_estimate": None if np.isnan(trace.window_estimate) else trace.window_estimate,
        "window_stderr": None if np.isnan(trace.window_stderr) else trace.window_stderr,
        "window_legit": trace.window_legit,
    }
    if extra_meta:
        meta.update(extra_meta)
    # line by line: a trace of n iterations never sits in memory as one string
    with Path(path).open("w") as f:
        f.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        f.write("iteration,estimate,stderr,legitimate_count\n")
        for i in range(cfg.iterations):
            f.write(f"{i + 1},{float(trace.estimate[i])!r},{float(trace.stderr[i])!r},"
                    f"{int(trace.legitimate_count[i])}\n")
