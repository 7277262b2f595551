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
bit-identical for any worker count. run_protocols streams the blocks of
many runs through one map: its workers are forked once onto pipes, each
worker builds the tasks it takes, pools and all, and they walk the next
run's blocks while the caller handles the last run's trace. A worker loads
neither OpenSSL nor more of numpy.random than a Philox stream needs.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import zlib
from bisect import bisect_right
from collections.abc import Sequence
from contextlib import closing
from dataclasses import asdict, dataclass, field
from itertools import accumulate, islice, starmap
from pathlib import Path

import numpy as np

from ._common import PROTOCOL_GCA, PROTOCOL_QGCA, _csv_lines, _usable_cpus
from .model import ModelParams
from .spectra import MAX_BLOCK_BYTES, _check_sector, full_chain_spectrum

BLOCK_SIZE = 8192


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
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        # run_protocol folds one walker task at a time into int64 counts and float64
        # sums per iteration, so it holds 16 bytes per iteration of totals and 16 of
        # the task being added; the trace it then builds in place takes no more. It
        # copies every walker's two window tallies into one pair of arrays per run.
        pools = _task_shape(self)[0]
        window = self.iterations - _window_start(self.iterations)
        per_walker = 2 * _tally_dtype(window).itemsize
        walkers = pools * self.runs
        limit = f"the limit is {MAX_BLOCK_BYTES} bytes ({MAX_BLOCK_BYTES // 2**20} MiB)"
        if 32 * self.iterations > MAX_BLOCK_BYTES:
            raise ValueError(
                f"N={self.N} needs {32 * self.iterations} bytes of walker results and trace, "
                f"32 per iteration: 16 from the task being added and 16 for the totals; {limit}")
        if per_walker * walkers > MAX_BLOCK_BYTES:
            raise ValueError(
                f"N={self.N} needs {per_walker * walkers} bytes of window tallies: "
                f"{per_walker} per walker of {walkers} walkers; {limit}")


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
    """Independent reproducible stream for one (protocol, sector, run) task.

    The classes, the ones numpy.random exports, come from their own modules: in
    a forked worker of _parallel_map, whose numpy.random is a bare package, that
    loads only what a Philox stream needs; elsewhere numpy.random loads in full.
    """
    from numpy.random._generator import Generator
    from numpy.random._philox import Philox
    from numpy.random.bit_generator import SeedSequence
    ss = SeedSequence(
        entropy=int(base_seed),
        spawn_key=(zlib.crc32(tag.encode()), int(N), int(run_index)),
    )
    return Generator(Philox(ss))


def _pools(config: ProtocolConfig, cache_dir) -> list[tuple[str, tuple]]:
    """Tagged pools of one run: one per member chain, or their union for GCA. A pool is
    (energies, int8 codes) of its states, a code the parity (-1)**n_d in the sector, 0 outside."""
    pools = []
    for key in _check_sector(config.N, full_chains=True):
        chain = full_chain_spectrum(key.L, config.params, cache_dir)
        codes = [np.full(len(e), key.parity if nd == key.n_d else 0, dtype=np.int8)
                 for nd, e in enumerate(chain)]
        pools.append((f"qgca:L{key.L}", (np.concatenate(chain), np.concatenate(codes))))
    if config.protocol == PROTOCOL_QGCA:
        return pools
    energies, codes = zip(*(pool for _, pool in pools))
    return [("gca", (np.concatenate(energies), np.concatenate(codes)))]


def _task_shape(config: ProtocolConfig) -> tuple[int, int]:
    """(pools, blocks per pool) of one run: the union pool for GCA, one per chain for QGCA."""
    chains = len(_check_sector(config.N, full_chains=True))
    return (1 if config.protocol == PROTOCOL_GCA else chains), -(-config.runs // BLOCK_SIZE)


class _Tasks(Sequence):
    """_walk_block's arguments for every run of `configs`, one task per (pool, block),
    run-major, then pool-major.

    Lazy: task i builds its run's pools (through the full_chain_spectrum memo)
    when it is read, so each worker of a forked map builds the tasks it takes.
    The last run's pools are kept for its next task. `starts` holds each run's
    first task number, then the task count.
    """

    def __init__(self, configs, cache_dir):
        self.configs, self.cache_dir = configs, cache_dir
        self.starts = list(accumulate((math.prod(_task_shape(c)) for c in configs), initial=0))
        self._run, self._built = None, None

    def __len__(self):
        return self.starts[-1]

    def __getitem__(self, i):
        i = range(len(self))[i]  # IndexError past the end, which ends iteration
        run = bisect_right(self.starts, i) - 1
        config = self.configs[run]
        if run != self._run:
            self._run, self._built = run, _pools(config, self.cache_dir)
        pool, block = divmod(i - self.starts[run], _task_shape(config)[1])
        tag, pool = self._built[pool]
        start = block * BLOCK_SIZE
        return ((config.base_seed, tag, config.N, start), pool, config.beta,
                config.iterations, min(BLOCK_SIZE, config.runs - start))


def _window_start(iterations: int) -> int:
    """First iteration of the steady-state window, the last 20% (at least one)."""
    return iterations - max(1, iterations // 5)


def _tally_dtype(window: int) -> np.dtype:
    """Smallest signed integer dtype that holds +-window, a walker's window tally."""
    # a signed dtype holding -(w + 1) holds +w too; min_scalar_type(-w) is int8 at w = 128
    return np.min_scalar_type(-window - 1)


def _walk_block(key: tuple, pool: tuple, beta: float, iterations: int, size: int):
    """One block of walkers, full trajectory, deterministic draw order.

    `key` is the block's seed_stream key and `pool` is (energies, codes) of
    its states, as _pools builds it. The stream draws `size` start states,
    then each iteration `size` proposals and `size` uniforms. Only
    accepted walkers are updated; `n` and `s` stay the in-sector count and
    parity sum of the current states. The window tallies come in
    _tally_dtype of the window length, which keeps the results the
    coordinator gathers small. The last result counts the walkers per pool
    state after the last iteration, in the smallest dtype that holds `size`.
    """
    rng = seed_stream(*key)
    energies, codes = pool
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


def _parallel_map(fn, tasks, workers: int):
    """fn(*task) for each task of the sequence `tasks`, lazily and in task order,
    over `workers` forked processes.

    Each worker builds the tasks it takes: the consumer hands out task numbers
    on one pipe, at most 2 * workers past the last result it took; a free
    worker takes the next, notes (task, worker) on a second pipe, reads
    tasks[number] and pickles [ok, result or exception] to its own pipe, read
    when that task is next and popped as it is yielded. A worker that ends
    early raises ChildProcessError. Using the iterator up or closing it kills
    and reaps every worker. A worker marks OpenSSL's binding absent, so the
    hashlib that SeedSequence imports takes CPython's built-in hashes, and
    puts numpy.random in sys.modules unexecuted, so seed_stream loads no
    RandomState (mtrand), MT19937, SFC64 or _pickle. A module the caller has
    loaded stays: a sampled sweep's workers keep the numpy.random of its
    reference seed. At one worker, or without os.fork, the tasks run in this
    process, which is left as it is.
    """
    if workers == 1 or not hasattr(os, "fork"):
        yield from starmap(fn, tasks)
        return
    from signal import SIGKILL
    todo_r, todo_w = os.pipe()  # task numbers, 4 bytes: writes this small are atomic
    notes_r, notes_w = os.pipe()  # (task, worker) as each task is taken, 8 bytes
    todo, notes = open(todo_w, "wb", buffering=0), open(notes_r, "rb")
    pids, pipes = [], []
    try:
        for k in range(workers):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            pid = os.fork()
            if pid == 0:  # the worker only writes, and never returns into the caller
                try:
                    from importlib.util import find_spec, module_from_spec
                    # no OpenSSL, and numpy.random without its __init__; the caller's stay
                    for name, module in (("_hashlib", None), ("numpy.random", module_from_spec(
                            find_spec("numpy.random")))):
                        sys.modules.setdefault(name, module)
                    for f in (todo, notes, *pipes):  # a dead coordinator means EOF or EPIPE
                        f.close()
                    with open(w, "wb") as out:
                        while number := os.read(todo_r, 4):
                            os.write(notes_w, number + k.to_bytes(4, "little"))
                            try:
                                reply = [True, fn(*tasks[int.from_bytes(number, "little")])]
                            except Exception as exc:
                                reply = [False, exc]
                            pickle.dump(reply, out)
                            out.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(w)
        os.close(todo_r)
        os.close(notes_w)
        owner, sent = {}, 0
        for i in range(len(tasks)):
            while sent < min(len(tasks), i + 2 * workers):
                todo.write(sent.to_bytes(4, "little"))
                sent += 1
            if sent == len(tasks):
                todo.close()  # idle workers leave
            while i not in owner:
                note = notes.read(8)
                if not note:  # every worker has ended; the first one's pipe says how
                    owner[i] = 0
                else:
                    owner[int.from_bytes(note[:4], "little")] = int.from_bytes(note[4:], "little")
            k = owner.pop(i)
            try:
                reply = pickle.load(pipes[k])
            except (EOFError, pickle.UnpicklingError):
                pid = pids.pop(k)
                status = os.waitpid(pid, 0)[1]
                raise ChildProcessError(f"worker process {pid} ended before its result "
                                        f"(wait status {status})") from None
            if not reply[0]:
                raise reply[1]
            yield reply.pop()
    finally:
        for pid in pids:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        for f in (todo, notes, *pipes):
            f.close()


def _residual_square_sum(wsum, wcnt, ratio: float) -> float:
    """Sum of (w - c * ratio)**2 over the walkers' window tallies.

    Bit for bit np.square(resid).sum() of the whole float64 residual, which is
    never built: the sum follows numpy's pairwise split (halves rounded down to
    a multiple of 8) down to pieces of at most BLOCK_SIZE walkers, and numpy
    sums each piece with the same split below it.
    """
    n = len(wsum)
    if n > BLOCK_SIZE:
        half = n // 2 - (n // 2) % 8
        return (_residual_square_sum(wsum[:half], wcnt[:half], ratio)
                + _residual_square_sum(wsum[half:], wcnt[half:], ratio))
    piece = np.multiply(wcnt, ratio)
    return float(np.square(np.subtract(wsum, piece, out=piece), out=piece).sum())


def run_protocol(config: ProtocolConfig, cache_dir=None, threads: int = 1, *,
                 results=None) -> WittenTrace:
    """Drive `config.runs` walkers over each pool of the protocol and fold the results.

    GCA walkers share the union pool of all chain lengths in the sector
    window; QGCA walkers stay on one member chain each. The QGCA estimate
    pools in-sector walkers across all chains, so it tracks the parity
    histogram a per-chain measurement protocol accumulates.

    `results` are this run's walker results in task order, drawn from the
    map of run_protocols; without them the run is run_protocols of this
    config alone, over up to `threads` worker processes. The results are
    folded in one pass as they arrive: each task's counts and sums are added
    to the run's totals, its occupancy to its pool's and its window tallies
    copied into the run's pair of tally arrays, one entry per walker, before
    the next task is taken. A `results` list given in full is copied the
    same way, and the caller's list stays alive beside the copy.
    """
    if results is None:
        with closing(run_protocols([config], cache_dir, threads)) as traces:
            return next(traces)
    walkers = _task_shape(config)[0] * config.runs
    counts, sums = np.zeros(config.iterations, dtype=np.int64), np.zeros(config.iterations)
    occupancy, done = [], 0
    # task order: deterministic fold; no enumerate, which would keep the last task alive
    for c, s, wsum, wcnt, final in results:
        counts += c
        sums += s
        if done == 0:  # in the kernel's tally dtype, as the walker guard charges
            wsums, wcnts = np.empty(walkers, wsum.dtype), np.empty(walkers, wcnt.dtype)
        wsums[done:done + len(wsum)] = wsum
        wcnts[done:done + len(wcnt)] = wcnt
        if done % config.runs == 0:  # a pool's first block starts its total
            occupancy.append(np.zeros(len(final), dtype=np.int64))
        occupancy[-1] += final
        done += len(wsum)
        del c, s, wsum, wcnt  # this task's arrays go before the next one arrives
    occupancy = np.concatenate(occupancy)

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
    total = int(wcnts.sum())
    if total > 0:
        ratio = int(wsums.sum()) / total  # integer sums, one correctly rounded quotient
        window_stderr = float(np.sqrt(_residual_square_sum(wsums, wcnts, ratio)) / total)
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


def run_protocols(configs, cache_dir=None, threads: int = 1):
    """Yield run_protocol(config) for each config in order, all their tasks in one map.

    The workers are forked once for every run, before any pool is built: each
    worker builds the tasks it takes, and they walk the next run's blocks
    while the caller handles the trace just yielded. Each block keeps its own
    seed stream and each run folds its blocks in task order, so every trace
    equals the one its config makes alone. Close the generator (or use it up)
    to shut the workers down.
    """
    configs = list(configs)
    tasks = _Tasks(configs, cache_dir)
    workers = _worker_count(threads, len(tasks), _usable_cpus())
    results = _parallel_map(_walk_block, tasks, workers)
    try:
        for config, start, end in zip(configs, tasks.starts, tasks.starts[1:]):
            yield run_protocol(config, results=islice(results, end - start))
    finally:
        results.close()


def write_trace_csv(trace: WittenTrace, path: str | Path, extra_meta: dict | None = None) -> None:
    """CSV with a JSON metadata header line; floats in round-trip form."""
    cfg = trace.config
    meta = {
        **asdict(cfg),
        "window_estimate": None if np.isnan(trace.window_estimate) else trace.window_estimate,
        "window_stderr": None if np.isnan(trace.window_stderr) else trace.window_stderr,
        "window_legit": trace.window_legit,
    }
    if extra_meta:
        meta.update(extra_meta)
    # row by row, as numpy scalars: a trace of n iterations is never held as text or objects
    rows = zip(range(1, cfg.iterations + 1), trace.estimate, trace.stderr,
               trace.legitimate_count)
    with Path(path).open("w") as f:
        f.writelines(_csv_lines(("iteration", "estimate", "stderr", "legitimate_count"),
                                rows, meta))
