import dataclasses
import hashlib
import json
import math
import os
import struct
import time
from collections.abc import Sequence
from itertools import islice, starmap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susychain.dynamics import (
    BLOCK_SIZE,
    PROTOCOL_GCA,
    PROTOCOL_QGCA,
    ProtocolConfig,
    metropolis_accept,
    run_protocol,
    seed_stream,
    write_trace_csv,
)
from susychain import dynamics
from susychain.basis import decompose_n_sector
from susychain.dynamics import (
    _csv_lines,
    _parallel_map,
    _pools,
    _residual_square_sum,
    _Tasks,
    _walk_block,
    _worker_count,
)
from susychain.model import ModelParams
from susychain.spectra import full_chain_spectrum
from susychain.susy import assemble, wtilde_gca_exact, wtilde_qgca_exact

SUSY = ModelParams()


class TestAcceptRule:
    def test_downhill_always_accepted(self):
        u = np.linspace(0.0, 0.999999, 64)
        assert metropolis_accept(-2.0, 5.0, u).all()

    def test_flat_always_accepted(self):
        u = np.linspace(0.0, 0.999999, 64)
        assert metropolis_accept(0.0, 5.0, u).all()

    def test_uphill_threshold_is_boltzmann(self):
        p = math.exp(-5.0 * 2.0)
        assert metropolis_accept(2.0, 5.0, p * 0.999)
        assert not metropolis_accept(2.0, 5.0, p * 1.001)

    def test_uphill_acceptance_frequency(self):
        rng = np.random.default_rng(7)
        u = rng.random(1_000_000)
        p = math.exp(-10.0)
        hits = int(metropolis_accept(2.0, 5.0, u).sum())
        sigma = math.sqrt(len(u) * p * (1 - p))
        assert abs(hits - len(u) * p) <= 4 * sigma

    def test_infinite_temperature_accepts_everything(self):
        rng = np.random.default_rng(3)
        assert metropolis_accept(rng.normal(size=100) ** 2, 0.0, rng.random(100)).all()


class TestStreams:
    def test_reproducible(self):
        a = seed_stream(1, "gca", 4, 0).random(100)
        b = seed_stream(1, "gca", 4, 0).random(100)
        assert np.array_equal(a, b)

    def test_runs_are_independent_streams(self):
        a = seed_stream(1, "gca", 4, 0).random(100)
        b = seed_stream(1, "gca", 4, 8192).random(100)
        assert not np.array_equal(a, b)

    def test_tags_are_independent_streams(self):
        a = seed_stream(1, "gca", 4, 0).random(100)
        b = seed_stream(1, "qgca:L2", 4, 0).random(100)
        assert not np.array_equal(a, b)

    def test_sectors_are_independent_streams(self):
        a = seed_stream(1, "gca", 4, 0).random(100)
        b = seed_stream(1, "gca", 5, 0).random(100)
        assert not np.array_equal(a, b)

    def test_seeds_are_independent_streams(self):
        a = seed_stream(1, "gca", 4, 0).random(100)
        b = seed_stream(2, "gca", 4, 0).random(100)
        assert not np.array_equal(a, b)


class TestConfig:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            ProtocolConfig("canonical", 4, 5.0)

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            ProtocolConfig(PROTOCOL_GCA, 4, 5.0, iterations=0)
        with pytest.raises(ValueError):
            ProtocolConfig(PROTOCOL_GCA, 4, 5.0, runs=0)


def _trace(protocol, N, beta, runs=4000, iterations=200, seed=1, threads=1):
    cfg = ProtocolConfig(protocol, N, beta, iterations=iterations, runs=runs,
                         base_seed=seed)
    return run_protocol(cfg, threads=threads)


class TestTraceShape:
    def test_lengths_and_bounds(self):
        trace = _trace(PROTOCOL_GCA, 4, 2.0, runs=500, iterations=50)
        assert len(trace.estimate) == 50
        assert len(trace.stderr) == 50
        assert len(trace.legitimate_count) == 50
        assert (trace.legitimate_count >= 0).all()
        assert (trace.legitimate_count <= 500).all()
        ok = ~np.isnan(trace.estimate)
        assert (np.abs(trace.estimate[ok]) <= 1.0).all()
        assert (trace.stderr[ok] >= 0).all()

    def test_qgca_walker_budget_is_per_chain(self):
        # at beta = 0 occupancy is uniform per pool: the in-sector count is
        # runs * (2/4 + 1/8) for the two member chains of sector 4, which
        # a single pooled population (fraction 3/12) cannot produce
        runs = 2000
        trace = _trace(PROTOCOL_QGCA, 4, 0.0, runs=runs, iterations=100)
        assert (trace.legitimate_count <= 2 * runs).all()
        frac = trace.legitimate_count[20:].mean() / runs
        assert abs(frac - 0.625) < 0.03

    def test_empty_sector_iterations_are_gaps(self):
        trace = _trace(PROTOCOL_GCA, 9, 0.0, runs=1, iterations=40)
        gaps = np.isnan(trace.estimate)
        assert gaps.any()
        assert (trace.legitimate_count[gaps] == 0).all()
        assert not gaps.all()


class TestStationarity:
    @pytest.mark.parametrize("N", [3, 4, 6])
    def test_gca_window_matches_exact(self, N):
        trace = _trace(PROTOCOL_GCA, N, 2.0)
        exact = wtilde_gca_exact(assemble(N, SUSY), 2.0)
        se = max(trace.window_stderr, 1e-4)
        assert abs(trace.window_estimate - exact) <= 3 * se

    def test_gca_window_matches_exact_cold(self):
        trace = _trace(PROTOCOL_GCA, 4, 5.0)
        exact = wtilde_gca_exact(assemble(4, SUSY), 5.0)
        se = max(trace.window_stderr, 1e-4)
        assert abs(trace.window_estimate - exact) <= 3 * se

    @pytest.mark.parametrize("N", [3, 4])
    def test_qgca_window_matches_exact(self, N):
        trace = _trace(PROTOCOL_QGCA, N, 2.0)
        exact = wtilde_qgca_exact(N, SUSY, 2.0)
        se = max(trace.window_stderr, 1e-4)
        assert abs(trace.window_estimate - exact) <= 3 * se

    def test_infinite_temperature_occupation_is_uniform(self):
        # beta = 0 accepts every proposal, so walkers are uniform on the
        # pool and the in-sector fraction is the state-count ratio 2/6
        runs, iters = 3000, 100
        trace = _trace(PROTOCOL_GCA, 3, 0.0, runs=runs, iterations=iters)
        window_iters = max(1, iters // 5)
        frac = trace.window_legit / (runs * window_iters)
        assert abs(frac - 2.0 / 6.0) < 0.02


def test_every_chain_block_is_diagonalized_once(solves):
    # sectors 3..11 of both protocols share the 65 blocks of the lengths 1..10
    for protocol in (PROTOCOL_GCA, PROTOCOL_QGCA):
        for N in range(3, 12):
            run_protocol(ProtocolConfig(protocol, N, 5.0, iterations=3, runs=5))
    assert len(solves) == len(set(solves)) == sum(L + 1 for L in range(1, 11)) == 65


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = _trace(PROTOCOL_GCA, 4, 2.0, runs=800, iterations=40, seed=9)
        b = _trace(PROTOCOL_GCA, 4, 2.0, runs=800, iterations=40, seed=9)
        assert np.array_equal(a.estimate, b.estimate, equal_nan=True)
        assert a.window_estimate == b.window_estimate
        assert a.window_stderr == b.window_stderr

    def test_different_seed_different_trace(self):
        a = _trace(PROTOCOL_GCA, 4, 2.0, runs=800, iterations=40, seed=9)
        b = _trace(PROTOCOL_GCA, 4, 2.0, runs=800, iterations=40, seed=10)
        assert not np.array_equal(a.estimate, b.estimate, equal_nan=True)

    def test_thread_count_does_not_change_results_multiblock(self):
        runs = BLOCK_SIZE + 700  # forces two blocks
        a = _trace(PROTOCOL_GCA, 4, 2.0, runs=runs, iterations=30, threads=1)
        b = _trace(PROTOCOL_GCA, 4, 2.0, runs=runs, iterations=30, threads=4)
        assert np.array_equal(a.estimate, b.estimate, equal_nan=True)
        assert np.array_equal(a.legitimate_count, b.legitimate_count)
        assert a.window_estimate == b.window_estimate
        assert a.window_stderr == b.window_stderr

    def test_thread_count_does_not_change_results_multipool(self):
        a = _trace(PROTOCOL_QGCA, 5, 2.0, runs=600, iterations=30, threads=1)
        b = _trace(PROTOCOL_QGCA, 5, 2.0, runs=600, iterations=30, threads=4)
        assert np.array_equal(a.estimate, b.estimate, equal_nan=True)
        assert a.window_estimate == b.window_estimate


class TestParallelMap:
    def test_worker_count_is_capped(self):
        # pure arithmetic: no process is started for any of these
        assert _worker_count(10**9, 238, 2) == 2
        assert _worker_count(10**9, 3, 64) == 3
        assert _worker_count(4, 238, 64) == 4
        assert _worker_count(10**9, 1, 64) == 1
        assert _worker_count(10**9, 0, 64) == 1

    def test_worker_count_rejects_nonpositive_threads(self):
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads"):
                _worker_count(threads, 10, 2)
        with pytest.raises(ValueError, match="threads"):
            _trace(PROTOCOL_GCA, 4, 2.0, runs=10, iterations=2, threads=0)

    def test_results_come_back_in_task_order(self):
        tasks = [(2, k) for k in range(12)]
        assert list(_parallel_map(pow, tasks, 3)) == [2**k for k in range(12)]
        assert list(_parallel_map(pow, [], 3)) == []

    @pytest.mark.parametrize("stop", [None, 5])
    def test_at_most_two_tasks_per_worker_run_ahead(self, tmp_path, stop):
        # every task marks its start as it is built. Small results: the consumer
        # hands out task numbers at most 2 * workers past the last result taken,
        # the one it is about to read included. Results that outgrow a pipe's
        # buffer: a worker waits on each, so it holds at most one the consumer
        # has not taken.
        workers, n = 3, 20
        for size, ahead in ((8, 2 * workers - 1), (2**20, workers)):
            marks = tmp_path / str(size)
            marks.mkdir()

            class Marked(Sequence):
                def __len__(self):
                    return n

                def __getitem__(self, k):
                    (marks / str(range(n)[k])).touch()
                    return (k,)

            def task(k):
                return k, bytes(size)

            def started():
                return len(list(marks.iterdir()))

            results = _parallel_map(task, Marked(), workers)
            taken = 0
            for k, payload in islice(results, stop):
                assert (k, len(payload)) == (taken, size)
                taken += 1
                bound = min(taken + ahead, n)
                deadline = time.monotonic() + 30
                while started() < bound:  # the workers run ahead as far as they may
                    assert time.monotonic() < deadline, f"{started()} of {bound} tasks started"
                    time.sleep(0.005)
                time.sleep(0.02)
                assert started() == bound  # and no further
            results.close()
            assert taken == (n if stop is None else stop)
            assert_no_child()

    def test_workers_build_the_tasks_they_take(self):
        # each task names the process that built it; building task 4 fails
        parent = os.getpid()

        class Built(Sequence):
            def __len__(self):
                return 6

            def __getitem__(self, k):
                if k == 4:
                    raise LookupError("task 4 cannot be built")
                return range(6)[k], os.getpid()

        results = _parallel_map(lambda k, builder: (k, builder, os.getpid()), Built(), 2)
        taken = list(islice(results, 4))
        assert [k for k, _, _ in taken] == [0, 1, 2, 3]
        assert all(builder == worker != parent for _, builder, worker in taken)
        with pytest.raises(LookupError, match="task 4 cannot be built"):
            next(results)
        assert_no_child()

    def test_tasks_name_each_run_s_blocks_in_order(self):
        # run-major, then pool-major; each run starts at its first task number
        configs = [ProtocolConfig(PROTOCOL_QGCA, 5, 1.0, runs=BLOCK_SIZE + 1),
                   ProtocolConfig(PROTOCOL_GCA, 4, 2.0, runs=3, base_seed=7)]
        tasks = _Tasks(configs, None)
        assert (len(tasks), tasks.starts) == (7, [0, 6, 7])
        built = [(key, len(pool[0]), size) for key, pool, _, _, size in tasks]
        qgca = [((1, f"qgca:L{L}", 5, start), 2**L, size)
                for L in (2, 3, 4) for start, size in ((0, BLOCK_SIZE), (BLOCK_SIZE, 1))]
        assert built == qgca + [((7, "gca", 4, 0), 12, 3)]
        assert tasks[-1][0] == tasks[6][0]
        with pytest.raises(IndexError):
            tasks[7]

    def test_a_worker_error_comes_back_as_raised(self):
        results = _parallel_map(int, [("1",), ("2",), ("x",), ("4",)], 2)
        assert [next(results), next(results)] == [1, 2]
        with pytest.raises(ValueError, match="invalid literal for int.* 'x'"):
            next(results)
        assert_no_child()

    def test_a_lost_worker_is_a_child_process_error(self):
        parent = os.getpid()

        def task(k):
            if k == 4:
                assert os.getpid() != parent, "the task ran in the test process"
                os._exit(3)
            return k

        results = _parallel_map(task, [(k,) for k in range(9)], 3)
        assert list(islice(results, 4)) == [0, 1, 2, 3]
        with pytest.raises(ChildProcessError,
                           match=r"^worker process \d+ ended before its result \(wait status 768\)$"):
            next(results)
        assert_no_child()

    def test_workers_that_all_end_before_noting_a_task(self, monkeypatch):
        # every worker ends at its first note, so the notes pipe ends before
        # any task has an owner, and the first worker's pipe says how
        parent, write = os.getpid(), os.write

        def dying(fd, data):
            if os.getpid() != parent:
                os._exit(5)
            return write(fd, data)

        monkeypatch.setattr(os, "write", dying)
        results = _parallel_map(int, [("1",), ("2",), ("3",)], 2)
        lost = r"^worker process \d+ ended before its result \(wait status 1280\)$"
        with pytest.raises(ChildProcessError, match=lost):
            next(results)
        assert_no_child()


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _same_trace(a, b):
    """WittenTrace a equals b field by field, bytes and dtypes of every array."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "config":
            assert x == y
        else:
            x, y = np.asarray(x), np.asarray(y)
            assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), f.name


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_streamed_runs_do_not_depend_on_worker_count(monkeypatch, threads):
    # several runs of both protocols through one map, each with a partial block
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 4)
    configs = [ProtocolConfig(PROTOCOL_GCA, 4, 2.0, iterations=4, runs=BLOCK_SIZE + 1),
               ProtocolConfig(PROTOCOL_QGCA, 5, 1.0, iterations=3, runs=BLOCK_SIZE + 1),
               ProtocolConfig(PROTOCOL_GCA, 6, 5.0, iterations=5, runs=BLOCK_SIZE + 1,
                              base_seed=3),
               ProtocolConfig(PROTOCOL_QGCA, 4, 0.0, iterations=2, runs=BLOCK_SIZE + 1)]
    streamed = list(dynamics.run_protocols(configs, threads=threads))
    assert len(streamed) == len(configs)
    for trace, config in zip(streamed, configs):
        _same_trace(trace, run_protocol(config, threads=1))


def _csv_bytes(trace, directory, name):
    path = directory / name
    write_trace_csv(trace, path)
    return path.read_bytes()


@settings(max_examples=10, deadline=None, database=None)
@given(
    runs=st.integers(1, 2 * BLOCK_SIZE).filter(lambda r: r % BLOCK_SIZE),
    iterations=st.integers(1, 6),
    workers=st.integers(1, 3),
)
def test_outputs_do_not_depend_on_worker_count(tmp_path_factory, runs, iterations, workers):
    out = tmp_path_factory.mktemp("workers")
    for protocol in (PROTOCOL_GCA, PROTOCOL_QGCA):
        cfg = ProtocolConfig(protocol, 5, 2.0, iterations=iterations, runs=runs)
        serial, mapped = run_protocol(cfg, threads=1), run_protocol(cfg, threads=workers)
        assert _csv_bytes(serial, out, "serial.csv") == _csv_bytes(mapped, out, "mapped.csv")
        assert np.array_equal(serial.occupancy, mapped.occupancy)


def _pool_energies(N):
    """Energies of sector N's member chains, ascending L, each chain's blocks in n_d order."""
    return np.concatenate([energies for key in decompose_n_sector(N).members
                           for energies in full_chain_spectrum(key.L, SUSY)])


class TestOccupancy:
    def test_final_counts_sum_to_runs(self):
        cfg = ProtocolConfig(PROTOCOL_GCA, 4, 2.0, iterations=50, runs=700)
        counts = run_protocol(cfg).occupancy
        assert counts.sum() == 700
        assert len(counts) == len(_pool_energies(4)) == 12  # 2**2 + 2**3 pool states

    def test_counts_are_compact_per_task_and_summed_as_int64(self):
        pools = _pools(ProtocolConfig(PROTOCOL_GCA, 4, 40.0), None)
        assert _walk_block((1, "gca", 4, 0), pools[0][1], 40.0, 5, 300)[-1].dtype == np.uint16
        # at beta = 40 nearly every walker ends in one of the pool's two zero
        # modes (chains L = 2 and 3): more than a task's uint16 counts hold
        # once the tasks are added
        runs = 18 * BLOCK_SIZE
        counts = run_protocol(ProtocolConfig(PROTOCOL_GCA, 4, 40.0, iterations=100,
                                             runs=runs)).occupancy
        assert counts.dtype == np.int64
        assert counts.sum() == runs
        assert counts.max() > np.iinfo(np.uint16).max

    def test_every_pool_state_reachable(self):
        # beta = 0 accepts every proposal, so 2000 walkers end spread over
        # all 12 states, about 167 each
        cfg = ProtocolConfig(PROTOCOL_GCA, 4, 0.0, iterations=10, runs=2000)
        counts = run_protocol(cfg).occupancy
        assert counts.min() >= 100

    def test_final_histogram_matches_gibbs(self):
        from scipy import stats

        cfg = ProtocolConfig(PROTOCOL_GCA, 4, 1.0, iterations=200, runs=20000)
        counts = run_protocol(cfg).occupancy
        weights = np.exp(-_pool_energies(4))
        expected = counts.sum() * weights / weights.sum()
        keep = expected >= 10
        if (~keep).any():
            obs = np.append(counts[keep], counts[~keep].sum())
            exp = np.append(expected[keep], expected[~keep].sum())
        else:
            obs, exp = counts, expected
        stat, p = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert p > 0.01

    def test_qgca_occupancy_covers_each_member_chain(self):
        # sector 5's chains L = 2, 3, 4, two tasks each: every chain's own
        # 2**L states, in ascending L, hold all of its walkers
        runs = BLOCK_SIZE + 100
        counts = run_protocol(ProtocolConfig(PROTOCOL_QGCA, 5, 2.0, iterations=20,
                                             runs=runs)).occupancy
        assert counts.dtype == np.int64
        assert len(counts) == len(_pool_energies(5)) == 4 + 8 + 16
        assert [int(c.sum()) for c in np.split(counts, [4, 12])] == [runs] * 3

    def test_thread_invariance(self):
        cfg = ProtocolConfig(PROTOCOL_GCA, 5, 2.0, iterations=30,
                             runs=BLOCK_SIZE + 100)
        a = run_protocol(cfg, threads=1).occupancy
        b = run_protocol(cfg, threads=4).occupancy
        assert np.array_equal(a, b)


def _reference_walk(key, pool, beta, iterations, size):
    """The full-array kernel: every walker gathered and rewritten each iteration.

    It reads the parities as the float64 array the pools once held, and
    returns _walk_block's five results.
    """
    energies, codes = pool
    signed_parity = codes.astype(np.float64)
    rng = seed_stream(*key)
    dim = len(energies)
    cur = rng.integers(0, dim, size)
    counts = np.zeros(iterations, dtype=np.int64)
    sums = np.zeros(iterations)
    window_start = dynamics._window_start(iterations)
    tally = dynamics._tally_dtype(iterations - window_start)
    wsum = np.zeros(size, dtype=tally)
    wcnt = np.zeros(size, dtype=tally)
    for t in range(iterations):
        prop = rng.integers(0, dim, size)
        u = rng.random(size)
        accept = metropolis_accept(energies[prop] - energies[cur], beta, u)
        cur = np.where(accept, prop, cur)
        signed = signed_parity[cur]
        n = np.count_nonzero(signed)
        counts[t] = n
        if n:
            sums[t] = signed.sum()
            if t >= window_start:
                wsum += signed.astype(tally)  # parities +-1 and 0 convert exactly
                wcnt += signed != 0.0
    return counts, sums, wsum, wcnt, np.bincount(cur, minlength=dim).astype(
        np.min_scalar_type(size))


class TestKernel:
    @pytest.mark.parametrize("N", range(3, 12))
    @pytest.mark.parametrize("protocol", [PROTOCOL_GCA, PROTOCOL_QGCA])
    def test_matches_the_full_array_kernel(self, protocol, N):
        # beta = 0 accepts every move and beta = 40 almost none; one walker,
        # and one iteration, a one-iteration window
        for tag, pool in _pools(ProtocolConfig(protocol, N, 1.0), None):
            for beta in (0.0, 0.7, 5.0, 40.0):
                for size, iterations in ((300, 40), (1, 7), (1001, 13), (64, 1)):
                    key = (1, tag, N, 0)
                    got = _walk_block(key, pool, beta, iterations, size)
                    want = _reference_walk(key, pool, beta, iterations, size)
                    for g, w in zip(got, want, strict=True):
                        assert g.dtype == w.dtype
                        assert np.array_equal(g, w)

    def test_parities_are_int8_codes(self):
        for protocol in (PROTOCOL_GCA, PROTOCOL_QGCA):
            for _, (_, codes) in _pools(ProtocolConfig(protocol, 5, 1.0), None):
                assert codes.dtype == np.int8
                assert set(np.unique(codes)) <= {-1, 0, 1}

    @pytest.mark.parametrize("iterations", [1, 17])
    def test_one_acceptance_rule_call_per_iteration(self, monkeypatch, iterations):
        calls = []
        accept = dynamics.metropolis_accept

        def counting(*args):
            calls.append(args)
            return accept(*args)

        monkeypatch.setattr(dynamics, "metropolis_accept", counting)
        pool = _pools(ProtocolConfig(PROTOCOL_GCA, 5, 1.0), None)[0][1]
        _walk_block((1, "gca", 5, 0), pool, 2.0, iterations, 300)
        assert len(calls) == iterations


class TestWindowTallies:
    # at beta = 40 the N=4 walkers settle in their chain's ground state, so
    # in-sector walkers tally the whole window: |wsum| reaches its length
    # the window is the last iterations // 5: 127 iterations fit int8, 128 do not
    @pytest.mark.parametrize("iterations,window_start,dtype", [
        (500, 400, np.int8),
        (639, 512, np.int8),
        (640, 512, np.int16),
    ])
    def test_smallest_dtype_that_holds_the_window(self, iterations, window_start, dtype):
        cfg = ProtocolConfig(PROTOCOL_QGCA, 4, 40.0, iterations=iterations, runs=500)
        reached = 0
        for tag, pool in _pools(cfg, None):
            key = (1, tag, 4, 0)
            _, _, wsum, wcnt, _ = _walk_block(key, pool, 40.0, iterations, 500)
            assert wsum.dtype == wcnt.dtype == dtype
            _, _, ref_sum, ref_cnt, _ = _reference_walk(key, pool, 40.0, iterations, 500)
            assert np.array_equal(wsum, ref_sum)
            assert np.array_equal(wcnt, ref_cnt)
            reached = max(reached, int(np.abs(wsum.astype(np.int64)).max()))
        assert reached == iterations - window_start

    @pytest.mark.parametrize("iterations", [500, 640])
    def test_window_fold_matches_a_float64_reference(self, monkeypatch, iterations):
        cfg = ProtocolConfig(PROTOCOL_QGCA, 4, 2.0, iterations=iterations,
                             runs=2 * BLOCK_SIZE + 100)
        results = []
        parallel_map = dynamics._parallel_map

        def recording_map(*args):
            results.extend(parallel_map(*args))
            yield from results

        monkeypatch.setattr(dynamics, "_parallel_map", recording_map)
        trace = run_protocol(cfg)
        assert len(results) == 6  # two chains, three blocks each

        # the fold as it was with float64 window sums, concatenated residuals
        counts = sum(r[0] for r in results)
        sums = sum(r[1] for r in results)
        window_start = iterations - iterations // 5
        window = sums[window_start:] / counts[window_start:]
        wsum = np.concatenate([r[2].astype(np.float64) for r in results])
        wcnt = np.concatenate([r[3].astype(np.int64) for r in results])
        total = int(wcnt.sum())
        ratio = float(wsum.sum()) / total
        stderr = float(np.sqrt(np.square(wsum - ratio * wcnt).sum()) / total)
        assert trace.window_estimate == float(window.mean())
        assert trace.window_stderr == stderr
        assert trace.window_legit == total

    # one 50000-run pool ends in an 848-walker task; totals under 8 and off a
    # multiple of 8 reach the edges of numpy's 8-way unrolled loop; two such
    # pools, 100000 walkers, split into 16 pieces
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([1, 3, 7, 8, 9, 848, BLOCK_SIZE - 1, BLOCK_SIZE])
                    | st.integers(1, 3 * BLOCK_SIZE), min_size=1, max_size=12),
           st.sampled_from([np.int8, np.int16]), st.floats(-1.0, 1.0), st.integers(0, 2**32))
    @example([848], np.int8, 0.3, 0)
    @example([3, 4], np.int8, -0.7, 1)
    @example([BLOCK_SIZE, 9], np.int16, 0.1, 2)
    @example(([BLOCK_SIZE] * 6 + [848]) * 2, np.int8, 1 / 3, 3)
    def test_residual_sum_is_numpys_sum_of_the_concatenation(self, lengths, dtype, ratio,
                                                             seed):
        rng = np.random.default_rng(seed)
        wsums = [rng.integers(-100, 101, n).astype(dtype) for n in lengths]
        wcnts = [rng.integers(0, 101, n).astype(dtype) for n in lengths]
        resid = np.concatenate([np.subtract(w, np.multiply(c, ratio))
                                for w, c in zip(wsums, wcnts)])
        expected = float(np.square(resid).sum())
        got = _residual_square_sum(wsums, wcnts, ratio)
        assert struct.pack("<d", got) == struct.pack("<d", expected)

    def test_window_fold_peak_does_not_grow_with_walkers(self):
        # run_protocol's traced peak beside the gathered results of 2 and 18
        # blocks per chain: a concatenated residual would add 8 bytes a walker
        import tracemalloc

        peaks = {}
        for runs in (2 * BLOCK_SIZE, 18 * BLOCK_SIZE):
            cfg = ProtocolConfig(PROTOCOL_QGCA, 7, 2.0, iterations=5, runs=runs)
            results = list(starmap(_walk_block, _Tasks([cfg], None)))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                trace = run_protocol(cfg, results=results)
                peaks[runs] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert trace.window_legit > 0
        pools = len(decompose_n_sector(7).members)
        # the fold's buffer of BLOCK_SIZE float64 and ufunc cast buffers of as many;
        # the residual of the smaller run alone would take 8 * pools * 2 * BLOCK_SIZE
        assert peaks[2 * BLOCK_SIZE] <= 2**18 < 8 * pools * 2 * BLOCK_SIZE
        assert peaks[18 * BLOCK_SIZE] - peaks[2 * BLOCK_SIZE] < 2**12

    # several tasks, and one walker per chain, whose counts hit 0, 1 and 2
    @pytest.mark.parametrize("N,runs", [(4, 2 * BLOCK_SIZE + 100), (9, 1)])
    def test_trace_fold_matches_the_expression_fold(self, monkeypatch, N, runs):
        cfg = ProtocolConfig(PROTOCOL_QGCA, N, 0.0, iterations=200, runs=runs)
        results = []
        parallel_map = dynamics._parallel_map

        def recording_map(*args):
            results.extend(parallel_map(*args))
            yield from results

        monkeypatch.setattr(dynamics, "_parallel_map", recording_map)
        trace = run_protocol(cfg)

        # the fold as it was: new arrays from sum() and np.where
        counts = sum(r[0] for r in results)
        sums = sum(r[1] for r in results)
        with np.errstate(invalid="ignore", divide="ignore"):
            estimate = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
            var = (counts - sums**2 / np.maximum(counts, 1)) / np.maximum(counts - 1, 1)
            stderr = np.where(
                counts > 1, np.sqrt(np.maximum(var, 0.0) / np.maximum(counts, 1)),
                np.where(counts == 1, 0.0, np.nan),
            )
        if runs == 1:
            assert {0, 1, 2} <= set(counts.tolist())
        assert trace.legitimate_count.tobytes() == counts.tobytes()
        assert trace.estimate.tobytes() == estimate.tobytes()
        assert trace.stderr.tobytes() == stderr.tobytes()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestFrozenOutputs:
    """Digests recorded before the GCA and QGCA runners became one entry point."""

    def test_occupancy_digest(self):
        cfg = ProtocolConfig(PROTOCOL_GCA, 5, 2.0, iterations=30,
                             runs=BLOCK_SIZE + 100)
        counts = run_protocol(cfg).occupancy
        assert counts.sum() == BLOCK_SIZE + 100
        assert _sha256(counts.astype(np.int64).tobytes()) == (
            "049267b0c11d950e5dd1aaf1c2b3ae6ebaf7e0024362c36831f9bc3ae284e759")

    @pytest.mark.parametrize("protocol,digest", [
        (PROTOCOL_GCA, "6cb8ef2891c55bfc21873b263351576527ac896bef17e1ed1e7cc0c3036e91d9"),
        (PROTOCOL_QGCA, "23383caf94331e48ac332a73dce5cf1c5d6a0de86d8195283025b55b71f57887"),
    ])
    def test_trace_csv_digest(self, tmp_path, protocol, digest):
        cfg = ProtocolConfig(protocol, 5, 2.0, iterations=20, runs=300, base_seed=3)
        assert _sha256(_csv_bytes(run_protocol(cfg), tmp_path, "t.csv")) == digest


class TestTraceCsv:
    def test_roundtrip(self, tmp_path):
        trace = _trace(PROTOCOL_GCA, 4, 2.0, runs=300, iterations=25)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, extra_meta={"note": "x"})
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0][2:])
        assert meta["protocol"] == "gca"
        assert meta["N"] == 4
        assert meta["beta"] == 2.0
        assert meta["note"] == "x"
        assert meta["window_estimate"] == trace.window_estimate
        assert lines[1] == "iteration,estimate,stderr,legitimate_count"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 25
        assert [int(r[0]) for r in rows] == list(range(1, 26))
        got = np.array([float(r[1]) for r in rows])
        assert np.array_equal(got, trace.estimate, equal_nan=True)
        assert [int(r[3]) for r in rows] == trace.legitimate_count.tolist()

    def test_gap_rows_serialize_as_nan(self, tmp_path):
        trace = _trace(PROTOCOL_GCA, 9, 0.0, runs=1, iterations=40)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        gap_rows = [
            ln for ln in path.read_text().splitlines()[2:] if ln.endswith(",0")
        ]
        assert gap_rows
        assert all(",nan," in ln for ln in gap_rows)


# the edge floats of the dialect, drawn as Python floats and as numpy float64
_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308)
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats()
_CELLS = st.one_of(
    _FLOATS, _FLOATS.map(np.float64),
    st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.none(),
    st.text(st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",))),
)
_META = st.none() | st.dictionaries(
    st.text(), st.none() | st.integers() | st.floats(allow_nan=False) | st.text(), max_size=4)


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 5))
    columns = draw(st.lists(st.from_regex(r"[a-z_]{1,8}", fullmatch=True),
                            min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=6))
    return columns, rows, draw(_META)


class TestCsvDialect:
    """The contract of the one CSV writer that trace, sweep, spectrum and witten files use."""

    @settings(max_examples=300, deadline=None)
    @given(_tables())
    def test_cells_parse_back(self, table):
        columns, rows, meta = table
        lines = list(_csv_lines(columns, rows, meta))
        assert all(line.endswith("\n") and "\n" not in line[:-1] for line in lines)
        if meta is not None:
            assert lines[0].startswith("# ")
            assert json.loads(lines.pop(0)[2:]) == meta
        assert lines[0] == ",".join(columns) + "\n"
        assert len(lines) == 1 + len(rows)
        for line, row in zip(lines[1:], rows):
            cells = line[:-1].split(",")
            assert len(cells) == len(row)
            for cell, v in zip(cells, row):
                if v is None:
                    assert cell == ""
                elif isinstance(v, float):
                    if math.isnan(v):
                        assert math.isnan(float(cell))
                    else:  # the same bits, -0.0 and subnormals included
                        assert struct.pack("<d", float(cell)) == struct.pack("<d", v)
                elif isinstance(v, (int, np.integer)):
                    assert cell == str(int(v))
                else:
                    assert cell == v
