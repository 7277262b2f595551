#!/usr/bin/env python3
"""susychain benchmark: four command-line workloads, checked outputs.

    python3 perfbench/run.py --workload mc-gca --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all              # every workload, untraced
    python3 perfbench/run.py --workload all --trace 1    # the traced pass

Each operation is one `susychain` invocation in a fresh process, run with
`--threads` equal to the usable CPU count and with the BLAS thread variables
removed from its environment. A pass is one run of all of a workload's
invocations. An untraced run makes set-up probes, then whole passes while
the next one fits in `--seconds` (at least one), and reports medians; a
traced run makes one untraced pass, one traced pass and a traced
single-thread pass.
The last line of standard output is the result as one JSON object. Why each
workload exists and the hazards it guards against are in README.md beside
this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("mc-gca", "mc-qgca", "exact-sweep", "exact-cached")

N_ALL = ",".join(str(n) for n in range(3, 12))
N_CRITERION6 = ",".join(str(n) for n in range(3, 9))
CRITERION6_SHIFTS = (-0.05, -0.04, -0.03, -0.02, -0.01, 0.01, 0.02, 0.03, 0.04, 0.05)
SWEEPS = {
    "qgca-grid": ("exact-qgca", N_ALL, ["--points", "21"]),
    "gca-grid": ("exact-gca", N_ALL, ["--points", "21"]),
    "gca-criterion6": ("exact-gca", N_CRITERION6,
                       ["--values", ",".join(repr(1.0 + s) for s in CRITERION6_SHIFTS)]),
}
MC_ARGS = ["--beta", "5", "--runs", "50000", "--iterations", "500"]
MC_ITERATIONS = 500

# A sampled window estimate with N <= STAT_MAX_N must lie within STAT_K
# window stderr of the exact value; there the exact transient bias is at
# most 4e-6. N=10 and N=11 carry a deterministic transient bias (+1.0e-2
# and +5.15e-2 for GCA) and are only required to be finite.
STAT_K = 5.0
STAT_MAX_N = 9
EXACT_TOL = 1e-12

SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Counts the program makes independent of thread timing; a traced pass and
# its single-thread repeat must agree on them exactly. spectra.diagonalize
# calls are left out: concurrent sweep points can both miss the unlocked
# lru_cache on slope_cn and diagonalize the same blocks twice.
REPEATING_COUNTS = (
    "dynamics.walker_steps", "dynamics.tasks", "spectra.diagonalize.distinct_blocks",
    "spectra.cache_put.calls", "spectra.cache_get.hits", "analysis.sweep.points",
    "spectra.cache_bytes_written", "spectra.sidecar_bytes_written",
)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Run:
    wall: float
    cpu: float
    rss_mb: float
    rc: int


def spawn(cmd: list[str], log: Path, cwd: Path, deadline: float) -> Run:
    """Run one process to completion; wall from spawn to reaping, its CPU and RSS."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=cwd, env=child_env())
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               proc.returncode)


# ---------------------------------------------------------------------------
# output checks

def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def parse_sweep_csv(path: Path) -> list[list]:
    lines = path.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = []
    for ln in body[1:]:
        n, coupling, *floats = ln.split(",")
        rows.append([int(n), coupling, *(float(x) for x in floats)])
    return rows


def _close(a, b) -> bool:
    if isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
        return abs(a - b) <= EXACT_TOL * max(1.0, abs(b))
    return a == b


def compare_records(got: list, want: list, what: str) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} records, expected {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        pairs = zip(g, w) if isinstance(w, list) else ((g.get(k), w[k]) for k in w)
        if not all(_close(a, b) for a, b in pairs):
            return [f"{what}: record {i} is {g}, expected {w}"]
    return []


def sweep_outputs(out: Path, estimator: str) -> tuple[Path, Path]:
    return out / f"sweep_delta_{estimator}.csv", out / f"fit_delta_{estimator}.json"


def check_sweep(name: str, out: Path, expected: dict) -> list[str]:
    estimator = SWEEPS[name][0]
    csv_path, fit_path = sweep_outputs(out, estimator)
    want = expected["sweeps"][name]
    try:
        problems = compare_records(parse_sweep_csv(csv_path), want["rows"], name)
        if want["fit"] is not None:
            problems += compare_records(json.loads(fit_path.read_text()), want["fit"],
                                        f"{name} fit")
        elif fit_path.exists():
            problems.append(f"{name}: unexpected fit report")
    except (OSError, ValueError) as exc:
        problems = [f"{name}: unreadable output: {exc}"]
    return problems


def check_traces(protocol: str, out: Path, seed: int, expected: dict,
                 reference: dict) -> list[str]:
    """Digests against the recorded or first-seen ones, then the statistical check."""
    recorded = expected["trace_sha256"].get(str(seed), {}).get(protocol)
    problems = []
    digests = {}
    for N in range(3, 12):
        path = out / f"trace_{protocol}_N{N}.csv"
        try:
            raw = path.read_bytes()
            lines = raw.decode().splitlines()
            meta = json.loads(lines[0][2:])
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{path.name}: unreadable: {exc}")
            continue
        digests[str(N)] = hashlib.sha256(raw).hexdigest()
        if len(lines) != MC_ITERATIONS + 2:
            problems.append(f"{path.name}: {len(lines) - 2} iterations")
        est, err = meta.get("window_estimate"), meta.get("window_stderr")
        if est is None or err is None or not math.isfinite(est) or not math.isfinite(err):
            problems.append(f"{path.name}: window estimate {est} +- {err}")
        elif N <= STAT_MAX_N:
            exact = expected["exact_beta5"][protocol][str(N)]
            if abs(est - exact) > STAT_K * err:
                problems.append(f"{path.name}: window estimate {est} is more than "
                                f"{STAT_K} x {err} from the exact {exact}")
    want = recorded or reference.setdefault(protocol, digests)
    for N, digest in digests.items():
        if want.get(N) != digest:
            problems.append(f"trace_{protocol}_N{N}.csv: sha256 {digest} differs from "
                            f"{'the recorded' if recorded else 'the first run'}")
    return problems


def cache_files(cache: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in sorted(cache.glob("v*/*")) if p.is_file()}


def cache_bytes(cache: Path) -> dict[str, int]:
    files = cache.glob("v*/*") if cache.exists() else ()
    sizes = {".spec": 0, ".json": 0}
    for p in files:
        if p.suffix in sizes:
            sizes[p.suffix] += p.stat().st_size
    return {"spectra.cache_bytes_written": sizes[".spec"],
            "spectra.sidecar_bytes_written": sizes[".json"]}


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Step:
    phase: str
    argv: list[str]
    check: Callable[[str], list[str]]


def sweep_argv(name: str, out: Path, common: list[str]) -> list[str]:
    estimator, n_list, grid = SWEEPS[name]
    return ["sweep", "--coupling", "delta", "--estimator", estimator, "--N", n_list,
            *grid, "--beta", "5", "--out", str(out), *common]


def build_steps(workload: str, seed: int, threads: int, work: Path,
                expected: dict, reference: dict) -> list[Step]:
    common = ["--seed", str(seed), "--threads", str(threads)]
    if workload in ("mc-gca", "mc-qgca"):
        protocol = workload[3:]
        out = work / protocol
        argv = ["dynamics", "--protocol", protocol, *MC_ARGS, "--out", str(out), *common]
        return [Step(protocol, argv,
                     lambda text: check_traces(protocol, out, seed, expected, reference))]
    if workload == "exact-sweep":
        return [
            Step(name, sweep_argv(name, work / name, common),
                 lambda text, name=name: check_sweep(name, work / name, expected))
            for name in SWEEPS
        ]
    cache = work / "cache"
    cached = ["--cache-dir", str(cache)]
    seen = {}

    def check_cold(text):
        seen.update(cache_files(cache))
        problems = check_sweep("qgca-grid", work / "cold", expected)
        entries = sum(name.endswith(".spec") for name in seen)
        if entries != expected["cache_entries"]:
            problems.append(f"cold pass wrote {entries} cache entries, "
                            f"expected {expected['cache_entries']}")
        return problems

    def check_warm(text):
        problems = check_sweep("qgca-grid", work / "warm", expected)
        if cache_files(cache) != seen:
            problems.append("warm pass changed the cache")
        return problems

    def check_inspect(text):
        lines = text.splitlines()
        n = expected["cache_entries"]
        listed = sum(".spec: L=" in ln for ln in lines)
        if not lines or lines[-1] != f"{n} entries" or listed != n:
            return [f"cache inspect listed {listed} entries, expected {n}"]
        return []

    return [
        Step("cold", sweep_argv("qgca-grid", work / "cold", common + cached), check_cold),
        Step("warm", sweep_argv("qgca-grid", work / "warm", common + cached), check_warm),
        Step("inspect", ["cache", "inspect", *cached], check_inspect),
    ]


@dataclass
class Op:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    phases: dict[str, float] = field(default_factory=dict)
    profile: object = None
    cache: dict[str, int] = field(default_factory=dict)


@dataclass
class Bench:
    """State of one benchmark run of one workload.

    Every pass and probe gets a new directory under `tmp`; the whole tree
    is removed when the run ends, so no deletion falls inside a timed pass.
    """

    workload: str
    seed: int
    expected: dict
    tmp: Path
    deadline: float
    reference: dict = field(default_factory=dict)
    dirs_made: int = 0

    def fresh_dir(self, tag: str) -> Path:
        self.dirs_made += 1
        path = self.tmp / f"{tag}{self.dirs_made}"
        path.mkdir()
        return path


def run_op(bench: Bench, threads: int, traced: bool) -> Op:
    """One pass over the workload's invocations in a fresh work directory."""
    if traced:
        from spans import Profile, load
    op = Op(profile=Profile() if traced else None)
    work = bench.fresh_dir("pass")
    steps = build_steps(bench.workload, bench.seed, threads, work, bench.expected,
                        bench.reference)
    for step in steps:
        log = work / f"{step.phase}.log"
        spans = work / f"{step.phase}.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *step.argv]
        else:
            cmd = [sys.executable, "-m", "susychain.cli", *step.argv]
        run = spawn(cmd, log, work, bench.deadline)
        op.wall += run.wall
        op.cpu += run.cpu
        op.rss_mb = max(op.rss_mb, run.rss_mb)
        op.phases[step.phase] = run.wall
        op.attempted += 1
        text = log.read_text(errors="replace")
        problems = step.check(text) if run.rc == 0 else [f"exit code {run.rc}: {text[-500:]}"]
        if traced and spans.exists():
            op.profile.add_process(load(spans), run.wall)
        if problems:
            op.failed += 1
            for p in problems:
                print(f"check failed [{bench.workload} {step.phase}]: {p}", file=sys.stderr)
    op.cache = cache_bytes(work / "cache")
    return op


# ---------------------------------------------------------------------------
# runs

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def describe_host(bench: Bench) -> dict:
    log = bench.fresh_dir("describe") / "describe.log"
    run = spawn([sys.executable, str(HERE / "ready.py"), "--describe"], log, log.parent,
                bench.deadline)
    if run.rc != 0:
        raise RuntimeError(f"environment probe failed: {log.read_text()}")
    host = json.loads(log.read_text().splitlines()[-1])
    host["threads"] = nproc()
    host["blas_env_removed"] = sorted(k for k in BLAS_ENV if k in os.environ)
    return host


def measure_setup(bench: Bench) -> list[float]:
    """Wall time of fresh processes that reach ready, each with new directories."""
    times = []
    for _ in range(SETUP_REPEATS):
        work = bench.fresh_dir("setup")
        dirs = [str(work / d) for d in ("out", "cache")]
        run = spawn([sys.executable, str(HERE / "ready.py"), *dirs], work / "ready.log",
                    work, bench.deadline)
        if run.rc != 0:
            raise RuntimeError(f"set-up probe failed: {(work / 'ready.log').read_text()}")
        times.append(run.wall)
    return times


def untraced(bench: Bench, seconds: float) -> dict:
    """Set-up probes, then whole passes while the next one fits in `seconds`."""
    setup = measure_setup(bench)
    ops = []
    start = time.monotonic()
    while True:
        ops.append(run_op(bench, nproc(), traced=False))
        longest = max(o.wall for o in ops)
        now = time.monotonic()
        if now - start + longest > seconds or now + 1.5 * longest > bench.deadline:
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(o.wall for o in ops),
        "cpu_s": statistics.median(o.cpu for o in ops),
        "peak_rss_mb": max(o.rss_mb for o in ops),
    }
    return {
        "attempted": sum(o.attempted for o in ops),
        "failed": sum(o.failed for o in ops),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "samples": {"setup": len(setup), "passes": len(ops)},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("ns_per_walker_step"):
        return "ns"
    if name.endswith(("_ratio", "_fraction", "_speedup", "_per_wall")):
        return "ratio"
    return "count"


def traced(bench: Bench) -> dict:
    """Untraced pass, traced pass, traced 1-thread repeat; per-layer metrics."""
    plain = run_op(bench, nproc(), traced=False)
    main = run_op(bench, nproc(), traced=True)
    single = run_op(bench, 1, traced=True)
    attempted = plain.attempted + main.attempted + single.attempted
    failed = plain.failed + main.failed + single.failed

    metrics = main.profile.metrics()
    metrics.update(main.cache)
    single_counts = {**single.profile.counts(), **single.cache}
    if any(metrics[k] != single_counts[k] for k in REPEATING_COUNTS):
        for k in REPEATING_COUNTS:
            print(f"count [{bench.workload}] {k}: {metrics[k]} at {nproc()} threads, "
                  f"{single_counts[k]} at 1", file=sys.stderr)
        failed = min(failed + 1, attempted)
    layer_sum = sum(v for k, v in metrics.items()
                    if k.count(".") == 1 and k.endswith(".self_s"))
    metrics.update({
        "trace.overhead_s": main.wall - plain.wall,
        "trace.self_sum_s": layer_sum,
        "dynamics.parallel_speedup": (single.profile.protocol_wall / main.profile.protocol_wall
                                      if main.profile.protocol_wall else 0.0),
        "spectra.diagonalize.thread_extra_calls":
            metrics["spectra.diagonalize.calls"] - single.profile.calls["spectra.diagonalize"],
        "pass.cold_s": plain.phases.get("cold", 0.0),
        "pass.warm_s": plain.phases.get("warm", 0.0),
        "pass.inspect_s": plain.phases.get("inspect", 0.0),
    })
    gap = abs(layer_sum - plain.wall)
    if gap > abs(metrics["trace.overhead_s"]) + 1e-3:
        raise RuntimeError(f"layer self times miss the untraced wall by {gap:.3f} s")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())},
        "samples": {"passes": 3, "untraced_wall_s": plain.wall},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: dict) -> dict:
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        bench = Bench(workload, seed, expected, Path(tmp), time.monotonic() + RUN_LIMIT_S)
        print(f"host {workload} " + json.dumps(describe_host(bench), sort_keys=True))
        result = traced(bench) if trace else untraced(bench, seconds)
    for name, m in result["metrics"].items():
        print(f"{workload:<13} {name:<42} {m['value']:>16.6f} {m['unit']}")
    print(f"{workload:<13} {'error_rate':<42} "
          f"{result['failed'] / result['attempted']:>16.6f} ratio "
          f"({result['failed']} of {result['attempted']} invocations failed; "
          f"samples {result['samples']})")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "susychain" / "cli.py").is_file() or not EXPECTED_PATH.is_file():
        print(f"no susychain sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    expected = load_expected()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), expected)
                   for w in names}
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
