"""The start-up path: `import susychain` loads nothing, so the command line
sets OpenBLAS's thread count before numpy starts it; the sampler
(`susychain.dynamics`), OpenSSL and numpy.random load only in the runs that
use them, and a sampling command's forked workers load numpy.random without
OpenSSL."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import susychain
import susychain.cli as cli
from susychain._common import _usable_cpus

SRC = str(Path(susychain.__file__).parents[1])


def run_fresh(code: str, **env) -> str:
    """stdout of `code` in a new interpreter on this package, with `env` set
    over the current environment less OPENBLAS_NUM_THREADS (importing the
    command line sets that in this process too)."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**child, **env}, check=True)
    return proc.stdout.strip()


def test_import_loads_no_numpy_and_no_submodule():
    loaded = run_fresh(
        "import sys, susychain; "
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'susychain'))))"
    )
    assert loaded == "['susychain']"


def test_every_public_name_resolves_and_is_listed():
    listed = dir(susychain)
    for name in susychain.__all__:
        assert getattr(susychain, name) is not None
        assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        susychain.no_such_name  # noqa: B018


needs_openblas = pytest.mark.skipif(cli._openblas() is None,
                                    reason="numpy has no bundled OpenBLAS")


@needs_openblas
def test_cli_loads_openblas_on_one_thread():
    threads = run_fresh("import susychain.cli as c; print(c._blas_threads())")
    assert threads == "1"


@needs_openblas
@pytest.mark.skipif(_usable_cpus() < 2, reason="OpenBLAS caps its threads at the usable CPUs")
def test_cli_keeps_a_thread_count_set_in_the_environment():
    threads = run_fresh("import susychain.cli as c; print(c._blas_threads())",
                        OPENBLAS_NUM_THREADS="2")
    assert threads == "2"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform has no sched_setaffinity")
def test_threads_default_is_the_usable_cpu_count():
    # pinned to one CPU before the command line loads, every --threads
    # default follows the affinity, whatever os.cpu_count() reads
    defaults = run_fresh(
        "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "from susychain.cli import build_parser; "
        "print({a.default for p in build_parser().subcommands.values() "
        "for a in p._actions if a.dest == 'threads'})")
    assert defaults == "{1}"


# Runs `main(argv)` in a new interpreter; prints the exit code and which of
# OpenSSL's binding, numpy.random, multiprocessing, concurrent.futures and the
# sampler the run loaded.
_LOADS = ("import sys; from susychain.cli import main; code = main({argv!r}); "
          "print(code, sorted(m for m in ('_hashlib', 'concurrent.futures', 'multiprocessing', "
          "'numpy.random', 'susychain.dynamics') if m in sys.modules))")


def loads(*argv: str) -> str:
    return run_fresh(_LOADS.format(argv=list(argv))).splitlines()[-1]


def test_cli_import_loads_neither_openssl_nor_numpy_random():
    # nor the sampler
    loaded = run_fresh("import sys, susychain.cli; print(['_hashlib' in sys.modules, "
                       "'numpy.random' in sys.modules, 'susychain.dynamics' in sys.modules])")
    assert loaded == "[False, False, False]"


@pytest.mark.parametrize("argv", [
    ("spectrum", "--N", "5"),
    ("witten", "--N", "5", "--which", "regularized"),
    ("witten", "--N", "5", "--which", "gca"),
    ("witten", "--N", "5", "--which", "qgca"),
    ("sweep", "--estimator", "exact-qgca", "--N", "3,4", "--points", "3"),
    ("sweep", "--estimator", "exact-gca", "--N", "3,4", "--points", "3"),
])
def test_exact_commands_load_neither_openssl_nor_numpy_random(tmp_path, argv):
    # nor the sampler, nor multiprocessing or concurrent.futures, which no command loads
    if argv[0] == "sweep":
        argv = (*argv, "--out", str(tmp_path))
    assert loads(*argv) == "0 []"


def test_sampling_loads_numpy_random():
    # numpy.random imports secrets, and with it OpenSSL
    assert loads("dynamics", "--N", "4", "--runs", "50", "--iterations", "5",
                 "--threads", "1") == "0 ['_hashlib', 'numpy.random', 'susychain.dynamics']"


def test_sampled_sweep_loads_the_sampler(tmp_path):
    # the reference seed's SeedSequence loads numpy.random in the sweeping process
    assert loads("sweep", "--estimator", "sampled-qgca", "--N", "3,4", "--values", "1.0",
                 "--runs", "50", "--iterations", "5", "--threads", "1",
                 "--out", str(tmp_path)) == "0 ['_hashlib', 'numpy.random', 'susychain.dynamics']"


def test_sampling_forks_its_workers_without_multiprocessing():
    # two workers for the two chains of N = 4 on any host, forked onto pipes
    # directly; only the workers draw, so the coordinator loads no numpy.random
    probe = "import susychain.dynamics as d; d._usable_cpus = lambda: 2; " + _LOADS.format(
        argv=["dynamics", "--protocol", "qgca", "--N", "4", "--runs", "50", "--iterations", "5",
              "--threads", "2"])
    assert run_fresh(probe).splitlines()[-1] == "0 ['susychain.dynamics']"


def test_sampling_workers_load_numpy_random_without_openssl():
    # each worker reports after every task it walks (a blocked module is None
    # in sys.modules); the coordinator, which samples nothing, loads neither
    probe = (
        "import os, sys, susychain.dynamics as d; d._usable_cpus = lambda: 2\n"
        "walk = d._walk_block\n"
        "def reporting(*task):\n"
        "    result = walk(*task)\n"
        "    loaded = [sys.modules.get(m) is not None for m in ('_hashlib', 'numpy.random')]\n"
        "    os.write(1, f'worker {os.getpid()} {loaded}\\n'.encode())\n"
        "    return result\n"
        "d._walk_block = reporting\n"
        "print('coordinator', os.getpid(), flush=True)\n"
        + _LOADS.format(argv=["dynamics", "--protocol", "qgca", "--N", "6", "--runs", "50",
                              "--iterations", "5", "--threads", "2"]))
    lines = run_fresh(probe).splitlines()
    coordinator = next(line.split()[1] for line in lines if line.startswith("coordinator"))
    reports = [line.split(maxsplit=2)[1:] for line in lines if line.startswith("worker")]
    assert len(reports) == 3  # one task for each chain of N = 6
    assert all(pid != coordinator and loaded == "[False, True]" for pid, loaded in reports)
    assert lines[-1] == "0 ['susychain.dynamics']"


@pytest.mark.parametrize("argv", [
    ("spectrum", "--N", "5"),
    ("witten", "--N", "5", "--which", "gca"),
    ("witten", "--N", "5", "--which", "qgca"),
    ("sweep", "--estimator", "exact-qgca", "--N", "3,4", "--points", "3"),
    ("cache", "inspect"),
], ids=["spectrum", "witten-gca", "witten-qgca", "sweep", "cache-inspect"])
def test_cache_loads_no_openssl_and_still_refuses_a_damaged_payload(tmp_path, argv):
    cache = tmp_path / "cache"
    if argv[0] == "cache":  # inspect a filled cache: every entry is read and checked
        assert loads("spectrum", "--N", "5", "--cache-dir", str(cache)) == "0 []"
    if argv[0] == "sweep":
        argv = (*argv, "--out", str(tmp_path / "out"))
    assert loads(*argv, "--cache-dir", str(cache)) == "0 []"
    entry = sorted(cache.glob("v*/*.spec"))[-1]
    raw = bytearray(entry.read_bytes())
    raw[-1] ^= 0x01
    entry.write_bytes(bytes(raw))
    probe = ("import sys, susychain.spectra as s; "
             f"print(s.cache_header({str(entry)!r}), '_hashlib' in sys.modules)")
    assert run_fresh(probe) == "None False"


def test_cache_clear_loads_no_openssl_and_no_sampler(tmp_path):
    cache = tmp_path / "cache"
    assert loads("spectrum", "--N", "5", "--cache-dir", str(cache)) == "0 []"
    assert loads("cache", "clear", "--cache-dir", str(cache)) == "0 []"
    assert not cache.exists()
