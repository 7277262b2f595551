"""Set-up probe and environment report for the benchmark.

    python3 perfbench/ready.py DIR...     make DIRs, import susychain, run one eigh
    python3 perfbench/ready.py --describe print the host and numeric environment

run.py times the first form from spawn to exit: that is the set-up a fresh
`susychain` process pays before its first result (interpreter start,
imports, the workload's directories, and the first LAPACK call, which
starts the BLAS threads).
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import susychain  # noqa: E402

# The largest block the exact sweeps diagonalize: L=10, n_d=5.
WARM_UP_DIM = 252

BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def warm_up() -> None:
    a = np.random.default_rng(0).random((WARM_UP_DIM, WARM_UP_DIM))
    np.linalg.eigh(a + a.T)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads() -> int | None:
    """Thread count the loaded BLAS reports, or None if it cannot be asked."""
    here = Path(np.__file__).parent
    for path in sorted(glob.glob(str(here.parent / "numpy.libs" / "*blas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "susychain": susychain.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
    }


def main(argv: list[str]) -> int:
    if argv == ["--describe"]:
        print(json.dumps(describe(), sort_keys=True))
        return 0
    for d in argv:
        Path(d).mkdir(parents=True, exist_ok=True)
    warm_up()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
