"""The start-up path: `import susychain` loads nothing, so the command line
sets OpenBLAS's thread count before numpy starts it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import susychain
import susychain.spectra as spectra
from susychain.dynamics import _usable_cpus

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


needs_openblas = pytest.mark.skipif(spectra._openblas() is None,
                                    reason="numpy has no bundled OpenBLAS")


@needs_openblas
def test_cli_loads_openblas_on_one_thread():
    threads = run_fresh("import susychain.cli, susychain.spectra as s; print(s._blas_threads())")
    assert threads == "1"


@needs_openblas
@pytest.mark.skipif(_usable_cpus() < 2, reason="OpenBLAS caps its threads at the usable CPUs")
def test_cli_keeps_a_thread_count_set_in_the_environment():
    threads = run_fresh("import susychain.cli, susychain.spectra as s; print(s._blas_threads())",
                        OPENBLAS_NUM_THREADS="2")
    assert threads == "2"
