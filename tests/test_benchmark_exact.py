"""The benchmark's exact-output check, run in-process with the tier-1 tests.

perfbench/run.py compares its three exact sweeps (the criterion-6 fit
report included) against perfbench/expected.json within 1e-12. The tests
here run the same command lines through `main` and apply the benchmark's
own check, read from perfbench/run.py, so a drift of the exact layer fails
here and not only in the benchmark. Neither file is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from susychain.cli import main
from susychain.susy import COUPLING_DELTA, deviation_first_order

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _load_benchmark():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


BENCH = _load_benchmark()
EXPECTED = BENCH.load_expected()

# |dW/dDelta| at beta = 5 on the criterion-6 sectors, bit for bit. The
# central difference that gives it magnifies the last bits of its two
# spectra, so a slope solved with a different LAPACK driver fails here.
FIRST_ORDER_RATE = {
    3: 0.624999999184523,
    4: 0.0003404531112582987,
    5: 0.00026810316799963374,
    6: 0.1829034514228148,
    7: 0.005324487856728233,
    8: 0.005022445613289683,
}


def test_the_benchmark_checks_at_1e_12():
    assert BENCH.EXACT_TOL == 1e-12
    assert set(BENCH.SWEEPS) == {"qgca-grid", "gca-grid", "gca-criterion6"}


@pytest.mark.parametrize("name", sorted(BENCH.SWEEPS))
def test_exact_sweep_matches_the_benchmark_record(tmp_path, capsys, name):
    out = tmp_path / name
    assert main(BENCH.sweep_argv(name, out, ["--seed", "1", "--threads", "1"])) == 0
    capsys.readouterr()
    assert BENCH.check_sweep(name, out, EXPECTED) == []


def test_first_order_rate_is_bit_identical_on_the_criterion_6_sectors():
    got = {N: deviation_first_order(N, 5.0, COUPLING_DELTA, 1.0) for N in FIRST_ORDER_RATE}
    assert got == FIRST_ORDER_RATE
