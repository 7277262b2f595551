#!/usr/bin/env python3
"""Re-record perfbench/expected.json from the current program.

    python3 perfbench/record.py

Records the sha256 of the 18 seed-1 trace CSVs, the three exact sweeps, the
exact beta=5 GCA and QGCA values the statistical trace check compares
against, and the number of cache entries a cold exact-qgca sweep writes.
Every later benchmark run checks its outputs against this file, so
re-record only in a change that says why the recorded outputs moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

from run import (EXPECTED_PATH, MC_ARGS, SWEEPS, WORK_ROOT, nproc, parse_sweep_csv,
                 spawn, sweep_argv, sweep_outputs)

SEED = 1


def cli(args: list[str], work: Path) -> str:
    log = work / "cli.log"
    run = spawn([sys.executable, "-m", "susychain.cli", *args], log, work,
                time.monotonic() + 600)
    text = log.read_text()
    if run.rc != 0:
        raise RuntimeError(f"susychain {' '.join(args)} failed: {text}")
    return text


def main() -> int:
    WORK_ROOT.mkdir(exist_ok=True)
    common = ["--seed", str(SEED), "--threads", str(nproc())]
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        work = Path(tmp)
        exact = {
            which: {
                str(N): json.loads(cli(["witten", "--N", str(N), "--which", which,
                                        "--beta", "5", "--format", "json"], work))["value"]
                for N in range(3, 12)
            }
            for which in ("gca", "qgca")
        }
        digests = {}
        for protocol in ("gca", "qgca"):
            out = work / protocol
            cli(["dynamics", "--protocol", protocol, *MC_ARGS, "--out", str(out), *common],
                work)
            digests[protocol] = {
                str(N): hashlib.sha256(
                    (out / f"trace_{protocol}_N{N}.csv").read_bytes()).hexdigest()
                for N in range(3, 12)
            }
        sweeps = {}
        for name, (estimator, _, _) in SWEEPS.items():
            out = work / name
            cli(sweep_argv(name, out, common), work)
            csv_path, fit_path = sweep_outputs(out, estimator)
            sweeps[name] = {
                "rows": parse_sweep_csv(csv_path),
                "fit": json.loads(fit_path.read_text()) if fit_path.exists() else None,
            }
        cache = work / "cache"
        cli(sweep_argv("qgca-grid", work / "cold", common + ["--cache-dir", str(cache)]),
            work)
        entries = len(list(cache.glob("v*/*.spec")))
    WORK_ROOT.rmdir()
    expected = {
        "exact_beta5": exact,
        "trace_sha256": {str(SEED): digests},
        "sweeps": sweeps,
        "cache_entries": entries,
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
