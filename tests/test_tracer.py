"""The traced benchmark's span recorder runs against the package as it is.

perfbench/tracer.py wraps the package's public functions and annotates
`spectra.cache_get`, `dynamics.run_protocol` and `analysis.sweep` spans
from what those calls take and return, so it breaks silently when any of
those contracts moves. Its `spectra.diagonalize` annotation names a
function the package no longer has, and so annotates nothing.
"""

import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def trace(tmp_path, *argv):
    """Spans of one traced command: [id, parent, name, start, end, cpu, attrs]."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(TRACER), str(spans), *argv],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def by_name(spans, name):
    return [s for s in spans if s[2] == name]


def test_exact_sweep_spans_annotate_the_sweep(tmp_path):
    spans = trace(tmp_path, "sweep", "--estimator", "exact-gca", "--N", "3,4",
                  "--values", "0.99,1.0,1.01", "--out", str(tmp_path / "out"))
    # every block solve, eigh or eigvalsh, runs in spectra's private solver,
    # which is not traced: no spectra.diagonalize span exists any more
    assert by_name(spans, "spectra.diagonalize") == []
    assert by_name(spans, "model.build_hamiltonian")
    assert by_name(spans, "analysis.sweep")[0][6] == {"points": 6}


def test_dynamics_spans_annotate_the_protocol_run(tmp_path):
    spans = trace(tmp_path, "dynamics", "--N", "3", "--runs", "10", "--iterations", "5",
                  "--threads", "1")
    [(*_, attrs)] = by_name(spans, "dynamics.run_protocol")
    assert attrs["walker_steps"] == 10 * 5
    assert attrs["tasks"] == 1
    assert 0 <= attrs["in_sector"] <= 10 * 5


def test_dynamics_solves_each_chain_block_once_behind_the_traced_memo(tmp_path):
    spans = trace(tmp_path, "dynamics", "--protocol", "qgca", "--N", "5", "--runs", "10",
                  "--iterations", "5", "--threads", "1")
    # sector 5 has member chains L = 2, 3 and 4, of 3 + 4 + 5 blocks
    assert len(by_name(spans, "spectra.full_chain_spectrum")) == 3
    # with no disk cache each cached_block solves its block, by eigvalsh
    assert len(by_name(spans, "spectra.cached_block")) == 12


def test_cache_get_spans_record_a_miss_then_a_hit(tmp_path):
    # perfbench's spectra.cache_get.hits counts the spans whose "hit" is true
    argv = ("witten", "--N", "4", "--which", "qgca", "--cache-dir", str(tmp_path / "cache"))
    cold = [attrs for *_, attrs in by_name(trace(tmp_path, *argv), "spectra.cache_get")]
    warm = [attrs for *_, attrs in by_name(trace(tmp_path, *argv), "spectra.cache_get")]
    # sector 4 has member chains L = 2 and 3, of 3 + 4 blocks
    assert cold == [{"hit": False}] * 7
    assert warm == [{"hit": True}] * 7
