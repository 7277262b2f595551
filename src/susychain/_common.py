"""Names the command line, the sweeps and the sampler share: the protocol and
sweep estimator names, the usable CPU count and the package's one CSV dialect.

They live apart from `dynamics` and `analysis` so that a command that samples
nothing never loads the sampler, one that sweeps nothing never loads the
sweeps, and this module imports no numpy.
"""

from __future__ import annotations

import json
import os

PROTOCOL_GCA = "gca"
PROTOCOL_QGCA = "qgca"
ESTIMATORS = ("exact-gca", "exact-qgca", "sampled-gca", "sampled-qgca")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _csv_lines(columns, rows, meta: dict | None = None):
    """The package's one CSV dialect, a line at a time: an optional `# {json}` line of
    `meta`, the column names, then one line per row. Floats (numpy's float64 too) are
    written in round-trip form, None as an empty cell, anything else as str, unquoted."""
    if meta is not None:
        yield "# " + json.dumps(meta, sort_keys=True) + "\n"
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(repr(float(v)) if isinstance(v, float) else "" if v is None else str(v)
                       for v in row) + "\n"
