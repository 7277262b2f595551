"""Run one `susychain` command with spans around the package's public functions.

Usage: python3 perfbench/tracer.py SPANS_JSON CLI_ARG...

Every public function of basis, model, spectra, susy, dynamics, analysis
and cli is wrapped at each place the package binds it (its own module and
every module that imported it), so calls between layers and calls inside a
layer are both recorded. Nothing under src/ is edited. Spans live in memory
and are written to SPANS_JSON when the command returns.

A span is [id, parent id, name, start, end, cpu seconds, attributes]. A span
opened on a worker thread with nothing open on that thread takes as parent
the innermost span open on the main thread, which in this package is the
call that submitted the work.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from susychain import analysis, basis, cli, dynamics, model, spectra, susy  # noqa: E402

LAYERS = (basis, model, spectra, susy, dynamics, analysis, cli)

# Called once per Metropolis iteration inside the walker kernel; a span
# there would cost more than the step it measures and split the kernel.
UNTRACED = {"dynamics.metropolis_accept"}

_decompose = basis.decompose_n_sector


def _diagonalize_attrs(args, kwargs, result):
    m = args[0] if args else kwargs["matrix"]
    p = m.params
    block = [m.key.L, m.key.n_d] + ([p.J, p.Delta, p.h] if p is not None else [])
    return {"dim": int(result.energies.shape[0]), "block": block}


def _run_protocol_attrs(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    pools = 1 if config.protocol == "gca" else len(_decompose(config.N).members)
    tasks_per_pool = math.ceil(config.runs / dynamics.BLOCK_SIZE)
    return {
        "walker_steps": config.runs * config.iterations * pools,
        "tasks": tasks_per_pool * pools,
        "in_sector": int(result.legitimate_count.sum()),
    }


ANNOTATE = {
    "spectra.diagonalize": _diagonalize_attrs,
    "spectra.cache_get": lambda a, k, r: {"hit": r is not None},
    "dynamics.run_protocol": _run_protocol_attrs,
    "analysis.sweep": lambda a, k, r: {"points": len(r)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.main_thread().ident

    def wrap(self, name, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main) if ident != self._main else None
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            done = False
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                stack.pop()
                attrs = annotate(args, kwargs, result) if annotate and done else None
                self.spans.append([sid, parent, name, t0, t1, c1 - c0, attrs])

        return traced

    def install(self):
        """Replace every package binding of each public layer function."""
        wrapped = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name not in UNTRACED:
                    wrapped[id(obj)] = (obj, self.wrap(name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "susychain" and not mod_name.startswith("susychain."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        spans_path.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
