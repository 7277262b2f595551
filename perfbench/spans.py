"""Self times and per-layer metrics from the spans `tracer.py` writes.

Self time is wall time during which a span was innermost: the span was
open and none of its children were. When spans on several threads are
innermost at once, that instant is shared equally among them, so the self
times of one process add up to the time covered by its root spans even
when worker threads overlap. A layer's self time is the sum over its
functions' spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

LAYERS = ("basis", "model", "spectra", "susy", "dynamics", "analysis", "cli")


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "cpu", "attrs", "layer")

    def __init__(self, sid, parent, name, t0, t1, cpu, attrs):
        self.id, self.parent, self.name = sid, parent, name
        self.t0, self.t1, self.cpu, self.attrs = t0, t1, cpu, attrs or {}
        self.layer = name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def load(path: Path) -> list[Span]:
    return [Span(*row) for row in json.loads(path.read_text())]


def self_times(spans: list[Span]) -> dict[int, float]:
    by_id = {s.id: s for s in spans}
    depth = {}
    for s in spans:
        d, p = 0, s.parent
        while p in by_id:
            d, p = d + 1, by_id[p].parent
        depth[s.id] = d
    events = [(s.t0, 1, depth[s.id], s.id) for s in spans]
    events += [(s.t1, 0, -depth[s.id], s.id) for s in spans]
    events.sort()  # ends before starts at equal times; children end first

    own = defaultdict(float)
    open_children = defaultdict(int)
    active, leaves = set(), set()
    last = events[0][0] if events else 0.0
    for t, is_start, _, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        parent = by_id[sid].parent
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return {s.id: own[s.id] for s in spans}


def _subtree_self(spans: list[Span], own: dict[int, float], root: str) -> float:
    """Self time of `root` spans plus their descendants in the same layer."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    total = 0.0
    todo = [s for s in spans if s.name == root]
    layer = root.split(".", 1)[0]
    while todo:
        s = todo.pop()
        total += own[s.id]
        todo.extend(c for c in children[s.id] if c.layer == layer)
    return total


class Profile:
    """Spans of every process of one pass, with their self times."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.span_count = 0
        self.outside_s = 0.0
        self.kernel_s = 0.0
        self.protocol_wall = 0.0
        self.protocol_cpu = 0.0
        self.walker_steps = 0
        self.tasks = 0
        self.in_sector = 0
        self.blocks = set()
        self.dim3 = 0
        self.cache_hits = 0
        self.sweep_points = 0

    def add_process(self, spans: list[Span], process_wall: float) -> None:
        own = self_times(spans)
        self.span_count += len(spans)
        for s in spans:
            self.self_s[s.name] += own[s.id]
            self.calls[s.name] += 1
            if s.name == "spectra.diagonalize":
                self.blocks.add(tuple(s.attrs["block"]))
                self.dim3 += s.attrs["dim"] ** 3
            elif s.name == "spectra.cache_get":
                self.cache_hits += int(s.attrs.get("hit", False))
            elif s.name == "analysis.sweep":
                self.sweep_points += s.attrs.get("points", 0)
            elif s.name == "dynamics.run_protocol":
                self.protocol_wall += s.duration
                self.protocol_cpu += s.cpu
                self.walker_steps += s.attrs.get("walker_steps", 0)
                self.tasks += s.attrs.get("tasks", 0)
                self.in_sector += s.attrs.get("in_sector", 0)
        self.kernel_s += _subtree_self(spans, own, "dynamics.run_protocol")
        roots = sum(s.duration for s in spans if s.parent is None)
        self.outside_s += process_wall - roots

    def counts(self) -> dict[str, int]:
        """Exact counts that must repeat between passes of the same workload."""
        return {
            "dynamics.walker_steps": self.walker_steps,
            "dynamics.tasks": self.tasks,
            "spectra.diagonalize.calls": self.calls["spectra.diagonalize"],
            "spectra.diagonalize.distinct_blocks": len(self.blocks),
            "spectra.eigh_dim3_sum": self.dim3,
            "spectra.cache_put.calls": self.calls["spectra.cache_put"],
            "spectra.cache_get.hits": self.cache_hits,
            "analysis.sweep.points": self.sweep_points,
        }

    def metrics(self) -> dict[str, float]:
        s, c = self.self_s, self.calls
        diag_calls = c["spectra.diagonalize"]
        m = {f"{layer}.self_s": sum(v for k, v in s.items() if k.startswith(layer + "."))
             for layer in LAYERS}
        m.update({
            "process.self_s": self.outside_s,
            "trace.spans": self.span_count,
            "dynamics.run_protocol.self_s": self.kernel_s,
            "dynamics.ns_per_walker_step":
                1e9 * self.kernel_s / self.walker_steps if self.walker_steps else 0.0,
            "dynamics.cpu_per_wall":
                self.protocol_cpu / self.protocol_wall if self.protocol_wall else 0.0,
            "dynamics.in_sector_fraction":
                self.in_sector / self.walker_steps if self.walker_steps else 0.0,
            "dynamics.write_trace_csv.self_s": s["dynamics.write_trace_csv"],
            "spectra.diagonalize.self_s": s["spectra.diagonalize"],
            "spectra.diagonalize.useful_ratio":
                len(self.blocks) / diag_calls if diag_calls else 0.0,
            "model.build_hamiltonian.calls": c["model.build_hamiltonian"],
            "model.build_hamiltonian.self_s": s["model.build_hamiltonian"],
            "model.build_dh.self_s": s["model.build_dh_ddelta"] + s["model.build_dh_dj"],
            "basis.enumerate_sector.calls": c["basis.enumerate_sector"],
            "basis.enumerate_sector.self_s": s["basis.enumerate_sector"],
            "spectra.full_chain_spectrum.calls": c["spectra.full_chain_spectrum"],
            "spectra.cache_put.self_s": s["spectra.cache_put"],
            "spectra.cache_get.calls": c["spectra.cache_get"],
            "spectra.cache_get.self_s": s["spectra.cache_get"],
            "susy.assemble.self_s": s["susy.assemble"],
            "susy.wtilde_qgca_exact.self_s": s["susy.wtilde_qgca_exact"],
            "susy.slope_cn.self_s": s["susy.slope_cn"],
            "analysis.sweep.self_s": s["analysis.sweep"],
            "analysis.compare_first_order.self_s": s["analysis.compare_first_order"],
            "analysis.write_sweep_csv.self_s": s["analysis.write_sweep_csv"],
            "cli.main.self_s": s["cli.main"],
        })
        m.update(self.counts())
        return m
