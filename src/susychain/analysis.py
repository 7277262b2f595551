"""Coupling sweeps around the supersymmetric point and first-order checks.

The protection story in numbers: sweep a coupling across the special
point, record |W(c) - W(c0)| per sector, compare against the first-order
laws, and contrast low and high temperature.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from ._common import ESTIMATORS, _csv_lines
from .spectra import _check_sector
from .susy import (
    COUPLING_DELTA,
    SUSY_VALUE,
    _coupling,
    assemble,
    deviation_first_order,
    params_at,
    wtilde_gca_exact,
    wtilde_qgca_exact,
)


@dataclass(frozen=True)
class SweepSpec:
    coupling: str
    values: tuple[float, ...]
    n_list: tuple[int, ...]
    beta: float = 5.0
    estimator: str = "exact-gca"
    runs: int = 50000
    iterations: int = 500
    base_seed: int = 1

    def __post_init__(self):
        _coupling(self.coupling)
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if not self.values:
            raise ValueError("values must be non-empty")
        for name, items in (("n_list", self.n_list), ("values", self.values)):
            repeated = [v for i, v in enumerate(items) if v in items[:i]]
            if repeated:  # each would be one more row and fit point of the same result
                raise ValueError(f"{name} holds {repeated[0]!r} more than once")
        # the first-order rate needs beta > 0; reject it before any point runs
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if self.estimator.startswith("exact-"):
            for N in self.n_list:
                _check_sector(N, full_chains=self.estimator == "exact-qgca")
        else:
            from .dynamics import ProtocolConfig  # only sampled sweeps load the sampler

            for N in self.n_list:
                ProtocolConfig(self.estimator.removeprefix("sampled-"), N, self.beta,
                               self.iterations, self.runs, self.base_seed)


@dataclass(frozen=True)
class SweepRecord:
    N: int
    coupling: str
    value: float
    wtilde: float
    wtilde_susy: float
    deviation: float
    stderr: float
    first_order_prediction: float


def default_grid(coupling: str, points: int = 21) -> tuple[float, ...]:
    """Grid spanning +-0.5 around the special value of the coupling."""
    center = SUSY_VALUE[coupling]
    return tuple(float(v) for v in np.linspace(center - 0.5, center + 0.5, points))


def _exact(spec: SweepSpec, N: int, value: float, cache_dir) -> tuple[float, float]:
    """One exact (N, coupling value) evaluation -> (wtilde, stderr 0)."""
    params = params_at(spec.coupling, value)
    if spec.estimator == "exact-gca":
        return wtilde_gca_exact(assemble(N, params, cache_dir), spec.beta), 0.0
    return wtilde_qgca_exact(N, params, spec.beta, cache_dir), 0.0


def _sampled(spec: SweepSpec, cache_dir, threads: int) -> tuple[dict, dict]:
    """Sampled (wtilde, stderr) per sector at the special point, and at each grid value.

    The reference and then each value, every sector of a point in
    turn, run as one stream of protocol runs over one map of workers.
    """
    from .dynamics import ProtocolConfig, run_protocols  # exact sweeps never load it

    # SeedSequence loads numpy.random (and OpenSSL), which exact sweeps never use
    ref_seed = int(np.random.SeedSequence(
        entropy=spec.base_seed, spawn_key=(0x5EED,)
    ).generate_state(1)[0])
    seeds = [ref_seed] + [spec.base_seed] * len(spec.values)
    configs = [ProtocolConfig(spec.estimator.removeprefix("sampled-"), N, spec.beta,
                              spec.iterations, spec.runs, base_seed=seed,
                              params=params_at(spec.coupling, value))
               for value, seed in zip([SUSY_VALUE[spec.coupling], *spec.values], seeds)
               for N in spec.n_list]
    windows = [(t.window_estimate, t.window_stderr)
               for t in run_protocols(configs, cache_dir, threads)]
    n = len(spec.n_list)
    ref, *points = (dict(zip(spec.n_list, windows[i:i + n]))
                    for i in range(0, len(windows), n))
    return ref, dict(zip(spec.values, points))


def sweep(spec: SweepSpec, cache_dir=None, threads: int = 1) -> list[SweepRecord]:
    """One record per (N, value), ordered N-major.

    Each coupling value, the special one included, is evaluated once for
    all sectors, and the first-order rate once per sector. Values are the
    outer loop so the sectors of one value share its memoized chain
    spectra. The reference at the special point uses its own seed so
    sampled deviations do not cancel correlated noise; sampled streams are
    keyed by (seed, N, block), so the evaluation order does not change
    them, and every sampled point streams through one map of worker
    processes. Exact estimators read no seed, so a grid value equal to the
    special one reuses the reference.
    """
    susy_value = SUSY_VALUE[spec.coupling]
    if spec.estimator.startswith("exact-"):
        done = {value: {N: _exact(spec, N, value, cache_dir) for N in spec.n_list}
                for value in dict.fromkeys([susy_value, *spec.values])}
        ref = done[susy_value]
    else:
        ref, done = _sampled(spec, cache_dir, threads)
    # first-order deviation per unit |shift|, |dW/dc|
    rate = {N: deviation_first_order(N, spec.beta, spec.coupling, 1.0) for N in spec.n_list}
    points = [done[value] for value in spec.values]
    records = []
    for N in spec.n_list:
        w_ref = ref[N][0]
        for value, point in zip(spec.values, points):
            w, se = point[N]
            records.append(SweepRecord(
                N=N,
                coupling=spec.coupling,
                value=float(value),
                wtilde=w,
                wtilde_susy=w_ref,
                deviation=abs(w - w_ref),
                stderr=se,
                first_order_prediction=rate[N] * abs(value - susy_value),
            ))
    return records


@dataclass(frozen=True)
class FitReport:
    N: int
    fitted_slope: float
    predicted_slope: float
    relative_discrepancy: float
    nonlinear: bool
    points: int


def compare_first_order(records: list[SweepRecord]) -> list[FitReport]:
    """Origin-constrained fit of deviation vs |shift| per sector.

    Restricted to records with |shift| <= 0.05 (the first-order regime).
    The predicted slope is the same fit of the records' own
    first_order_prediction column, so no block is solved here.
    """
    reports = []
    for N in sorted({r.N for r in records}):
        # the 1e-12 guard keeps grid points like 1.0 + 0.05 (which rounds
        # to a shift a few ulp above 0.05) inside the fit
        pts = [
            (abs(r.value - SUSY_VALUE[r.coupling]), r.deviation, r.first_order_prediction)
            for r in records
            if r.N == N
            and 0.0 < abs(r.value - SUSY_VALUE[r.coupling]) <= 0.05 + 1e-12
        ]
        if len(pts) < 3:
            raise ValueError(f"need at least 3 usable points for N={N}, got {len(pts)}")
        x, y, prediction = (np.array(col) for col in zip(*pts))
        fitted = float((x @ y) / (x @ x))
        predicted = float((x @ prediction) / (x @ x))
        rel = abs(fitted - predicted) / predicted if predicted > 0 else float("inf")
        resid = y - fitted * x
        span = fitted * x.max()
        reports.append(FitReport(
            N=N,
            fitted_slope=fitted,
            predicted_slope=float(predicted),
            relative_discrepancy=float(rel),
            nonlinear=bool(span > 0 and np.abs(resid).max() > 0.1 * span),
            points=len(pts),
        ))
    return reports


@dataclass(frozen=True)
class ProtectionRow:
    N: int
    has_zero_mode: bool
    deviation_low_beta: float
    deviation_high_beta: float
    measured_ratio: float
    expected_ratio: float


def protection_report(beta_low: float, beta_high: float, n_list,
                      delta_shift: float = 0.3, cache_dir=None) -> list[ProtectionRow]:
    """Deviation at a fixed anisotropy shift, low vs high beta, per sector.

    Sectors with a zero mode should show deviations enhanced at low beta
    by ~ (beta_low e^{-beta_low E1}) / (beta_high e^{-beta_high E1});
    sectors without one only by ~ beta_low / beta_high.
    """
    if not beta_low < beta_high:
        raise ValueError("beta_low must be < beta_high")
    delta0 = SUSY_VALUE[COUPLING_DELTA]
    rows = []
    for N in n_list:
        base = assemble(N, params_at(COUPLING_DELTA, delta0), cache_dir)
        shifted = assemble(N, params_at(COUPLING_DELTA, delta0 + delta_shift), cache_dir)
        devs = {
            beta: abs(wtilde_gca_exact(shifted, beta) - wtilde_gca_exact(base, beta))
            for beta in (beta_low, beta_high)
        }
        zero_mode = base.zero_mode_count > 0
        if zero_mode:
            e1 = base.first_excited
            expected = (beta_low * np.exp(-beta_low * e1)) / (
                beta_high * np.exp(-beta_high * e1)
            )
        else:
            expected = beta_low / beta_high
        measured = devs[beta_low] / devs[beta_high] if devs[beta_high] > 0 else float("inf")
        rows.append(ProtectionRow(
            N=N,
            has_zero_mode=zero_mode,
            deviation_low_beta=devs[beta_low],
            deviation_high_beta=devs[beta_high],
            measured_ratio=float(measured),
            expected_ratio=float(expected),
        ))
    return rows


def write_sweep_csv(records: list[SweepRecord], path: str | Path,
                    meta: dict | None = None) -> None:
    columns = [f.name for f in fields(SweepRecord)]
    Path(path).write_text("".join(_csv_lines(columns, map(astuple, records), meta)))


def fit_report_json(reports: list[FitReport]) -> str:
    """Strict JSON: a non-finite value (the discrepancy to a zero prediction) is null."""
    rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
             for k, v in asdict(r).items()} for r in reports]
    return json.dumps(rows, indent=1, allow_nan=False)
