import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from susychain.analysis import (
    FitReport,
    SweepSpec,
    compare_first_order,
    default_grid,
    fit_report_json,
    protection_report,
    sweep,
    write_sweep_csv,
)
from susychain.model import ModelParams
from susychain.susy import (
    assemble,
    deviation_first_order,
    wtilde_gca_exact,
)


class TestSpecValidation:
    def test_unknown_coupling(self):
        with pytest.raises(ValueError):
            SweepSpec("g", (1.0,), (4,))

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            SweepSpec("delta", (1.0,), (4,), estimator="canonical")

    def test_empty_values(self):
        with pytest.raises(ValueError):
            SweepSpec("delta", (), (4,))

    # a repeat would be counted twice: one more row and fit point, one more sampled walk
    @pytest.mark.parametrize("values,n_list,message", [
        ((0.99, 0.99, 0.98, 1.01), (4,), "values holds 0.99 more than once"),
        ((1.0, 1.1, 1.0), (4,), "values holds 1.0 more than once"),
        ((0.9, 1.1), (3, 3), "n_list holds 3 more than once"),
        ((0.9, 1.1), (3, 4, 5, 4), "n_list holds 4 more than once"),
    ])
    @pytest.mark.parametrize("estimator", ["exact-gca", "sampled-qgca"])
    def test_repeats_are_refused(self, values, n_list, message, estimator):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SweepSpec("delta", values, n_list, estimator=estimator)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("inf"), float("nan")])
    def test_beta_must_be_positive_and_finite(self, beta):
        with pytest.raises(ValueError, match="beta"):
            SweepSpec("delta", (1.0,), (4,), beta=beta)


def test_default_grid_spans_the_special_point():
    g = default_grid("delta")
    assert len(g) == 21
    assert g[0] == pytest.approx(0.5)
    assert g[-1] == pytest.approx(1.5)
    assert 1.0 in g
    gj = default_grid("j", points=5)
    assert gj[0] == pytest.approx(-1.5)
    assert gj[-1] == pytest.approx(-0.5)
    assert -1.0 in gj


def test_hopping_sweep_leaves_smallest_sector_flat():
    # neither member block of sector 3 contains a hopping bond matrix
    # element, so the index cannot respond to J at all
    spec = SweepSpec("j", default_grid("j", points=9), (3,))
    for rec in sweep(spec):
        assert rec.deviation == 0.0


def test_deviation_vanishes_at_the_special_point():
    spec = SweepSpec("delta", (0.8, 1.0, 1.2), (4, 6))
    recs = sweep(spec)
    at_center = [r for r in recs if r.value == 1.0]
    assert len(at_center) == 2
    for r in at_center:
        assert r.deviation == 0.0
        assert r.first_order_prediction == 0.0


def test_anisotropy_endpoint_deviations():
    spec = SweepSpec("delta", (0.5, 1.5), (3, 6))
    recs = {(r.N, r.value): r for r in sweep(spec)}
    assert recs[(3, 0.5)].deviation == pytest.approx(0.302709729332, abs=1e-9)
    assert recs[(3, 1.5)].deviation == pytest.approx(0.302709729332, abs=1e-9)
    assert recs[(6, 0.5)].deviation == pytest.approx(0.084803955649, abs=1e-9)
    assert recs[(6, 1.5)].deviation == pytest.approx(0.098440768515, abs=1e-9)


def test_record_prediction_column_matches_formula():
    spec = SweepSpec("delta", (0.95, 1.03), (4, 6), beta=5.0)
    for rec in sweep(spec):
        shift = rec.value - 1.0
        assert rec.first_order_prediction == pytest.approx(
            deviation_first_order(rec.N, 5.0, "delta", shift), rel=1e-12
        )


def test_exact_sweep_is_thread_stable():
    spec = SweepSpec("delta", (0.9, 1.0, 1.1), (4, 6))
    a = sweep(spec, threads=1)
    b = sweep(spec, threads=3)
    assert [(r.N, r.value, r.wtilde) for r in a] == [
        (r.N, r.value, r.wtilde) for r in b
    ]


def test_sweep_diagonalizes_the_same_blocks_at_any_thread_count(solves):
    spec = SweepSpec("delta", (0.97, 0.98, 0.99, 1.01, 1.02, 1.03), (5, 6, 7))
    counts = []
    for threads in (1, 2):
        solves.clear()
        sweep(spec, threads=threads)
        counts.append(len(solves))
    assert counts[0] == counts[1]


def test_exact_sweep_starts_no_thread(monkeypatch):
    import threading

    spec = SweepSpec("delta", (0.9, 1.0, 1.1), (4, 6))
    serial = sweep(spec, threads=1)

    def refuse(thread):
        raise AssertionError(f"exact sweep started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert sweep(spec, threads=4) == serial


def test_exact_sweep_enumerates_each_block_once(monkeypatch, solves):
    import susychain.model as model_mod

    enumerated = []
    enumerate_sector = model_mod.enumerate_sector
    monkeypatch.setattr(model_mod, "enumerate_sector",
                        lambda key: enumerated.append(key) or enumerate_sector(key))
    model_mod._block_operators.cache_clear()
    sweep(SweepSpec("delta", (0.9, 1.0, 1.1), tuple(range(3, 9)), estimator="exact-qgca"))
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == {key for key, _ in solves}


def test_exact_qgca_sweep_diagonalizes_each_block_once_off_the_special_point(solves):
    sweep(SweepSpec("delta", (0.9, 0.97, 1.0, 1.02, 1.1), tuple(range(3, 10)),
                    estimator="exact-qgca"))
    off = [(key, params) for key, params in solves if params != ModelParams()]
    assert len(off) == len(set(off))
    # each grid value off the point diagonalizes all L+1 blocks of lengths 1..8
    grid = [key for key, params in off if params.Delta in (0.9, 0.97, 1.02, 1.1)]
    assert len(grid) == 4 * sum(L + 1 for L in range(1, 9))


def test_exact_sweep_diagonalizes_the_special_point_at_most_twice(solves):
    sweep(SweepSpec("delta", (0.9, 1.0, 1.1), tuple(range(3, 10)), estimator="exact-qgca"))
    # once for the chain spectra, once for the Hellmann-Feynman slope
    at_point = Counter(key for key, params in solves if params == ModelParams())
    assert len(at_point) == sum(L + 1 for L in range(1, 9))
    assert max(at_point.values()) <= 2


# sha256 of sweep CSVs; the exact one re-recorded when block energies moved to
# eigvalsh (values moved by at most 3.1e-15, the slope column not at all)
FROZEN_SWEEPS = [
    ("exact-qgca", {},
     "3d6543315a30a65c9211fc3a57333d2f18c4ae52796a3e5976526695b22ee2ed"),
    ("sampled-qgca", {"runs": 300, "iterations": 5},
     "7e65c401cac40424caebc5d530db357543533eb7211a72bf8ab2267a78b82016"),
]


@pytest.mark.parametrize("estimator,budget,digest", FROZEN_SWEEPS)
def test_sweep_csv_frozen_digests(tmp_path, estimator, budget, digest):
    spec = SweepSpec("delta", (0.9, 0.97, 1.0, 1.02, 1.1), tuple(range(3, 9)),
                     estimator=estimator, **budget)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep(spec), path, meta={"estimator": estimator})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("estimator,budget,digest", FROZEN_SWEEPS)
def test_sweep_csv_frozen_digests_on_one_blas_thread(tmp_path, estimator, budget, digest):
    from susychain.cli import _one_blas_thread

    with _one_blas_thread():
        test_sweep_csv_frozen_digests(tmp_path, estimator, budget, digest)


SMALL_SHIFTS = tuple(1.0 + s for s in (-0.05, -0.03, -0.01, 0.01, 0.03, 0.05))


class TestFirstOrderFit:
    def test_fit_matches_prediction(self):
        spec = SweepSpec("delta", SMALL_SHIFTS, (3, 4, 6))
        reports = compare_first_order(sweep(spec))
        assert [r.N for r in reports] == [3, 4, 6]
        for r in reports:
            assert r.points == 6
            assert r.relative_discrepancy <= 0.02
            assert not r.nonlinear

    def test_fit_diagonalizes_nothing(self, solves):
        records = sweep(SweepSpec("delta", SMALL_SHIFTS, (4, 6)))
        solves.clear()
        reports = compare_first_order(records)
        assert solves == []
        for rep in reports:
            rate = next(r.first_order_prediction for r in records
                        if r.N == rep.N and r.value == SMALL_SHIFTS[-1]) / 0.05
            assert rep.predicted_slope == pytest.approx(rate, rel=1e-12)

    def test_fit_needs_three_points(self):
        spec = SweepSpec("delta", (0.99, 1.0, 1.01), (4,))
        with pytest.raises(ValueError):
            compare_first_order(sweep(spec))

    def test_large_shifts_are_flagged_nonlinear(self):
        # deviations saturate near |W| ~ 1, so a wide 'fit' must not pass
        # silently; the guard only sees |shift| <= 0.05 points, so feed it
        # hand-built records instead
        from susychain.analysis import SweepRecord

        recs = [
            SweepRecord(N=3, coupling="delta", value=1.0 + s, wtilde=0.0,
                        wtilde_susy=0.0, deviation=dev, stderr=0.0,
                        first_order_prediction=0.0)
            for s, dev in [(0.01, 0.00625), (0.03, 0.01875), (0.05, 0.09)]
        ]
        rep = compare_first_order(recs)[0]
        assert rep.nonlinear

    @pytest.mark.parametrize("N", [3, 4, 6])
    def test_first_order_error_shrinks_with_shift(self, N):
        w0 = wtilde_gca_exact(assemble(N, ModelParams()), 5.0)
        ratios = []
        for d in (0.04, 0.02, 0.01):
            w = wtilde_gca_exact(assemble(N, ModelParams(Delta=1.0 + d)), 5.0)
            pred = deviation_first_order(N, 5.0, "delta", d)
            ratios.append(abs(abs(w - w0) - pred) / d)
        assert ratios[0] > ratios[1] > ratios[2]


class TestProtectionReport:
    def test_requires_ordered_betas(self):
        with pytest.raises(ValueError):
            protection_report(5.0, 2.0, (4,))

    def test_zero_mode_sectors_resist_at_low_temperature(self):
        rows = {r.N: r for r in protection_report(2.0, 5.0, range(3, 9))}
        for N in (4, 5, 7, 8):
            assert rows[N].has_zero_mode
            assert rows[N].deviation_low_beta > rows[N].deviation_high_beta
            assert rows[N].measured_ratio > 10
        for N in (3, 6):
            assert not rows[N].has_zero_mode
            assert rows[N].deviation_low_beta < rows[N].deviation_high_beta
            assert rows[N].measured_ratio == pytest.approx(0.4, abs=0.05)

    def test_expected_ratio_formulas(self):
        rows = {r.N: r for r in protection_report(2.0, 5.0, (3, 4))}
        assert rows[3].expected_ratio == pytest.approx(0.4, rel=1e-12)
        assert rows[4].expected_ratio == pytest.approx(
            0.4 * np.exp(3 * 2.0), rel=1e-9
        )

    def test_measured_tracks_expected_within_factor_two(self):
        for row in protection_report(2.0, 5.0, range(3, 9)):
            assert row.expected_ratio / 2 < row.measured_ratio < row.expected_ratio * 2


def test_sampled_sweep_agrees_with_exact():
    # beta = 2 keeps excited states populated so the window scatter is
    # nonzero even with a modest walker budget
    values = (0.9, 1.0, 1.1)
    sampled = sweep(SweepSpec("delta", values, (4,), beta=2.0,
                              estimator="sampled-gca", runs=2000, iterations=150))
    exact = {r.value: r.wtilde
             for r in sweep(SweepSpec("delta", values, (4,), beta=2.0))}
    for rec in sampled:
        assert rec.stderr > 0
        assert abs(rec.wtilde - exact[rec.value]) <= 4 * max(rec.stderr, 1e-3)


def test_sweep_csv_roundtrip(tmp_path):
    spec = SweepSpec("delta", (0.9, 1.0, 1.1), (4,))
    recs = sweep(spec)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(recs, path, meta={"beta": 5.0})
    lines = path.read_text().splitlines()
    assert json.loads(lines[0][2:]) == {"beta": 5.0}
    assert lines[1].startswith("N,coupling,value,")
    assert len(lines) == 2 + len(recs)
    first = lines[2].split(",")
    assert int(first[0]) == 4
    assert first[1] == "delta"
    assert float(first[2]) == recs[0].value
    assert float(first[3]) == recs[0].wtilde


def test_sweep_writers_frozen_digests(tmp_path):
    # digests recorded before the writers took their columns from the dataclasses,
    # re-recorded when block energies moved to eigvalsh: CSV values moved by at
    # most 4.2e-15, the fitted slope by 1.7e-14, the predicted slope not at all
    spec = SweepSpec("delta", (0.95, 0.97, 0.99, 1.0, 1.01, 1.03, 1.05), (4, 6))
    recs = sweep(spec)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(recs, path, meta={"beta": 5.0})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "60f630a48d6d1c927786c749d7331ca72b42cfc59be6cf91f6ebfc26908a45f7")
    fit = fit_report_json(compare_first_order(recs))
    assert hashlib.sha256(fit.encode()).hexdigest() == (
        "bb6e216eec77918a6f9801f784ead2ebe831f405a0bc3566570b43b4692028d9")


def test_fit_report_json_is_parseable():
    reports = [FitReport(N=4, fitted_slope=0.1, predicted_slope=0.1,
                         relative_discrepancy=0.0, nonlinear=False, points=6)]
    data = json.loads(fit_report_json(reports))
    assert data[0]["N"] == 4
    assert data[0]["points"] == 6
    # a zero predicted slope gives an infinite discrepancy, written as null
    zero = [FitReport(N=3, fitted_slope=0.0, predicted_slope=0.0,
                      relative_discrepancy=float("inf"), nonlinear=False, points=4)]

    def strict(token):
        raise ValueError(f"not JSON: {token}")

    data = json.loads(fit_report_json(zero), parse_constant=strict)
    assert data[0]["relative_discrepancy"] is None
    assert data[0]["predicted_slope"] == 0.0
