import math

import numpy as np
import pytest

from susychain.model import ModelParams
from susychain.susy import (
    COUPLING_DELTA,
    COUPLING_J,
    assemble,
    deviation_first_order,
    finite_difference_dw,
    hellmann_feynman_dw,
    params_at,
    slope_cn,
    witten_regularized,
    wtilde_gca_exact,
    wtilde_qgca_exact,
)

SUSY = ModelParams()

# Exact-diagonalization reference values, frozen at 12 digits from an
# independent implementation of the same formulas.
W_REG = {3: 0, 4: -1, 5: -1, 6: 0, 7: 1, 8: 1, 9: 0, 10: -1, 11: -1}

GCA_B5 = {
    3: 0.0,
    4: -0.999909208384,
    5: -0.999908596691,
    6: 0.0,
    7: 0.997994089201,
    8: 0.997970399378,
    9: 0.0,
    10: -0.989140317218,
    11: -0.988916343965,
}

GCA_B2 = {
    3: 0.0,
    4: -0.964663155972,
    5: -0.960071783755,
    6: 0.0,
    7: 0.869690547138,
    8: 0.853261949477,
    9: 0.0,
    10: -0.745058370291,
    11: -0.718131916466,
}

QGCA_B5 = {
    3: -4.5094041e-05,
    4: -0.999913237871,
    5: -0.999904381188,
    6: 0.000909644809,
    7: 0.998126558189,
    8: 0.997828765415,
    9: -0.003941663747,
    10: -0.989845216219,
    11: -0.988166824032,
}

QGCA_B2 = {
    3: -0.015876239976,
    4: -0.969712551895,
    5: -0.954580800105,
    6: 0.038084125369,
    7: 0.883342428455,
    8: 0.840087209939,
    9: -0.048651335553,
    10: -0.765245997717,
    11: -0.700047915072,
}

E1 = {
    3: 1.0,
    4: 2.0,
    5: 2.0,
    6: 0.585786437627,
    7: 1.38196601125,
    8: 1.38196601125,
    9: 0.411625560146,
    10: 1.044050779054,
    11: 1.044050779054,
}


def test_assemble_sector_three():
    spec = assemble(3, SUSY)
    assert spec.zero_mode_count == 0
    assert spec.m == 0
    assert sorted(spec.energies()) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert sorted(spec.parities()) == [-1.0, 1.0]
    assert spec.levels[0].pair_id is not None
    assert spec.levels[0].pair_id == spec.levels[1].pair_id


def test_assemble_sector_four():
    spec = assemble(4, SUSY)
    assert spec.zero_mode_count == 1
    assert spec.zero_mode_length == 2
    assert sorted(spec.energies()) == pytest.approx([0.0, 2.0, 2.0], abs=1e-10)
    zero = min(spec.levels, key=lambda lv: lv.energy)
    assert zero.parity == -1
    assert zero.pair_id is None


@pytest.mark.parametrize("N", range(3, 12))
def test_zero_mode_census(N):
    spec = assemble(N, SUSY)
    expected = 0 if N % 3 == 0 else 1
    assert spec.zero_mode_count == expected
    assert spec.m == expected
    if expected:
        zero = min(spec.levels, key=lambda lv: lv.energy)
        assert zero.parity == (-1) ** (N // 3)


@pytest.mark.parametrize("N", range(3, 12))
def test_positive_levels_fully_paired(N):
    spec = assemble(N, SUSY)
    by_pair = {}
    for lv in spec.levels:
        if lv.energy > 1e-8:
            assert lv.pair_id is not None
            by_pair.setdefault(lv.pair_id, []).append(lv)
    for members in by_pair.values():
        assert len(members) == 2
        a, b = members
        assert a.parity == -b.parity
        assert abs(a.energy - b.energy) <= 1e-8
        assert a.key.L != b.key.L


def test_pairing_splits_off_the_special_point():
    spec = assemble(6, ModelParams(Delta=1.3))
    unpaired = [lv for lv in spec.levels if lv.energy > 1e-8 and lv.pair_id is None]
    assert unpaired


@pytest.mark.parametrize("N", range(3, 12))
@pytest.mark.parametrize("beta0", [0.5, 1.0, 2.0])
def test_regularized_index_is_beta0_independent(N, beta0):
    spec = assemble(N, SUSY)
    assert witten_regularized(spec, beta0) == pytest.approx(W_REG[N], abs=1e-9)


def test_regularized_index_rejects_negative_beta0():
    spec = assemble(3, SUSY)
    with pytest.raises(ValueError):
        witten_regularized(spec, -1.0)


@pytest.mark.parametrize("N", range(3, 12))
def test_gca_exact_reference_beta5(N):
    spec = assemble(N, SUSY)
    assert wtilde_gca_exact(spec, 5.0) == pytest.approx(GCA_B5[N], abs=1e-9)


@pytest.mark.parametrize("N", range(3, 12))
def test_gca_exact_reference_beta2(N):
    spec = assemble(N, SUSY)
    assert wtilde_gca_exact(spec, 2.0) == pytest.approx(GCA_B2[N], abs=1e-9)


def test_gca_infinite_temperature_limit():
    # at beta = 0 only the unpaired zero mode survives the parity sum
    spec = assemble(4, SUSY)
    assert wtilde_gca_exact(spec, 0.0) == pytest.approx(-1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("N", range(3, 12))
def test_qgca_exact_reference_beta5(N):
    assert wtilde_qgca_exact(N, SUSY, 5.0) == pytest.approx(QGCA_B5[N], abs=1e-9)


@pytest.mark.parametrize("N", range(3, 12))
def test_qgca_exact_reference_beta2(N):
    assert wtilde_qgca_exact(N, SUSY, 2.0) == pytest.approx(QGCA_B2[N], abs=1e-9)


@pytest.mark.parametrize("N", range(3, 12))
def test_qgca_low_temperature_limit(N):
    assert wtilde_qgca_exact(N, SUSY, 60.0) == pytest.approx(W_REG[N], abs=1e-8)


@pytest.mark.parametrize("N", range(3, 12))
def test_estimators_agree_at_low_temperature(N):
    spec = assemble(N, SUSY)
    gap = abs(wtilde_qgca_exact(N, SUSY, 5.0) - wtilde_gca_exact(spec, 5.0))
    assert gap <= 5e-3


def test_assemble_uses_cache_transparently(tmp_path):
    cold = assemble(5, SUSY, cache_dir=tmp_path)
    warm = assemble(5, SUSY, cache_dir=tmp_path)
    bare = assemble(5, SUSY)
    assert np.allclose(cold.energies(), bare.energies(), atol=1e-12)
    assert np.array_equal(cold.energies(), warm.energies())


@pytest.mark.parametrize("N", range(3, 12))
def test_first_excited_reference(N):
    assert assemble(N, ModelParams()).first_excited == pytest.approx(E1[N], abs=1e-9)


@pytest.mark.parametrize("N,expected", [(3, -0.625), (6, 0.1829034514), (9, 1.670438878e-2)])
def test_index_slope_reference(N, expected):
    fd = finite_difference_dw(N, 5.0, COUPLING_DELTA)
    assert fd == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("N", range(3, 9))
@pytest.mark.parametrize("coupling", [COUPLING_DELTA, COUPLING_J])
def test_hellmann_feynman_matches_finite_difference(N, coupling):
    fd = finite_difference_dw(N, 5.0, coupling)
    hf = hellmann_feynman_dw(N, 5.0, coupling)
    assert abs(fd - hf) <= 1e-6 * max(1e-6, abs(fd), abs(hf))


def test_splitting_rate_values():
    assert slope_cn(3, 5.0, COUPLING_DELTA) == pytest.approx(0.125, rel=1e-6)
    assert slope_cn(6, 5.0, COUPLING_DELTA) == pytest.approx(3.658069e-2, rel=1e-5)
    assert slope_cn(9, 5.0, COUPLING_DELTA) == pytest.approx(3.340878e-3, rel=1e-5)


def test_splitting_rate_vanishes_for_hopping():
    # a hopping change rescales paired levels together at N=3
    assert abs(slope_cn(3, 5.0, COUPLING_J)) <= 1e-8


@pytest.mark.parametrize("N", [4, 6])
def test_splitting_rate_stable_in_beta(N):
    c4 = slope_cn(N, 4.0, COUPLING_DELTA)
    c5 = slope_cn(N, 5.0, COUPLING_DELTA)
    assert abs(c4 - c5) <= 0.10 * c5


def test_splitting_rate_rejects_bad_beta():
    with pytest.raises(ValueError):
        slope_cn(4, 0.0, COUPLING_DELTA)


@pytest.mark.parametrize("estimate", [finite_difference_dw, hellmann_feynman_dw])
def test_slope_estimators_reject_unknown_coupling(estimate):
    with pytest.raises(ValueError, match="unknown coupling"):
        estimate(4, 5.0, "h")


def test_params_at_moves_one_coupling():
    assert params_at(COUPLING_DELTA, 1.25) == ModelParams(Delta=1.25)
    assert params_at(COUPLING_J, -0.75) == ModelParams(J=-0.75)
    with pytest.raises(ValueError, match="unknown coupling"):
        params_at("h", 0.5)


def test_first_order_deviation_matches_raw_slope():
    # both branches of the formula reduce to |dW/dc| * |dc|
    for N in range(3, 12):
        dev = deviation_first_order(N, 5.0, COUPLING_DELTA, -0.01)
        raw = abs(finite_difference_dw(N, 5.0, COUPLING_DELTA)) * abs(-0.01)
        assert dev == raw


def test_first_order_deviation_values():
    assert deviation_first_order(3, 5.0, COUPLING_DELTA, 0.1) == pytest.approx(
        0.0625, rel=1e-6
    )
    assert deviation_first_order(6, 5.0, COUPLING_DELTA, 0.3) == pytest.approx(
        0.1829034514 * 0.3, rel=1e-5
    )


def test_deviation_scales_linearly():
    a = deviation_first_order(6, 5.0, COUPLING_DELTA, 0.02)
    b = deviation_first_order(6, 5.0, COUPLING_DELTA, 0.04)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_zero_mode_sectors_suppress_deviation_thermally():
    # zero-mode sectors carry the e^{-beta E_1} factor; for equal rate the
    # predicted deviation is smaller than in a gapless-pair sector
    dev4 = deviation_first_order(4, 5.0, COUPLING_DELTA, 0.1)
    c4 = slope_cn(4, 5.0, COUPLING_DELTA)
    assert dev4 == pytest.approx(c4 * 5.0 * math.exp(-5.0 * E1[4]) * 0.1, rel=1e-9)
