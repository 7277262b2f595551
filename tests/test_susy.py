import contextlib
import hashlib
import math

import numpy as np
import pytest

import susychain.spectra as spectra
import susychain.susy as susy_mod
from susychain.basis import decompose_n_sector
from susychain.cli import _one_blas_thread
from susychain.model import ModelParams, build_hamiltonian, level_slopes
from susychain.spectra import cached_block
from susychain.susy import (
    COUPLING_DELTA,
    COUPLING_J,
    NumericalConsistencyError,
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

# N = 3..8 in closed form, N = 9..11 at 12 digits
E1 = {
    3: 1.0,
    4: 2.0,
    5: 2.0,
    6: 2.0 - math.sqrt(2.0),
    7: (5.0 - math.sqrt(5.0)) / 2.0,
    8: (5.0 - math.sqrt(5.0)) / 2.0,
    9: 0.411625560146,
    10: 1.044050779054,
    11: 1.044050779054,
}


def test_assemble_sector_three():
    spec = assemble(3, SUSY)
    assert spec.zero_mode_count == 0
    assert sorted(spec.energies) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert sorted(spec.parities) == [-1, 1]
    assert spec.pair_ids[0] is not None
    assert spec.pair_ids[0] == spec.pair_ids[1]


def test_sector_without_positive_levels():
    # both levels of N=3 sit exactly at 0 here: two zero modes on different chains
    spec = assemble(3, ModelParams(Delta=-7.0, h=-0.5))
    assert spec.energies.tolist() == [0.0, 0.0]
    assert (spec.zero_mode_count, spec.zero_mode_length) == (2, None)
    with pytest.raises(ValueError, match="^sector N=3 has no positive levels$"):
        spec.first_excited  # noqa: B018


def test_assemble_sector_four():
    spec = assemble(4, SUSY)
    assert spec.zero_mode_count == 1
    assert spec.zero_mode_length == 2
    assert sorted(spec.energies) == pytest.approx([0.0, 2.0, 2.0], abs=1e-10)
    zero = spec.energies.argmin()
    assert spec.parities[zero] == -1
    assert spec.pair_ids[zero] is None


@pytest.mark.parametrize("params", [SUSY, ModelParams(Delta=1.3)], ids=["susy", "delta"])
def test_levels_sort_like_energy_length_tuples(params):
    # wtilde_gca_exact sums in this order, and slope_cn's central difference
    # magnifies its last bits; exact cross-block ties are common at the SUSY point
    for N in range(3, 12):
        spec = assemble(N, params)
        levels = sorted((float(e), key.L) for key in decompose_n_sector(N).members
                        for e in cached_block(key, params))
        assert list(zip(spec.energies.tolist(), spec.lengths.tolist())) == levels


@pytest.mark.parametrize("N", range(3, 12))
def test_zero_mode_census(N):
    spec = assemble(N, SUSY)
    expected = 0 if N % 3 == 0 else 1
    assert spec.zero_mode_count == expected
    if expected:
        assert spec.parities[spec.energies.argmin()] == (-1) ** (N // 3)


@pytest.mark.parametrize("N", range(3, 12))
def test_positive_levels_fully_paired(N):
    spec = assemble(N, SUSY)
    by_pair = {}
    for i, pair in enumerate(spec.pair_ids):
        if spec.energies[i] > 1e-8:
            assert pair is not None
            by_pair.setdefault(pair, []).append(i)
    for members in by_pair.values():
        assert len(members) == 2
        a, b = members
        assert spec.parities[a] == -spec.parities[b]
        assert abs(spec.energies[a] - spec.energies[b]) <= 1e-8
        assert spec.lengths[a] != spec.lengths[b]


def pair_nd_gaps(spec) -> set[int]:
    """The |n_d differences| of the two blocks each pair_id of `spec` joins."""
    members = {}
    for L, pair in zip(spec.lengths.tolist(), spec.pair_ids):
        if pair is not None:
            members.setdefault(pair, []).append(spec.N - L - 1)
    return {abs(a - b) for a, b in members.values()}


@pytest.mark.parametrize("N", [*range(3, 14), 16])
def test_pairs_join_supercharge_neighbours(N):
    assert pair_nd_gaps(assemble(N, SUSY)) == {1}


# exact degeneracies across three or more blocks at E = 9 and 12; the order in
# which the solver returns tied levels follows the BLAS thread count, and
# greedy pairing by (energy, L) once joined blocks with |dn_d| = 3 here
@pytest.mark.parametrize("threads", ["ambient", "one"])
@pytest.mark.parametrize("N", [14, 16, 17, 19, 20])
def test_pairs_join_supercharge_neighbours_at_large_n(N, threads):
    with _one_blas_thread() if threads == "one" else contextlib.nullcontext():
        spec = assemble(N, SUSY)
    assert pair_nd_gaps(spec) == {1}
    assert None not in [pair for e, pair in zip(spec.energies, spec.pair_ids) if e > 1e-8]


def test_pairing_splits_off_the_special_point():
    spec = assemble(6, ModelParams(Delta=1.3))
    unpaired = [e for e, pair in zip(spec.energies, spec.pair_ids)
                if e > 1e-8 and pair is None]
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


# off the special point a level lies below zero, and e^{-beta0 E} can pass float64's range;
# at N=6 two levels of opposite parity overflow, and inf - inf is nan
@pytest.mark.parametrize("N,beta0,lowest", [(5, 800.0, "-1.372"), (6, 2000.0, "-0.99999")])
def test_regularized_index_refuses_to_overflow(N, beta0, lowest):
    spec = assemble(N, ModelParams(J=2.0))
    message = rf"beta0={beta0}: sector N={N} has lowest energy {lowest}"
    with pytest.raises(ValueError, match=message):
        witten_regularized(spec, beta0)


def test_regularized_index_below_overflow_is_unchanged():
    spec = assemble(5, ModelParams(J=2.0))
    assert witten_regularized(spec, 400.0) == pytest.approx(-2.45291515157591e238, rel=1e-12)


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


OFF_POINT = ModelParams(J=-0.8, Delta=1.3, h=0.2)

# sha256 of the float64 values of sectors 3..11, recorded when one batch
# evaluated every sector of a coupling value together and re-recorded when
# block energies moved to eigvalsh: beta = 5 moved by at most 1.4e-14; at
# beta = 800, N = 6 and 9 read rounding noise of order beta * 1e-15 and moved
# by 2.6e-12
QGCA_SECTOR_DIGESTS = {
    (SUSY, 0.0): "4086dd8516c56e40333f173ae0d6b18c8f047d03b11fffe07318e1e08a0a9586",
    (SUSY, 5.0): "a59b7bfe70de5ea19ee15abd7d1993f62e4fa09b548a222d98f3b0bed8e046a9",
    (SUSY, 800.0): "a10b6982e57a488dd496bcaffeffcf18f1bf2df8eee401d9cbf4cba0d6ec18a7",
    (OFF_POINT, 0.0): "4086dd8516c56e40333f173ae0d6b18c8f047d03b11fffe07318e1e08a0a9586",
    (OFF_POINT, 5.0): "2704a7d5397d7de74d2a88751790b21dbba0061ac472db435ee27718e696ce52",
    (OFF_POINT, 800.0): "b0a966c4192e5b6d4b93f827ad5860a81642f2dbb813498dbf7d484628b4181a",
}


@pytest.mark.parametrize("beta", [0.0, 5.0, 800.0])
@pytest.mark.parametrize("params", [SUSY, OFF_POINT])
def test_qgca_sectors_match_one_sector_at_a_time(beta, params):
    values = [wtilde_qgca_exact(N, params, beta) for N in range(3, 12)]
    digest = hashlib.sha256(np.array(values).tobytes()).hexdigest()
    assert digest == QGCA_SECTOR_DIGESTS[params, beta]


def test_qgca_validates_beta_and_sector():
    with pytest.raises(ValueError, match="beta"):
        wtilde_qgca_exact(4, SUSY, -1.0)
    with pytest.raises(ValueError, match="sector label"):
        wtilde_qgca_exact(2, SUSY, 5.0)


@pytest.mark.parametrize("N", range(3, 12))
def test_estimators_agree_at_low_temperature(N):
    spec = assemble(N, SUSY)
    gap = abs(wtilde_qgca_exact(N, SUSY, 5.0) - wtilde_gca_exact(spec, 5.0))
    assert gap <= 5e-3


def test_assemble_uses_cache_transparently(tmp_path):
    cold = assemble(5, SUSY, cache_dir=tmp_path)
    warm = assemble(5, SUSY, cache_dir=tmp_path)
    bare = assemble(5, SUSY)
    assert np.allclose(cold.energies, bare.energies, atol=1e-12)
    assert np.array_equal(cold.energies, warm.energies)


@pytest.mark.parametrize("N", range(3, 12))
def test_first_excited_reference(N):
    assert assemble(N, ModelParams()).first_excited == pytest.approx(E1[N], abs=1e-12)


@pytest.fixture(scope="module")
def gaps() -> dict[int, float]:
    """E1 at the supersymmetric point for N = 3..17."""
    return {N: assemble(N, SUSY).first_excited for N in range(3, 18)}


@pytest.mark.parametrize("k", range(1, 6))
def test_zero_mode_sectors_share_their_gap(gaps, k):
    # finite-size law: N = 3k+1 and 3k+2 have one gap (|dE1| <= 1.1e-14 measured)
    assert abs(gaps[3 * k + 1] - gaps[3 * k + 2]) <= 1e-12


@pytest.mark.parametrize("residue", range(3))
def test_scaled_gap_rises_within_each_residue_class(gaps, residue):
    # N E1 climbs toward its conformal limit: 3.0 -> 3.8589 (N = 3j),
    # 8.0 -> 11.1374 (3j+1) and 10.0 -> 11.8335 (3j+2) over N = 3..17
    scaled = [N * gaps[N] for N in range(3, 18) if N % 3 == residue]
    assert len(scaled) == 5
    assert all(a < b for a, b in zip(scaled, scaled[1:]))


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


def test_hellmann_feynman_ignores_eigenvector_signs(monkeypatch):
    solve = spectra._solve_block

    def negated(key, params, vectors=False):
        energies, states = solve(key, params, vectors)
        return energies, -states

    cases = [(N, c) for N in range(3, 12) for c in (COUPLING_DELTA, COUPLING_J)]
    plain = [hellmann_feynman_dw(N, 5.0, c) for N, c in cases]
    monkeypatch.setattr(spectra, "_solve_block", negated)
    flipped = [hellmann_feynman_dw(N, 5.0, c) for N, c in cases]
    assert np.array(flipped).tobytes() == np.array(plain).tobytes()


@pytest.mark.parametrize("N,beta", [(3, 800.0), (6, 2000.0)])
def test_hellmann_feynman_survives_underflowing_weights(N, beta):
    # every e^{-beta E} underflows here; the ground-energy shift keeps the
    # ratio finite (pytest turns the underflow's RuntimeWarning into an error)
    fd = finite_difference_dw(N, beta, COUPLING_DELTA)
    hf = hellmann_feynman_dw(N, beta, COUPLING_DELTA)
    assert math.isfinite(hf)
    assert hf == pytest.approx(fd, rel=1e-3)


@pytest.mark.parametrize("broken", ["finite_difference_dw", "hellmann_feynman_dw", "disagree"])
def test_non_finite_slope_is_a_consistency_error(monkeypatch, broken):
    if broken == "disagree":
        # finite, but twice the finite difference: past the 5% agreement bound
        fd = susy_mod.finite_difference_dw
        monkeypatch.setattr(susy_mod, "hellmann_feynman_dw",
                            lambda N, beta, coupling, blocks=None: 2 * fd(N, beta, coupling))
        match = "disagree"
    else:
        monkeypatch.setattr(susy_mod, broken, lambda *a: math.nan)
        match = "non-finite"
    with pytest.raises(NumericalConsistencyError, match=match):
        deviation_first_order(4, 5.0, COUPLING_DELTA, 0.01)


def test_splitting_rate_values():
    assert slope_cn(3, 5.0, COUPLING_DELTA) == pytest.approx(0.125, rel=1e-6)
    assert slope_cn(6, 5.0, COUPLING_DELTA) == pytest.approx(3.658069e-2, rel=1e-5)
    assert slope_cn(9, 5.0, COUPLING_DELTA) == pytest.approx(3.340878e-3, rel=1e-5)


def test_splitting_rate_diagonalizes_each_block_once(solves):
    slope_cn(6, 5.0, COUPLING_DELTA)
    # three member blocks at the special point and at either side of it
    assert len(solves) == len(set(solves)) == 9


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


# c_N of a zero-mode sector as beta grows: 2|E'_opp - E'_0|, from the zero
# mode's slope and that of the lowest-doublet level of opposite parity
ZERO_MODE_LIMIT = {4: 1.500000, 7: 1.061242}


def zero_mode_limit(N: int) -> float:
    """2|E'_opp - E'_0| from Hellmann-Feynman slopes d<H>/dDelta at the SUSY point."""
    levels = []  # (energy, parity, slope)
    for key in decompose_n_sector(N).members:
        energies, states = np.linalg.eigh(build_hamiltonian(key, SUSY))
        slopes = level_slopes(key, "Delta", states)
        levels += [(e, key.parity, s) for e, s in zip(energies, slopes)]
    [(_, parity, zero_slope)] = [lv for lv in levels if abs(lv[0]) < 1e-10]
    e1 = min(e for e, _, _ in levels if e > 1e-8)
    [opp_slope] = [s for e, p, s in levels if abs(e - e1) < 1e-8 and p == -parity]
    return 2.0 * abs(opp_slope - zero_slope)


@pytest.mark.parametrize("N", sorted(ZERO_MODE_LIMIT))
def test_zero_mode_limit_from_hellmann_feynman(N):
    assert zero_mode_limit(N) == pytest.approx(ZERO_MODE_LIMIT[N], rel=1e-5)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="dW/dc ~ beta e^{-beta E_1} c_N falls below what the central difference "
           "of W ~ +-1 resolves, so slope_cn reads 0.0 or drifts at large beta; "
           "a slope formula that does not cancel fixes it (ROADMAP direction 1)",
)
@pytest.mark.parametrize("N", sorted(ZERO_MODE_LIMIT))
@pytest.mark.parametrize("beta", [20.0, 40.0])
def test_splitting_rate_reaches_zero_mode_limit_at_large_beta(N, beta):
    assert slope_cn(N, beta, COUPLING_DELTA) == pytest.approx(ZERO_MODE_LIMIT[N], rel=1e-5)


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
