"""Sector spectra, zero-mode census, and exact Witten-index formulas.

A sector N pools the (L, N-L-1) blocks of chains with lengths from
ceil((N-1)/2) to N-1. At the supersymmetric coupling point every positive
level is two-fold degenerate across adjacent lengths with opposite parity
(-1)**n_d, and a single zero mode exists exactly when N is not a multiple
of 3. The index estimators below weigh those parities with normalized
thermal distributions; away from the special point the degeneracies split
and the estimators respond, which is what the deviation laws quantify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SectorKey, decompose_n_sector
from .model import SUSY_POINT, ModelParams, build_dh_ddelta, build_dh_dj
from .spectra import cached_block, full_chain_spectrum

ZERO_TOL = 1e-10
PAIR_TOL = 1e-8

COUPLING_DELTA = "delta"
COUPLING_J = "j"


class NumericalConsistencyError(RuntimeError):
    """Two independent numerical estimates disagree beyond tolerance."""


@dataclass(frozen=True)
class SusyLevel:
    key: SectorKey
    energy: float
    parity: int
    pair_id: int | None = None


@dataclass(frozen=True)
class SusySpectrum:
    """All levels of one N-sector with zero modes and degenerate pairs marked."""

    N: int
    params: ModelParams
    levels: tuple[SusyLevel, ...]
    zero_mode_count: int
    zero_mode_length: int | None
    m: int

    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])

    def parities(self) -> np.ndarray:
        return np.array([lv.parity for lv in self.levels], dtype=float)

    @property
    def first_excited(self) -> float:
        """Smallest energy above the degeneracy tolerance."""
        positive = [lv.energy for lv in self.levels if lv.energy > PAIR_TOL]
        if not positive:
            raise ValueError(f"sector N={self.N} has no positive levels")
        return min(positive)


def assemble(N: int, params: ModelParams, cache_dir=None) -> SusySpectrum:
    """Diagonalize all member blocks and classify zero modes and pairs.

    Pairing is greedy over levels sorted by (energy, L): each unpaired
    level takes the next unpaired level of opposite parity within the
    degeneracy tolerance. Away from the supersymmetric point levels may
    remain unpaired; pair_id stays None there.
    """
    sector = decompose_n_sector(N)
    raw: list[tuple[float, SectorKey, int]] = []
    for key in sector.members:
        spec = cached_block(key, params, cache_dir)
        for e in spec.energies:
            raw.append((float(e), key, key.parity))
    raw.sort(key=lambda t: (t[0], t[1].L))

    pair_of: dict[int, int | None] = {i: None for i in range(len(raw))}
    next_pair = 0
    for i, (ei, _, pi) in enumerate(raw):
        if pair_of[i] is not None or ei <= PAIR_TOL:
            continue
        for j in range(i + 1, len(raw)):
            ej, _, pj = raw[j]
            if ej - ei > PAIR_TOL:
                break
            if pair_of[j] is None and pj == -pi:
                pair_of[i] = pair_of[j] = next_pair
                next_pair += 1
                break

    levels = tuple(
        SusyLevel(key, e, p, pair_of[i]) for i, (e, key, p) in enumerate(raw)
    )
    zeros = [lv for lv in levels if abs(lv.energy) < ZERO_TOL]
    return SusySpectrum(
        N=N,
        params=params,
        levels=levels,
        zero_mode_count=len(zeros),
        zero_mode_length=zeros[0].key.L if len(zeros) == 1 else None,
        m=1 if len(zeros) == 1 else 0,
    )


def witten_regularized(spec: SusySpectrum, beta0: float) -> float:
    """Tr[(-1)^F e^{-beta0 H}] over the sector; beta0-independent when
    every positive level is parity-paired."""
    if not 0.0 <= beta0 < math.inf:
        raise ValueError(f"beta0 must be finite and >= 0, got {beta0}")
    return float(np.sum(spec.parities() * np.exp(-beta0 * spec.energies())))


def wtilde_gca_exact(spec: SusySpectrum, beta: float) -> float:
    """Thermal parity average over the sector levels.

    This is the steady-state value of the pooled-chain Monte Carlo
    protocol: the Gibbs weights of the sector's own levels, normalized
    within the sector.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    e = spec.energies()
    # shift by the ground energy only where e^{-beta E0} leaves the float range:
    # slope_cn's central difference magnifies the weights' last bits 5000-fold
    e0 = e.min() if beta * abs(e.min()) > 600.0 else 0.0
    w = np.exp(-beta * (e - e0))
    return float((spec.parities() * w).sum() / w.sum())


def wtilde_qgca_exact(N: int, params: ModelParams, beta: float, cache_dir=None) -> float:
    """Steady state of the fixed-length-ensemble protocol.

    Each chain of the sector's length window holds its own canonical state
    with the full-chain partition function Z_L. A measurement is kept only
    when the sampled chain lands in the sector (n_d = N - L - 1); the
    estimator is the parity average over kept measurements:

        [ sum_L sum_{i in sector} parity_i e^{-beta E_i} / Z_L ]
        / [ sum_L sum_{i in sector} e^{-beta E_i} / Z_L ]

    The unnormalized numerator alone underestimates the index because
    out-of-sector measurements (discarded in practice) would count as
    zeros; conditioning on kept samples is what the measured histograms
    estimate, and it is the quantity that converges to the pooled-chain
    value at low temperature.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    log_w, parity = [], []
    for key in decompose_n_sector(N).members:
        chain = full_chain_spectrum(key.L, params, cache_dir)
        log_w.append(_log_gibbs(chain.blocks[key.n_d].energies, beta)
                     - _log_gibbs(chain.all_energies(), beta))
        parity.append(key.parity)
    w = np.exp(np.array(log_w) - max(log_w))
    return float((np.array(parity) * w).sum() / w.sum())


def _log_gibbs(energies: np.ndarray, beta: float) -> float:
    """log sum exp(-beta E), shifted by the minimum energy so nothing underflows."""
    e0 = energies.min()
    return -beta * e0 + math.log(np.exp(-beta * (energies - e0)).sum())


# ---------------------------------------------------------------------------
# deviation laws around the supersymmetric point

# coupling name -> (ModelParams field, dH/dcoupling builder)
_COUPLINGS = {COUPLING_DELTA: ("Delta", build_dh_ddelta), COUPLING_J: ("J", build_dh_dj)}
SUSY_VALUE = {name: getattr(SUSY_POINT, field) for name, (field, _) in _COUPLINGS.items()}
FD_STEP = 1e-4


def _coupling(name: str):
    if name not in _COUPLINGS:
        raise ValueError(f"unknown coupling {name!r}")
    return _COUPLINGS[name]


def params_at(coupling: str, value: float) -> ModelParams:
    """The supersymmetric point with one coupling moved to `value`."""
    field, _ = _coupling(coupling)
    return SUSY_POINT.replace(**{field: value})


def finite_difference_dw(N: int, beta: float, coupling: str) -> float:
    """Central finite difference of the exact pooled-chain index at the
    supersymmetric point."""
    c0 = SUSY_VALUE.get(coupling, 0.0)  # params_at rejects an unknown name
    up, dn = (wtilde_gca_exact(assemble(N, params_at(coupling, c0 + step)), beta)
              for step in (FD_STEP, -FD_STEP))
    return (up - dn) / (2.0 * FD_STEP)


def hellmann_feynman_dw(N: int, beta: float, coupling: str) -> float:
    """dW/dcoupling at the supersymmetric point without re-diagonalizing.

    Per-level energy slopes <psi|dH/dc|psi> propagated through the
    normalized thermal quotient:

        dW/dc = -beta ( <p E'> - W <E'> )

    with <.> the sector Gibbs average. Smooth through degeneracies because
    only block traces of analytic functions enter.
    """
    _, build_dh = _coupling(coupling)
    num = den = num_d = den_d = 0.0
    for key in decompose_n_sector(N).members:
        spec = cached_block(key, SUSY_POINT)
        slopes = np.einsum("ij,ij->j", spec.states, build_dh(key).entries @ spec.states)
        w = np.exp(-beta * spec.energies)
        num += key.parity * w.sum()
        den += w.sum()
        num_d += key.parity * float((w * slopes).sum())
        den_d += float((w * slopes).sum())
    W = num / den
    return -beta * (num_d - W * den_d) / den


def _checked_slope(N: int, beta: float, coupling: str) -> float:
    """dW/dc by central difference, cross-checked against Hellmann-Feynman."""
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    fd = finite_difference_dw(N, beta, coupling)
    hf = hellmann_feynman_dw(N, beta, coupling)
    scale = max(abs(fd), abs(hf))
    if scale > 1e-12 and abs(fd - hf) > 0.05 * scale:
        raise NumericalConsistencyError(
            f"slope estimators disagree for N={N}, {coupling}: "
            f"finite-difference {fd:.6e} vs Hellmann-Feynman {hf:.6e}"
        )
    return fd


def slope_cn(N: int, beta: float, coupling: str = COUPLING_DELTA) -> float:
    """Degeneracy-splitting rate c_N extracted from the index response.

    The raw response (1/beta)|dW/dc| of sectors with a zero mode carries
    the thermal suppression factor e^{-beta E_1}; it is divided out so
    c_N is a property of the splitting alone and the extraction is stable
    in beta. Sectors without a zero mode have no such factor.
    """
    c = abs(_checked_slope(N, beta, coupling)) / beta
    spec = assemble(N, SUSY_POINT)
    if spec.zero_mode_count:
        c *= math.exp(beta * spec.first_excited)
    return c


def deviation_first_order(
    N: int, beta: float, coupling: str, delta_coupling: float
) -> float:
    """First-order magnitude of the index shift for a small coupling change.

    |W(c0 + dc) - W(c0)| = c_N beta |dc|                 (no zero mode)
                         = c_N beta e^{-beta E_1} |dc|   (zero mode present)

    Both reduce to |dW/dc| |dc|, which is what is computed.
    """
    return abs(_checked_slope(N, beta, coupling)) * abs(delta_coupling)
