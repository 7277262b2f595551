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
from dataclasses import dataclass, replace

import numpy as np

from .model import SUSY_POINT, ModelParams, level_slopes
from .spectra import _check_sector, _solve_block, cached_block, full_chain_spectrum

ZERO_TOL = 1e-10
PAIR_TOL = 1e-8

COUPLING_DELTA = "delta"
COUPLING_J = "j"


class NumericalConsistencyError(RuntimeError):
    """Two independent numerical estimates disagree beyond tolerance."""


@dataclass(frozen=True)
class SusySpectrum:
    """All levels of one N-sector with zero modes and degenerate pairs marked.

    Level i sits on the chain of length lengths[i], in block
    n_d = N - lengths[i] - 1 with parity (-1)**n_d; pair_ids[i] is None
    for an unpaired level.
    """

    N: int
    energies: np.ndarray
    lengths: np.ndarray
    parities: np.ndarray
    pair_ids: tuple[int | None, ...]
    zero_mode_count: int
    zero_mode_length: int | None

    @property
    def first_excited(self) -> float:
        """Smallest energy above the degeneracy tolerance."""
        positive = self.energies[self.energies > PAIR_TOL]
        if not len(positive):
            raise ValueError(f"sector N={self.N} has no positive levels")
        return float(positive.min())


def assemble(N: int, params: ModelParams, cache_dir=None) -> SusySpectrum:
    """Diagonalize all member blocks and classify zero modes and pairs.

    Pairing is greedy over levels sorted by (energy, L): each unpaired
    level takes the next unpaired level of opposite parity within the
    degeneracy tolerance. Away from the supersymmetric point levels may
    remain unpaired; their pair_ids entry stays None there.
    """
    members = _check_sector(N)
    energies, lengths, parities = _sorted_levels(
        members, [cached_block(key, params, cache_dir) for key in members])

    e, p = energies.tolist(), parities.tolist()
    pair_of: list[int | None] = [None] * len(e)
    next_pair = 0
    for i, (ei, pi) in enumerate(zip(e, p)):
        if pair_of[i] is not None or ei <= PAIR_TOL:
            continue
        for j in range(i + 1, len(e)):
            if e[j] - ei > PAIR_TOL:
                break
            if pair_of[j] is None and p[j] == -pi:
                pair_of[i] = pair_of[j] = next_pair
                next_pair += 1
                break

    zeros = np.flatnonzero(np.abs(energies) < ZERO_TOL)
    return SusySpectrum(
        N=N,
        energies=energies,
        lengths=lengths,
        parities=parities,
        pair_ids=tuple(pair_of),
        zero_mode_count=len(zeros),
        zero_mode_length=int(lengths[zeros[0]]) if len(zeros) == 1 else None,
    )


def _sorted_levels(members, blocks: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(energies, lengths, parities) of the member blocks' levels, sorted by (energy, L).

    The sort is stable, like a sort of (energy, L) tuples: the estimators sum
    in this order, so every caller must order its levels here.
    """
    energies = np.concatenate(blocks)
    sizes = [len(e) for e in blocks]
    lengths = np.repeat([key.L for key in members], sizes)
    parities = np.repeat([key.parity for key in members], sizes)
    order = np.lexsort((lengths, energies))
    return energies[order], lengths[order], parities[order]


def witten_regularized(spec: SusySpectrum, beta0: float) -> float:
    """Tr[(-1)^F e^{-beta0 H}] over the sector; beta0-independent when
    every positive level is parity-paired."""
    if not 0.0 <= beta0 < math.inf:
        raise ValueError(f"beta0 must be finite and >= 0, got {beta0}")
    # off the SUSY point a level can be negative: e^{-beta0 E} may overflow, and inf - inf is nan
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sum(spec.parities * np.exp(-beta0 * spec.energies)))
    if not math.isfinite(value):
        raise ValueError(f"Tr(-1)^F e^(-beta0 H) leaves the float range at beta0={beta0}: "
                         f"sector N={spec.N} has lowest energy {float(spec.energies.min())!r}")
    return value


def wtilde_gca_exact(spec: SusySpectrum, beta: float) -> float:
    """Thermal parity average over the sector levels.

    This is the steady-state value of the pooled-chain Monte Carlo
    protocol: the Gibbs weights of the sector's own levels, normalized
    within the sector.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    return _parity_average(spec.energies, spec.parities, beta)


def _parity_average(e: np.ndarray, parities: np.ndarray, beta: float) -> float:
    """Gibbs average of the parities of levels e at inverse temperature beta."""
    # shift by the ground energy only where e^{-beta E0} leaves the float range:
    # slope_cn's central difference magnifies the weights' last bits 5000-fold
    e0 = e.min() if beta * abs(e.min()) > 600.0 else 0.0
    w = np.exp(-beta * (e - e0))
    return float((parities * w).sum() / w.sum())


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
    keys = _check_sector(N, full_chains=True)
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    lw = []  # log(sum_{i in block} e^{-beta E_i} / Z_L) per member block
    for key in keys:
        chain = full_chain_spectrum(key.L, params, cache_dir)
        lw.append(_log_gibbs(chain[key.n_d], beta) - _log_gibbs(np.concatenate(chain), beta))
    w = np.exp(np.array(lw) - max(lw))
    return float((np.array([key.parity for key in keys]) * w).sum() / w.sum())


def _log_gibbs(energies: np.ndarray, beta: float) -> float:
    """log sum exp(-beta E), shifted by the minimum energy so nothing underflows."""
    e0 = energies.min()
    return -beta * e0 + math.log(np.exp(-beta * (energies - e0)).sum())


# ---------------------------------------------------------------------------
# deviation laws around the supersymmetric point

# coupling name -> ModelParams field
_COUPLINGS = {COUPLING_DELTA: "Delta", COUPLING_J: "J"}
SUSY_VALUE = {name: getattr(SUSY_POINT, field) for name, field in _COUPLINGS.items()}
FD_STEP = 1e-4


def _coupling(name: str) -> str:
    if name not in _COUPLINGS:
        raise ValueError(f"unknown coupling {name!r}")
    return _COUPLINGS[name]


def params_at(coupling: str, value: float) -> ModelParams:
    """The supersymmetric point with one coupling moved to `value`."""
    return replace(SUSY_POINT, **{_coupling(coupling): value})


def finite_difference_dw(N: int, beta: float, coupling: str) -> float:
    """Central finite difference of the exact pooled-chain index at the
    supersymmetric point.

    The shifted spectra come from `_eigenpairs`, the solver of the
    Hellmann-Feynman cross-check, and are summed in `assemble`'s level order.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    c0 = SUSY_VALUE.get(coupling, 0.0)  # params_at rejects an unknown name
    w = []
    for step in (FD_STEP, -FD_STEP):
        blocks = _eigenpairs(N, params_at(coupling, c0 + step))
        energies, _, parities = _sorted_levels(_check_sector(N),
                                               [energies for energies, _ in blocks])
        w.append(_parity_average(energies, parities, beta))
    return (w[0] - w[1]) / (2.0 * FD_STEP)


def _eigenpairs(N: int, params: ModelParams = SUSY_POINT) -> list:
    """eigh's (energies, states) of every member block of sector N, in member order."""
    return [_solve_block(key, params, vectors=True) for key in _check_sector(N)]


def hellmann_feynman_dw(N: int, beta: float, coupling: str, blocks=None) -> float:
    """dW/dcoupling at the supersymmetric point without re-diagonalizing.

    Per-level energy slopes <psi|dH/dc|psi> propagated through the
    normalized thermal quotient:

        dW/dc = -beta ( <p E'> - W <E'> )

    with <.> the sector Gibbs average. Smooth through degeneracies because
    only block traces of analytic functions enter. `blocks` are the
    sector's _eigenpairs when the caller already holds them.
    """
    field = _coupling(coupling)
    solved = list(zip(_check_sector(N), blocks or _eigenpairs(N)))
    e = np.concatenate([energies for _, (energies, _) in solved])
    p = np.concatenate([np.full(len(energies), key.parity) for key, (energies, _) in solved])
    slopes = np.concatenate([level_slopes(key, field, states) for key, (_, states) in solved])
    # W and dW/dc are ratios of sums over the same weights, so shifting them
    # by the ground energy is exact and keeps e^{-beta E} from underflowing
    w = np.exp(-beta * (e - e.min()))
    W = (p * w).sum() / w.sum()
    return float(-beta * ((p * w * slopes).sum() - W * (w * slopes).sum()) / w.sum())


def _checked_slope(N: int, beta: float, coupling: str, blocks=None) -> float:
    """dW/dc by central difference, cross-checked against Hellmann-Feynman."""
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    fd = finite_difference_dw(N, beta, coupling)
    hf = hellmann_feynman_dw(N, beta, coupling, blocks)
    if not (math.isfinite(fd) and math.isfinite(hf)):
        raise NumericalConsistencyError(
            f"non-finite slope for N={N}, {coupling}: "
            f"finite-difference {fd!r}, Hellmann-Feynman {hf!r}"
        )
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
    blocks = _eigenpairs(N)
    c = abs(_checked_slope(N, beta, coupling, blocks)) / beta
    # zero modes and E_1 as assemble(N, SUSY_POINT) classifies the same levels
    e = np.concatenate([energies for energies, _ in blocks])
    if (np.abs(e) < ZERO_TOL).any():
        c *= math.exp(beta * e[e > PAIR_TOL].min())
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
