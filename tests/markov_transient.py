"""Exact transient of the pooled-chain (GCA) Metropolis sampler.

A GCA walker collides with a uniformly random state of its pool and
accepts it with probability min(1, e^{-beta dE}). For one walker this is a
Markov chain on the pool with the dense transition matrix

    T_ij = min(1, e^{-beta (E_j - E_i)}) / dim    (j != i)
    T_ii = 1 - sum_{j != i} T_ij                  (rejected mass stays put)

Walkers start uniformly, so after t collisions the state distribution is
p_t = p_0 T^t with p_0 = 1/dim. The expected in-sector parity ratio at each
iteration follows without sampling; averaged over the sampler's window it
is what the sampled window estimate converges to as runs grow, at any
iteration budget. The relaxation time 1/(1 - |lambda_2|) measures how many
collisions the chain needs to forget its start (Levin, Peres & Wilmer,
*Markov Chains and Mixing Times*, section 12.2).

For the sectors the tests use the pool has at most 2016 states, so T is
small enough to propagate densely.
"""

from __future__ import annotations

import numpy as np

from susychain.basis import decompose_n_sector
from susychain.model import ModelParams
from susychain.spectra import full_chain_spectrum


def gca_pool(N: int, params: ModelParams):
    """Every level of every member chain -> (energies, parities, in_sector).

    Built from the full-chain spectra, independently of the sampler's own
    pool code: parity is (-1)**n_d and a level is in the sector when its
    block has n_d = N - L - 1.
    """
    energies, parities, in_sector = [], [], []
    for key in decompose_n_sector(N).members:
        for nd, block in enumerate(full_chain_spectrum(key.L, params)):
            k = len(block)
            energies.append(block)
            parities.append(np.full(k, -1.0 if nd % 2 else 1.0))
            in_sector.append(np.full(k, nd == key.n_d))
    return np.concatenate(energies), np.concatenate(parities), np.concatenate(in_sector)


def transition_matrix(energies: np.ndarray, beta: float) -> np.ndarray:
    """Dense uniform-proposal Metropolis matrix; row i is the law of the next state."""
    dim = len(energies)
    t = np.exp(-beta * np.maximum(energies[None, :] - energies[:, None], 0.0)) / dim
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, 1.0 - t.sum(axis=1))
    return t


def gibbs(energies: np.ndarray, beta: float) -> np.ndarray:
    """Normalized e^{-beta E}, shifted by the minimum energy against underflow."""
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


def expected_estimates(N: int, beta: float, iterations: int,
                       params: ModelParams) -> np.ndarray:
    """Exact expected per-iteration estimate of the GCA sampler.

    Entry t is the in-sector parity ratio of p_{t+1}, matching
    WittenTrace.estimate[t], which the sampler records after the (t+1)-th
    collision. A prefix of the result is the answer for a smaller budget.
    """
    energies, parities, in_sector = gca_pool(N, params)
    t = transition_matrix(energies, beta)
    signed = np.where(in_sector, parities, 0.0)
    inside = in_sector.astype(float)
    p = np.full(len(energies), 1.0 / len(energies))
    out = np.empty(iterations)
    for i in range(iterations):
        p = p @ t
        out[i] = (p @ signed) / (p @ inside)
    return out


def window_mean(estimates: np.ndarray, iterations: int) -> float:
    """Mean over the sampler's steady-state window at this budget: its last
    max(1, iterations // 5) iterations, as in WittenTrace."""
    start = iterations - max(1, iterations // 5)
    return float(estimates[start:iterations].mean())


def relaxation_time(energies: np.ndarray, beta: float) -> float:
    """1 / (1 - |lambda_2|) of the chain's transition matrix.

    T is reversible with respect to the Gibbs vector, so
    D^{1/2} T D^{-1/2} with D = diag(pi) is symmetric with the same
    eigenvalues. Its off-diagonal entries are e^{-beta |E_i - E_j| / 2} / dim,
    which need no Gibbs weights and stay well conditioned at any beta.
    """
    dim = len(energies)
    s = np.exp(-0.5 * beta * np.abs(energies[None, :] - energies[:, None])) / dim
    np.fill_diagonal(s, np.diag(transition_matrix(energies, beta)))
    moduli = np.sort(np.abs(np.linalg.eigvalsh(s)))
    return float(1.0 / (1.0 - moduli[-2]))
