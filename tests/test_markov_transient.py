"""Checks of the exact-transient oracle that acceptance criterion 3 rests on."""

import numpy as np
import pytest

from susychain.dynamics import ProtocolConfig, run_protocol
from susychain.model import ModelParams
from susychain.susy import assemble, wtilde_gca_exact

from markov_transient import (
    expected_estimates,
    gca_pool,
    gibbs,
    relaxation_time,
    transition_matrix,
    window_mean,
)

SUSY = ModelParams()
SECTORS = range(3, 12)


@pytest.mark.parametrize("N", SECTORS)
def test_rows_are_distributions(N):
    t = transition_matrix(gca_pool(N, SUSY)[0], 5.0)
    assert t.min() >= 0.0
    assert np.abs(t.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("N", SECTORS)
def test_gibbs_vector_is_stationary(N):
    energies = gca_pool(N, SUSY)[0]
    pi = gibbs(energies, 5.0)
    assert np.abs(pi @ transition_matrix(energies, 5.0) - pi).max() <= 1e-12


@pytest.mark.parametrize("N", SECTORS)
def test_gibbs_in_sector_reproduces_exact_gca(N):
    energies, parities, in_sector = gca_pool(N, SUSY)
    pi = gibbs(energies, 5.0)[in_sector]
    ratio = (pi * parities[in_sector]).sum() / pi.sum()
    assert abs(ratio - wtilde_gca_exact(assemble(N, SUSY), 5.0)) <= 1e-12


@pytest.mark.parametrize("N", range(3, 9))
def test_relaxation_time_matches_unsymmetrized_spectrum(N):
    energies = gca_pool(N, SUSY)[0]
    moduli = np.sort(np.abs(np.linalg.eigvals(transition_matrix(energies, 5.0))))
    assert relaxation_time(energies, 5.0) == pytest.approx(1.0 / (1.0 - moduli[-2]), rel=1e-9)


def test_expected_estimates_reach_the_gibbs_ratio():
    # N=5 relaxes in about 9 collisions; 300 is far past it
    est = expected_estimates(5, 5.0, 300, SUSY)
    exact = wtilde_gca_exact(assemble(5, SUSY), 5.0)
    assert abs(est[-1] - exact) <= 1e-12
    assert abs(window_mean(est, 300) - exact) <= 1e-12


def test_sampled_trace_follows_expected_trace():
    # N=7 stays well inside (-1, 1) over its first 30 collisions, so every
    # iteration has a usable stderr; reading estimate[t] against p_t instead
    # of p_{t+1} puts |z| above 4 here
    trace = run_protocol(ProtocolConfig("gca", 7, 5.0, iterations=30, runs=50000))
    est = expected_estimates(7, 5.0, 30, SUSY)
    z = (trace.estimate - est) / trace.stderr
    assert np.abs(z).max() <= 4.0, z
    assert window_mean(trace.estimate, 30) == trace.window_estimate
