"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Everything here runs at base seed 1 with the documented budgets (50000
runs, 500 iterations); nothing is tuned to pass. Criterion 5 fails, and
its assertion message carries the measured numbers.

Criterion 3 holds the pooled-chain sampler to two exact references: the
exact transient of its Metropolis chain (markov_transient.py) at the
pinned budget, and the exact steady state at a budget past the transient.
At 500 iterations the chains of N=10 and N=11 are still relaxing
(relaxation times 164 and 273 collisions, window bias +1.00e-2 and
+5.15e-2, the same at every seed), so their steady-state clause runs at
2000 iterations, where the bias is 1.3e-6 and 9.2e-5. The 5e-3 cap bounds
that exact, seed-independent bias: in the sectors without a zero mode the
window stderr alone is 7.6e-3 to 1.6e-2.

Criterion 4 pins the beta=2 gap of N=3 to its closed form,
-e^{-2b}/(1+e^{-b}+e^{-2b}) = -1.59e-2: like N=6 and N=9, N=3 has no zero
mode, so the 1e-2 bound of the zero-mode sectors 4 and 5 does not apply.
Its beta=5 clauses are unchanged; at N=10 the QGCA chains keep an exact
window bias of +1.24e-3 at 500 iterations, about 2.4 of its stderr.

Criterion 5 fails because two of its clauses cannot hold together:
c_9 = 3.34e-3 lies above [5e-4, 2e-3], and the nearest-neighbour clause
fails for N in {8, 10, 11} because N=9's response is too small; a c_9
inside the window would make N=9's response smaller still. Which clause
departs from the paper cannot be settled until the paper's text is in the
repository, so the test stays as written.
"""

import json
from math import comb, exp

import numpy as np
import pytest
from scipy import stats

from susychain.analysis import SweepSpec, compare_first_order, default_grid, sweep
from susychain.basis import SectorKey, decompose_n_sector
from susychain.cli import main as cli_main
from susychain.dynamics import ProtocolConfig, run_protocol, run_protocols
from susychain.model import ModelParams, build_hamiltonian
from susychain.spectra import _solve_block, full_chain_spectrum
from susychain.susy import (
    assemble,
    finite_difference_dw,
    hellmann_feynman_dw,
    slope_cn,
    witten_regularized,
    wtilde_gca_exact,
    wtilde_qgca_exact,
)

from charpoly_oracle import charpoly_eigenvalues
from markov_transient import expected_estimates, gca_pool, relaxation_time, window_mean

SEED = 1
RUNS = 50000
ITERATIONS = 500
SECTORS = range(3, 12)
THREADS = 8  # thread count never changes results (criterion 9)
# GCA budgets past the transient where 500 iterations is not (criterion 3)
STEADY_ITERATIONS = {10: 2000, 11: 2000}

SUSY = ModelParams()


@pytest.fixture(scope="module")
def exact_gca():
    return {N: wtilde_gca_exact(assemble(N, SUSY), 5.0) for N in SECTORS}


@pytest.fixture(scope="module")
def gca_traces():
    configs = [ProtocolConfig("gca", N, 5.0, iterations=ITERATIONS, runs=RUNS,
                              base_seed=SEED) for N in SECTORS]
    return {trace.config.N: trace for trace in run_protocols(configs, threads=THREADS)}


@pytest.fixture(scope="module")
def gca_steady_traces(gca_traces):
    configs = [ProtocolConfig("gca", N, 5.0, iterations=iters, runs=RUNS, base_seed=SEED)
               for N, iters in STEADY_ITERATIONS.items()]
    steady = {trace.config.N: trace for trace in run_protocols(configs, threads=THREADS)}
    return {**gca_traces, **steady}


@pytest.fixture(scope="module")
def gca_expected():
    """Exact expected GCA estimate per iteration, as long as any budget used."""
    return {
        N: expected_estimates(N, 5.0, STEADY_ITERATIONS.get(N, ITERATIONS), SUSY)
        for N in SECTORS
    }


@pytest.fixture(scope="module")
def qgca_traces():
    configs = [ProtocolConfig("qgca", N, 5.0, iterations=ITERATIONS, runs=RUNS,
                              base_seed=SEED) for N in SECTORS]
    return {trace.config.N: trace for trace in run_protocols(configs, threads=THREADS)}


def test_criterion_1_sector_census():
    failures = []
    for N in SECTORS:
        spec = assemble(N, SUSY)
        want_zero = 0 if N % 3 == 0 else 1
        if spec.zero_mode_count != want_zero:
            failures.append(f"N={N}: zero-mode count {spec.zero_mode_count}")
        energies, parities = spec.energies.tolist(), spec.parities.tolist()
        for e, pair in zip(energies, spec.pair_ids):
            if abs(e) < 1e-10:
                continue
            if e <= 1e-8:
                failures.append(f"N={N}: level {e!r} in no-man's land")
            elif pair is None:
                failures.append(f"N={N}: unpaired level at E={e!r}")
        for i, pair in enumerate(spec.pair_ids):
            if pair is None:
                continue
            partner = [
                j for j, other in enumerate(spec.pair_ids)
                if other == pair and j != i
            ]
            if (
                len(partner) != 1
                or parities[partner[0]] != -parities[i]
                or abs(energies[partner[0]] - energies[i]) > 1e-8
            ):
                failures.append(f"N={N}: bad pair at E={energies[i]!r}")
        expected_w = 0 if N % 3 == 0 else (-1) ** (N // 3)
        for beta0 in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            w = witten_regularized(spec, beta0)
            if abs(w - expected_w) > 1e-9:
                failures.append(f"N={N}, beta0={beta0}: index {w!r}")
    assert not failures, "; ".join(failures)


def test_criterion_2_hand_goldens():
    h21 = build_hamiltonian(SectorKey(2, 1), SUSY)
    assert np.array_equal(h21, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    h30 = build_hamiltonian(SectorKey(3, 0), SUSY)
    assert np.array_equal(h30, np.array([[2.0]]))
    h11 = build_hamiltonian(SectorKey(1, 1), SUSY)
    assert np.array_equal(h11, np.array([[1.0]]))
    assert sorted(assemble(3, SUSY).energies) == pytest.approx(
        [1.0, 1.0], abs=1e-10
    )
    assert sorted(assemble(4, SUSY).energies) == pytest.approx(
        [0.0, 2.0, 2.0], abs=1e-10
    )


def _transient_report(N, iters, expected, exact):
    bias = window_mean(expected, iters) - exact
    t_relax = relaxation_time(gca_pool(N, SUSY)[0], 5.0)
    return f"exact window bias {bias:+.3e}, t_relax {t_relax:.0f} it"


def test_criterion_3_gca_steady_state(gca_traces, gca_steady_traces, gca_expected,
                                      exact_gca):
    failures = []
    for N in SECTORS:
        expected = gca_expected[N]
        # the pinned budget: every sector against its exact transient
        trace = gca_traces[N]
        err = abs(trace.window_estimate - window_mean(expected, ITERATIONS))
        se = trace.window_stderr
        if err > 3 * se:
            failures.append(
                f"N={N}, {ITERATIONS} it: err vs transient {err:.3e} > 3 se "
                f"({se:.3e}); {_transient_report(N, ITERATIONS, expected, exact_gca[N])}"
            )
        # past the transient: the exact bias within the cap, the sample
        # within its noise of the steady state
        iters = STEADY_ITERATIONS.get(N, ITERATIONS)
        trace = gca_steady_traces[N]
        if abs(window_mean(expected, iters) - exact_gca[N]) > 5e-3:
            failures.append(
                f"N={N}, {iters} it: "
                f"{_transient_report(N, iters, expected, exact_gca[N])} > 5e-3"
            )
        err = abs(trace.window_estimate - exact_gca[N])
        se = trace.window_stderr
        if err > 3 * se:
            failures.append(
                f"N={N}, {iters} it: err {err:.3e} > 3 se ({se:.3e}); "
                f"{_transient_report(N, iters, expected, exact_gca[N])}"
            )
    assert not failures, "; ".join(failures)


def test_criterion_4_qgca_steady_state(qgca_traces, exact_gca):
    failures = []
    for N in SECTORS:
        trace = qgca_traces[N]
        exact_q = wtilde_qgca_exact(N, SUSY, 5.0)
        err = abs(trace.window_estimate - exact_q)
        se = trace.window_stderr
        if err > 3 * se:
            failures.append(f"N={N}: err {err:.3e} > 3 se ({se:.3e})")
        gca_dev = abs(trace.window_estimate - exact_gca[N])
        if gca_dev > 2e-2:
            failures.append(f"N={N}: |qgca - gca| {gca_dev:.3e} > 2e-2")
    diffs = {
        N: abs(
            wtilde_qgca_exact(N, SUSY, 2.0) - wtilde_gca_exact(assemble(N, SUSY), 2.0)
        )
        for N in SECTORS
    }
    if not any(diffs[N] > 1e-2 for N in range(6, 12)):
        failures.append("no breakdown sector at beta=2")
    for N in (4, 5):
        if diffs[N] > 1e-2:
            failures.append(f"beta=2 N={N}: |qgca - gca| {diffs[N]:.3e} > 1e-2")
    # N=3 has no zero mode. Its levels (2,0) and (1,1) sit at E=1 with
    # Z_1 = 1 + e^{-b} and Z_2 = 1 + e^{-b} + 2e^{-2b} (criterion 2), so
    # GCA = 0 and QGCA = (Z_1 - Z_2)/(Z_1 + Z_2) = -e^{-2b}/(1 + e^{-b} + e^{-2b})
    spec3 = assemble(3, SUSY)
    for beta in (2.0, 5.0):
        gap = wtilde_qgca_exact(3, SUSY, beta) - wtilde_gca_exact(spec3, beta)
        x = exp(-beta)
        closed = -x * x / (1 + x + x * x)
        if abs(gap - closed) > 1e-12:
            failures.append(
                f"beta={beta:g} N=3: qgca - gca {gap:.12e} != closed form {closed:.12e}"
            )
    assert not failures, "; ".join(failures)


def test_criterion_5_topological_protection():
    grid = default_grid("delta", 21)
    records = sweep(SweepSpec("delta", grid, tuple(SECTORS)), threads=THREADS)
    dev = {}
    for r in records:
        dev.setdefault(r.N, {})[r.value] = r.deviation

    failures = []
    max6 = max(dev[6].values())
    if not 0.05 <= max6 <= 0.20:
        failures.append(f"N=6 max deviation {max6:.4e} outside [5%, 20%]")
    c6 = slope_cn(6, 5.0, "delta")
    if not 3e-2 <= c6 <= 5e-2:
        failures.append(f"c_6 {c6:.4e} outside [3e-2, 5e-2]")
    c9 = slope_cn(9, 5.0, "delta")
    if not 5e-4 <= c9 <= 2e-3:
        failures.append(f"c_9 {c9:.4e} outside [5e-4, 2e-3]")
    for N in SECTORS:
        if N % 3 == 0:
            continue
        nearest = min((M for M in SECTORS if M % 3 == 0),
                      key=lambda M: (abs(M - N), M))
        v_star = max(dev[N], key=lambda v: dev[N][v])
        own = dev[N][v_star]
        ref = dev[nearest][v_star]
        if own > 0 and ref < 10 * own:
            failures.append(
                f"N={N}: max deviation {own:.3e} not 10x below "
                f"N={nearest}'s {ref:.3e} at the same shift"
            )
    assert not failures, "; ".join(failures)


def test_criterion_6_first_order_law():
    values = tuple(1.0 + s for s in
                   (-0.05, -0.04, -0.03, -0.02, -0.01, 0.01, 0.02, 0.03, 0.04, 0.05))
    records = sweep(SweepSpec("delta", values, tuple(range(3, 9))), threads=THREADS)
    reports = compare_first_order(records)
    failures = []
    for rep in reports:
        if rep.relative_discrepancy > 0.10:
            failures.append(
                f"N={rep.N}: fit {rep.fitted_slope:.4e} vs predicted "
                f"{rep.predicted_slope:.4e} ({rep.relative_discrepancy:.1%})"
            )
    dev = {(r.N, r.value): r for r in records}
    for N in range(3, 9):
        ratios = []
        for s in (0.04, 0.02, 0.01):
            r = dev[(N, 1.0 + s)]
            ratios.append(abs(r.deviation - r.first_order_prediction) / s)
        if not ratios[0] > ratios[1] > ratios[2]:
            failures.append(f"N={N}: residual ratios {ratios} not shrinking")
    assert not failures, "; ".join(failures)


def test_criterion_7_sector3_hopping_independence():
    records = sweep(SweepSpec("j", default_grid("j", 21), (3,)))
    for r in records:
        assert r.deviation <= 1e-12, f"J={r.value}: deviation {r.deviation!r}"


def test_criterion_8_gradient_and_oracle_checks():
    failures = []
    for N in range(3, 9):
        fd = finite_difference_dw(N, 5.0, "delta")
        hf = hellmann_feynman_dw(N, 5.0, "delta")
        rel = abs(fd - hf) / max(abs(fd), abs(hf), 1e-12)
        if rel > 0.01:
            failures.append(f"N={N}: slope estimators differ by {rel:.2%}")
    for L in range(1, 11):
        for nd in range(L + 1):
            if comb(L, nd) > 8:
                continue
            key = SectorKey(L, nd)
            energies, _ = _solve_block(key, SUSY, vectors=True)
            gap = np.abs(charpoly_eigenvalues(build_hamiltonian(key, SUSY)) - energies).max()
            if gap > 1e-8:
                failures.append(f"block ({L},{nd}): oracle gap {gap:.2e}")
    # sector 5 pools three chain lengths (2, 3, 4); final states of
    # independent walkers sample the long-run occupation
    cfg = ProtocolConfig("gca", 5, 1.0, iterations=ITERATIONS, runs=RUNS,
                         base_seed=SEED)
    counts = run_protocol(cfg, threads=THREADS).occupancy
    # the pool's states: member chains in ascending L, blocks in n_d order
    energies = np.concatenate([e for key in decompose_n_sector(5).members
                               for e in full_chain_spectrum(key.L, SUSY)])
    weights = np.exp(-energies)
    expected = counts.sum() * weights / weights.sum()
    keep = expected >= 10
    if (~keep).any():
        obs = np.append(counts[keep], counts[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
    else:
        obs, exp = counts, expected
    _, p = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    if p <= 0.01:
        failures.append(f"occupation chi-square p={p:.4f} <= 0.01")
    assert not failures, "; ".join(failures)


def test_criterion_9_determinism(tmp_path, capsys):
    base = ["dynamics", "--N", "4", "--protocol", "gca", "--beta", "2",
            "--runs", "9000", "--iterations", "40", "--seed", "3"]
    for label, extra in (("a", ["--threads", "1"]),
                         ("b", ["--threads", "4"]),
                         ("c", ["--threads", "1"])):
        assert cli_main(base + extra + ["--out", str(tmp_path / label)]) == 0
    capsys.readouterr()
    blobs = [
        (tmp_path / label / "trace_gca_N4.csv").read_bytes() for label in "abc"
    ]
    assert blobs[0] == blobs[1] == blobs[2]

    sweep_args = ["sweep", "--estimator", "sampled-gca", "--N", "4",
                  "--values", "0.9,1.0,1.1", "--beta", "2", "--runs", "2000",
                  "--iterations", "100", "--seed", "5"]
    for label, threads in (("s1", "1"), ("s2", "4"), ("s3", "1")):
        assert cli_main(
            sweep_args + ["--threads", threads, "--out", str(tmp_path / label)]
        ) == 0
    capsys.readouterr()
    csvs = [
        (tmp_path / lab / "sweep_delta_sampled-gca.csv").read_bytes()
        for lab in ("s1", "s2", "s3")
    ]
    assert csvs[0] == csvs[1] == csvs[2]

    manifests = [
        json.loads((tmp_path / lab / "manifest.json").read_text())
        for lab in ("s1", "s3")
    ]
    for m in manifests:
        assert m["base_seed"] == 5
    args = [
        {k: v for k, v in m["arguments"].items() if k != "out"}
        for m in manifests
    ]
    assert args[0] == args[1]
