"""Witten-index thermodynamics for an open XXZ chain with a SUSY point.

Exact sector spectra, exact and Monte Carlo index estimators under pooled
(GCA) and fixed-length (QGCA) thermalization, and coupling sweeps probing
the thermal protection of the index.
"""

__version__ = "0.1.0"

from .basis import NSector, SectorKey, decompose_n_sector, enumerate_sector
from .model import (
    SUSY_POINT,
    ModelParams,
    SectorMatrix,
    build_dh_ddelta,
    build_dh_dj,
    build_hamiltonian,
)
from .spectra import (
    BlockEigenpairs,
    SolverError,
    cache_get,
    cache_put,
    diagonalize,
    full_chain_spectrum,
)
from .susy import (
    NumericalConsistencyError,
    SusyLevel,
    SusySpectrum,
    assemble,
    deviation_first_order,
    slope_cn,
    witten_regularized,
    wtilde_gca_exact,
    wtilde_qgca_exact,
    wtilde_qgca_sectors,
)
from .dynamics import (
    ProtocolConfig,
    WittenTrace,
    gca_occupancy,
    metropolis_accept,
    run_protocol,
    seed_stream,
)
from .analysis import (
    FitReport,
    ProtectionRow,
    SweepRecord,
    SweepSpec,
    compare_first_order,
    protection_report,
    sweep,
)

__all__ = [
    "__version__",
    "NSector", "SectorKey", "decompose_n_sector", "enumerate_sector",
    "SUSY_POINT", "ModelParams", "SectorMatrix",
    "build_dh_ddelta", "build_dh_dj", "build_hamiltonian",
    "BlockEigenpairs", "SolverError",
    "cache_get", "cache_put", "diagonalize",
    "full_chain_spectrum",
    "NumericalConsistencyError", "SusyLevel", "SusySpectrum", "assemble",
    "deviation_first_order", "slope_cn", "witten_regularized",
    "wtilde_gca_exact", "wtilde_qgca_exact", "wtilde_qgca_sectors",
    "ProtocolConfig", "WittenTrace", "gca_occupancy", "metropolis_accept",
    "run_protocol", "seed_stream",
    "FitReport", "ProtectionRow", "SweepRecord", "SweepSpec",
    "compare_first_order", "protection_report", "sweep",
]
