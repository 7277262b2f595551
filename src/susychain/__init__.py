"""Witten-index thermodynamics for an open XXZ chain with a SUSY point.

Exact sector spectra, exact and Monte Carlo index estimators under pooled
(GCA) and fixed-length (QGCA) thermalization, and coupling sweeps probing
the thermal protection of the index.

Importing the package loads nothing else: a submodule (and numpy) loads
when one of its names is first read, so the command line can choose the
BLAS thread count before numpy starts OpenBLAS.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "basis": ("NSector", "SectorKey", "decompose_n_sector", "enumerate_sector"),
    "model": ("SUSY_POINT", "ModelParams", "build_hamiltonian", "level_slopes"),
    "spectra": ("SolverError", "cache_get", "cache_put", "full_chain_spectrum"),
    "susy": ("NumericalConsistencyError", "SusySpectrum", "assemble",
             "deviation_first_order", "slope_cn", "witten_regularized",
             "wtilde_gca_exact", "wtilde_qgca_exact"),
    "dynamics": ("ProtocolConfig", "WittenTrace", "run_protocol"),
    "analysis": ("FitReport", "ProtectionRow", "SweepRecord", "SweepSpec",
                 "compare_first_order", "protection_report", "sweep"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
