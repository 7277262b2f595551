import pytest

from susychain import spectra, susy
from susychain.spectra import full_chain_spectrum


@pytest.fixture(autouse=True)
def fresh_chain_memo():
    """Start every test with an empty chain-spectrum memo.

    Tests that count solves, or read a chain back from a disk cache, would
    otherwise depend on which chains earlier tests left in the memo.
    """
    full_chain_spectrum.cache_clear()


@pytest.fixture
def solves(monkeypatch):
    """(key, params) of every block LAPACK solves, by eigh or eigvalsh, in call order.

    The package solves blocks only through `spectra._solve_block`, so the
    fixture wraps it in every module that binds it.
    """
    seen = []
    solve = spectra._solve_block

    def counting(key, params, vectors=False):
        seen.append((key, params))
        return solve(key, params, vectors)

    for module in (spectra, susy):
        monkeypatch.setattr(module, "_solve_block", counting)
    return seen
