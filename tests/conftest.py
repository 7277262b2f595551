import pytest

from susychain import spectra
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

    The package solves blocks only through `spectra._solve_block`, and only
    `spectra` calls it, so the fixture wraps it there alone.
    """
    seen = []
    solve = spectra._solve_block

    def counting(key, params, vectors=False):
        seen.append((key, params))
        return solve(key, params, vectors)

    monkeypatch.setattr(spectra, "_solve_block", counting)
    return seen
