import numpy as np
import pytest

from susychain.model import SectorMatrix
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

    The package solves only SectorMatrix entries, so each SectorMatrix built
    while the fixture is active files its block under the id of its entries.
    """
    blocks, seen = {}, []
    post_init = SectorMatrix.__post_init__

    def register(self):
        post_init(self)
        blocks[id(self.entries)] = (self.key, self.params)

    def counting(solve):
        return lambda a, *args, **kwargs: seen.append(blocks[id(a)]) or solve(a, *args, **kwargs)

    monkeypatch.setattr(SectorMatrix, "__post_init__", register)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    return seen
