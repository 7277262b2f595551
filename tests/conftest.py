import pytest

from susychain.spectra import full_chain_spectrum


@pytest.fixture(autouse=True)
def fresh_chain_memo():
    """Start every test with an empty chain-spectrum memo.

    Tests that count solves, or read a chain back from a disk cache, would
    otherwise depend on which chains earlier tests left in the memo.
    """
    full_chain_spectrum.cache_clear()
