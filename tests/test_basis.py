import itertools

import numpy as np
import pytest

from susychain.basis import SectorKey, decompose_n_sector, enumerate_sector


def test_enumerate_single_down_spin():
    assert enumerate_sector(SectorKey(2, 1)).tolist() == [0b01, 0b10]


def test_enumerate_all_up():
    assert enumerate_sector(SectorKey(3, 0)).tolist() == [0]


def test_enumerate_size_matches_binomial():
    assert len(enumerate_sector(SectorKey(10, 5))) == 252


@pytest.mark.parametrize("L,nd", [(4, 2), (5, 3), (6, 1), (7, 7)])
def test_enumerate_sorted_unique_homogeneous(L, nd):
    bits = enumerate_sector(SectorKey(L, nd)).tolist()
    assert bits == sorted(set(bits))
    assert all(b.bit_count() == nd for b in bits)
    assert all(b < (1 << L) for b in bits)


def test_enumerate_matches_combinations_reference():
    for L in range(1, 13):
        for nd in range(L + 1):
            states = enumerate_sector(SectorKey(L, nd))
            reference = sorted(sum(1 << i for i in sites)
                               for sites in itertools.combinations(range(L), nd))
            assert states.dtype == np.int64
            assert states.tolist() == reference


def test_decompose_small_sectors():
    assert [(k.L, k.n_d) for k in decompose_n_sector(3).members] == [(1, 1), (2, 0)]
    assert [(k.L, k.n_d) for k in decompose_n_sector(4).members] == [(2, 1), (3, 0)]
    assert [(k.L, k.n_d) for k in decompose_n_sector(7).members] == [
        (3, 3), (4, 2), (5, 1), (6, 0)]


@pytest.mark.parametrize("N", range(3, 12))
def test_decompose_label_roundtrip(N):
    sector = decompose_n_sector(N)
    assert all(k.L + k.n_d + 1 == N for k in sector.members)
    ls = [k.L for k in sector.members]
    assert ls == list(range(ls[0], N))  # contiguous up to L = N-1


def test_decompose_rejects_small_label():
    with pytest.raises(ValueError):
        decompose_n_sector(2)


def test_sector_key_validation():
    with pytest.raises(ValueError):
        SectorKey(3, 4)
    with pytest.raises(ValueError):
        SectorKey(0, 0)


def test_parity_follows_down_spin_count():
    assert SectorKey(4, 2).parity == 1
    assert SectorKey(4, 3).parity == -1
