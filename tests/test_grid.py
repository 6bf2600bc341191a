import pytest

from proxmg.grid import GridLevel, ij_to_k, k_to_ij


def test_flat_index_examples():
    assert ij_to_k(1, 1, 3) == 0
    assert ij_to_k(3, 3, 3) == 8
    assert ij_to_k(2, 3, 3) == 7  # (j-1)*n + i-1, column-major


@pytest.mark.parametrize("n_side", [1, 3, 7, 15])
def test_flat_index_is_a_bijection(n_side):
    seen = set()
    for i in range(1, n_side + 1):
        for j in range(1, n_side + 1):
            k = ij_to_k(i, j, n_side)
            assert 0 <= k < n_side * n_side
            assert k not in seen
            seen.add(k)
            assert k_to_ij(k, n_side) == (i, j)
    assert len(seen) == n_side * n_side


def test_flat_index_range_errors():
    with pytest.raises(IndexError):
        ij_to_k(0, 1, 3)
    with pytest.raises(IndexError):
        ij_to_k(1, 4, 3)
    with pytest.raises(IndexError):
        k_to_ij(9, 3)


def test_grid_level_validation():
    g = GridLevel(0, 7)
    assert g.h == 1.0 / 8.0
    assert g.n_total == 49
    assert g.coarsen().n_side == 3
    for bad in (0, 2, 4, 5, 6, 8):
        with pytest.raises(ValueError):
            GridLevel(0, bad)
    with pytest.raises(ValueError):
        GridLevel(-1, 3)
    with pytest.raises(ValueError):
        GridLevel(0, 1).coarsen()
