import numpy as np
import pytest
import scipy.sparse as sp

from proxmg.grid import GridLevel, ij_to_k
from proxmg.membrane import obstacle_values
from proxmg.nonsmooth import SeparableNonsmooth
from proxmg.transfer import (PROLONG_SCALE, TransferPair, adaptive_mask,
                             build_full_weighting, build_line_weighting,
                             prolong_adaptive, restrict_adaptive)


def dense_weighting_oracle(n_fine):
    """Direct stencil-loop construction, independent of the kron build.

    The edges at i = 1 and j = 1 are free, so coarse points continue past
    them: the virtual points I = 0 and J = 0 take the values of I = 1 and
    J = 1.  Their stencil legs that land on the grid (fine index 1) are
    therefore added to the row of the first coarse point instead of dropped.
    """
    n_c = (n_fine - 1) // 2
    R = np.zeros((n_c * n_c, n_fine * n_fine))
    stencil = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 8.0
    for I in range(0, n_c + 1):
        for J in range(0, n_c + 1):
            row = ij_to_k(max(I, 1), max(J, 1), n_c)
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    fi, fj = 2 * I + di, 2 * J + dj
                    if 1 <= fi <= n_fine and 1 <= fj <= n_fine:
                        R[row, ij_to_k(fi, fj, n_fine)] += stencil[di + 1, dj + 1]
    return R


def kron_weighting_oracle(n_fine):
    """The full weighting as scipy builds it from its 1-D factor:
    R = (1/8) kron(R1, R1) converted to CSR, and P = 2 R^T converted back.

    The 1-D factor is assembled leg by leg from COO, with the leg of the
    absent coarse point I = 0 folded into fine index 1.  Unlike the dense
    oracle, this one stays small at n = 127.
    """
    n_c = (n_fine - 1) // 2
    rows, cols, vals = [], [], []
    for I in range(1, n_c + 1):
        for offset, w in ((-1, 1.0), (0, 2.0), (1, 1.0)):
            col = 2 * I + offset  # 1-based fine index
            if 1 <= col <= n_fine:
                rows.append(I - 1)
                cols.append(col - 1)
                vals.append(2.0 if col == 1 else w)
    R1 = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n_c, n_fine)))
    R = sp.csr_array(0.125 * sp.kron(R1, R1, format="csr"))
    return R, sp.csr_array(PROLONG_SCALE * R.T)


def line_weighting_oracle(n_fine):
    """The chain weighting from a leg loop: the 1-D legs [1, 2, 1] collected
    into COO, converted to CSR and scaled by 1/4, and P = 2 R^T converted
    back from the transpose."""
    n_c = n_fine // 2
    rows, cols, vals = [], [], []
    for I in range(1, n_c + 1):
        for offset, w in ((-1, 1.0), (0, 2.0), (1, 1.0)):
            col = 2 * I + offset  # 1-based fine index
            if 1 <= col <= n_fine:
                rows.append(I - 1)
                cols.append(col - 1)
                vals.append(w)
    R1 = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n_c, n_fine)))
    R = sp.csr_array(0.25 * R1)
    return R, sp.csr_array(PROLONG_SCALE * R.T)


def assert_same_csr_bytes(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def test_full_weighting_matches_stencil_oracle():
    for n in (3, 7, 15, 31, 63):
        t = build_full_weighting(GridLevel(n))
        oracle = dense_weighting_oracle(n)
        assert t.restrict.shape == oracle.shape
        assert np.array_equal(t.restrict.toarray(), oracle)
        assert np.array_equal(t.prolong.toarray(), 2.0 * oracle.T)


@pytest.mark.parametrize("n_side", [3, 7, 15, 31, 63, 127])
def test_full_weighting_has_the_bytes_of_the_kron_construction(n_side):
    t = build_full_weighting(GridLevel(n_side))
    R, P = kron_weighting_oracle(n_side)
    for got, want in zip((t.restrict, sp.csr_array(t.prolong)), (R, P)):
        assert_same_csr_bytes(got, want)
    # the CSC view of the scaled R multiplies with the bytes of a CSR P
    v = np.random.Generator(np.random.PCG64(n_side)).standard_normal(t.n_coarse)
    assert (t.prolong @ v).tobytes() == (P @ v).tobytes()


def test_a_pair_takes_no_prolongation_of_its_own():
    # P is derived from R, so no pair can carry a P that disagrees with it
    t = build_full_weighting(GridLevel(7))
    with pytest.raises(TypeError):
        TransferPair(t.restrict, t.prolong)
    with pytest.raises(TypeError):
        TransferPair(restrict=t.restrict, prolong=t.prolong)


@pytest.mark.parametrize("n_side", [3, 7, 15, 31, 63, 127])
def test_full_weighting_stores_sorted_indices_and_no_zeros(n_side):
    t = build_full_weighting(GridLevel(n_side))
    assert np.all(np.diff(t.restrict.indptr) == 9)  # 9 stencil entries per coarse row
    for M in (t.restrict, t.prolong):
        assert M.has_sorted_indices and M.has_canonical_format
        assert np.all(M.data != 0.0)


def test_restriction_of_ones_and_row_sums():
    t = build_full_weighting(GridLevel(15))
    n_c = 7
    # the 1-D factor sums to 4 on every row but I = 1, which sums to 5; times 1/8
    expect = np.full((n_c, n_c), 2.0)
    expect[0, :] = expect[:, 0] = 2.5
    expect[0, 0] = 3.125
    expect = expect.flatten(order="F")
    assert np.array_equal(t.restrict @ np.ones(t.n_fine), expect)
    sums = np.asarray(t.restrict.sum(axis=1)).ravel()
    assert np.array_equal(sums, expect)


@pytest.mark.parametrize("n_side", [3, 7, 15, 63])
def test_prolongation_of_ones_is_one_up_to_the_clamped_edges(n_side):
    """P extrapolates a constant onto the free edges i = 1 and j = 1; it is
    halved only on the clamped edges i = n and j = n, and quartered at their
    corner, where the zero boundary value is one fine step away."""
    t = build_full_weighting(GridLevel(n_side))
    got = (t.prolong @ np.ones(t.n_coarse)).reshape(n_side, n_side)
    expect = np.ones((n_side, n_side))
    expect[-1, :] *= 0.5
    expect[:, -1] *= 0.5
    assert np.array_equal(got, expect)


def test_restriction_of_delta_reads_the_stencil():
    t = build_full_weighting(GridLevel(7))
    # a delta at the coarse-aligned fine point (2,2) only feeds its own center
    delta = np.zeros(49)
    delta[ij_to_k(2, 2, 7)] = 1.0
    out = t.restrict @ delta
    expect = np.zeros(9)
    expect[ij_to_k(1, 1, 3)] = 0.5  # center weight 4/8
    np.testing.assert_allclose(out, expect, atol=0)
    # a delta at the odd-odd point (3,3) is shared by four stencil corners
    delta = np.zeros(49)
    delta[ij_to_k(3, 3, 7)] = 1.0
    out = t.restrict @ delta
    for I, J in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert out[ij_to_k(I, J, 3)] == pytest.approx(0.125)
    assert out.sum() == pytest.approx(0.5)


def test_too_small_grid_rejected():
    with pytest.raises(ValueError):
        build_full_weighting(GridLevel(1))


def test_adaptive_mask_examples():
    g = SeparableNonsmooth.hinge(1.0, np.zeros(3))
    mask = adaptive_mask(g, np.array([1.0, 0.0, -1.0]))
    assert mask.tolist() == [False, True, False]

    phi = obstacle_values(7)
    g = SeparableNonsmooth.hinge(1.0, phi)
    assert not adaptive_mask(g, phi + 1.0).any()  # strictly above everywhere

    assert not adaptive_mask(SeparableNonsmooth.l1(0.0), np.zeros(5)).any()


def test_adaptive_restriction_identities():
    t = build_full_weighting(GridLevel(7))
    rng = np.random.Generator(np.random.PCG64(2))
    v = rng.standard_normal(49)

    none = np.zeros(49, dtype=bool)
    np.testing.assert_array_equal(restrict_adaptive(t, none, v), t.restrict @ v)

    full = np.ones(49, dtype=bool)
    assert np.all(restrict_adaptive(t, full, v) == 0.0)

    one = none.copy()
    one[17] = True
    expected = t.restrict @ v - v[17] * t.restrict.toarray()[:, 17]
    np.testing.assert_allclose(restrict_adaptive(t, one, v), expected, atol=1e-14)


def test_adaptive_prolongation_identities():
    t = build_full_weighting(GridLevel(7))
    rng = np.random.Generator(np.random.PCG64(4))
    w = rng.standard_normal(9)

    none = np.zeros(49, dtype=bool)
    np.testing.assert_array_equal(prolong_adaptive(t, none, w), t.prolong @ w)

    mask = none.copy()
    mask[[3, 11, 40]] = True
    out = prolong_adaptive(t, mask, w)
    assert np.all(out[mask] == 0.0)


def test_adjoint_identity_under_any_mask():
    t = build_full_weighting(GridLevel(7))
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(20):
        mask = rng.uniform(size=49) < 0.3
        v_c = rng.standard_normal(9)
        w_f = rng.standard_normal(49)
        lhs = prolong_adaptive(t, mask, v_c) @ w_f
        rhs = PROLONG_SCALE * (v_c @ restrict_adaptive(t, mask, w_f))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_line_weighting():
    t = build_line_weighting(64)
    assert t.restrict.shape == (32, 64)
    np.testing.assert_allclose(t.prolong.toarray(), 2.0 * t.restrict.toarray().T)
    interior = (t.restrict @ np.ones(64))[:-1]  # last row loses a leg at the end
    np.testing.assert_allclose(interior, 1.0, rtol=1e-15)


def test_line_weighting_has_the_bytes_of_the_loop_construction():
    for n_fine in range(2, 130):  # odd and even chains, down to one coarse point
        t = build_line_weighting(n_fine)
        for got, want in zip((t.restrict, sp.csr_array(t.prolong)),
                             line_weighting_oracle(n_fine)):
            assert_same_csr_bytes(got, want)


def test_dimension_errors():
    t = build_full_weighting(GridLevel(7))
    with pytest.raises(ValueError):
        restrict_adaptive(t, np.zeros(49, dtype=bool), np.ones(10))
    with pytest.raises(ValueError):
        prolong_adaptive(t, np.zeros(49, dtype=bool), np.ones(10))
