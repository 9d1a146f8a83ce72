"""Grids, collocation matrices, operator norms, and composite tail norms."""

import math

import numpy as np
import pytest

import fredkern as fk
from conftest import GAUSS_FULL, XGAUSS_FULL, gauss_overlap, gauss_tail_l2


def test_grid_node_count_and_weight_sum(trunc):
    grid = fk.build_grid(trunc, 2, 1, 4)  # tau_2 = 2
    assert len(grid.nodes) == 16
    assert grid.weights.sum() == pytest.approx(4.0, abs=1e-13)
    grid2 = fk.build_grid(trunc, 2, 3, 8)
    assert len(grid2.nodes) == 2 * 2 * 3 * 8
    assert np.all(grid2.weights > 0)
    assert np.all(np.diff(grid2.nodes) > 0)


def test_grid_weight_sum_matches_interval(trunc):
    for n in (1, 3, 7):
        grid = fk.build_grid(trunc, n, 2, 8)
        assert grid.weights.sum() == pytest.approx(2 * trunc.tau(n), abs=1e-12)


def test_grid_rejects_bad_order(trunc):
    with pytest.raises(fk.ConfigError):
        fk.build_grid(trunc, 2, 1, 5)
    with pytest.raises(fk.ConfigError):
        fk.build_grid(trunc, 2, 0, 4)


@pytest.mark.parametrize("order", [4, 8, 16])
def test_polynomial_exactness(order):
    # Composite Gauss-Legendre integrates degree <= 2*order-1 exactly.
    grid = fk.grid_on_interval(-2.0, 2.0, 1, order)
    deg = 2 * order - 1
    coeffs = np.ones(deg + 1)
    vals = np.polyval(coeffs, grid.nodes)
    integral = np.sum(grid.weights * vals)
    anti = np.polyint(coeffs)
    exact = np.polyval(anti, 2.0) - np.polyval(anti, -2.0)
    assert integral == pytest.approx(exact, rel=1e-13)


def test_gaussian_quadrature_oracle():
    grid = fk.grid_on_interval(-4.0, 4.0, 4, 8)
    integral = float(np.sum(grid.weights * np.exp(-2.0 * grid.nodes**2)))
    assert integral == pytest.approx(gauss_overlap(4.0), abs=1e-12)


def test_nystrom_zero_kernel(zero, trunc, grid6):
    m = fk.nystrom_matrix(zero, trunc, 6, "plain", grid6)
    assert np.all(m.entries == 0.0)


def test_nystrom_rank1_structure(rank1, trunc, grid6):
    m = fk.nystrom_matrix(rank1, trunc, 6, "plain", grid6)
    sing = np.linalg.svd(m.entries, compute_uv=False)
    assert sing[1] < 1e-10 * sing[0]


def test_nystrom_plain_tilde_coincide_on_interior_grid(rank2, trunc, grid6):
    mp = fk.nystrom_matrix(rank2, trunc, 6, "plain", grid6)
    mt = fk.nystrom_matrix(rank2, trunc, 6, "tilde", grid6)
    assert np.array_equal(mp.entries, mt.entries)


def test_nystrom_weighted_form_hermitian(rank2, trunc, grid6):
    m = fk.nystrom_matrix(rank2, trunc, 6, "tilde", grid6)
    w = grid6.weights
    b = np.sqrt(w)[:, None] * m.entries / np.sqrt(w)[None, :]
    assert np.max(np.abs(b - b.conj().T)) < 1e-13


def test_nystrom_requires_covering_grid(rank1, trunc):
    small = fk.build_grid(trunc, 2, 2, 8)
    with pytest.raises(ValueError):
        fk.nystrom_matrix(rank1, trunc, 6, "plain", small)


def test_operator_norm_zero(zero, trunc, grid6):
    m = fk.nystrom_matrix(zero, trunc, 6, "plain", grid6)
    assert fk.operator_norm_estimate(m) == 0.0


def test_operator_norm_rank1(rank1, trunc, grid10):
    m = fk.nystrom_matrix(rank1, trunc, 10, "plain", grid10)
    assert fk.operator_norm_estimate(m) == pytest.approx(GAUSS_FULL, abs=1e-6)


def test_operator_norm_odd_rank1(odd, trunc, grid10):
    # ||u|| * ||v|| with u = gauss, v = x_gauss.
    m = fk.nystrom_matrix(odd, trunc, 10, "plain", grid10)
    expected = math.sqrt(GAUSS_FULL) * math.sqrt(XGAUSS_FULL)
    assert expected == pytest.approx(0.6267, abs=1e-4)
    assert fk.operator_norm_estimate(m) == pytest.approx(expected, abs=1e-6)


def test_norm_monotone_under_truncation(rank2, trunc, disc8):
    from fredkern.quadrature import full_matrix, matrix_norm_estimate

    grid = fk.build_grid(trunc, 6, 4, 8)
    norm_tilde = fk.operator_norm_estimate(fk.nystrom_matrix(rank2, trunc, 6, "tilde", grid))
    norm_plain = fk.operator_norm_estimate(fk.nystrom_matrix(rank2, trunc, 6, "plain", grid))
    norm_full = matrix_norm_estimate(full_matrix(rank2, disc8), disc8.weights)
    assert norm_tilde <= norm_plain + 1e-12
    assert norm_plain <= norm_full + 1e-8


def test_projection_consistency(trunc, disc8):
    f = np.exp(-((disc8.nodes - 1.0) ** 2))
    norms = []
    for n in range(1, 13):
        masked = trunc.project(n, disc8.nodes, f) - f
        norms.append(math.sqrt(float(np.sum(disc8.weights * np.abs(masked) ** 2))))
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


def test_tail_norm_rank1_oracle(rank1, trunc, disc8):
    # ||(T - T_n) T_n|| = |c_n| * ||u outside tau_n|| * ||v|| for K = u x u.
    values = []
    for n in range(2, 11):
        tau = trunc.tau(n)
        got = fk.tail_norm(rank1, trunc, n, 1, disc8)
        expected = gauss_overlap(tau) * gauss_tail_l2(tau) * math.sqrt(GAUSS_FULL)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-20)
        values.append(got)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-8  # tau = 6


def test_tail_norm_zero_and_nilpotent(zero, odd, trunc, disc8):
    assert fk.tail_norm(zero, trunc, 4, 1, disc8) == 0.0
    for n in (2, 5, 8):
        assert fk.tail_norm(odd, trunc, n, 1, disc8) <= 1e-12


def test_tail_norm_tilde_not_larger(rank1, trunc, disc8):
    for n in (2, 4, 6):
        plain = fk.tail_norm(rank1, trunc, n, 1, disc8)
        tilde = fk.tail_norm(rank1, trunc, n, 1, disc8, variant="tilde")
        assert tilde <= plain + 1e-12


def test_tail_norm_requires_outer_coverage(rank1, trunc):
    small = fk.build_grid(trunc, 2, 2, 8)
    with pytest.raises(ValueError):
        fk.tail_norm(rank1, trunc, 6, 1, small)


@pytest.mark.parametrize("order", fk.quadrature.SUPPORTED_ORDERS)
def test_cached_gauss_legendre_rule_is_bit_identical(order):
    xi, wi = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-1.5, 2.5, 4)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    for _ in range(2):
        nodes, weights = fk.gauss_legendre_panels(-1.5, 2.5, 3, order)
        assert np.array_equal(nodes, (mids[:, None] + halfs[:, None] * xi[None, :]).ravel())
        assert np.array_equal(weights, (halfs[:, None] * wi[None, :]).ravel())


def test_grid_node_ceiling(trunc):
    ceiling = fk.quadrature.DEFAULT_NODE_CEILING
    # Exactly at the ceiling: 512 panels of order 8 on (-1, 1).
    assert len(fk.grid_on_interval(-1.0, 1.0, ceiling // 16, 8).nodes) == ceiling
    # One panel more, a huge interval and an infinite one are refused by the
    # check itself, before any node is allocated.
    for a, b, ppu, order in ((-1.0, 1.0, ceiling // 16 + 1, 8), (-1e300, 1e300, 4, 8),
                             (-math.inf, math.inf, 1, 4), (-4.0, 4.0, 10**12, 16)):
        with pytest.raises(fk.BudgetExceededError):
            fk.grid_on_interval(a, b, ppu, order)
    with pytest.raises(fk.BudgetExceededError):
        fk.build_grid(fk.TruncationScheme(tau0=1e6), 1, 4, 8)
    with pytest.raises(fk.BudgetExceededError):
        fk.build_grid(fk.TruncationScheme(growth="geometric", ratio=1.5), 5000, 4, 8)
