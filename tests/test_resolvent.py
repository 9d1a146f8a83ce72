"""Resolvent handles: evaluation, defining equations, solving, identities."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fredkern as fk
from conftest import gauss_overlap, record_square_samplings
from fredkern.resolvent import neumann_kernel_matrix

LAMBDAS = (0.1, 0.3, 0.5 + 0.2j)

# Point sets of different lengths, so both orientations of a product grid occur.
SHORT = np.linspace(-3.0, 3.0, 7)
LONG = np.linspace(-4.5, 4.5, 19)
ORIENTATIONS = ((SHORT, LONG), (LONG, SHORT))


def coupled_kernel():
    """Non-Hermitian separable kernel with complex coefficients."""
    g, xg = fk.BasisFn("gauss"), fk.BasisFn("x_gauss")
    terms = ((1.0, g, g), (2.0 + 0.5j, xg, xg), (0.3, g, xg), (-0.4j, xg, g))
    return fk.KernelSpec("separable_sum", terms, label="coupled")


def eval_grid():
    return fk.grid_on_interval(-5.0, 5.0, 1, 8)


def test_resolvent_rank1_oracle(rank1, trunc, grid6):
    c = gauss_overlap(trunc.tau(6))
    h = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6)
    assert fk.resolvent_eval(h, 0.0, 0.0) == pytest.approx(1.0 / (1.0 - 0.3 * c), abs=1e-7)
    h5 = fk.make_resolvent(rank1, trunc, 6, 0.5, grid6)
    assert fk.resolvent_eval(h5, 0.0, 0.0) == pytest.approx(1.0 / (1.0 - 0.5 * c), abs=1e-6)


def test_resolvent_at_lambda_zero_is_subkernel(rank2, trunc, grid6):
    h = fk.make_resolvent(rank2, trunc, 6, 0.0, grid6)
    pts = np.linspace(-4.5, 4.5, 19)
    vals = h.eval_grid_matrix(pts, pts)
    base = np.asarray(
        fk.subkernel_eval(rank2, trunc, 6, "plain", pts[:, None], pts[None, :])
    )
    assert np.max(np.abs(vals - base)) == 0.0


def test_resolvent_nilpotent_kernel(odd, trunc, grid6):
    # T^2 = 0, so the resolvent equals the kernel at every regular lambda.
    for lam in (0.4, 2.0, -1.5 + 0.7j):
        h = fk.make_resolvent(odd, trunc, 6, lam, grid6)
        assert fk.resolvent_eval(h, 0.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_resolvent_compact_s_support(rank1, trunc, grid6):
    h = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6)
    tau = trunc.tau(6)
    for s in (tau, tau + 0.5, -tau - 2.0):
        assert fk.resolvent_eval(h, s, 0.3) == 0.0


def test_tilde_masking_exact(rank1, trunc, grid6):
    hp = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6, variant="plain")
    ht = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6, variant="tilde")
    tau = trunc.tau(6)
    plain_val = fk.resolvent_eval(hp, 0.5, tau + 1.0)
    assert fk.resolvent_eval(ht, 0.5, tau + 1.0) == 0.0
    assert plain_val != 0.0
    for s, t in ((0.5, 0.5), (-1.0, 2.0), (0.0, -3.9)):
        assert fk.resolvent_eval(ht, s, t) == fk.resolvent_eval(hp, s, t) * (
            1.0 if abs(t) < tau else 0.0
        )


def test_characteristic_lambda_refused(rank1, trunc, grid6):
    lam_star = 1.0 / gauss_overlap(trunc.tau(6))
    with pytest.raises(fk.CharacteristicValueError):
        fk.make_resolvent(rank1, trunc, 6, lam_star, grid6)


def test_handle_det_matches_lu(rank1, trunc, grid6):
    h = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6)
    redone = fk.det_matrix(h.matrix, 0.3)
    assert abs(h.det.value - redone.value) <= 1e-9 * abs(redone.value)


def test_carleman_row_at_lambda_zero(rank2, trunc, grid6):
    h = fk.make_resolvent(rank2, trunc, 6, 0.0, grid6)
    rc = fk.resolvent_carleman(h, "row", 0.7, grid6)
    expected = np.conj(
        np.asarray(fk.subkernel_eval(rank2, trunc, 6, "plain", 0.7, grid6.nodes))
    )
    assert np.max(np.abs(rc.samples - expected)) == 0.0


def test_carleman_column_rank1_oracle(rank1, trunc, grid6):
    c = gauss_overlap(trunc.tau(6))
    h = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6)
    rc = fk.resolvent_carleman(h, "column", 0.0, grid6)
    chi = trunc.chi(6, grid6.nodes)
    expected = chi * np.exp(-grid6.nodes**2) / (1.0 - 0.3 * c)
    assert np.max(np.abs(rc.samples - expected)) <= 1e-7


def test_carleman_row_outside_support_is_zero(rank1, trunc, grid6):
    h = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6)
    rc = fk.resolvent_carleman(h, "row", trunc.tau(6) + 0.5, grid6)
    assert np.all(rc.samples == 0.0)


def test_carleman_consistent_with_eval(rank2, trunc, grid6):
    h = fk.make_resolvent(rank2, trunc, 6, 0.3, grid6)
    anchor = 0.4
    row = fk.resolvent_carleman(h, "row", anchor, grid6)
    col = fk.resolvent_carleman(h, "column", anchor, grid6)
    for idx in (0, 17, 101):
        x = grid6.nodes[idx]
        assert abs(row.samples[idx] - np.conj(fk.resolvent_eval(h, anchor, x))) <= 1e-10
        assert abs(col.samples[idx] - fk.resolvent_eval(h, x, anchor)) <= 1e-10


def test_residuals_at_lambda_zero(rank2, trunc, grid6):
    h = fk.make_resolvent(rank2, trunc, 6, 0.0, grid6)
    r_left, r_right = fk.residual_check(h, eval_grid())
    assert r_left <= 1e-14 and r_right <= 1e-14


def test_residuals_small_for_all_builtins(trunc, grid6):
    for maker in (fk.gauss_rank1, fk.odd_rank1, fk.rank2_orthogonal, fk.gauss_cauchy):
        k = maker()
        for lam in LAMBDAS:
            h = fk.make_resolvent(k, trunc, 6, lam, grid6)
            r_left, r_right = fk.residual_check(h, eval_grid())
            assert r_left <= 1e-6 and r_right <= 1e-6


def test_residuals_tight_for_rank1(rank1, trunc, grid6):
    h = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6)
    r_left, r_right = fk.residual_check(h, eval_grid())
    assert r_left <= 1e-8 and r_right <= 1e-8


def test_residual_negative_control(rank1, trunc, grid6):
    # A stale factor: the LU at 0.3 under a handle that claims 0.45.
    h = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6)
    r_left, r_right = fk.residual_check(replace(h, lam=1.5 * h.lam), eval_grid())
    assert max(r_left, r_right) >= 1e-2


def test_solve_zero_rhs(rank1, trunc, grid6):
    h = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6)
    f = fk.solve_equation(h, np.zeros(len(grid6.nodes)))
    assert np.all(f == 0.0)


def test_solve_identity_at_lambda_zero(rank2, trunc, grid6):
    h = fk.make_resolvent(rank2, trunc, 6, 0.0, grid6)
    g = np.exp(-grid6.nodes**2) * (1.0 + 0.5j)
    f = fk.solve_equation(h, g)
    assert np.max(np.abs(f - g)) == 0.0


def test_solve_rank1_oracle(rank1, trunc, grid6):
    c = gauss_overlap(trunc.tau(6))
    h = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6)
    g = np.exp(-grid6.nodes**2)
    f = fk.solve_equation(h, g)
    expected = g / (1.0 - 0.3 * c)
    assert np.max(np.abs(f - expected)) <= 1e-7


def test_solve_rejects_wrong_sampling(rank1, trunc, grid6):
    h = fk.make_resolvent(rank1, trunc, 6, 0.3, grid6)
    with pytest.raises(ValueError):
        fk.solve_equation(h, np.zeros(7))
    with pytest.raises(ValueError):
        fk.solve_equation(h, np.zeros(len(grid6.nodes)), fk.grid_on_interval(-3, 3, 1, 8))


def test_solve_tilde_variant_on_wide_grid(rank2, trunc):
    # A tilde handle for a small truncation index on a wider grid still
    # satisfies its own second-kind system exactly.
    lam = 0.3
    grid = fk.build_grid(trunc, 8, 4, 8)
    h = fk.make_resolvent(rank2, trunc, 3, lam, grid, variant="tilde")
    g = np.exp(-((grid.nodes - 0.5) ** 2)).astype(complex)
    f = fk.solve_equation(h, g)
    chi = trunc.chi(3, grid.nodes)
    a_tilde = h.matrix.entries * chi[None, :]
    back = f - lam * (a_tilde @ f)
    assert np.max(np.abs(back - g)) <= 1e-10


def test_gauss_cauchy_cross_validation(gcauchy, trunc):
    # The non-separable family has no closed form; validate by grid
    # refinement and by route agreement at m_max = 8.
    lam = 0.4
    vals = []
    for ppu in (2, 4):
        grid = fk.build_grid(trunc, 6, ppu, 8)
        h = fk.make_resolvent(gcauchy, trunc, 6, lam, grid)
        m = fk.nystrom_matrix(gcauchy, trunc, 6, "plain", grid)
        vals.append((fk.det_matrix(m, lam).value, fk.resolvent_eval(h, 0.3, -0.7)))
    assert abs(vals[0][0] - vals[1][0]) < 1e-10
    assert abs(vals[0][1] - vals[1][1]) < 1e-10
    grid = fk.build_grid(trunc, 6, 4, 8)
    det = fk.det_series(gcauchy, trunc, 6, lam, grid, 8).value
    minor = fk.minor_series(gcauchy, trunc, 6, lam, 0.3, -0.7, grid, 8)
    h = fk.make_resolvent(gcauchy, trunc, 6, lam, grid)
    assert abs(minor / det - fk.resolvent_eval(h, 0.3, -0.7)) < 1e-9


def test_operator_identity_on_probes(rank2, trunc, grid6):
    # (I - lambda T_n)(g + lambda * resolvent(g)) == g on the probe basis.
    from fredkern.resolvent import PROBE_SHIFTS

    lam = 0.3
    h = fk.make_resolvent(rank2, trunc, 6, lam, grid6)
    a = h.matrix.entries
    for shift in PROBE_SHIFTS:
        g = np.exp(-((grid6.nodes - shift) ** 2))
        f = g + lam * h.apply(g)
        back = f - lam * (a @ f)
        assert np.max(np.abs(back - g)) <= 1e-8


def test_second_resolvent_identity(rank1, trunc):
    grid = fk.build_grid(trunc, 8, 4, 8)
    ha = fk.make_resolvent(rank1, trunc, 8, 0.3, grid)
    hb = fk.make_resolvent(rank1, trunc, 3, 0.3, grid)
    assert fk.second_resolvent_residual(ha, ha) <= 1e-12
    assert fk.second_resolvent_residual(ha, hb) <= 1e-7


def test_second_resolvent_identity_at_lambda_zero(rank2, trunc):
    grid = fk.build_grid(trunc, 8, 4, 8)
    ha = fk.make_resolvent(rank2, trunc, 8, 0.0, grid)
    hb = fk.make_resolvent(rank2, trunc, 3, 0.0, grid)
    assert fk.second_resolvent_residual(ha, hb) == 0.0


def test_second_resolvent_requires_shared_grid(rank1, trunc):
    ga = fk.build_grid(trunc, 8, 4, 8)
    gb = fk.build_grid(trunc, 3, 4, 8)
    ha = fk.make_resolvent(rank1, trunc, 8, 0.3, ga)
    hb = fk.make_resolvent(rank1, trunc, 3, 0.3, gb)
    with pytest.raises(ValueError):
        fk.second_resolvent_residual(ha, hb)


def test_neumann_at_lambda_zero(rank2, disc8):
    nv = fk.neumann_full(rank2, 0.0, 0.4, -0.6, disc8, 5)
    assert nv.value == pytest.approx(fk.eval_kernel(rank2, 0.4, -0.6), abs=1e-14)


def test_neumann_rank1_cross_path(rank1, trunc, disc8):
    h = fk.make_resolvent(rank1, trunc, 10, 0.3, fk.build_grid(trunc, 10, 4, 8))
    nv = fk.neumann_full(rank1, 0.3, 0.0, 0.0, disc8, 30)
    assert abs(nv.value - fk.resolvent_eval(h, 0.0, 0.0)) <= 1e-8
    # Geometric-series oracle at (0,0): sum (lam*c)^{j-1}.
    c = gauss_overlap()
    assert nv.value == pytest.approx(1.0 / (1.0 - 0.3 * c), abs=1e-8)


def test_neumann_nilpotent_terms_vanish(odd, disc8):
    two = fk.neumann_full(odd, 0.4, 0.0, 1.0, disc8, 2)
    ten = fk.neumann_full(odd, 0.4, 0.0, 1.0, disc8, 10)
    assert two.value == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert abs(ten.value - two.value) <= 1e-15


def test_neumann_full_samples_once(gcauchy, disc8, monkeypatch):
    # One N x N sampling gives the matrix, its norm and the Carleman sups.
    shapes = record_square_samplings(monkeypatch, len(disc8.nodes))
    nv = fk.neumann_full(gcauchy, 0.4 + 0.2j, 0.3, -0.7, disc8, 25)
    assert len(shapes) == 1
    monkeypatch.undo()
    assert nv.value == neumann_kernel_matrix(gcauchy, 0.4 + 0.2j, 0.3, -0.7, disc8, 25)[0, 0]
    kv = np.abs(fk.eval_kernel(gcauchy, disc8.nodes[:, None], disc8.nodes[None, :])) ** 2
    sup = np.max(np.sqrt(kv @ disc8.weights))  # rows and columns agree: the kernel is symmetric
    rate = abs(0.4 + 0.2j) * fk.operator_norm_estimate(fk.NystromMatrix(
        fk.eval_kernel(gcauchy, disc8.nodes[:, None], disc8.nodes[None, :]) * disc8.weights, "plain", disc8))
    assert nv.tail_bound == pytest.approx(sup * sup * rate**24 / (1 - rate), rel=1e-12)


def test_neumann_divergence_guard(rank1, disc8):
    with pytest.raises(fk.NeumannDivergenceError):
        fk.neumann_full(rank1, 1.0, 0.0, 0.0, disc8, 10)


def test_quotient_route_matches_handle(rank1, rank2, trunc, grid6):
    for k in (rank1, rank2):
        for lam in (0.3, 0.5 + 0.2j):
            h = fk.make_resolvent(k, trunc, 6, lam, grid6)
            det = fk.det_series(k, trunc, 6, lam, grid6, 6).value
            for s, t in ((0.0, 0.0), (0.6, -1.2)):
                minor = fk.minor_series(k, trunc, 6, lam, s, t, grid6, 6)
                assert minor / det == pytest.approx(fk.resolvent_eval(h, s, t), abs=1e-8)


def test_hermitian_symmetry_propagates_to_tilde(rank2, trunc, grid6):
    h = fk.make_resolvent(rank2, trunc, 6, 0.3, grid6, variant="tilde")
    for s, t in ((0.2, 0.9), (-1.4, 2.2), (3.7, 4.5), (0.0, -3.0)):
        left = fk.resolvent_eval(h, s, t)
        right = np.conj(fk.resolvent_eval(h, t, s))
        assert abs(left - right) <= 1e-9


def kernel_block(k, s, t):
    return np.asarray(fk.eval_kernel(k, s[:, None], t[None, :]), dtype=complex)


def series_by_powers(k, lam, s, t, disc, n_terms):
    """sum_{j=1..n_terms} lambda^{j-1} K^{[j]}(s,t), term by term from powers of A."""
    x, w = disc.nodes, disc.weights
    a = kernel_block(k, x, x) * w[None, :]
    rows_w = kernel_block(k, s, x) * w[None, :]
    cols = kernel_block(k, x, t)
    total = kernel_block(k, s, t)
    for j in range(2, n_terms + 1):
        total = total + lam ** (j - 1) * (rows_w @ np.linalg.matrix_power(a, j - 2) @ cols)
    return total


def weighted_norm(k, disc):
    sw = np.sqrt(disc.weights)
    return np.linalg.norm(sw[:, None] * kernel_block(k, disc.nodes, disc.nodes) * sw[None, :], 2)


@pytest.mark.parametrize("kernel", [coupled_kernel, fk.gauss_cauchy], ids=["coupled", "gcauchy"])
@pytest.mark.parametrize("n_terms", [1, 2, 5, 40])
def test_neumann_kernel_matrix_matches_term_sum(kernel, n_terms):
    # The coupled kernel runs a complex chain, gauss_cauchy a real one.
    k = kernel()
    disc = fk.grid_on_interval(-6.0, 6.0, 2, 8)
    lam = 0.5 * np.exp(0.7j) / weighted_norm(k, disc)
    for s, t in ORIENTATIONS:
        got = neumann_kernel_matrix(k, lam, s, t, disc, n_terms)
        want = series_by_powers(k, lam, s, t, disc, n_terms)
        assert got.shape == (len(s), len(t))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def dense_resolvent(h, s, t):
    """K_n + lambda K_n(s,x) W solve(I - lambda A, K_n(x,t)), masked."""
    x, w = h.grid.nodes, h.grid.weights

    def plain(a, b):
        return np.asarray(fk.subkernel_eval(h.kernel, h.trunc, h.n, "plain",
                                            a[:, None], b[None, :]), dtype=complex)

    a = plain(x, x) * w[None, :]
    sol = np.linalg.solve(np.eye(len(x)) - h.lam * a, plain(x, t))
    vals = plain(s, t) + h.lam * (plain(s, x) * w[None, :]) @ sol
    if h.variant == "tilde":
        vals = vals * h.trunc.chi(h.n, t)[None, :]
    return vals


@pytest.mark.parametrize("variant", ["plain", "tilde"])
@pytest.mark.parametrize("lam", [0.3, 0.4 - 0.25j])
def test_eval_grid_matrix_matches_dense_formula(trunc, grid6, variant, lam):
    h = fk.make_resolvent(coupled_kernel(), trunc, 6, lam, grid6, variant=variant)
    for s, t in ORIENTATIONS:
        got = h.eval_grid_matrix(s, t)
        want = dense_resolvent(h, s, t)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("lam", [1e160, 1e300])
def test_make_resolvent_at_huge_lambda_is_clean(gcauchy, trunc, lam):
    # The LU-diagonal product overflows here; det is inf, not NaN, and no
    # floating-point warning is raised on the way.
    grid = fk.build_grid(trunc, 6, 4, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = fk.make_resolvent(gcauchy, trunc, 6, lam, grid)
        vals = h.eval_grid_matrix(SHORT, LONG)
    assert h.det.value == complex(math.inf)
    assert np.all(np.isfinite(vals))


def test_factor_real_exactly_when_matrix_and_lambda_real(rank2, gcauchy, trunc, grid6):
    g = fk.BasisFn("gauss")
    complex_k = fk.KernelSpec("separable_sum", ((0.4 + 0.2j, g, g),))
    cases = ((rank2, 0.3, True), (gcauchy, complex(-0.7, 0.0), True), (rank2, 0.3 + 0.1j, False),
             (complex_k, 0.3, False), (complex_k, 0.3 + 0.1j, False))
    pts = np.linspace(-4.5, 4.5, 5)
    for k, lam, real in cases:
        h = fk.make_resolvent(k, trunc, 6, lam, grid6)
        assert (h.matrix.entries.dtype == np.float64) == (k is not complex_k)
        assert (h.lu[0].dtype == np.float64) == real
        # Public outputs stay complex.
        assert isinstance(h.det.value, complex)
        assert h.columns_at(pts).dtype == np.complex128
        assert h.eval_grid_matrix(pts, pts).dtype == np.complex128
        assert fk.solve_equation(h, np.exp(-grid6.nodes**2)).dtype == np.complex128


def test_real_factor_complex_rhs_matches_complex_lu(trunc, grid6):
    g, xg, sech = fk.BasisFn("gauss"), fk.BasisFn("x_gauss"), fk.BasisFn("sech", 1.3, 0.2)
    real_k = fk.KernelSpec("separable_sum", ((1.0, g, g), (0.5, xg, sech)))
    complex_k = fk.KernelSpec("separable_sum", ((0.7 - 0.4j, g, sech), (0.3j, xg, g)))
    h = fk.make_resolvent(real_k, trunc, 6, 0.4, grid6)
    assert h.lu[0].dtype == np.float64
    # Right-hand sides come from the handle's kernel, so a complex kernel on
    # the real factor gives complex ones; `ref` solves them with a complex LU.
    mixed = replace(h, kernel=complex_k)
    ref = replace(mixed, lu=(h.lu[0].astype(complex), h.lu[1]))
    s = np.linspace(-4.5, 4.5, 5)
    t = np.linspace(-4.2, 4.4, 13)
    gvec = np.exp(-(grid6.nodes - 0.5) ** 2) * (1.0 - 0.6j)
    pairs = (
        (mixed.columns_at(t), ref.columns_at(t)),
        (mixed.columns_at(0.3), ref.columns_at(0.3)),
        (mixed.eval_grid_matrix(s, t), ref.eval_grid_matrix(s, t)),  # row side
        (mixed.eval_grid_matrix(t, s), ref.eval_grid_matrix(t, s)),  # column side
        (h.apply(gvec), ref.apply(gvec)),
        (replace(h, variant="tilde").apply(gvec), replace(ref, variant="tilde").apply(gvec)),
    )
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
