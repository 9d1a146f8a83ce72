"""Determinants, first minors, cross-path agreement, and zero scans."""

import cmath
import math
import warnings

import numpy as np
import pytest

import fredkern as fk
from fredkern.fredholm import det_from_lu, shifted_identity
from conftest import gauss_overlap, xgauss_overlap

LAMBDAS = (0.3, 0.5, 0.5 + 0.2j)


def rank1_det(lam, tau):
    return 1.0 - lam * gauss_overlap(tau)


def rank2_det(lam, tau):
    return (1.0 - lam * gauss_overlap(tau)) * (1.0 - 0.5 * lam * xgauss_overlap(tau))


def test_det_at_zero_is_one(rank1, trunc, grid6):
    m = fk.nystrom_matrix(rank1, trunc, 6, "plain", grid6)
    assert fk.det_matrix(m, 0.0).value == 1.0
    assert fk.det_series(rank1, trunc, 6, 0.0, grid6, 4).value == 1.0


def test_det_rank1_both_paths(rank1, trunc, grid6):
    tau = trunc.tau(6)
    m = fk.nystrom_matrix(rank1, trunc, 6, "plain", grid6)
    for lam in LAMBDAS:
        expected = rank1_det(lam, tau)
        assert fk.det_matrix(m, lam).value == pytest.approx(expected, abs=1e-9)
        ds = fk.det_series(rank1, trunc, 6, lam, grid6, 6)
        assert ds.value == pytest.approx(expected, abs=1e-9)
        assert ds.terms_used == 6
        assert ds.tail_bound >= 0.0 and math.isfinite(ds.tail_bound)


def test_det_series_higher_terms_vanish_for_rank1(rank1, trunc, grid6):
    # The series terminates after the linear term for a rank-1 kernel.
    one_term = fk.det_series(rank1, trunc, 6, 0.3, grid6, 1).value
    six_terms = fk.det_series(rank1, trunc, 6, 0.3, grid6, 6).value
    assert abs(one_term - six_terms) < 1e-12


def test_det_series_tail_bound_overflow_is_inf(rank1, trunc):
    # At |lambda| sup|K| 2 tau_n = 64 the Hadamard terms pass the float range.
    # The rank-1 series is still exact at m_max = 6.
    grid = fk.build_grid(trunc, 6, 2, 8)
    ds = fk.det_series(rank1, trunc, 6, 8.0, grid, 6)
    dm = fk.det_matrix(fk.nystrom_matrix(rank1, trunc, 6, "plain", grid), 8.0)
    assert abs(ds.value - dm.value) <= 1e-8
    assert ds.tail_bound == math.inf


def test_det_from_lu_overflow_is_inf():
    # A finite product is returned as is; an overflowing one is inf, with no
    # floating-point warning on the way.
    lu = np.diag([2.0, -3.0 + 1.0j, 0.5])
    piv = np.array([1, 1, 2])
    assert det_from_lu(lu, piv) == -complex(np.prod(np.diag(lu)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert det_from_lu(np.diag([1e200, 1e200 + 1e200j]), np.arange(2)) == complex(math.inf)


def test_det_rank2_orthogonal_factorization(rank2, trunc, grid6):
    tau = trunc.tau(6)
    m = fk.nystrom_matrix(rank2, trunc, 6, "plain", grid6)
    lam = 0.5
    expected = rank2_det(lam, tau)
    assert fk.det_matrix(m, lam).value == pytest.approx(expected, abs=1e-9)
    assert fk.det_series(rank2, trunc, 6, lam, grid6, 6).value == pytest.approx(
        expected, abs=1e-9
    )


def test_det_near_characteristic_value(rank1, trunc, grid6):
    m = fk.nystrom_matrix(rank1, trunc, 6, "plain", grid6)
    lam_star = 1.0 / gauss_overlap(trunc.tau(6))
    assert abs(fk.det_matrix(m, lam_star).value) < 1e-6


def test_cross_path_agreement_all_builtins(trunc, grid6):
    for maker in (fk.gauss_rank1, fk.odd_rank1, fk.rank2_orthogonal, fk.gauss_cauchy):
        k = maker()
        m = fk.nystrom_matrix(k, trunc, 6, "plain", grid6)
        for lam in (0.3, 1.0, 0.5 + 0.2j):
            ds = fk.det_series(k, trunc, 6, lam, grid6, 6)
            dm = fk.det_matrix(m, lam)
            assert abs(ds.value - dm.value) <= ds.tail_bound + 1e-7


def test_cross_path_tight_for_finite_rank(rank1, rank2, trunc, grid6):
    # Rank <= 2 terminates the series exactly, so the two routes agree to
    # rounding even though the generic Hadamard bound is loose.
    for k in (rank1, rank2):
        m = fk.nystrom_matrix(k, trunc, 6, "plain", grid6)
        for lam in LAMBDAS:
            ds = fk.det_series(k, trunc, 6, lam, grid6, 6)
            dm = fk.det_matrix(m, lam)
            assert abs(ds.value - dm.value) < 1e-10


def test_minor_rank1_is_kernel(rank1, trunc, grid6):
    for lam in LAMBDAS:
        val = fk.minor_series(rank1, trunc, 6, lam, 0.0, 0.0, grid6, 6)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_minor_at_lambda_zero(rank2, trunc, grid6):
    for s, t in ((0.0, 0.5), (1.0, -1.0)):
        val = fk.minor_series(rank2, trunc, 6, 0.0, s, t, grid6, 6)
        assert val == pytest.approx(
            fk.subkernel_eval(rank2, trunc, 6, "plain", s, t), abs=1e-12
        )


def test_minor_odd_rank1(odd, trunc, grid6):
    for lam in (0.2, 0.9, 0.4 + 0.3j):
        val = fk.minor_series(odd, trunc, 6, lam, 0.0, 1.0, grid6, 6)
        assert val == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_minor_quotient_matches_rank2_resolvent(rank2, trunc, grid6):
    # Quotient route vs the closed-form rank-2 resolvent.
    tau = trunc.tau(6)
    c1 = gauss_overlap(tau)
    c2 = xgauss_overlap(tau)
    lam = 0.4
    for s, t in ((0.0, 0.0), (0.7, -0.3)):
        minor = fk.minor_series(rank2, trunc, 6, lam, s, t, grid6, 6)
        det = fk.det_series(rank2, trunc, 6, lam, grid6, 6).value
        u = math.exp(-s * s) * math.exp(-t * t)
        v = (s * math.exp(-s * s)) * (t * math.exp(-t * t))
        expected = u / (1 - lam * c1) + 0.5 * v / (1 - 0.5 * lam * c2)
        assert minor / det == pytest.approx(expected, abs=1e-9)


def test_budget_ceiling(rank1, trunc):
    # build_grid refuses such a grid, so it is built by hand.
    nodes = np.linspace(-4.0, 4.0, fk.quadrature.DEFAULT_NODE_CEILING + 1)
    grid = fk.Discretization(nodes, np.full(len(nodes), 8.0 / len(nodes)), len(nodes), 1, -4.0, 4.0, 1)
    with pytest.raises(fk.BudgetExceededError):
        fk.det_series(rank1, trunc, 6, 0.3, grid, 4)
    with pytest.raises(fk.BudgetExceededError):
        fk.minor_series(rank1, trunc, 6, 0.3, 0.0, 0.0, grid, 4)


def test_fredholm_coefficients_match_power_traces():
    # Reference: every trace from an explicit matrix power.
    rng = np.random.default_rng(3)
    a = (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))) / 15.0
    for m_max in range(1, fk.fredholm.M_MAX + 1):
        traces = [np.trace(np.linalg.matrix_power(a, kk)) for kk in range(1, m_max + 1)]
        ref = [1.0 + 0.0j]
        for m in range(1, m_max + 1):
            ref.append(sum((-1) ** (kk - 1) * traces[kk - 1] * ref[m - kk]
                           for kk in range(1, m + 1)) / m)
        np.testing.assert_allclose(fk.fredholm_coefficients(a, m_max), ref, rtol=1e-12)


def test_m_max_validation(rank1, trunc, grid6):
    with pytest.raises(ValueError):
        fk.det_series(rank1, trunc, 6, 0.3, grid6, 0)
    with pytest.raises(ValueError):
        fk.det_series(rank1, trunc, 6, 0.3, grid6, 9)


def scan_grid(trunc):
    return fk.build_grid(trunc, 6, 2, 8)


def test_char_scan_rank1(rank1, trunc):
    res = fk.char_scan(rank1, trunc, 6, (0.0, 2.0, -0.5, 0.5), 4.0, scan_grid(trunc))
    assert len(res.zeros) == 1
    assert abs(res.zeros[0] - 0.7978846) < 1e-4


def test_char_scan_rank2(rank2, trunc):
    res = fk.char_scan(rank2, trunc, 6, (0.0, 8.0, -1.0, 1.0), 2.0, scan_grid(trunc))
    assert len(res.zeros) == 2
    assert abs(res.zeros[0] - 0.7979) < 1e-3
    assert abs(res.zeros[1] - 6.3831) < 1e-3


def test_char_scan_empty_for_nilpotent(odd, trunc):
    # The Nystrom matrix is defective with every eigenvalue zero; eigvals
    # returns rounding noise, whose reciprocals must not survive as zeros.
    res = fk.char_scan(odd, trunc, 6, (-2.0, 2.0, -1.0, 1.0), 3.0, scan_grid(trunc))
    assert res.zeros == ()


def test_char_scan_zero_set_independent_of_density(rank2, trunc):
    grid = scan_grid(trunc)
    sets = [fk.char_scan(rank2, trunc, 6, (0.0, 8.0, -1.0, 1.0), d, grid).zeros
            for d in (0.5, 2.0, 8.0)]
    assert len(sets[0]) == 2
    assert sets[0] == sets[1] == sets[2]


def test_char_scan_non_hermitian_matches_closed_form(trunc):
    # K(s,t) = sum_j c_j u_j(s) v_j(t) has characteristic values 1/mu over
    # the nonzero eigenvalues mu of C G, with G_jk = int v_j u_k over (-tau, tau).
    g, xg = fk.BasisFn("gauss"), fk.BasisFn("x_gauss")
    terms = ((1.0, g, g), (2.0 + 0.5j, xg, xg), (0.3, g, xg), (-0.4j, xg, g))
    k = fk.KernelSpec("separable_sum", terms, label="coupled")
    tau = trunc.tau(6)
    overlap = {"gauss": gauss_overlap(tau), "x_gauss": xgauss_overlap(tau)}
    gram = np.array([[overlap[v.kind] if v.kind == u.kind else 0.0 for _, u, _ in terms]
                     for _, _, v in terms])
    mu = np.linalg.eigvals(np.diag([c for c, _, _ in terms]) @ gram)
    expected = sorted((1.0 / m for m in mu if abs(m) > 1e-12), key=lambda z: (z.real, z.imag))
    res = fk.char_scan(k, trunc, 6, (0.0, 8.0, -1.0, 1.0), 2.0, scan_grid(trunc))
    assert len(res.zeros) == len(expected) == 2
    for z, e in zip(res.zeros, expected):
        assert abs(z - e) < 1e-8


def test_char_scan_zeros_deduplicated_and_in_region(rank1, trunc):
    res = fk.char_scan(rank1, trunc, 6, (0.0, 2.0, -0.5, 0.5), 8.0, scan_grid(trunc))
    zs = res.zeros
    assert len(zs) == 1
    re0, re1, im0, im1 = res.search_region
    for z in zs:
        assert re0 - 1e-6 <= z.real <= re1 + 1e-6
        assert im0 - 1e-6 <= z.imag <= im1 + 1e-6


def test_tilde_determinant_equality(rank2, trunc, grid6):
    mp = fk.nystrom_matrix(rank2, trunc, 6, "plain", grid6)
    mt = fk.nystrom_matrix(rank2, trunc, 6, "tilde", grid6)
    for lam in LAMBDAS:
        dp = fk.det_matrix(mp, lam).value
        dt = fk.det_matrix(mt, lam).value
        assert abs(dp - dt) < 1e-10


def test_tilde_scan_zero_sets_coincide(rank2, trunc):
    grid = scan_grid(trunc)
    plain = fk.char_scan(rank2, trunc, 6, (0.0, 8.0, -1.0, 1.0), 2.0, grid)
    tilde = fk.char_scan(rank2, trunc, 6, (0.0, 8.0, -1.0, 1.0), 2.0, grid, variant="tilde")
    assert len(plain.zeros) == len(tilde.zeros)
    for zp, zt in zip(plain.zeros, tilde.zeros):
        assert abs(zp - zt) < 1e-6


def test_entire_function_cauchy_consistency(rank2, trunc, grid6):
    # Mean of D over a circle reproduces D at the center (trapezoid rule on
    # an analytic function converges geometrically).
    m = fk.nystrom_matrix(rank2, trunc, 6, "plain", grid6)
    center, radius, npts = 0.3 + 0.1j, 0.25, 64
    vals = []
    for j in range(npts):
        lam = center + radius * cmath.exp(2j * math.pi * j / npts)
        vals.append(fk.det_matrix(m, lam).value)
    assert np.mean(vals) == pytest.approx(fk.det_matrix(m, center).value, abs=1e-7)


def test_hermitian_zeros_are_real(rank2, gcauchy, trunc):
    for k in (rank2, gcauchy):
        res = fk.char_scan(k, trunc, 6, (0.0, 8.0, -1.0, 1.0), 2.0, scan_grid(trunc))
        for z in res.zeros:
            assert abs(z.imag) < 1e-6


def test_near_zero_threshold():
    assert fk.is_characteristic(1e-11, 0.3)
    assert not fk.is_characteristic(1e-3, 0.3)
    # Threshold scales with |lambda|: 1e-10 * (1 + 10) = 1.1e-9.
    assert fk.is_characteristic(1e-9, 10.0)
    assert not fk.is_characteristic(5e-9, 10.0)


def jordan_kernel():
    """K = g x g + 4 xg x xg + 0.3 g x xg: a 2x2 Jordan block at 1/sqrt(pi/2)."""
    g, xg = fk.BasisFn("gauss"), fk.BasisFn("x_gauss")
    return fk.KernelSpec("separable_sum", ((1.0, g, g), (4.0, xg, xg), (0.3, g, xg)))


def test_char_scan_keeps_double_zero(trunc):
    # eigvals resolves the double eigenvalue of the Jordan block only to about
    # sqrt(eps); the candidate 1/mu is kept because |det| passes there.
    k = jordan_kernel()
    grid = fk.build_grid(trunc, 6, 2, 8)
    zeros = fk.char_scan(k, trunc, 6, (0.0, 2.0, -0.5, 0.5), 1.0, grid).zeros
    assert len(zeros) == 1
    assert abs(zeros[0] - 1.0 / math.sqrt(math.pi / 2.0)) <= 1e-6


def random_separable(rng, rank):
    kinds = ("gauss", "x_gauss", "sech")
    basis = [fk.BasisFn(kinds[rng.integers(3)], rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
             for _ in range(2 * rank)]
    coeffs = 2.0 * (rng.standard_normal(rank) + 1j * rng.standard_normal(rank))
    return fk.KernelSpec("separable_sum", tuple(zip(coeffs, basis[:rank], basis[rank:])))


def scan_cases():
    rng = np.random.default_rng(7)
    cases = [(random_separable(rng, r), (-8.0, 8.0, -8.0, 8.0)) for r in (1, 2, 3, 4)]
    cases.append((fk.gauss_cauchy(), (0.0, 8.0, -1.0, 1.0)))
    cases.append((jordan_kernel(), (0.0, 2.0, -0.5, 0.5)))
    return cases


def test_char_scan_zeros_are_exact_reciprocal_eigenvalues(trunc):
    # No polish: each zero is 1/mu for an eigenvalue mu of the core, to the bit.
    grid = scan_grid(trunc)
    assert len(grid.nodes) == 128
    for k, region in scan_cases():
        zeros = fk.char_scan(k, trunc, 6, region, 1.0, grid).zeros
        assert zeros
        mu = np.linalg.eigvals(fk.nystrom_matrix(k, trunc, 6, "plain", grid).core)
        reciprocals = {1.0 / complex(m) for m in mu if m != 0}
        assert set(zeros) <= reciprocals


def test_char_scan_factors_once_per_candidate(trunc, monkeypatch):
    grid = scan_grid(trunc)
    calls = []
    factor = fk.fredholm.lu_factor
    monkeypatch.setattr(fk.fredholm, "lu_factor", lambda *a, **kw: calls.append(1) or factor(*a, **kw))
    margin = 1e-9 + 1e-6
    for k, (re0, re1, im0, im1) in scan_cases():
        mu = np.linalg.eigvals(fk.nystrom_matrix(k, trunc, 6, "plain", grid).core)
        inside = [z for z in (1.0 / complex(m) for m in mu if m != 0)
                  if re0 - margin <= z.real <= re1 + margin and im0 - margin <= z.imag <= im1 + margin]
        calls.clear()
        fk.char_scan(k, trunc, 6, (re0, re1, im0, im1), 1.0, grid)
        assert len(calls) == len(inside) > 0


def test_shifted_identity_refuses_entries_beyond_float_range():
    a = np.full((3, 3), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (1e10, 1e10j):
            with pytest.raises(fk.BudgetExceededError):
                shifted_identity(a, lam)
        assert np.isfinite(shifted_identity(a, 1e-10)).all()


def test_shifted_identity_real_exactly_when_matrix_and_lambda_real():
    rng = np.random.default_rng(3)
    real = rng.standard_normal((6, 6))
    for a, lam, dtype in ((real, 0.4, np.float64), (real, complex(-0.4, 0.0), np.float64),
                          (real, 0.4 + 0.1j, np.complex128), (real + 0j, 0.4, np.complex128)):
        m = shifted_identity(a, lam)
        assert m.dtype == dtype and m.flags.f_contiguous
        assert np.array_equal(m, np.eye(6) - complex(lam) * a)
        d = fk.det_matrix(fk.NystromMatrix(entries=a, variant="plain", grid=None), lam)
        assert isinstance(d.value, complex)
        assert d.value == pytest.approx(np.linalg.det(np.eye(6) - complex(lam) * a), rel=1e-12)
