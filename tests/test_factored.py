"""Exactly factored Nystrom matrices: A = U V^T for separable kernels, and
the determinants, zeros and series coefficients read off the r x r core
V^T U."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor

import fredkern as fk
from fredkern.fredholm import _hadamard_tail, det_from_lu
from fredkern.kernels import VARIANTS

BASIS = st.builds(fk.BasisFn, st.sampled_from(["gauss", "x_gauss", "sech"]),
                  st.floats(0.5, 2.0), st.floats(-2.0, 2.0))
COEFF = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def dense_det(entries, lam):
    """det(I - lambda*A) from a dense LU of the N x N entries."""
    lu, piv = lu_factor(np.eye(len(entries)) - lam * entries)
    return det_from_lu(lu, piv)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    terms=st.lists(st.tuples(COEFF, BASIS, BASIS), min_size=1, max_size=12),
    variant=st.sampled_from(VARIANTS),
    n=st.integers(1, 6),
    extra=st.floats(0.5, 3.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    size=st.floats(0.05, 0.5),
)
def test_factored_core_matches_dense_entries(terms, variant, n, extra, phase, size):
    k = fk.KernelSpec("separable_sum", tuple(terms))
    trunc = fk.TruncationScheme()
    tau = trunc.tau(n)
    grid = fk.grid_on_interval(-(tau + extra), tau + extra, 1, 8)  # wider than tau_n
    m = fk.nystrom_matrix(k, trunc, n, variant, grid)
    r = len(terms)
    assert m.u.shape == (len(grid.nodes), r) and m.vt.shape == (r, len(grid.nodes))
    assert m.core.shape == (r, r)
    # Each entry is a sum of r products, so its rounding is relative to |U||V^T|.
    scale = np.abs(m.u) @ np.abs(m.vt)
    assert np.all(np.abs(m.u @ m.vt - m.entries) <= 1e-13 * scale)
    # |lambda| ||A||_2 <= 1/2 keeps I - lambda*A well conditioned.
    norm = max(np.linalg.norm(m.entries, 2), 1e-300)
    lam = size / norm * complex(math.cos(phase), math.sin(phase))
    want = dense_det(m.entries, lam)
    assert abs(fk.det_matrix(m, lam).value - want) <= 1e-12 * abs(want)
    c_dense = fk.fredholm_coefficients(m.entries, fk.fredholm.M_MAX)
    c_core = fk.fredholm_coefficients(m.core, fk.fredholm.M_MAX)
    assert np.max(np.abs(c_core - c_dense)) <= 1e-12 * np.max(np.abs(c_dense))


def test_entries_bit_identical_to_sampled_kernel(rank2, gcauchy, trunc):
    g, sech = fk.BasisFn("gauss"), fk.BasisFn("sech", 1.3, 0.2)
    complex_k = fk.KernelSpec("separable_sum", ((0.7 - 0.4j, g, sech), (0.3j, sech, g)))
    table = fk.KernelSpec("custom_tabulated", table_radius=3.0,
                          table_values=np.arange(16.0).reshape(4, 4) - 7.5)
    grid = fk.grid_on_interval(-5.0, 5.0, 2, 8)  # wider than tau_6 = 4
    x, w = grid.nodes, grid.weights
    for k in (rank2, complex_k, table, gcauchy):
        for variant in VARIANTS:
            want = fk.subkernel_eval(k, trunc, 6, variant, x[:, None], x[None, :])
            want *= w
            got = fk.nystrom_matrix(k, trunc, 6, variant, grid).entries
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_factored_iff_rank_below_node_count(trunc):
    g = fk.BasisFn("gauss")
    terms = tuple((1.0, fk.BasisFn("gauss", 1.0, 0.1 * j), g) for j in range(8))
    k = fk.KernelSpec("separable_sum", terms)
    small = fk.build_grid(trunc, 1, 1, 4)  # 3 panels of 4 nodes: N = 12 > r = 8
    assert fk.nystrom_matrix(k, trunc, 1, "plain", small).u is not None
    tiny = fk.grid_on_interval(-1.5, 1.5, 1, 4)  # N = 12 as well
    k12 = fk.KernelSpec("separable_sum", terms + terms[:4])
    m = fk.nystrom_matrix(k12, trunc, 1, "plain", tiny)
    assert m.u is None and m.vt is None and m.core is m.entries


def test_dense_kernels_keep_dense_path(gcauchy, trunc, grid6):
    table = fk.KernelSpec("custom_tabulated", table_radius=3.0,
                          table_values=np.arange(16.0).reshape(4, 4) - 7.5)
    for k in (gcauchy, table):
        m = fk.nystrom_matrix(k, trunc, 6, "plain", grid6)
        assert m.u is None and m.core is m.entries
    a = np.random.default_rng(4).standard_normal((6, 6))
    dense = fk.NystromMatrix(entries=a, variant="plain", grid=None)
    assert dense.core is a
    assert np.array_equal(dense.matvec(np.ones(6)), a @ np.ones(6))


def test_minor_series_applies_factors(rank2, trunc, grid6):
    # Through the factors, minor/det still reproduces the resolvent handle.
    lam = 0.4 + 0.1j
    h = fk.make_resolvent(rank2, trunc, 6, lam, grid6)
    det = fk.det_series(rank2, trunc, 6, lam, grid6, 8).value
    for s, t in ((0.0, 0.0), (0.3, -0.7), (1.1, 0.4)):
        minor = fk.minor_series(rank2, trunc, 6, lam, s, t, grid6, 8)
        assert minor / det == pytest.approx(fk.resolvent_eval(h, s, t), abs=1e-12)


def exact_zero(core):
    """A lambda at which I - lambda*core, for a 1 x 1 core, is exactly 0 in
    floating point."""
    c = float(core[0, 0])
    lam = 1.0 / c
    for _ in range(8):
        if 1.0 + (-lam) * c == 0.0:
            return lam
        lam = math.nextafter(lam, math.inf if 1.0 + (-lam) * c > 0.0 else -math.inf)
    raise AssertionError("no exact zero near 1/c")


def test_exact_zero_is_a_root_without_warnings(rank1, trunc):
    grid = fk.build_grid(trunc, 6, 2, 8)
    m = fk.nystrom_matrix(rank1, trunc, 6, "plain", grid)
    lam = exact_zero(m.core)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fk.det_matrix(m, lam).value == 0.0
        zeros = fk.char_scan(rank1, trunc, 6, (0.0, 2.0, -0.5, 0.5), 4.0, grid).zeros
    assert len(zeros) == 1 and abs(zeros[0] - lam) <= 1e-12 * lam


def hadamard_tail_reference(lam, sup_k, vol, m_max):
    """The Hadamard tail summed term by term to 2000 terms, as it was before
    the geometric stop."""
    base = abs(lam) * sup_k * vol
    if base == 0.0:
        return 0.0
    log_base = math.log(base)
    total = 0.0
    for m in range(m_max + 1, m_max + 2000):
        log_term = m * log_base + 0.5 * m * math.log(m) - math.lgamma(m + 1)
        if log_term < -700.0:
            if m > 2 * (math.e * base) ** 2 + m_max:
                break
            continue
        try:
            total += math.exp(log_term)
        except OverflowError:
            return math.inf
    return total


@pytest.mark.parametrize("m_max", range(1, fk.fredholm.M_MAX + 1))
def test_hadamard_tail_matches_full_sum(m_max):
    bases = [0.0, 1e-300, 1e-12, 1e-5, 0.01, 0.1, 0.3, 0.7, 1.0, 1.6, 3.0, 6.0, 10.0, 15.0,
             20.0, 22.0, 22.6, 22.8, 23.0, 30.0, 60.0, 1e6]
    for base in bases:
        want = hadamard_tail_reference(base, 1.0, 1.0, m_max)
        got = _hadamard_tail(base, 1.0, 1.0, m_max)
        if math.isinf(want):
            assert math.isinf(got), base
        else:
            assert abs(got - want) <= 1e-14 * want, base
            assert got >= want, base  # still an upper bound
