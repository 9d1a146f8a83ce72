"""Exactly factored Nystrom matrices: A = U V^T for separable kernels, and
the determinants, zeros and series coefficients read off the r x r core
V^T U."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor

import fredkern as fk
from conftest import record_square_samplings
from fredkern.convergence import _DenseRun, _FactoredRun, _sampling
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
@example(terms=[(0j, fk.BasisFn("gauss"), fk.BasisFn("gauss")),
                (1j, fk.BasisFn("gauss"), fk.BasisFn("gauss")),
                (1j, fk.BasisFn("gauss"), fk.BasisFn("gauss", 0.5)),
                (1j, fk.BasisFn("gauss", 0.5), fk.BasisFn("gauss", 0.5))],
         variant="plain", n=1, extra=1.0, phase=0.0, size=0.5)
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
    # The dense reference c_m = e_m, the elementary symmetric functions of the
    # eigenvalues of the entries; the trace recursion on the N x N entries
    # cancels sums of size |tr A|^k down to zero on a low-rank matrix.
    orders = np.arange(fk.fredholm.M_MAX + 1)
    c_dense = (-1.0) ** orders * np.poly(np.linalg.eigvals(m.entries))[orders]
    c_core = fk.fredholm_coefficients(m.core, fk.fredholm.M_MAX)
    assert np.max(np.abs(c_core - c_dense)) <= 1e-12 * np.max(np.abs(c_dense))


def test_entries_bit_identical_to_sampled_kernel(rank2, gcauchy, trunc):
    g, sech = fk.BasisFn("gauss"), fk.BasisFn("sech", 1.3, 0.2)
    complex_k = fk.KernelSpec("separable_sum", ((0.7 - 0.4j, g, sech), (0.3j, sech, g)))
    table = fk.KernelSpec("custom_tabulated", table_radius=3.0,
                          table_values=np.arange(16.0).reshape(4, 4) - 7.5)
    grid = fk.grid_on_interval(-5.0, 5.0, 2, 8)  # wider than tau_6 = 4
    x, w = grid.nodes, grid.weights
    for k in (table, gcauchy):
        for variant in VARIANTS:
            want = fk.subkernel_eval(k, trunc, 6, variant, x[:, None], x[None, :])
            want *= w
            got = fk.nystrom_matrix(k, trunc, 6, variant, grid).entries
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # A separable kernel holds only its factors; its entries are their product
    # (test_factored_core_matches_dense_entries ties them to the sampled kernel).
    for k in (rank2, complex_k):
        for variant in VARIANTS:
            m = fk.nystrom_matrix(k, trunc, 6, variant, grid)
            assert m.u is not None and "entries" not in vars(m)
            want = m.u @ m.vt
            assert m.entries.dtype == want.dtype and m.entries.tobytes() == want.tobytes()


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
    # The convergence sampling of a run grid follows the same rule.
    assert isinstance(_sampling(k, trunc, [1], np.empty(0), small), _FactoredRun)
    assert isinstance(_sampling(k12, trunc, [1], np.empty(0), tiny), _DenseRun)


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


@pytest.mark.parametrize("name", ["char_scan", "det_matrix", "det_series", "minor_series", "make_resolvent"])
def test_fredholm_routes_never_sample_separable_kernel_square(rank2, trunc, grid6, monkeypatch, name):
    # A separable kernel's Nystrom matrix holds only its factors, so no
    # Fredholm route samples K on the node grid squared (N = 256).
    shapes = record_square_samplings(monkeypatch, 64)
    if name == "char_scan":
        fk.char_scan(rank2, trunc, 6, (0.0, 2.0, -0.5, 0.5), 4.0, grid6)
    elif name == "det_matrix":
        fk.det_matrix(fk.nystrom_matrix(rank2, trunc, 6, "plain", grid6), 0.3)
    elif name == "det_series":
        fk.det_series(rank2, trunc, 6, 0.3, grid6, 6)
    elif name == "minor_series":
        fk.minor_series(rank2, trunc, 6, 0.3, 0.2, -0.4, grid6, 6)
    else:
        fk.make_resolvent(rank2, trunc, 6, 0.3, grid6)
    assert shapes == []


TABLE = fk.KernelSpec("custom_tabulated", table_radius=3.0,
                      table_values=np.cos(np.arange(25.0)).reshape(5, 5))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    k=st.one_of(st.lists(st.tuples(COEFF, BASIS, BASIS), min_size=1, max_size=12).map(
        lambda terms: fk.KernelSpec("separable_sum", tuple(terms))),
        st.just(fk.gauss_cauchy()), st.just(TABLE)),
    m_max=st.integers(1, fk.fredholm.M_MAX),
    n=st.integers(1, 6),
    extra=st.floats(0.0, 2.0),
    size=st.floats(0.0, 1.5),
    phase=st.floats(0.0, 2.0 * math.pi),
)
def test_series_tail_bound_covers_matrix_determinant(k, m_max, n, extra, size, phase):
    # The Hadamard tail bounds the whole dropped series, so the partial sum
    # stays within it of the determinant, up to rounding.
    trunc = fk.TruncationScheme()
    tau = trunc.tau(n)
    grid = fk.grid_on_interval(-(tau + extra), tau + extra, 1, 8)
    lam = size * complex(math.cos(phase), math.sin(phase))
    ds = fk.det_series(k, trunc, n, lam, grid, m_max)
    det = fk.det_matrix(fk.nystrom_matrix(k, trunc, n, "plain", grid), lam).value
    assert abs(ds.value - det) <= ds.tail_bound + 1e-12 * max(1.0, abs(det))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_hadamard_base_within_sup_times_length(rank2, gcauchy, trunc, n):
    # On a grid spanning (-tau_n, tau_n), sum_j max_i |A_ij| is at most
    # sup |K_n| sum_j w_j = sup |K_n| 2 tau_n.
    grid = fk.build_grid(trunc, n, 4, 8)
    x = grid.nodes
    for k in (rank2, gcauchy, TABLE):
        sup_k = np.max(np.abs(fk.subkernel_eval(k, trunc, n, "plain", x[:, None], x[None, :])))
        tail = fk.det_series(k, trunc, n, 0.3, grid, 6).tail_bound
        assert tail <= _hadamard_tail(0.3 * sup_k * 2.0 * trunc.tau(n), 6)


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


def hadamard_tail_reference(base, m_max):
    """The Hadamard tail summed term by term to 2000 terms, as it was before
    the geometric stop."""
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
        want = hadamard_tail_reference(base, m_max)
        got = _hadamard_tail(base, m_max)
        if math.isinf(want):
            assert math.isinf(got), base
        else:
            assert abs(got - want) <= 1e-14 * want, base
            assert got >= want, base  # still an upper bound
