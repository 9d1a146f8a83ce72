"""Kernel evaluation, norm functions, subkernels, and iterated kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredkern as fk
from conftest import GAUSS_FULL, XGAUSS_FULL, gauss_overlap, is_oracle_backed, project

POINTS = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)


def test_eval_gauss_rank1_examples(rank1):
    assert fk.eval_kernel(rank1, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert fk.eval_kernel(rank1, 1.0, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_eval_odd_kernel_zero_factor(odd):
    assert fk.eval_kernel(odd, 2.0, 0.0) == 0.0


def test_eval_vectorized_matches_scalar(rank2):
    s = np.array([0.0, 0.5, -1.0])
    t = np.array([0.3, -0.2, 2.0])
    mat = fk.eval_kernel(rank2, s[:, None], t[None, :])
    for i, si in enumerate(s):
        for j, tj in enumerate(t):
            assert mat[i, j] == pytest.approx(fk.eval_kernel(rank2, si, tj), abs=1e-15)


def test_builtins_finite_and_vanishing():
    probes = [0.0, 1.0, -3.5, 8.0, -8.0, 12.0]
    for maker in (fk.gauss_rank1, fk.odd_rank1, fk.rank2_orthogonal, fk.gauss_cauchy):
        k = maker()
        for s in probes:
            for t in probes:
                v = fk.eval_kernel(k, s, t)
                assert np.isfinite(v.real) and np.isfinite(v.imag)
                if max(abs(s), abs(t)) >= 8.0:
                    assert abs(v) < 1e-12


def test_carleman_norm_row_oracle(rank1, disc8):
    # ||K(0,.)|| = (int e^{-2t^2})^{1/2}; at s=1 an extra factor e^{-1}.
    expected0 = math.sqrt(GAUSS_FULL)
    assert fk.carleman_norm(rank1, 0.0, disc8, "row") == pytest.approx(expected0, abs=1e-10)
    assert fk.carleman_norm(rank1, 1.0, disc8, "row") == pytest.approx(
        math.exp(-1.0) * expected0, abs=1e-10
    )


def test_carleman_norm_zero_kernel(zero, disc8):
    assert fk.carleman_norm(zero, 0.7, disc8, "row") == 0.0
    assert fk.carleman_norm(zero, 0.7, disc8, "column") == 0.0


def test_carleman_norm_row_column_coincide_for_hermitian(rank2, gcauchy, disc8):
    for k in (rank2, gcauchy):
        for s in (0.0, 0.8, -1.7):
            row = fk.carleman_norm(k, s, disc8, "row")
            col = fk.carleman_norm(k, s, disc8, "column")
            assert row == pytest.approx(col, abs=1e-13)


def test_carleman_norm_column_asymmetric(odd, disc8):
    # Row at s: |u(s)| * ||v||; column at s: |v(s)| * ||u||.
    row = fk.carleman_norm(odd, 0.5, disc8, "row")
    col = fk.carleman_norm(odd, 0.5, disc8, "column")
    u05 = math.exp(-0.25)
    v05 = 0.5 * math.exp(-0.25)
    assert row == pytest.approx(u05 * math.sqrt(XGAUSS_FULL), abs=1e-10)
    assert col == pytest.approx(v05 * math.sqrt(GAUSS_FULL), abs=1e-10)


def test_subkernel_masking_examples(rank1, trunc):
    # tau_2 = 2 under the default scheme.
    assert trunc.tau(2) == pytest.approx(2.0)
    assert fk.subkernel_eval(rank1, trunc, 2, "plain", 3.0, 0.0) == 0.0
    assert fk.subkernel_eval(rank1, trunc, 2, "tilde", 1.0, 3.0) == 0.0
    val = fk.subkernel_eval(rank1, trunc, 2, "plain", 1.0, 3.0)
    assert val == pytest.approx(math.exp(-10.0), rel=1e-12)


def test_subkernel_boundary_is_outside(rank1, trunc):
    # The interval is open: |s| == tau_n already masks.
    assert fk.subkernel_eval(rank1, trunc, 2, "plain", 2.0, 0.0) == 0.0
    assert fk.subkernel_eval(rank1, trunc, 2, "tilde", 0.0, -2.0) == 0.0


@settings(max_examples=200, derandomize=True)
@given(s=POINTS, t=POINTS, n=st.integers(min_value=1, max_value=12))
def test_subkernel_domination(s, t, n):
    k = fk.rank2_orthogonal()
    trunc = fk.TruncationScheme()
    full = abs(fk.eval_kernel(k, s, t))
    assert abs(fk.subkernel_eval(k, trunc, n, "plain", s, t)) <= full
    assert abs(fk.subkernel_eval(k, trunc, n, "tilde", s, t)) <= full


def test_subkernel_uniform_convergence(rank1, trunc):
    pts = np.linspace(-10.0, 10.0, 161)
    full = np.asarray(fk.eval_kernel(rank1, pts[:, None], pts[None, :]))
    sups = []
    for n in range(1, 15):
        sub = np.asarray(fk.subkernel_eval(rank1, trunc, n, "plain", pts[:, None], pts[None, :]))
        sups.append(np.max(np.abs(sub - full)))
    assert all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))
    # tau_14 = 8 under the default scheme.
    assert sups[-1] < 1e-10


@settings(max_examples=150, derandomize=True)
@given(s=POINTS, t=POINTS)
def test_hermitian_symmetry(s, t):
    trunc = fk.TruncationScheme()
    for k in (fk.gauss_rank1(), fk.rank2_orthogonal(), fk.gauss_cauchy()):
        assert k.hermitian
        v = fk.eval_kernel(k, s, t)
        w = fk.eval_kernel(k, t, s)
        assert abs(v - np.conj(w)) <= 1e-14
        vt = fk.subkernel_eval(k, trunc, 3, "tilde", s, t)
        wt = fk.subkernel_eval(k, trunc, 3, "tilde", t, s)
        assert abs(vt - np.conj(wt)) <= 1e-14


def test_iterant_rank1_oracle(rank1, disc8):
    c = gauss_overlap()
    assert fk.iterant_eval(rank1, 2, 0.0, 0.0, disc8) == pytest.approx(c, abs=1e-10)
    assert fk.iterant_eval(rank1, 3, 0.0, 0.0, disc8) == pytest.approx(c * c, abs=1e-10)
    # General point: T^[2](s,t) = c * K(s,t).
    st_val = fk.iterant_eval(rank1, 2, 0.7, -1.1, disc8)
    assert st_val == pytest.approx(c * fk.eval_kernel(rank1, 0.7, -1.1), abs=1e-10)


def test_iterant_nilpotent(odd, disc8):
    for s, t in ((0.0, 0.0), (1.0, -0.5), (0.3, 2.0)):
        assert abs(fk.iterant_eval(odd, 2, s, t, disc8)) < 1e-14


def test_iterant_semigroup(rank1, disc8):
    # Composing the 2nd iterant with the kernel reproduces the 3rd iterant.
    x, w = disc8.nodes, disc8.weights
    for s, t in ((0.0, 0.0), (0.5, -1.0)):
        it2_vals = np.array([fk.iterant_eval(rank1, 2, s, xi, disc8) for xi in x])
        k_vals = np.asarray(fk.eval_kernel(rank1, x, t))
        composed = np.sum(it2_vals * w * k_vals)
        assert composed == pytest.approx(fk.iterant_eval(rank1, 3, s, t, disc8), abs=1e-8)


def test_iterant_requires_m_at_least_two(rank1, disc8):
    with pytest.raises(ValueError):
        fk.iterant_eval(rank1, 1, 0.0, 0.0, disc8)


def test_truncation_radii_strictly_increase():
    arith = fk.TruncationScheme()
    geom = fk.TruncationScheme(tau0=0.5, growth="geometric", ratio=1.3)
    for scheme in (arith, geom):
        taus = [scheme.tau(n) for n in range(1, 40)]
        assert all(b > a for a, b in zip(taus, taus[1:]))


def test_truncation_validation():
    with pytest.raises(fk.ConfigError):
        fk.TruncationScheme(tau0=-1.0)
    with pytest.raises(fk.ConfigError):
        fk.TruncationScheme(growth="geometric", ratio=0.9)
    with pytest.raises(fk.ConfigError):
        fk.TruncationScheme(growth="linear")


def test_basis_fn_validation():
    with pytest.raises(fk.ConfigError):
        fk.BasisFn("gauss", scale=0.0)
    with pytest.raises(fk.ConfigError):
        fk.BasisFn("gauss", scale=math.nan)
    with pytest.raises(fk.ConfigError):
        fk.BasisFn("spike")


def test_kernel_spec_validation():
    g = fk.BasisFn("gauss")
    with pytest.raises(fk.ConfigError):
        fk.KernelSpec("separable_sum", ((complex("inf"), g, g),))
    with pytest.raises(fk.ConfigError):
        fk.KernelSpec("mystery")


def test_tabulated_kernel_interpolates_and_is_non_oracle(rank1):
    axis = np.linspace(-6.0, 6.0, 241)
    table = np.asarray(fk.eval_kernel(rank1, axis[:, None], axis[None, :]))
    kt = fk.KernelSpec(
        "custom_tabulated", hermitian=True, table_radius=6.0, table_values=table
    )
    assert not is_oracle_backed(kt)
    # Exact at table nodes, close between them, zero outside.
    assert fk.eval_kernel(kt, axis[3], axis[7]) == pytest.approx(
        fk.eval_kernel(rank1, axis[3], axis[7]), abs=1e-14
    )
    assert fk.eval_kernel(kt, 0.513, -0.207) == pytest.approx(
        fk.eval_kernel(rank1, 0.513, -0.207), abs=1e-3
    )
    assert fk.eval_kernel(kt, 7.0, 0.0) == 0.0


def test_projection_helper(trunc):
    nodes = np.linspace(-5.0, 5.0, 21)
    vals = np.exp(-nodes**2)
    proj = project(trunc, 2, nodes, vals)
    assert np.all(proj[np.abs(nodes) >= 2.0] == 0.0)
    inside = np.abs(nodes) < 2.0
    assert np.allclose(proj[inside], vals[inside])


def _random_separable(rng, rank):
    kinds = ("gauss", "x_gauss", "sech")

    def basis():
        return fk.BasisFn(kinds[rng.integers(3)], rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5))

    coeffs = rng.uniform(-1.5, 1.5, rank) + 1j * rng.uniform(-1.5, 1.5, rank)
    return fk.KernelSpec("separable_sum", tuple((c, basis(), basis()) for c in coeffs))


def test_eval_kernel_dtype(rank2, gcauchy):
    s = np.linspace(-3.0, 3.0, 7)
    g = fk.BasisFn("gauss")
    complex_coeff = fk.KernelSpec("separable_sum", ((1.0, g, g), (0.5j, g, g)))
    table = np.exp(-np.add.outer(s * s, s * s))
    real_table = fk.KernelSpec("custom_tabulated", table_radius=3.0, table_values=table)
    complex_table = fk.KernelSpec("custom_tabulated", table_radius=3.0, table_values=table * 1j)
    for k, dtype in ((rank2, np.float64), (gcauchy, np.float64), (real_table, np.float64),
                     (complex_coeff, np.complex128), (complex_table, np.complex128)):
        assert fk.eval_kernel(k, s[:, None], s[None, :]).dtype == dtype
        assert fk.eval_kernel(k, 0.3, s).dtype == dtype
        scalar = fk.eval_kernel(k, 0.3, -0.2)
        assert type(scalar) is (float if dtype == np.float64 else complex)


def test_gauss_cauchy_values_unchanged(gcauchy):
    s = np.linspace(-5.0, 5.0, 41)
    got = fk.eval_kernel(gcauchy, s[:, None], s[None, :])
    want = np.exp(-(s[:, None] ** 2 + s[None, :] ** 2)) / (1.0 + (s[:, None] - s[None, :]) ** 2)
    assert np.array_equal(got, want)


def test_separable_product_matches_term_sum():
    # Rank 1-12 complex-coefficient kernels against the explicit term sum,
    # relative to the size of the terms, in every broadcast layout.
    rng = np.random.default_rng(7)
    s = np.linspace(-4.0, 4.0, 37)
    t = np.linspace(-3.5, 4.5, 29)
    for rank in range(1, 13):
        k = _random_separable(rng, rank)
        terms = [complex(c) * left(s)[:, None] * right(t)[None, :] for c, left, right in k.terms]
        want = np.sum(terms, axis=0)
        scale = np.max(np.sum(np.abs(terms), axis=0))
        grid = fk.eval_kernel(k, s[:, None], t[None, :])
        rows = np.array([fk.eval_kernel(k, si, t) for si in s])
        swapped = fk.eval_kernel(k, s[None, :], t[:, None]).T
        flat = fk.eval_kernel(k, np.repeat(s, len(t)), np.tile(t, len(s))).reshape(want.shape)
        for got in (grid, rows, swapped, flat):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * scale
        # A one-row grid and scalar x vector go through the same product.
        for si in s[::6]:
            one_row = fk.eval_kernel(k, np.array([[si]]), t[None, :])[0]
            assert np.array_equal(one_row, fk.eval_kernel(k, si, t))
