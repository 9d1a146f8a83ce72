"""Resolvent kernels for truncated kernels and, through the Neumann series,
for the full kernel inside its disk of convergence.

A handle built at (kernel, n, lambda) evaluates the resolvent kernel anywhere
via the collocation extension
    R(s,t) = K_n(s,t) + lambda * (K_n(s,.) W) (I - lambda*A)^{-1} K_n(.,t),
which is an O(node^2) evaluation once (I - lambda*A) has been factorized.
The minor/determinant quotient route lives in `fredholm` and is kept for
cross-validation.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .errors import CharacteristicValueError, NeumannDivergenceError
from .fredholm import DetResult, det_from_lu, is_characteristic, shifted_identity
from .kernels import VARIANTS, KernelSpec, TruncationScheme, eval_kernel, subkernel_eval
from .quadrature import (
    Discretization,
    NystromMatrix,
    dense_nystrom_matrix,
    matrix_norm_estimate,
)

PROBE_SHIFTS = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)


@dataclass(frozen=True, eq=False)
class ResolventHandle:
    """Factorized resolvent of a truncated kernel at a regular lambda.

    det_scale = 1 is the genuine resolvent; other values emulate a perturbed
    determinant in the minor/det quotient (negative-control diagnostics only).
    """

    kernel: KernelSpec
    trunc: TruncationScheme
    n: int
    lam: complex
    det: DetResult
    matrix: NystromMatrix
    lu: tuple
    variant: str
    det_scale: float = 1.0

    @property
    def grid(self) -> Discretization:
        return self.matrix.grid

    def with_det_scaled(self, factor: float) -> "ResolventHandle":
        """Negative control: evaluations behave as if det were scaled by factor."""
        return replace(self, det_scale=self.det_scale * factor)

    def _plain(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return subkernel_eval(self.kernel, self.trunc, self.n, "plain", a[:, None], b[None, :])

    def _solve(self, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        """(I - lambda*A)^{-1} rhs (trans=1: transposed), in the factor's own arithmetic."""
        return _apply_linear(lambda b: lu_solve(self.lu, b, trans=trans), rhs, np.isrealobj(self.lu[0]))

    def columns_at(self, t) -> np.ndarray:
        """Resolvent kernel at (nodes, t): the solution of the second-kind
        system with right-hand side K_n(., t).  Shape (N,) or (N, len(t))."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        sol = self._solve(self._plain(self.grid.nodes, t_arr)).astype(complex, copy=False)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return sol[:, 0]
        return sol

    def eval_grid_matrix(self, s_pts, t_pts) -> np.ndarray:
        """Resolvent kernel values on the product grid s_pts x t_pts.

        The system is solved from the smaller side: for len(s_pts) <
        len(t_pts) the rows (K_n(s,.) W) (I - lambda*A)^{-1} come from the
        transposed LU solve, otherwise the columns as in `columns_at`.
        """
        s_arr = np.atleast_1d(np.asarray(s_pts, dtype=float))
        t_arr = np.atleast_1d(np.asarray(t_pts, dtype=float))
        x = self.grid.nodes
        return self._extend(self._plain(s_arr, x), self._plain(x, t_arr), self._plain(s_arr, t_arr),
                            t_arr)

    def _extend(self, k_sx, k_xt, k_st, t_arr) -> np.ndarray:
        """`eval_grid_matrix` from the plain truncated kernel sampled on
        s x nodes, nodes x t and s x t; k_sx is scaled in place."""
        rows_w = k_sx
        rows_w *= self.grid.weights
        if len(rows_w) < len(t_arr):
            vals = self.lam * (self._solve(rows_w.T, trans=1).T @ k_xt)
        else:
            vals = self.lam * (rows_w @ self._solve(k_xt))
        vals += k_st
        vals /= self.det_scale
        if self.variant == "tilde":
            vals *= self.trunc.chi(self.n, t_arr)
        return vals

    def apply(self, g: np.ndarray) -> np.ndarray:
        """Resolvent operator applied to a function sampled on the handle grid.

        The tilde resolvent kernel is the plain one masked in its second
        variable, so as an operator it is the plain resolvent composed with
        the projection onto (-tau_n, tau_n).
        """
        g = np.asarray(g, dtype=complex)
        if self.variant == "tilde":
            g = g * self.trunc.chi(self.n, self.grid.nodes)
        u = _apply_linear(lambda b: self.matrix.entries @ lu_solve(self.lu, b), g,
                          np.isrealobj(self.lu[0]))
        return u / self.det_scale


def _apply_linear(fn, b: np.ndarray, real: bool) -> np.ndarray:
    """fn(b) for a linear map fn on vectors or column blocks.  When fn is
    real (a real LU factor or matrix) and b complex, fn runs once on the real
    columns [Re b | Im b], so its N^2 operands are never upcast to complex."""
    if not real or not np.iscomplexobj(b):
        return fn(b)
    cols = b.reshape(len(b), -1)
    k = cols.shape[1]
    x = fn(np.concatenate([cols.real, cols.imag], axis=1))
    out = x[:, :k] + 1j * x[:, k:]
    return out.reshape(out.shape[:1] + b.shape[1:])


def _variant_entries(h: ResolventHandle) -> np.ndarray:
    if h.variant == "plain":
        return h.matrix.entries
    chi = h.trunc.chi(h.n, h.grid.nodes)
    return h.matrix.entries * chi[None, :]


def make_resolvent(k: KernelSpec, trunc: TruncationScheme, n: int, lam: complex, grid: Discretization,
                   variant: str = "plain") -> ResolventHandle:
    """Build a resolvent handle; lambda must not be numerically characteristic."""
    return _factor(k, trunc, n, lam, dense_nystrom_matrix(k, trunc, n, "plain", grid), variant)


def _factor(
    k: KernelSpec, trunc: TruncationScheme, n: int, lam: complex, m: NystromMatrix, variant: str
) -> ResolventHandle:
    """The handle of `make_resolvent` for a given plain Nystrom matrix m of
    K_n on its grid: factor I - lambda*A and refuse a characteristic lambda."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    lam = complex(lam)
    lu_piv, value = _shifted_factor(m.entries, lam)
    det = DetResult(value=value, path="matrix", terms_used=0)
    return ResolventHandle(kernel=k, trunc=trunc, n=n, lam=lam, det=det, matrix=m, lu=lu_piv, variant=variant)


def _shifted_factor(a: np.ndarray, lam: complex):
    """LU factors of I - lambda*a and det(I - lambda*a), refusing a
    numerically characteristic lambda.  An exactly zero pivot, which a small
    core can reach, is det = 0 and raises no singular-matrix warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu_piv = lu_factor(shifted_identity(a, lam), overwrite_a=True, check_finite=False)
    det = det_from_lu(*lu_piv)
    if is_characteristic(det, lam):
        raise CharacteristicValueError(lam, det)
    return lu_piv, det


def resolvent_eval(h: ResolventHandle, s: float, t: float) -> complex:
    """Resolvent kernel value at one point; vanishes identically for
    |s| >= tau_n, and the tilde variant also for |t| >= tau_n."""
    return complex(h.eval_grid_matrix(np.array([s]), np.array([t]))[0, 0])


@dataclass(frozen=True, eq=False)
class ResolventCarleman:
    """One row or column function of a resolvent kernel, sampled on a grid.

    direction "row" holds conj(R(anchor, .)); "column" holds R(., anchor).
    """

    direction: str
    anchor: float
    samples: np.ndarray
    grid: Discretization


def resolvent_carleman(
    h: ResolventHandle, direction: str, anchor: float, grid: Discretization
) -> ResolventCarleman:
    if direction not in ("row", "column"):
        raise ValueError(f"direction must be 'row' or 'column', got {direction!r}")
    if direction == "row":
        samples = np.conj(h.eval_grid_matrix(np.array([anchor]), grid.nodes)[0, :])
    else:
        samples = h.eval_grid_matrix(grid.nodes, np.array([anchor]))[:, 0]
    return ResolventCarleman(direction=direction, anchor=float(anchor), samples=samples, grid=grid)


def residual_check(h: ResolventHandle, grid_eval: Discretization):
    """Sup-norm residuals of the two defining second-kind kernel equations,
    evaluated over grid_eval x grid_eval with the handle's own quadrature:

        r_left  = sup |R(s,t) - lambda (T_n o R)(s,t) - T_n(s,t)|
        r_right = sup |R(s,t) - lambda (R o T_n)(s,t) - T_n(s,t)|
    """
    e = grid_eval.nodes
    x = h.grid.nodes
    w = h.grid.weights
    k, trunc, n, lam = h.kernel, h.trunc, h.n, h.lam
    variant = h.variant

    # One column solve serves the (e, e) and (x, e) blocks.
    r_ee, r_xe = np.split(h.eval_grid_matrix(np.concatenate([e, x]), e), [len(e)])
    r_ex = h.eval_grid_matrix(e, x)

    base = subkernel_eval(k, trunc, n, variant, e[:, None], e[None, :])
    t_ex = subkernel_eval(k, trunc, n, variant, e[:, None], x[None, :])
    t_xe = subkernel_eval(k, trunc, n, variant, x[:, None], e[None, :])

    left = r_ee - lam * (t_ex * w[None, :]) @ r_xe - base
    right = r_ee - lam * (r_ex * w[None, :]) @ t_xe - base
    return float(np.max(np.abs(left))), float(np.max(np.abs(right)))


def solve_equation(h: ResolventHandle, g: np.ndarray, grid: Discretization | None = None):
    """Solve f - lambda*T_n f = g for g sampled on the handle's grid, through
    the resolvent representation f = g + lambda * (resolvent applied to g)."""
    g = np.asarray(g, dtype=complex)
    if grid is not None and not np.array_equal(grid.nodes, h.grid.nodes):
        raise ValueError("grid must match the handle's quadrature grid")
    if g.shape != h.grid.nodes.shape:
        raise ValueError("g must be sampled on the handle's grid")
    return g + h.lam * h.apply(g)


def second_resolvent_residual(ha: ResolventHandle, hb: ResolventHandle) -> float:
    """Residual of the two-operator resolvent identity
        R_a - R_b = (I + lambda R_a)(T_a - T_b)(I + lambda R_b)
    applied to a fixed probe basis of sampled Gaussians; both handles must
    share lambda and grid."""
    if ha.lam != hb.lam:
        raise ValueError("handles must share lambda")
    if not np.array_equal(ha.grid.nodes, hb.grid.nodes):
        raise ValueError("handles must share the quadrature grid")
    x = ha.grid.nodes
    w = ha.grid.weights
    lam = ha.lam
    diff = _variant_entries(ha) - _variant_entries(hb)
    worst = 0.0
    for shift in PROBE_SHIFTS:
        g = np.exp(-((x - shift) ** 2)).astype(complex)
        lhs = ha.apply(g) - hb.apply(g)
        v = g + lam * hb.apply(g)
        v = _apply_linear(diff.__matmul__, v, np.isrealobj(diff))
        rhs = v + lam * ha.apply(v)
        worst = max(worst, float(np.sqrt(np.sum(w * np.abs(lhs - rhs) ** 2).real)))
    return worst


@dataclass(frozen=True)
class NeumannValue:
    value: complex
    tail_bound: float
    terms: int


def _check_disk(lam: complex, norm_t: float) -> None:
    """Raise NeumannDivergenceError unless |lambda| * ||T|| < 1."""
    if abs(complex(lam)) * norm_t >= 1.0:
        raise NeumannDivergenceError(lam, norm_t)


def _neumann_matrix(lam: complex, kv: np.ndarray, weights: np.ndarray):
    """Full-kernel collocation matrix kv * W and its norm estimate, raising
    NeumannDivergenceError unless |lambda| * ||T|| < 1."""
    a = kv * weights
    norm_t = matrix_norm_estimate(a, weights)
    _check_disk(lam, norm_t)
    return a, norm_t


def neumann_full(
    k: KernelSpec, lam: complex, s: float, t: float, disc: Discretization, n_terms: int
) -> NeumannValue:
    """Partial Neumann series sum_{j=1..n_terms} lambda^{j-1} K^{[j]}(s,t) of the
    full (untruncated) resolvent kernel, with the geometric tail bound
    sup_tau' * sup_tau * (|lambda| ||T||)^{n_terms-1} / (1 - |lambda| ||T||).

    Requires |lambda| * ||T|| < 1.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    x, w = disc.nodes, disc.weights
    kv = eval_kernel(k, x[:, None], x[None, :])  # the one sampling: matrix, norm and Carleman sups
    a, norm_t = _neumann_matrix(lam, kv, w)
    value = neumann_kernel_matrix(k, lam, s, t, disc, n_terms, _matrix=a)[0, 0]
    rate = abs(complex(lam)) * norm_t
    sq = np.abs(kv) ** 2
    sup_row = float(np.max(np.sqrt(np.sum(w[None, :] * sq, axis=1).real)))
    sup_col = float(np.max(np.sqrt(np.sum(w[:, None] * sq, axis=0).real)))
    tail = sup_row * sup_col * rate ** (n_terms - 1) / (1.0 - rate)
    return NeumannValue(value=complex(value), tail_bound=float(tail), terms=n_terms)


def neumann_kernel_matrix(k: KernelSpec, lam: complex, s_pts, t_pts, disc: Discretization, n_terms: int,
                          _matrix: np.ndarray | None = None) -> np.ndarray:
    """Vectorized partial Neumann series on the product grid s_pts x t_pts:

        K(s,t) + sum_{j=2..n_terms} lambda^{j-1} R A^{j-2} C,

    with R = K(s_pts, x) W, A = K(x, x) W and C = K(x, t_pts) on disc.  The
    lambda-independent chain R A^i (or A^i C) runs on the smaller side of the
    product grid and is summed with the powers of lambda as it goes; the other
    outer factor is applied once at the end.  The chain is real for real
    kernels.

    _matrix optionally reuses the matrix `_neumann_matrix` returned for the
    same kernel, lambda and disc.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    x = disc.nodes
    if _matrix is None:
        _matrix = _neumann_matrix(lam, eval_kernel(k, x[:, None], x[None, :]), disc.weights)[0]
    s_arr = np.atleast_1d(np.asarray(s_pts, dtype=float))
    t_arr = np.atleast_1d(np.asarray(t_pts, dtype=float))
    rows_w = eval_kernel(k, s_arr[:, None], x[None, :])
    rows_w *= disc.weights
    cols = eval_kernel(k, x[:, None], t_arr[None, :])
    direct = eval_kernel(k, s_arr[:, None], t_arr[None, :])
    return _neumann_sums([lam], rows_w, _matrix, cols, direct, n_terms)[0]


def _neumann_sums(lams, rows_w, a, cols, direct, n_terms: int) -> list:
    """The series of `neumann_kernel_matrix` from its samples, rows_w =
    K(s,x) W, a = K(x,x) W, cols = K(x,t) and direct = K(s,t), for each
    lambda of lams.  One lambda-independent chain serves every lambda, each
    with its own accumulator.

    The chain is rescaled by exact powers of two (`_rescaled`) and their
    exponent is folded into the coefficient lambda^j (`_scaled_power`), so a
    chain A^i C that grows or decays past the float range while |lambda|
    ||T|| < 1 neither overflows nor underflows.  Where the coefficient lam**j
    is a normal float, each term rounds exactly as the unscaled product."""
    lams = [complex(lam) for lam in lams]
    total = np.asarray(direct, dtype=complex)
    if n_terms == 1:
        return [total] * len(lams)
    row_side = len(rows_w) <= cols.shape[1]
    chain, exponent = _rescaled(rows_w if row_side else cols)
    accs = [_scaled_power(lam, 1, exponent) * chain for lam in lams]
    for j in range(2, n_terms):
        chain, shift = _rescaled(chain @ a if row_side else a @ chain)
        exponent += shift
        for lam, acc in zip(lams, accs):
            acc += _scaled_power(lam, j, exponent) * chain
    return [total + (acc @ cols if row_side else rows_w @ acc) for acc in accs]


def _rescaled(x: np.ndarray):
    """(x 2^-e, e) with e the binary exponent of max|x| when that leaves
    [2^-64, 2^64], else (x, 0).  The range lies far inside the float range,
    so one more step of a chain cannot carry it past either end."""
    e = math.frexp(float(np.max(np.abs(x), initial=0.0)))[1]
    if abs(e) <= 64:
        return x, 0
    if np.iscomplexobj(x):
        return np.ldexp(x.real, -e) + 1j * np.ldexp(x.imag, -e), e
    return np.ldexp(x, -e), e


def _scaled_power(lam: complex, j: int, e: int) -> complex:
    """lambda^j 2^e.  When lam**j is a normal float this is lam**j scaled
    exactly by 2^e; past the float range of lam**j it is formed through
    logarithms."""
    if lam == 0:
        return 0j
    try:
        p = lam**j if j > 1 else lam
    except OverflowError:
        p = complex(math.inf)
    if cmath.isfinite(p) and max(abs(p.real), abs(p.imag)) >= sys.float_info.min:
        return complex(math.ldexp(p.real, e), math.ldexp(p.imag, e))
    return cmath.exp(j * cmath.log(lam) + e * math.log(2.0))
