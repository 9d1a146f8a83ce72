"""Composite Gauss-Legendre grids on truncation intervals, Nystrom matrices
for the truncated kernels, and operator/tail norm estimates.

The discrete stand-in for an integral operator with kernel K on a grid
(x_i, w_i) is the matrix A[i,j] = K(x_i, x_j) * w_j; its operator norm on the
weighted l^2 space is the top singular value of W^{1/2} K W^{1/2}, estimated
here by deterministic power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ConfigError
from .kernels import VARIANTS, KernelSpec, TruncationScheme, eval_kernel, subkernel_eval

SUPPORTED_ORDERS = (4, 8, 16)
_LEGGAUSS = {order: np.polynomial.legendre.leggauss(order) for order in SUPPORTED_ORDERS}

# Most quadrature nodes a grid may have (an N x N complex matrix at the ceiling
# takes 268 MB); larger requests raise BudgetExceededError before allocating.
DEFAULT_NODE_CEILING = 4096


@dataclass(frozen=True, eq=False)
class Discretization:
    """Composite quadrature grid over (lo, hi): strictly increasing nodes,
    positive weights."""

    nodes: np.ndarray
    weights: np.ndarray
    panel_count: int
    order: int
    lo: float
    hi: float

    @property
    def radius(self) -> float:
        return float(max(abs(self.lo), abs(self.hi)))


@dataclass(frozen=True, eq=False)
class NystromMatrix:
    """Dense collocation matrix A[i,j] = K_variant(x_i, x_j) * w_j."""

    entries: np.ndarray
    variant: str
    grid: Discretization


def gauss_legendre_panels(a: float, b: float, panels: int, order: int):
    """Nodes and weights of composite Gauss-Legendre quadrature on (a, b)."""
    if order not in SUPPORTED_ORDERS:
        raise ConfigError("quadrature.order", f"order must be one of {SUPPORTED_ORDERS}")
    if panels < 1:
        raise ConfigError("quadrature.panels", "need at least one panel")
    xi, wi = _LEGGAUSS[order]
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfs[:, None] * xi[None, :]).ravel()
    weights = (halfs[:, None] * wi[None, :]).ravel()
    return nodes, weights


def grid_on_interval(a: float, b: float, panels_per_unit: int, order: int) -> Discretization:
    """Composite grid on (a, b) with roughly panels_per_unit panels per unit
    length; at most DEFAULT_NODE_CEILING nodes."""
    span = (b - a) * panels_per_unit - 1e-9
    # Compared before rounding, so a huge or non-finite span never reaches int().
    if not span * order <= DEFAULT_NODE_CEILING:
        raise BudgetExceededError(
            f"a grid on ({a:.6g}, {b:.6g}) with {panels_per_unit} panels per unit and order "
            f"{order} exceeds the ceiling of {DEFAULT_NODE_CEILING} nodes"
        )
    panels = max(1, int(math.ceil(span)))
    nodes, weights = gauss_legendre_panels(a, b, panels, order)
    return Discretization(
        nodes=nodes, weights=weights, panel_count=panels, order=order, lo=float(a), hi=float(b)
    )


def build_grid(trunc: TruncationScheme, n: int, panels_per_unit: int, order: int) -> Discretization:
    """Grid on the truncation interval (-tau_n, tau_n)."""
    if panels_per_unit < 1:
        raise ConfigError("quadrature.panels_per_unit", "must be >= 1")
    tau = trunc.tau(n)
    return grid_on_interval(-tau, tau, panels_per_unit, order)


def nystrom_matrix(
    k: KernelSpec, trunc: TruncationScheme, n: int, variant: str, grid: Discretization
) -> NystromMatrix:
    """Collocation matrix of the truncated kernel on the grid.  The grid must
    cover (-tau_n, tau_n); a wider grid (built for a larger index) is fine,
    the mask then zeroes the out-of-interval rows/columns."""
    if grid.radius + 1e-12 < trunc.tau(n):
        raise ValueError(
            f"grid radius {grid.radius:.6g} does not cover tau_n={trunc.tau(n):.6g}"
        )
    x = grid.nodes
    vals = np.asarray(subkernel_eval(k, trunc, n, variant, x[:, None], x[None, :]))
    vals *= grid.weights
    return NystromMatrix(entries=vals, variant=variant, grid=grid)


def full_matrix(k: KernelSpec, grid: Discretization) -> np.ndarray:
    """Collocation matrix of the untruncated kernel (no mask)."""
    x = grid.nodes
    vals = eval_kernel(k, x[:, None], x[None, :])
    vals *= grid.weights
    return vals


def top_singular_value(apply, apply_h, dim: int, iters: int = 200, rtol: float = 1e-12) -> float:
    """Largest singular value by power iteration on the normal operator.

    apply/apply_h map vectors through B and B^H.  Starts from the all-ones
    vector and stops after `iters` rounds or when the estimate's relative
    change drops below `rtol`.  Deterministic.
    """
    v = np.ones(dim)  # real, so a real operator iterates in real arithmetic
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        u = apply(v)
        su = np.linalg.norm(u)
        if not np.isfinite(su):
            return math.inf
        if su == 0.0:
            return 0.0
        v = apply_h(u)
        sv = np.linalg.norm(v)
        if not np.isfinite(sv):
            return math.inf
        if sv == 0.0:
            return 0.0
        sigma_new = math.sqrt(sv)
        v /= sv
        if sigma > 0 and abs(sigma_new - sigma) <= rtol * sigma:
            return sigma_new
        sigma = sigma_new
    return sigma


def _weighted_form(entries: np.ndarray, w_row: np.ndarray, w_col: np.ndarray) -> np.ndarray:
    # entries = K * W_col; the L^2 operator form is W_row^{1/2} K W_col^{1/2}.
    sr = np.sqrt(w_row)
    sc = np.sqrt(w_col)
    return sr[:, None] * entries / sc[None, :]


def operator_norm_estimate(m: NystromMatrix) -> float:
    """Operator norm (top singular value) of the discretized integral operator."""
    return matrix_norm_estimate(m.entries, m.grid.weights)


def matrix_norm_estimate(entries: np.ndarray, weights: np.ndarray) -> float:
    """Operator norm for a raw collocation matrix (entries = K * W)."""
    b = _weighted_form(entries, weights, weights)
    bh = b.conj().T
    return top_singular_value(lambda v: b @ v, lambda u: bh @ u, b.shape[1])


def tail_norm(
    k: KernelSpec,
    trunc: TruncationScheme,
    n: int,
    m: int,
    grid_outer: Discretization,
    variant: str = "plain",
) -> float:
    """Operator norm of (T - T_n) T_n^m (variant "plain"), or of the analogue
    with both-sided truncation (variant "tilde").

    The composite kernel is supported on |s| >= tau_n in the first variable and
    is assembled from an annulus grid there, the interval grid on
    (-tau_n, tau_n) for the inner convolutions, and grid_outer for the second
    variable; grid_outer should reach past 2*tau_n.
    """
    if m < 1:
        raise ValueError("power m must be >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    tau = trunc.tau(n)
    radius = grid_outer.radius
    if radius <= tau + 1e-12:
        raise ValueError(
            f"grid_outer radius {radius:.6g} must exceed tau_n={tau:.6g} to cover the tail"
        )
    ppu = max(1, round(grid_outer.panel_count / (2.0 * radius)))
    order = grid_outer.order

    # s-annulus tau_n <= |s| <= R, both sides.
    pos_n, pos_w = gauss_legendre_panels(
        tau, radius, max(1, int(math.ceil((radius - tau) * ppu - 1e-9))), order
    )
    s_nodes = np.concatenate([-pos_n[::-1], pos_n])
    s_weights = np.concatenate([pos_w[::-1], pos_w])

    inner = grid_on_interval(-tau, tau, ppu, order)
    y, wy = inner.nodes, inner.weights

    # Outer factor T(s, y) * w_y for s in the annulus (chi-hat mask is implicit).
    outer = eval_kernel(k, s_nodes[:, None], y[None, :])
    outer *= wy

    # Inner iterated kernel of T_n on the interval grid, evaluated out to grid_outer.
    a_in = eval_kernel(k, y[:, None], y[None, :])
    a_in *= wy
    cols = eval_kernel(k, y[:, None], grid_outer.nodes[None, :])
    for _ in range(m - 1):
        cols = a_in @ cols
    if variant == "tilde":
        cols = cols * trunc.chi(n, grid_outer.nodes)[None, :]

    composite = outer @ cols
    b = _weighted_form(composite * grid_outer.weights[None, :], s_weights, grid_outer.weights)
    bh = b.conj().T
    return top_singular_value(lambda v: b @ v, lambda u: bh @ u, b.shape[1])
