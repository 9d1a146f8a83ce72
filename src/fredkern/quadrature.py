"""Composite Gauss-Legendre grids on truncation intervals, Nystrom matrices
for the truncated kernels, and operator norm estimates.

The discrete stand-in for an integral operator with kernel K on a grid
(x_i, w_i) is the matrix A[i,j] = K(x_i, x_j) * w_j, held dense or factored
by `NystromMatrix`, the one collocation type; its operator norm on the
weighted l^2 space is the top singular value of W^{1/2} K W^{1/2}, estimated
here by deterministic power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, ConfigError
from .kernels import VARIANTS, KernelSpec, TruncationScheme, eval_kernel, kernel_factors, subkernel_eval

SUPPORTED_ORDERS = (4, 8, 16)
_LEGGAUSS = {order: np.polynomial.legendre.leggauss(order) for order in SUPPORTED_ORDERS}

# Most quadrature nodes a grid may have (an N x N complex matrix at the ceiling
# takes 268 MB); larger requests raise BudgetExceededError before allocating.
DEFAULT_NODE_CEILING = 4096


@dataclass(frozen=True, eq=False)
class Discretization:
    """Composite quadrature grid over (lo, hi): strictly increasing nodes,
    positive weights, built with panels_per_unit panels per unit length."""

    nodes: np.ndarray
    weights: np.ndarray
    panel_count: int
    order: int
    lo: float
    hi: float
    panels_per_unit: int

    @property
    def radius(self) -> float:
        return float(max(abs(self.lo), abs(self.hi)))

    def inside(self, tau: float) -> Discretization:
        """The nodes and weights with |x| < tau: a composite grid on
        (-tau, tau) when +-tau are panel edges, as on a `run_grid`."""
        keep = np.abs(self.nodes) < tau
        return replace(self, nodes=self.nodes[keep], weights=self.weights[keep],
                       panel_count=int(keep.sum()) // self.order, lo=-float(tau), hi=float(tau))


class NystromMatrix:
    """Collocation matrix A[i,j] = K_variant(x_i, x_j) * w_j, either dense
    (the sampled `entries`, which are also `core`) or factored, never both.

    A factored matrix, of a kernel with exact factors of rank r < N
    (`_low_rank_factors`), holds only u (N x r) and vt (r x N), A = u @ vt up
    to rounding, and forms `entries` = u @ vt when they are first read.  Its
    `core` is the r x r vt @ u: by Sylvester's identity det(I - lambda A) =
    det(I - lambda core), tr(A^k) = tr(core^k), and A and core share their
    nonzero eigenvalues.  A core beyond the float range raises
    BudgetExceededError.
    """

    def __init__(self, entries: np.ndarray | None, variant: str, grid: Discretization,
                 u: np.ndarray | None = None, vt: np.ndarray | None = None):
        if (entries is None) == (u is None):
            raise ValueError("a NystromMatrix holds either its entries or its factors u and vt")
        if entries is not None:
            self.entries = entries
        self.variant, self.grid, self.u, self.vt = variant, grid, u, vt

    @cached_property
    def entries(self) -> np.ndarray:
        return self.u @ self.vt

    @cached_property
    def core(self) -> np.ndarray:
        if self.u is None:
            return self.entries
        with np.errstate(over="ignore", invalid="ignore"):
            core = self.vt @ self.u
        if not np.isfinite(core).all():
            raise BudgetExceededError("the r x r core of a factored Nystrom matrix is beyond the float range")
        return core

    def column_max_sum(self) -> float:
        """sum_j max_i |A_ij|; a factored A is multiplied out for it, not kept."""
        with np.errstate(over="ignore", invalid="ignore"):
            a = self.entries if self.u is None else self.u @ self.vt
            return float(np.sum(np.max(np.abs(a), axis=0)))

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """A @ b, as u @ (vt @ b) when A is factored."""
        return self.entries @ b if self.u is None else self.u @ (self.vt @ b)

    def restrict(self, span: slice, grid: Discretization) -> NystromMatrix:
        """The principal block on the contiguous node range span, whose nodes
        and weights are those of grid (the plain K_n on `inside(tau_n)`)."""
        if self.u is None:
            return NystromMatrix(self.entries[span, span], self.variant, grid)
        return NystromMatrix(None, self.variant, grid, self.u[span], self.vt[:, span])


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


def _composite(edges, panels_per_unit, order: int) -> Discretization:
    """Composite grid over the segments between consecutive edges; a segment
    of length L gets ceil(L * panels_per_unit - 1e-9) panels (at least one).
    At most DEFAULT_NODE_CEILING nodes."""
    if panels_per_unit < 1:
        raise ConfigError("quadrature.panels_per_unit", "must be >= 1")
    spans = [(b - a) * panels_per_unit - 1e-9 for a, b in zip(edges, edges[1:])]
    # Compared before rounding, so a huge or non-finite span never reaches int().
    fits = sum(spans) * order <= DEFAULT_NODE_CEILING
    panels = [max(1, int(math.ceil(s))) for s in spans] if fits else []
    if not fits or sum(panels) * order > DEFAULT_NODE_CEILING:
        raise BudgetExceededError(
            f"a grid on ({edges[0]:.6g}, {edges[-1]:.6g}) with {panels_per_unit} panels per unit and "
            f"order {order} exceeds the ceiling of {DEFAULT_NODE_CEILING} nodes"
        )
    parts = [gauss_legendre_panels(a, b, p, order) for a, b, p in zip(edges, edges[1:], panels)]
    return Discretization(np.concatenate([n for n, _ in parts]), np.concatenate([w for _, w in parts]),
                          sum(panels), order, float(edges[0]), float(edges[-1]), panels_per_unit)


def grid_on_interval(a: float, b: float, panels_per_unit: int, order: int) -> Discretization:
    """Composite grid on (a, b) with roughly panels_per_unit panels per unit
    length; at most DEFAULT_NODE_CEILING nodes."""
    return _composite([a, b], panels_per_unit, order)


def build_grid(trunc: TruncationScheme, n: int, panels_per_unit: int, order: int) -> Discretization:
    """Grid on the truncation interval (-tau_n, tau_n)."""
    tau = trunc.tau(n)
    return grid_on_interval(-tau, tau, panels_per_unit, order)


def run_grid(radius: float, taus, panels_per_unit: int, order: int) -> Discretization:
    """The grid of one run over several truncation indices: a composite grid
    on (-radius, radius) whose panel edges include +-tau for every tau below
    radius.  Each segment between consecutive edges is panelled as by
    grid_on_interval, so the nodes with |x| < tau form a grid on (-tau, tau)
    (`Discretization.inside`) and the jump of chi_n falls on panel edges."""
    cuts = sorted({float(t) for t in taus if t < radius})
    edges = [-radius] + [-t for t in reversed(cuts)] + cuts + [radius]
    return _composite(edges, panels_per_unit, order)


def nystrom_matrix(
    k: KernelSpec, trunc: TruncationScheme, n: int, variant: str, grid: Discretization
) -> NystromMatrix:
    """Collocation matrix of the truncated kernel on the grid.  The grid must
    cover (-tau_n, tau_n); a wider grid (built for a larger index) is fine,
    the mask then zeroes the out-of-interval rows/columns.  A grid over
    DEFAULT_NODE_CEILING nodes raises BudgetExceededError.  A separable kernel
    of rank below the node count gives its masked factors, never sampled N x N."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    x, w = grid.nodes, grid.weights
    if len(x) > DEFAULT_NODE_CEILING:
        raise BudgetExceededError(f"grid has {len(x)} nodes, exceeding the ceiling {DEFAULT_NODE_CEILING}")
    if grid.radius + 1e-12 < trunc.tau(n):
        raise ValueError(f"grid radius {grid.radius:.6g} does not cover tau_n={trunc.tau(n):.6g}")
    factors = _low_rank_factors(k, x, len(x))
    if factors is None:
        vals = np.asarray(subkernel_eval(k, trunc, n, variant, x[:, None], x[None, :]))
        vals *= w
        return NystromMatrix(vals, variant, grid)
    left, right = factors
    chi = trunc.chi(n, x)[:, None]
    right = right * chi if variant == "tilde" else right
    return NystromMatrix(None, variant, grid, left * chi, (right * w[:, None]).T)


def _low_rank_factors(k: KernelSpec, z: np.ndarray, n_nodes: int):
    """`kernel_factors` of K on z x z when their rank is below n_nodes, the
    node count of the grid they discretize; else None, and K is sampled
    densely.  This is the one dense-or-factored rule of the package."""
    factors = kernel_factors(k, z, z)
    return factors if factors is not None and factors[0].shape[1] < n_nodes else None


# `_sampled_factors`: the first probe count, doubled after each failed check,
# and the bound on max|A - U V^T| relative to max|A|.
FACTOR_PROBES = 48
FACTOR_RTOL = 1e-14


def _sampled_factors(a: np.ndarray):
    """Factors (U, V^T) of a sampled N x N matrix a, of rank r < N/2 and
    with max|a - U V^T| <= FACTOR_RTOL max|a| over every entry; else None.

    A randomized range finder (Halko, Martinsson and Tropp, SIAM Rev. 53,
    2011): U is the Q of qr(a Omega) for r Gaussian probes Omega from a fixed
    seed, and V^T = U^H a.  r starts at FACTOR_PROBES and doubles while the
    check fails and r < N/2.  The check reads every entry, so an accepted
    factor meets the bound on a itself, not only with high probability."""
    n = len(a)
    scale = float(np.max(np.abs(a), initial=0.0))
    if not math.isfinite(scale):
        return None
    rng = np.random.default_rng(0)
    r = FACTOR_PROBES
    while 2 * r < n:
        u = np.linalg.qr(a @ rng.standard_normal((n, r)))[0]
        vt = u.conj().T @ a
        if np.max(np.abs(a - u @ vt)) <= FACTOR_RTOL * scale:
            return u, vt
        r *= 2
    return None


def full_matrix(k: KernelSpec, grid: Discretization) -> np.ndarray:
    """Collocation matrix of the untruncated kernel (no mask)."""
    x = grid.nodes
    vals = eval_kernel(k, x[:, None], x[None, :])
    vals *= grid.weights
    return vals


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


@np.errstate(over="ignore", invalid="ignore")
def top_singular_value(apply, apply_h, dim: int, iters: int = 200, rtol: float = 1e-12) -> float:
    """Largest singular value by power iteration on the normal operator.

    apply/apply_h map vectors through B and B^H.  Starts from the ramp
    v_i = 1 + i/dim and stops after `iters` rounds or when the estimate's
    relative change drops below `rtol`.  Deterministic.  On a grid symmetric
    about 0 the ramp has an even and an odd part, so it is orthogonal to
    neither kind of singular vector; all-ones, orthogonal to every odd one,
    missed the norm of a kernel whose top singular function is odd.
    Both iterates are rescaled by exact powers of two (`_rescaled`), so any
    norm in the float range is found; a run that never rescales rounds
    exactly as the plain iteration.
    An iterate that leaves the float range gives inf, without a warning.
    """
    v = 1.0 + np.arange(dim) / dim  # real, so a real operator iterates in real arithmetic
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        u, e_u = _rescaled(apply(v))
        su = np.linalg.norm(u)
        if not np.isfinite(su):
            return math.inf
        if su == 0.0:
            return 0.0
        v, e_v = _rescaled(apply_h(u))
        sv = np.linalg.norm(v)
        if not np.isfinite(sv):
            return math.inf
        if sv == 0.0:
            return 0.0
        e = e_u + e_v
        # sqrt(sv 2^e) without forming sv 2^e, which may leave the float range.
        sigma_new = float(np.ldexp(math.sqrt(math.ldexp(sv, e % 2)), e // 2))
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
    """Operator norm (top singular value) of the discretized integral
    operator, the one norm of a square collocation matrix.  A factored m is
    applied through its factors at O(N r) per step."""
    w = m.grid.weights
    if m.u is None:
        return _largest_singular_value(_weighted_form(m.entries, w, w))
    sw = np.sqrt(w)
    return _largest_singular_value(sw[:, None] * m.u, m.vt / sw)


def _largest_singular_value(p: np.ndarray, qt: np.ndarray | None = None) -> float:
    """Top singular value of B = p, or of B = p @ qt applied as p (qt v)."""
    ph = p.conj().T
    if qt is None:
        return top_singular_value(lambda v: p @ v, lambda u: ph @ u, p.shape[1])
    q = qt.conj().T
    return top_singular_value(lambda v: p @ (qt @ v), lambda u: q @ (ph @ u), qt.shape[1])
