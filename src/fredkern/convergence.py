"""Empirical convergence diagnostics: shifted-lambda resolvent sequences,
regions of bounded/strongly-convergent truncated resolvents, the composite
tail-norm condition, and uniform-in-lambda sweeps for compact operators.

Distances are discrete stand-ins for the sup norms on R^2 (max over an
evaluation grid) and for sup-over-anchors of L^2 row/column distances
(quadrature-weighted norms on the run grid of the call, see `_RunSampling`).
Tail norms are weighted operator norms on a run grid too.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import BudgetExceededError, CharacteristicValueError, ConfigError, PoleError
from .kernels import VARIANTS, KernelSpec, TruncationScheme, eval_kernel
from .quadrature import (
    Discretization,
    NystromMatrix,
    _largest_singular_value,
    _low_rank_factors,
    _sampled_factors,
    _weighted_form,
    operator_norm_estimate,
    run_grid,
    top_singular_value,
)
from .resolvent import _check_disk, _factor, _neumann_sums, _shifted_factor

REFERENCES = ("neumann_disk", "largest_n")


@dataclass(frozen=True)
class ShiftSchedule:
    """Null sequence beta_n driving the lambda shift lambda/(1 - beta_n*lambda).

    kind "zero": beta_n = 0; "harmonic": beta0/n; "geometric": beta0 * ratio^n
    with |ratio| < 1.
    """

    kind: str = "zero"
    beta0: complex = 0.0
    ratio: float = 0.5

    def __post_init__(self):
        if self.kind not in ("zero", "harmonic", "geometric"):
            raise ConfigError("kind", f"unknown schedule kind {self.kind!r}")
        b = complex(self.beta0)
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise ConfigError("beta0", "must be finite")
        if self.kind == "geometric" and not abs(self.ratio) < 1:
            raise ConfigError("ratio", "must satisfy |ratio| < 1")

    def beta(self, n: int) -> complex:
        if n < 1:
            raise ValueError("index n must be >= 1")
        if self.kind == "zero":
            return 0.0 + 0.0j
        if self.kind == "harmonic":
            return complex(self.beta0) / n
        return complex(self.beta0) * self.ratio**n


def lambda_shift(lam: complex, schedule: ShiftSchedule, n: int) -> complex:
    """The shifted spectral parameter lambda/(1 - beta_n*lambda)."""
    lam = complex(lam)
    denom = 1.0 - schedule.beta(n) * lam
    if abs(denom) < 1e-14 * (1.0 + abs(lam)):
        raise PoleError(f"lambda shift pole at n={n}: 1 - beta_n*lambda = {denom}")
    return lam / denom


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    lam: complex
    n_values: tuple
    sup_T_diff: tuple
    sup_row_diff: tuple
    sup_col_diff: tuple
    reference_source: str
    skipped: tuple = ()
    reference_n: int | None = None


def _row_col_distances(h_vals, ref_vals, weights, axis):
    """Largest L^2 distance over rows (axis=1) or columns (axis=0)."""
    w = weights[None, :] if axis == 1 else weights[:, None]
    norms = np.sqrt((np.abs(h_vals - ref_vals) ** 2 * w).sum(axis=axis))
    return float(np.max(norms)) if norms.size else 0.0


class _RunSampling:
    """The one kernel sampling of a convergence call.

    The run grid spans (-R, R), R = max(tail radius, max tau_n), with panel
    edges at +-tau_n for every n of the call.  z is the evaluation nodes e
    followed by the run-grid nodes x, and the nodes |x| < tau_n are the
    contiguous range `spans[n]` of x.  A subclass samples K on z once and
    gives, from that sampling, `a`, the full kernel's Nystrom matrix on the
    run grid (whose `norm` and blocks are shared here), the Neumann
    reference, each truncated resolvent on (z, e) and on (e, x), and the
    tail norms on the run grid.
    """

    def __init__(self, k, trunc, n_list, e, grid):
        self.k, self.trunc, self.n_list = k, trunc, n_list
        self.e, self.ne, self.grid = e, len(e), grid
        self.z = np.concatenate([e, grid.nodes])
        self.spans = {}
        for n in n_list:
            i0, i1 = np.searchsorted(grid.nodes, [-trunc.tau(n), trunc.tau(n)])
            self.spans[n] = slice(i0, i1)

    @functools.cached_property
    def blocks(self) -> dict:
        """Per n: the plain Nystrom matrix of K_n, the principal block of `a`
        on the nodes of spans[n]."""
        return {n: self.a.restrict(span, self.grid.inside(self.trunc.tau(n)))
                for n, span in self.spans.items()}

    @functools.cached_property
    def norm(self) -> float:
        """Operator norm estimate of the full kernel on the run grid."""
        return operator_norm_estimate(self.a)

    def diagnose(self, lam, schedule, reference, variant, n_terms, series=None) -> ConvergenceReport:
        """`resolvent_convergence_diagnostic` on this sampling; `series` is
        the Neumann reference at lam when the caller already has it."""
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")

        def resolvent_at(n):
            return self.resolvent(n, lambda_shift(lam, schedule, n), variant)

        reference_n = None
        failed = set()
        if reference == "neumann_disk":
            if series is None:
                _check_disk(lam, self.norm)
                series = self.series([lam], n_terms)[0]
            ref = series
        else:
            # Fall back to the largest regular index when the shifted lambda is
            # numerically characteristic at the top of the list.
            for reference_n in reversed(self.n_list):
                try:
                    ref = resolvent_at(reference_n)
                    break
                except CharacteristicValueError as err:
                    failed.add(reference_n)
                    last_err = err
            else:
                raise last_err
        # The (z, e) values stack the (e, e) and (x, e) blocks.
        ref_t, ref_cols = np.split(ref[0], [self.ne])
        wy = self.grid.weights

        used, skipped = [], []
        sup_t, sup_row, sup_col = [], [], []
        for n in self.n_list:
            if n == reference_n:
                on_ze, on_ex = ref
            elif n not in failed:
                try:
                    on_ze, on_ex = resolvent_at(n)
                except CharacteristicValueError:
                    failed.add(n)
            if n in failed:
                skipped.append(n)
                continue
            used.append(n)
            h_t, h_cols = np.split(on_ze, [self.ne])
            sup_t.append(float(np.max(np.abs(h_t - ref_t))))
            sup_row.append(_row_col_distances(on_ex, ref[1], wy, axis=1))
            sup_col.append(_row_col_distances(h_cols, ref_cols, wy, axis=0))
        return ConvergenceReport(lam, tuple(used), tuple(sup_t), tuple(sup_row), tuple(sup_col),
                                 reference, skipped=tuple(skipped), reference_n=reference_n)

    def tail_norms(self, m, variant):
        """`tail_norm` for every n of the call.  The composite kernel
        (1 - chi_n(s)) sum_y K(s,y) w_y [A_n^{m-1} K](y,t) takes s from the
        run-grid nodes outside spans[n] and y from those inside; for "tilde"
        it is masked by chi_n(t) as well.  An overflow leaves a norm beyond
        the float range, which raises BudgetExceededError."""
        norms = []
        for n in self.n_list:
            norms.append(self.tail_norm(n, m, variant))
            if not math.isfinite(norms[-1]):
                raise BudgetExceededError(f"tail norm at n={n} is beyond the float range")
        return norms


class _DenseRun(_RunSampling):
    """K sampled on z x z; every per-n matrix, reference block and norm is a
    restriction of that sampling.  `rows_w` and `a` are lazy, so the tail
    norms allocate no second N x N array."""

    def __init__(self, k, trunc, n_list, e, grid):
        super().__init__(k, trunc, n_list, e, grid)
        self.kz = eval_kernel(k, self.z[:, None], self.z[None, :])

    @functools.cached_property
    def rows_w(self) -> np.ndarray:
        """K(z, x) W; its x rows are the entries of `a`."""
        return self.kz[:, self.ne:] * self.grid.weights

    @functools.cached_property
    def a(self) -> NystromMatrix:
        return NystromMatrix(self.rows_w[self.ne:], "plain", self.grid)

    @functools.cached_property
    def reference_factors(self):
        """`_sampled_factors` of A, built with the first Neumann reference."""
        return _sampled_factors(self.a.entries)

    def series(self, lams, n_terms):
        """The Neumann reference on (z, e) and on (e, x), for each lambda.

        The terms j = 0, 1 come straight from the samples.  When A has a
        checked factor U V^T (`reference_factors`), the terms j >= 2 run on
        the r x r core V^T U (`_neumann_sums` with head); else on A."""
        kz, ne, rows_w = self.kz, self.ne, self.rows_w
        # (K(s,x) W, K(x,t), K(s,t)) of the (z, e) and the (e, x) blocks.
        blocks = ((rows_w, kz[ne:, :ne], kz[:, :ne]), (rows_w[:ne], kz[ne:, ne:], kz[:ne, ne:]))
        factors = self.reference_factors if n_terms > 2 else None
        if factors is None:
            a = self.a.entries
            sums = [_neumann_sums(lams, rows, a, cols, direct, n_terms) for rows, cols, direct in blocks]
        else:
            u, vt = factors
            g = vt @ u
            sums = [_neumann_sums(lams, rows @ u, g, vt @ cols, direct, n_terms, head=rows @ cols)
                    for rows, cols, direct in blocks]
        return list(zip(*sums))

    def resolvent(self, n, lam_n, variant):
        """The resolvent kernel of K_n at lam_n on (z, e) and on (e, x)."""
        h = _factor(self.k, self.trunc, n, lam_n, self.blocks[n], variant)
        kz, ne, x = self.kz, self.ne, self.grid.nodes
        inner = slice(ne + self.spans[n].start, ne + self.spans[n].stop)
        chi = self.trunc.chi(n, self.z)[:, None]
        return (h._extend(kz[:, inner] * chi, kz[inner, :ne], kz[:, :ne] * chi, self.e),
                h._extend(kz[:ne, inner] * chi[:ne], kz[inner, ne:], kz[:ne, ne:] * chi[:ne], x))

    def tail_norm(self, n, m, variant):
        """The norm of the composite tail kernel (`tail_norms`) at n, from
        the samples K(x, x)."""
        kx, x, w = self.kz[self.ne:, self.ne:], self.grid.nodes, self.grid.weights
        span = self.spans[n]
        wy = w[span]
        cols, a_n = kx[span], kx[span, span] * wy
        for _ in range(m - 1):
            cols = a_n @ cols
        if variant == "tilde":
            cols = cols * self.trunc.chi(n, x)[None, :]
        outer = np.delete(kx[:, span], span, axis=0)
        outer *= wy
        composite = outer @ cols
        composite *= w
        return _largest_singular_value(_weighted_form(composite, np.delete(w, span), w))


class _FactoredRun(_RunSampling):
    """K(s,t) = L(s) R(t)^T sampled as its factors on z (z x r each), for a
    kernel of rank r below the run grid's node count.  `a` holds the factors
    L(x) and (W R(x))^T without entries; with the r x r cores
    G = sum_x w_x R(x)^T L(x) of `a`, or G_n of `blocks[n]` over spans[n]:

    - the resolvent of K_n at lam is chi_n(s) L(s) (I - lam G_n)^{-1} R(t)^T,
      times chi_n(t) for "tilde", and det(I - lam A_n) = det(I - lam G_n);
    - the Neumann reference is L(s) [sum_{j < n_terms} (lam G)^j] R(t)^T;
    - the composite tail kernel is (1 - chi_n(s)) L(s) G_n^m R(t)^T, times
      chi_n(t) for "tilde";
    - the norm estimates apply A, or the tail kernel, through its factors.
    """

    def __init__(self, k, trunc, n_list, e, grid, factors):
        super().__init__(k, trunc, n_list, e, grid)
        self.left, self.right = factors
        right_w = self.right[self.ne:] * grid.weights[:, None]  # W R(x)
        self.a = NystromMatrix(None, "plain", grid, self.left[self.ne:], right_w.T)

    def series(self, lams, n_terms):
        """The Neumann reference on (z, e) and on (e, x), for each lambda."""
        left, g, ne = self.left, self.a.core, self.ne
        right_e, right_x = self.right[:ne].T, self.right[ne:].T
        on_ze = _neumann_sums(lams, left, g, g @ right_e, left @ right_e, n_terms)
        on_ex = _neumann_sums(lams, left[:ne], g, g @ right_x, left[:ne] @ right_x, n_terms)
        return list(zip(on_ze, on_ex))

    def resolvent(self, n, lam_n, variant):
        """The resolvent kernel of K_n at lam_n on (z, e) and on (e, x)."""
        g = self.blocks[n].core
        lu_piv, _ = _shifted_factor(g, lam_n)
        chi = self.trunc.chi(n, self.z)
        rows = (self.left * chi[:, None]) @ lu_solve(lu_piv, np.eye(len(g)))
        on_ze = rows @ self.right[:self.ne].T
        on_ex = rows[:self.ne] @ self.right[self.ne:].T
        if variant == "tilde":
            on_ze *= chi[:self.ne]
            on_ex *= chi[self.ne:]
        return on_ze, on_ex

    def tail_norm(self, n, m, variant):
        """The norm of the composite tail kernel (`tail_norms`) at n, through
        its factors."""
        left, right, w = self.left[self.ne:], self.right[self.ne:], self.grid.weights
        span = self.spans[n]
        outer = np.delete(left, span, axis=0) @ np.linalg.matrix_power(self.blocks[n].core, m)
        cols_t = right * np.sqrt(w)[:, None]
        if variant == "tilde":
            cols_t *= self.trunc.chi(n, self.grid.nodes)[:, None]
        return _largest_singular_value(np.sqrt(np.delete(w, span))[:, None] * outer, cols_t.T)


def _sampling(k, trunc, n_list, e, grid) -> _RunSampling:
    """The sampling of K on the evaluation nodes e and the run grid, over
    the sorted indices n_list: factored when the kernel has exact factors of
    rank below the run grid's node count (`quadrature._low_rank_factors`),
    else dense."""
    factors = _low_rank_factors(k, np.concatenate([e, grid.nodes]), len(grid.nodes))
    if factors is None:
        return _DenseRun(k, trunc, n_list, e, grid)
    return _FactoredRun(k, trunc, n_list, e, grid, factors)


def _sample_run(k, trunc, n_list, eval_grid, panels_per_unit, order) -> _RunSampling:
    """The `_sampling` of a diagnostic over the sorted indices n_list, on the
    run grid of (-R, R), R = max(tail radius, max tau_n)."""
    if not n_list:
        raise ValueError("n_list must be non-empty")
    taus = [trunc.tau(n) for n in n_list]
    grid = run_grid(max(k.tail_radius(), max(taus)), taus, panels_per_unit, order)
    return _sampling(k, trunc, n_list, eval_grid.nodes, grid)


def resolvent_convergence_diagnostic(
    k: KernelSpec, trunc: TruncationScheme, lam: complex, schedule: ShiftSchedule, n_list,
    eval_grid: Discretization, reference: str = "neumann_disk", variant: str = "plain",
    panels_per_unit: int = 4, order: int = 8, n_terms: int = 40,
) -> ConvergenceReport:
    """Distances from the shifted-sequence resolvents to the reference.

    For each n, builds the truncated resolvent at lambda_n(lambda) and records
    the sup over eval_grid x eval_grid of the kernel difference, plus the sup
    over anchors of L^2 row-function and column-function distances on the run
    grid (see `_RunSampling`).

    reference "neumann_disk" targets the full-kernel resolvent through its
    series (requires |lambda|*||T|| < 1); "largest_n" targets the resolvent at
    max(n_list) of the same shifted sequence, which is the only available
    proxy outside the series disk.

    Truncation indices where lambda_n is numerically characteristic are
    recorded in `skipped` and left out of the distance sequences.
    """
    if reference not in REFERENCES:
        raise ValueError(f"unknown reference {reference!r}")
    run = _sample_run(k, trunc, sorted(int(n) for n in n_list), eval_grid, panels_per_unit, order)
    return run.diagnose(complex(lam), schedule, reference, variant, n_terms)


@dataclass(frozen=True)
class BoundednessProbe:
    bounded: bool
    M: float
    norms: tuple


def boundedness_probe(
    k: KernelSpec, trunc: TruncationScheme, zeta: complex, schedule: ShiftSchedule, n_list,
    panels_per_unit: int = 4, order: int = 8,
) -> BoundednessProbe:
    """Empirical membership test for the region of boundedness of the shifted
    truncated operators beta_n*I + T_n at zeta.

    Estimates the operator norm of each discrete Fredholm resolvent on the
    run grid, from its one `_sampling` (never square for a separable kernel);
    M is the max, and `bounded` holds when all norms are finite and the last
    does not exceed twice the median (divergence detector).
    Characteristic hits count as unbounded.  zeta = 0 is rejected.
    """
    zeta = complex(zeta)
    if zeta == 0:
        raise ValueError("zeta = 0 is excluded by definition")
    n_list = sorted(int(n) for n in n_list)
    taus = [trunc.tau(n) for n in n_list]
    grid = run_grid(max(taus), taus, panels_per_unit, order)
    x, w = grid.nodes, grid.weights
    # The weight-symmetrized kernel, from the run sampling; T_n masks its rows by chi_n.
    b_full = _weighted_form(_sampling(k, trunc, n_list, np.empty(0), grid).a.entries, w, w)
    norms = []
    eye = np.eye(len(x), dtype=complex)
    for n in n_list:
        b_op = schedule.beta(n) * eye + trunc.chi(n, x)[:, None] * b_full
        # A characteristic zeta makes the factor (numerically) singular; the
        # resulting norm blows up or overflows, which the divergence
        # heuristic below classifies as unbounded.
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            lu_piv = lu_factor(eye - zeta * b_op)
            b_h = b_op.conj().T
            norms.append(top_singular_value(lambda v: b_op @ lu_solve(lu_piv, v),
                                            lambda u: b_h @ lu_solve(lu_piv, u, trans=2), len(x)))

    if not all(math.isfinite(v) for v in norms):
        return BoundednessProbe(bounded=False, M=math.inf, norms=tuple(norms))
    m_val = max(norms)
    median = float(np.median(norms))
    bounded = norms[-1] <= 2.0 * median
    return BoundednessProbe(bounded=bounded, M=m_val, norms=tuple(norms))


@np.errstate(over="ignore", invalid="ignore")
def tail_condition_report(
    k: KernelSpec, trunc: TruncationScheme, m: int, n_list, disc: Discretization, variant: str = "plain"
):
    """Sequence of composite tail norms ||(T - T_n) T_n^m|| over the sorted
    n_list (or the both-sided-truncation analogue for variant "tilde").  A
    sequence falling below ~1e-6 marks every probed regular lambda as a
    strong-convergence point for the shifted truncated resolvents.

    disc gives the radius R, the panels per unit and the order; R must
    exceed every tau_n and should reach past 2*tau_n.  One sampling on the
    run grid of (-R, R), with no evaluation nodes, serves every n (see
    `_RunSampling.tail_norms`)."""
    if m < 1:
        raise ValueError("power m must be >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n_list = sorted(n_list)
    taus = [trunc.tau(n) for n in n_list]
    if disc.radius <= max(taus) + 1e-12:
        raise ValueError(
            f"grid radius {disc.radius:.6g} must exceed tau_n={max(taus):.6g} to cover the tail")
    grid = run_grid(disc.radius, taus, disc.panels_per_unit, disc.order)
    return _sampling(k, trunc, n_list, np.empty(0), grid).tail_norms(m, variant)


def tail_norm(k: KernelSpec, trunc: TruncationScheme, n: int, m: int, grid_outer: Discretization,
              variant: str = "plain") -> float:
    """Operator norm of (T - T_n) T_n^m (variant "plain"), or of the analogue
    with both-sided truncation (variant "tilde"): `tail_condition_report`
    at the one index n."""
    return tail_condition_report(k, trunc, m, [n], grid_outer, variant)[0]


@dataclass(frozen=True, eq=False)
class CompactSweep:
    reports: tuple
    lambdas: tuple
    skipped_lambdas: tuple
    n_values: tuple
    envelope_T: tuple
    envelope_row: tuple
    envelope_col: tuple


def compact_sweep(
    k: KernelSpec, trunc: TruncationScheme, lambda_samples, n_list, eval_grid: Discretization,
    variant: str = "plain", panels_per_unit: int = 4, order: int = 8, n_terms: int = 40,
) -> CompactSweep:
    """Unshifted (lambda_n = lambda) convergence sweep over several lambdas,
    with the per-distance envelope (max over lambda at each n).

    Inside the series disk the reference is the full-kernel series; outside it
    falls back to the largest-n resolvent.  Samples where any truncation index
    is numerically characteristic are skipped and reported.
    """
    schedule = ShiftSchedule("zero")
    run = _sample_run(k, trunc, sorted(int(n) for n in n_list), eval_grid, panels_per_unit, order)
    lambdas = [complex(lam) for lam in lambda_samples]
    # One norm picks each lambda's reference and guards the series; the
    # lambdas inside the disk share one Neumann chain.
    in_disk = [lam for lam in lambdas if abs(lam) * run.norm < 1.0]
    series = dict(zip(in_disk, run.series(in_disk, n_terms))) if in_disk else {}
    reports, kept, skipped = [], [], []
    for lam in lambdas:
        reference = "neumann_disk" if lam in series else "largest_n"
        try:
            rep = run.diagnose(lam, schedule, reference, variant, n_terms, series.get(lam))
        except CharacteristicValueError:
            rep = None
        if rep is None or rep.skipped:
            skipped.append(lam)
        else:
            reports.append(rep)
            kept.append(lam)

    if reports:
        n_values = reports[0].n_values
        envelopes = [tuple(np.max([getattr(r, name) for r in reports], axis=0))
                     for name in ("sup_T_diff", "sup_row_diff", "sup_col_diff")]
    else:
        n_values, envelopes = (), ((), (), ())
    return CompactSweep(tuple(reports), tuple(kept), tuple(skipped), n_values, *envelopes)
