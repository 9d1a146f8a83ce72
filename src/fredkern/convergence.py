"""Empirical convergence diagnostics: shifted-lambda resolvent sequences,
regions of bounded/strongly-convergent truncated resolvents, the composite
tail-norm condition, and uniform-in-lambda sweeps for compact operators.

Distances are discrete stand-ins for the sup norms on R^2 (max over an
evaluation grid) and for sup-over-anchors of L^2 row/column distances
(quadrature-weighted norms on a wide norm grid).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import CharacteristicValueError, ConfigError, NeumannDivergenceError, PoleError
from .kernels import KernelSpec, TruncationScheme, subkernel_eval
from .quadrature import (
    Discretization,
    build_grid,
    full_matrix,
    grid_on_interval,
    matrix_norm_estimate,
    tail_norm,
    top_singular_value,
)
from .resolvent import _neumann_matrix, make_resolvent, neumann_kernel_matrix

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
    diff2 = np.abs(h_vals - ref_vals) ** 2
    if axis == 1:
        norms = np.sqrt((diff2 * weights[None, :]).sum(axis=1).real)
    else:
        norms = np.sqrt((diff2 * weights[:, None]).sum(axis=0).real)
    return float(np.max(norms)) if norms.size else 0.0


def resolvent_convergence_diagnostic(
    k: KernelSpec,
    trunc: TruncationScheme,
    lam: complex,
    schedule: ShiftSchedule,
    n_list,
    eval_grid: Discretization,
    reference: str = "neumann_disk",
    variant: str = "plain",
    panels_per_unit: int = 4,
    order: int = 8,
    n_terms: int = 40,
) -> ConvergenceReport:
    """Distances from the shifted-sequence resolvents to the reference.

    For each n, builds the truncated resolvent at lambda_n(lambda) and records
    the sup over eval_grid x eval_grid of the kernel difference, plus the sup
    over anchors of L^2 row-function and column-function distances.

    reference "neumann_disk" targets the full-kernel resolvent through its
    series (requires |lambda|*||T|| < 1); "largest_n" targets the resolvent at
    max(n_list) of the same shifted sequence, which is the only available
    proxy outside the series disk.

    Truncation indices where lambda_n is numerically characteristic are
    recorded in `skipped` and left out of the distance sequences.
    """
    n_list = sorted(int(n) for n in n_list)
    if not n_list:
        raise ValueError("n_list must be non-empty")
    lam = complex(lam)
    radius = max(k.tail_radius(), trunc.tau(max(n_list)))
    norm_grid = grid_on_interval(-radius, radius, panels_per_unit, order)

    reference_n = None
    if reference == "neumann_disk":
        # Raises NeumannDivergenceError outside the disk.
        a = _neumann_matrix(k, lam, norm_grid)[0]

        def ref_values(s_pts, t_pts):
            return neumann_kernel_matrix(k, lam, s_pts, t_pts, norm_grid, n_terms, _matrix=a)

    elif reference == "largest_n":
        # Fall back to the largest regular index when the shifted lambda is
        # numerically characteristic at the top of the list.
        h_ref = None
        last_err = None
        for n_ref in reversed(n_list):
            lam_ref = lambda_shift(lam, schedule, n_ref)
            grid_ref = build_grid(trunc, n_ref, panels_per_unit, order)
            try:
                h_ref = make_resolvent(k, trunc, n_ref, lam_ref, grid_ref, variant=variant)
                reference_n = n_ref
                break
            except CharacteristicValueError as err:
                last_err = err
        if h_ref is None:
            raise last_err
        ref_values = h_ref.eval_grid_matrix
    else:
        raise ValueError(f"unknown reference {reference!r}")

    e = eval_grid.nodes
    y = norm_grid.nodes
    wy = norm_grid.weights
    ey = np.concatenate([e, y])
    # The (e, e) and (y, e) blocks share their columns: one call, split by rows.
    ref_t, ref_cols = np.split(ref_values(ey, e), [len(e)])
    ref_rows = ref_values(e, y)

    used, skipped = [], []
    sup_t, sup_row, sup_col = [], [], []
    for n in n_list:
        lam_n = lambda_shift(lam, schedule, n)
        grid_n = build_grid(trunc, n, panels_per_unit, order)
        try:
            h = make_resolvent(k, trunc, n, lam_n, grid_n, variant=variant)
        except CharacteristicValueError:
            skipped.append(n)
            continue
        used.append(n)
        h_t, h_cols = np.split(h.eval_grid_matrix(ey, e), [len(e)])
        sup_t.append(float(np.max(np.abs(h_t - ref_t))))
        sup_row.append(_row_col_distances(h.eval_grid_matrix(e, y), ref_rows, wy, axis=1))
        sup_col.append(_row_col_distances(h_cols, ref_cols, wy, axis=0))
    return ConvergenceReport(
        lam=lam,
        n_values=tuple(used),
        sup_T_diff=tuple(sup_t),
        sup_row_diff=tuple(sup_row),
        sup_col_diff=tuple(sup_col),
        reference_source=reference,
        skipped=tuple(skipped),
        reference_n=reference_n,
    )


@dataclass(frozen=True)
class BoundednessProbe:
    bounded: bool
    M: float
    norms: tuple


def boundedness_probe(
    k: KernelSpec,
    trunc: TruncationScheme,
    zeta: complex,
    schedule: ShiftSchedule,
    n_list,
    panels_per_unit: int = 4,
    order: int = 8,
) -> BoundednessProbe:
    """Empirical membership test for the region of boundedness of the shifted
    truncated operators beta_n*I + T_n at zeta.

    Estimates the operator norm of each discrete Fredholm resolvent on a
    common grid; M is the max, and `bounded` holds when all norms are finite
    and the last does not exceed twice the median (divergence detector).
    Characteristic hits count as unbounded.  zeta = 0 is rejected.
    """
    zeta = complex(zeta)
    if zeta == 0:
        raise ValueError("zeta = 0 is excluded by definition")
    n_list = sorted(int(n) for n in n_list)
    grid = build_grid(trunc, max(n_list), panels_per_unit, order)
    sw = np.sqrt(grid.weights)
    x = grid.nodes
    norms = []
    dim = len(x)
    eye = np.eye(dim, dtype=complex)
    for n in n_list:
        beta = schedule.beta(n)
        kvals = np.asarray(subkernel_eval(k, trunc, n, "plain", x[:, None], x[None, :]))
        b_op = beta * eye + sw[:, None] * kvals * sw[None, :]
        # A characteristic zeta makes the factor (numerically) singular; the
        # resulting norm blows up or overflows, which the divergence
        # heuristic below classifies as unbounded.
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            lu_piv = lu_factor(eye - zeta * b_op)

            def apply(v, b=b_op, lu=lu_piv):
                return b @ lu_solve(lu, v)

            def apply_h(u, b=b_op, lu=lu_piv):
                return b.conj().T @ lu_solve(lu, u, trans=2)

            norms.append(top_singular_value(apply, apply_h, dim))

    if not all(math.isfinite(v) for v in norms):
        return BoundednessProbe(bounded=False, M=math.inf, norms=tuple(norms))
    m_val = max(norms)
    median = float(np.median(norms))
    bounded = norms[-1] <= 2.0 * median
    return BoundednessProbe(bounded=bounded, M=m_val, norms=tuple(norms))


def tail_condition_report(
    k: KernelSpec,
    trunc: TruncationScheme,
    m: int,
    n_list,
    disc: Discretization,
    variant: str = "plain",
):
    """Sequence of composite tail norms ||(T - T_n) T_n^m|| over n_list (or the
    both-sided-truncation analogue for variant "tilde").  A sequence falling
    below ~1e-6 marks every probed regular lambda as a strong-convergence
    point for the shifted truncated resolvents."""
    if m < 1:
        raise ValueError("power m must be >= 1")
    return [tail_norm(k, trunc, n, m, disc, variant=variant) for n in sorted(n_list)]


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
    k: KernelSpec,
    trunc: TruncationScheme,
    lambda_samples,
    n_list,
    eval_grid: Discretization,
    variant: str = "plain",
    panels_per_unit: int = 4,
    order: int = 8,
    n_terms: int = 40,
) -> CompactSweep:
    """Unshifted (lambda_n = lambda) convergence sweep over several lambdas,
    with the per-distance envelope (max over lambda at each n).

    Inside the series disk the reference is the full-kernel series; outside it
    falls back to the largest-n resolvent.  Samples where any truncation index
    is numerically characteristic are skipped and reported.
    """
    n_list = sorted(int(n) for n in n_list)
    schedule = ShiftSchedule("zero")
    grid_probe = grid_on_interval(-k.tail_radius(), k.tail_radius(), panels_per_unit, order)
    norm_t = matrix_norm_estimate(full_matrix(k, grid_probe), grid_probe.weights)

    reports, kept, skipped = [], [], []
    for lam in lambda_samples:
        lam = complex(lam)
        reference = "neumann_disk" if abs(lam) * norm_t < 1.0 else "largest_n"
        try:
            rep = resolvent_convergence_diagnostic(
                k,
                trunc,
                lam,
                schedule,
                n_list,
                eval_grid,
                reference=reference,
                variant=variant,
                panels_per_unit=panels_per_unit,
                order=order,
                n_terms=n_terms,
            )
        except (CharacteristicValueError, NeumannDivergenceError):
            skipped.append(lam)
            continue
        if rep.skipped:
            skipped.append(lam)
            continue
        reports.append(rep)
        kept.append(lam)

    if reports:
        env_t = tuple(np.max([r.sup_T_diff for r in reports], axis=0))
        env_row = tuple(np.max([r.sup_row_diff for r in reports], axis=0))
        env_col = tuple(np.max([r.sup_col_diff for r in reports], axis=0))
        n_values = reports[0].n_values
    else:
        env_t = env_row = env_col = ()
        n_values = ()
    return CompactSweep(
        reports=tuple(reports),
        lambdas=tuple(kept),
        skipped_lambdas=tuple(skipped),
        n_values=n_values,
        envelope_T=env_t,
        envelope_row=env_row,
        envelope_col=env_col,
    )
