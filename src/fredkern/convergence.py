"""Empirical convergence diagnostics: shifted-lambda resolvent sequences,
regions of bounded/strongly-convergent truncated resolvents, the composite
tail-norm condition, and uniform-in-lambda sweeps for compact operators.

Distances are discrete stand-ins for the sup norms on R^2 (max over an
evaluation grid) and for sup-over-anchors of L^2 row/column distances
(quadrature-weighted norms on the run grid of the call, see `_RunSampling`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import CharacteristicValueError, ConfigError, PoleError
from .kernels import KernelSpec, TruncationScheme, eval_kernel
from .quadrature import (
    Discretization,
    NystromMatrix,
    _tail_norms,
    matrix_norm_estimate,
    run_grid,
    top_singular_value,
)
from .resolvent import _check_disk, _factor, _neumann_sum

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
    edges at +-tau_n for every n of the call.  K is sampled once on z x z,
    where z is the evaluation nodes e followed by the run-grid nodes x; every
    per-n matrix, reference block and norm is a restriction of that sampling.
    """

    def __init__(self, k, trunc, n_list, eval_grid, panels_per_unit, order):
        if not n_list:
            raise ValueError("n_list must be non-empty")
        taus = [trunc.tau(n) for n in n_list]
        self.k, self.trunc, self.n_list = k, trunc, n_list
        self.e, self.ne = eval_grid.nodes, len(eval_grid.nodes)
        self.grid = run_grid(max(k.tail_radius(), max(taus)), taus, panels_per_unit, order)
        self.z = np.concatenate([self.e, self.grid.nodes])
        self.kz = eval_kernel(k, self.z[:, None], self.z[None, :])
        # K(z, x) W; its x rows are the full-kernel collocation matrix A.
        self.rows_w = self.kz[:, self.ne:] * self.grid.weights
        # Per n: the plain Nystrom matrix of K_n, which is the principal block
        # of A on the nodes |x| < tau_n, and the slice of z holding those nodes.
        self.blocks = {}
        for n, tau in zip(n_list, taus):
            i0, i1 = np.searchsorted(self.grid.nodes, [-tau, tau])
            inner = slice(self.ne + i0, self.ne + i1)
            a_n = NystromMatrix(self.rows_w[inner, i0:i1], "plain", self.grid.inside(tau))
            self.blocks[n] = (a_n, inner)

    @functools.cached_property
    def norm(self) -> float:
        """Operator norm estimate of the full kernel on the run grid."""
        return matrix_norm_estimate(self.rows_w[self.ne:], self.grid.weights)

    def series(self, lam, n_terms):
        """The Neumann reference on (z, e) and on (e, x)."""
        kz, ne, a = self.kz, self.ne, self.rows_w[self.ne:]
        return (_neumann_sum(lam, self.rows_w, a, kz[ne:, :ne], kz[:, :ne], n_terms),
                _neumann_sum(lam, self.rows_w[:ne], a, kz[ne:, ne:], kz[:ne, ne:], n_terms))

    def evaluate(self, h):
        """The handle's resolvent kernel on (z, e) and on (e, x)."""
        kz, ne, inner, x = self.kz, self.ne, self.blocks[h.n][1], self.grid.nodes
        chi = self.trunc.chi(h.n, self.z)[:, None]
        return (h._extend(kz[:, inner] * chi, kz[inner, :ne], kz[:, :ne] * chi, self.e),
                h._extend(kz[:ne, inner] * chi[:ne], kz[inner, ne:], kz[:ne, ne:] * chi[:ne], x))

    def diagnose(self, lam, schedule, reference, variant, n_terms) -> ConvergenceReport:
        """`resolvent_convergence_diagnostic` on this sampling."""

        def handle(n):
            lam_n = lambda_shift(lam, schedule, n)
            return _factor(self.k, self.trunc, n, lam_n, self.blocks[n][0], variant)

        reference_n = None
        failed = set()
        if reference == "neumann_disk":
            _check_disk(lam, self.norm)
            ref = self.series(lam, n_terms)
        else:
            # Fall back to the largest regular index when the shifted lambda is
            # numerically characteristic at the top of the list.
            for reference_n in reversed(self.n_list):
                try:
                    h_ref = handle(reference_n)
                    break
                except CharacteristicValueError as err:
                    failed.add(reference_n)
                    last_err = err
            else:
                raise last_err
            ref = self.evaluate(h_ref)
        # The (z, e) values stack the (e, e) and (x, e) blocks.
        ref_t, ref_cols = np.split(ref[0], [self.ne])
        wy = self.grid.weights

        used, skipped = [], []
        sup_t, sup_row, sup_col = [], [], []
        for n in self.n_list:
            try:
                h = None if n == reference_n or n in failed else handle(n)
            except CharacteristicValueError:
                failed.add(n)
            if n in failed:
                skipped.append(n)
                continue
            on_ze, on_ex = ref if h is None else self.evaluate(h)
            used.append(n)
            h_t, h_cols = np.split(on_ze, [self.ne])
            sup_t.append(float(np.max(np.abs(h_t - ref_t))))
            sup_row.append(_row_col_distances(on_ex, ref[1], wy, axis=1))
            sup_col.append(_row_col_distances(h_cols, ref_cols, wy, axis=0))
        return ConvergenceReport(lam, tuple(used), tuple(sup_t), tuple(sup_row), tuple(sup_col),
                                 reference, skipped=tuple(skipped), reference_n=reference_n)


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
    run = _RunSampling(k, trunc, sorted(int(n) for n in n_list), eval_grid, panels_per_unit, order)
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

    Estimates the operator norm of each discrete Fredholm resolvent on a
    common grid; M is the max, and `bounded` holds when all norms are finite
    and the last does not exceed twice the median (divergence detector).
    Characteristic hits count as unbounded.  zeta = 0 is rejected.
    """
    zeta = complex(zeta)
    if zeta == 0:
        raise ValueError("zeta = 0 is excluded by definition")
    n_list = sorted(int(n) for n in n_list)
    taus = [trunc.tau(n) for n in n_list]
    grid = run_grid(max(taus), taus, panels_per_unit, order)
    sw = np.sqrt(grid.weights)
    x = grid.nodes
    # The weight-symmetrized kernel, sampled once; T_n masks its rows by chi_n.
    b_full = sw[:, None] * eval_kernel(k, x[:, None], x[None, :]) * sw[None, :]
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


def tail_condition_report(
    k: KernelSpec, trunc: TruncationScheme, m: int, n_list, disc: Discretization, variant: str = "plain"
):
    """Sequence of composite tail norms ||(T - T_n) T_n^m|| over n_list (or the
    both-sided-truncation analogue for variant "tilde").  A sequence falling
    below ~1e-6 marks every probed regular lambda as a strong-convergence
    point for the shifted truncated resolvents.  One kernel sampling serves
    every n (see `quadrature._tail_norms`)."""
    return _tail_norms(k, trunc, m, sorted(n_list), disc, variant)


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
    run = _RunSampling(k, trunc, sorted(int(n) for n in n_list), eval_grid, panels_per_unit, order)
    reports, kept, skipped = [], [], []
    for lam in map(complex, lambda_samples):
        # One norm picks the reference and guards the series.
        reference = "neumann_disk" if abs(lam) * run.norm < 1.0 else "largest_n"
        try:
            rep = run.diagnose(lam, schedule, reference, variant, n_terms)
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
