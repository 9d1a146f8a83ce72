"""Fredholm determinants and first minors of truncated kernels, by two routes:
the classical power series (its multi-dimensional integrals evaluated through
the trace recursion on the collocation matrix) and a direct matrix determinant
det(I - lambda*A).  Characteristic values are the determinant zeros.  Since
det(I - lambda*A) is the product of (1 - lambda*mu) over the eigenvalues mu of
A, they are read off as 1/mu, as in Bornemann (Math. Comp. 79, 2010), and
each is kept if |det| passes the zero test there.

Every route works on the core of the Nystrom matrix: the r x r matrix V^T U
when A = U V^T has exact factors of rank r < N, else A itself.  Sylvester's
identity det(I - lambda U V^T) = det(I - lambda V^T U) and tr((U V^T)^k) =
tr((V^T U)^k) make the determinant, its zeros and the series coefficients
those of A.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
# lu_solve is unused here; perfbench's tracer rebinds it on this module.
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve  # noqa: F401

from .errors import BudgetExceededError
from .kernels import KernelSpec, TruncationScheme, subkernel_eval
from .quadrature import Discretization, NystromMatrix, nystrom_matrix

# Highest series order det_series and minor_series evaluate.
M_MAX = 8

# Below this, det is treated as numerically zero and lambda as characteristic.
NEAR_ZERO_COEFF = 1e-10


@dataclass(frozen=True)
class DetResult:
    """A determinant value with provenance.

    tail_bound bounds the dropped series tail by Hadamard's inequality on the
    Nystrom matrix (series path only; zero for the matrix path).
    """

    value: complex
    path: str
    terms_used: int
    tail_bound: float = 0.0


@dataclass(frozen=True, eq=False)
class CharScanResult:
    """Deduplicated determinant zeros found inside a rectangular region."""

    zeros: tuple
    search_region: tuple


def is_characteristic(det_value: complex, lam: complex) -> bool:
    return abs(det_value) < NEAR_ZERO_COEFF * (1.0 + abs(lam))


def det_from_lu(lu: np.ndarray, piv: np.ndarray) -> complex:
    """Signed product of the LU diagonal; complex(inf) once it overflows."""
    swaps = int(np.sum(piv != np.arange(len(piv))))
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex((-1.0) ** swaps * np.prod(np.diag(lu)))
    return value if cmath.isfinite(value) else complex(math.inf)


def fredholm_coefficients(a: np.ndarray, m_max: int) -> np.ndarray:
    """Coefficients c_m with det(I - lambda*A) = sum_m (-lambda)^m c_m, via the
    trace recursion c_m = (1/m) sum_k (-1)^{k-1} tr(A^k) c_{m-k}.

    c_m equals the m-dimensional symmetrized quadrature of the determinant
    series divided by m!, so partial sums over m reproduce the series route.
    Only the powers A^1 .. A^h, h = ceil(m_max/2), are formed; a higher trace
    tr(A^(i+j)) is the N^2 sum of A^i * (A^j)^T.
    """
    half = (m_max + 1) // 2
    powers = [None, a]
    for _ in range(half - 1):
        powers.append(powers[-1] @ a)
    traces = np.empty(m_max + 1, dtype=complex)
    for kk in range(1, m_max + 1):
        i = min(kk, half)
        j = kk - i
        traces[kk] = np.trace(powers[i]) if j == 0 else np.sum(powers[i] * powers[j].T)
    c = np.zeros(m_max + 1, dtype=complex)
    c[0] = 1.0
    for m in range(1, m_max + 1):
        acc = 0.0 + 0.0j
        for kk in range(1, m + 1):
            acc += (-1.0) ** (kk - 1) * traces[kk] * c[m - kk]
        c[m] = acc / m
    return c


def _hadamard_tail(base: float, m_max: int) -> float:
    """Sum of the Hadamard bounds m^{m/2} base^m / m! over m > m_max (see
    `det_series`); inf once a term exceeds the float range.

    The ratio of term m+1 to term m is below rho = base sqrt(e / (m + 1)),
    which falls with m.  Past the peak of the terms (m > e base^2, so
    rho < 1) everything after term m is at most term * rho / (1 - rho).  The
    sum stops once that bound is below 1e-17 of the running total and adds
    it, so the result stays an upper bound.
    """
    if base == 0.0:
        return 0.0
    log_base = math.log(base)
    peak = math.e * base * base
    total = 0.0
    for m in range(m_max + 1, m_max + 2000):
        log_term = m * log_base + 0.5 * m * math.log(m) - math.lgamma(m + 1)
        if log_term < -700.0:
            if m > 2 * (math.e * base) ** 2 + m_max:
                break
            continue
        try:
            term = math.exp(log_term)
        except OverflowError:
            return math.inf
        total += term
        if m > peak:
            rho = base * math.sqrt(math.e / (m + 1))
            if term * rho <= 1e-17 * total * (1.0 - rho):
                return total + term * rho / (1.0 - rho)
    return total


def det_series(
    k: KernelSpec,
    trunc: TruncationScheme,
    n: int,
    lam: complex,
    grid: Discretization,
    m_max: int,
) -> DetResult:
    """Partial sum of the determinant series through order m_max, with a bound
    on the dropped tail, both from the plain Nystrom matrix A of K_n: c_m sums
    the principal m x m minors of A, each at most m^{m/2} prod_j max_i |A_ij|
    (Hadamard), so the tail is `_hadamard_tail` at |lambda| sum_j max_i |A_ij|."""
    if not 1 <= m_max <= M_MAX:
        raise ValueError(f"m_max must lie in [1, {M_MAX}]")
    a = nystrom_matrix(k, trunc, n, "plain", grid)
    c = fredholm_coefficients(a.core, m_max)
    lam = complex(lam)
    powers = (-lam) ** np.arange(m_max + 1)
    value = complex(np.sum(powers * c))
    tail = _hadamard_tail(abs(lam) * a.column_max_sum(), m_max)
    return DetResult(value=value, path="series", terms_used=m_max, tail_bound=tail)


def minor_series(
    k: KernelSpec,
    trunc: TruncationScheme,
    n: int,
    lam: complex,
    s: float,
    t: float,
    grid: Discretization,
    m_max: int,
) -> complex:
    """Partial sum of the first-minor series at (s, t) through order m_max.

    Uses the classical recursion for the minor coefficients b_m(s,t):
        b_0 = K_n(s,t),   b_m = c_m K_n(s,t) - (K_n o b_{m-1})(s,t),
    which reproduces the (m+1)-dimensional determinant integrals after
    symmetrized quadrature.
    """
    if not 1 <= m_max <= M_MAX:
        raise ValueError(f"m_max must lie in [1, {M_MAX}]")
    a = nystrom_matrix(k, trunc, n, "plain", grid)
    c = fredholm_coefficients(a.core, m_max)
    x = grid.nodes
    w = grid.weights
    lam = complex(lam)

    k_st = complex(subkernel_eval(k, trunc, n, "plain", s, t))
    col = np.asarray(subkernel_eval(k, trunc, n, "plain", x, t), dtype=complex)
    row_w = np.asarray(subkernel_eval(k, trunc, n, "plain", s, x), dtype=complex) * w

    b_scalar = k_st
    b_col = col.copy()
    total = b_scalar
    for m in range(1, m_max + 1):
        b_scalar = c[m] * k_st - complex(row_w @ b_col)
        b_col = c[m] * col - a.matvec(b_col)
        total += (-lam) ** m * b_scalar
    return complex(total)


def shifted_identity(a: np.ndarray, lam: complex) -> np.ndarray:
    """A new array I - lambda*A, real when A is real and lambda has no
    imaginary part.  It is in Fortran order, so LAPACK factors it in place
    (lu_factor with overwrite_a=True) instead of copying it first.  An entry
    past the float range raises BudgetExceededError, so the array returned is
    finite and LAPACK need not check it again."""
    lam = complex(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.multiply(a, -lam.real if lam.imag == 0 else -lam, order="F")
    if not np.isfinite(out).all():
        raise BudgetExceededError(f"I - lambda*A at lambda={lam} has entries beyond the float range")
    out[np.diag_indices_from(out)] += 1.0
    return out


def _shifted_lu(a: np.ndarray, lam: complex):
    """Pivoted LU factors of I - lambda*A.  On a small core, floating point
    can reach a characteristic value exactly; the zero pivot that leaves is
    det = 0, not a singular-matrix warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        return lu_factor(shifted_identity(a, lam), overwrite_a=True, check_finite=False)


def det_matrix(m: NystromMatrix, lam: complex) -> DetResult:
    """det(I - lambda*A) = det(I - lambda*core) by pivoted LU factorization.
    A determinant beyond the float range raises BudgetExceededError."""
    value = det_from_lu(*_shifted_lu(m.core, lam))
    if not cmath.isfinite(value):
        raise BudgetExceededError(f"det(I - lambda*A) at lambda={complex(lam)} is beyond the float range")
    return DetResult(value=value, path="matrix", terms_used=0)


def char_scan(
    k: KernelSpec,
    trunc: TruncationScheme,
    n: int,
    region: tuple,
    density: float,
    grid: Discretization,
    dedup_tol: float = 1e-6,
    variant: str = "plain",
) -> CharScanResult:
    """Locate determinant zeros in region = (re0, re1, im0, im1).

    Each nonzero eigenvalue mu of the Nystrom matrix's core gives a candidate
    1/mu.  Those inside the region (widened by dedup_tol) whose |det| passes
    the zero test, on one LU each, are the zeros, deduplicated within
    dedup_tol.
    `density` must be > 0 and does not change the zero set; it is kept
    because callers pass it positionally and the CLI echoes its
    `scan.density`.  The one-sided and two-sided truncations share their
    determinant, so `variant` does not change the zero set either.
    """
    re0, re1, im0, im1 = (float(v) for v in region)
    if not (re1 >= re0 and im1 >= im0):
        raise ValueError("region must satisfy re0 <= re1 and im0 <= im1")
    if density <= 0:
        raise ValueError("density must be > 0")
    a = nystrom_matrix(k, trunc, n, variant, grid).core
    margin = 1e-9 + dedup_tol

    def inside(z):
        return re0 - margin <= z.real <= re1 + margin and im0 - margin <= z.imag <= im1 + margin

    candidates = [1.0 / complex(mu) for mu in np.linalg.eigvals(a) if mu != 0]
    zeros = []
    for cand in sorted(filter(inside, candidates), key=lambda z: (z.real, z.imag)):
        if abs(det_from_lu(*_shifted_lu(a, cand))) >= 1e-8 * (1.0 + abs(cand)):
            continue
        if all(abs(cand - z) > dedup_tol for z in zeros):
            zeros.append(cand)
    return CharScanResult(zeros=tuple(zeros), search_region=(re0, re1, im0, im1))
