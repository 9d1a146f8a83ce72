"""Kernel definitions: smooth decaying two-variable kernels on the real line,
their row/column norm functions, truncated subkernels, and iterated kernels.

A kernel here is a continuous complex function K(s,t) on R^2 that decays at
infinity fast enough that every row K(s,.) and column K(.,t) is square
integrable.  The built-in families are a separable sum over a small basis
library (closed-form integrals available for testing) and one non-separable
Gaussian/Cauchy product family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SEPARABLE_SUM = "separable_sum"
GAUSS_CAUCHY = "gauss_cauchy"
CUSTOM_TABULATED = "custom_tabulated"

_FAMILIES = (SEPARABLE_SUM, GAUSS_CAUCHY, CUSTOM_TABULATED)
_BASIS_KINDS = ("gauss", "x_gauss", "sech")
VARIANTS = ("plain", "tilde")


@dataclass(frozen=True)
class BasisFn:
    """One-dimensional bounded square-integrable factor u(x) = base(scale*(x - shift)).

    kind: "gauss" (e^{-x^2}), "x_gauss" (x e^{-x^2}) or "sech" (1/cosh x).
    """

    kind: str
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in _BASIS_KINDS:
            raise ConfigError("kind", f"unknown basis kind {self.kind!r}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError("scale", "must be finite and > 0")
        if not math.isfinite(self.shift):
            raise ConfigError("shift", "must be finite")

    def __call__(self, x):
        y = (np.asarray(x, dtype=float) - self.shift) * self.scale
        if self.kind == "gauss":
            return np.exp(-y * y)
        if self.kind == "x_gauss":
            return y * np.exp(-y * y)
        with np.errstate(over="ignore"):  # cosh overflows past |y| ~ 710, where 1/cosh is 0
            return 1.0 / np.cosh(y)


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A kernel K(s,t), either a separable sum, the Gaussian/Cauchy family, or
    a tabulated kernel interpolated bilinearly.

    terms: for the separable family, a tuple of (coefficient, left, right)
    giving K(s,t) = sum_j coeff_j * left_j(s) * right_j(t).
    """

    family: str
    terms: tuple = ()
    hermitian: bool = False
    label: str = ""
    table_radius: float = 0.0
    table_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError("family", f"unknown kernel family {self.family!r}")
        if self.family == SEPARABLE_SUM:
            for j, term in enumerate(self.terms):
                coeff, left, right = term
                c = complex(coeff)
                if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                    raise ConfigError(f"terms[{j}].coefficient", "must be finite")
                if not isinstance(left, BasisFn) or not isinstance(right, BasisFn):
                    raise ConfigError(f"terms[{j}]", "left/right must be BasisFn")
        if self.family == CUSTOM_TABULATED:
            if not (math.isfinite(self.table_radius) and self.table_radius > 0):
                raise ConfigError("radius", "must be finite and > 0")
            try:
                vals = np.asarray(self.table_values, dtype=complex)
                square = vals.ndim == 2 and vals.shape[0] == vals.shape[1] >= 2
            except ValueError:  # ragged rows
                square = False
            if not square:
                raise ConfigError("values", "must be a square matrix, size >= 2")
            if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
                raise ConfigError("values", "must be finite")
            # A real table keeps the kernel real.
            object.__setattr__(self, "table_values", vals if vals.imag.any() else vals.real.copy())

    @property
    def is_oracle_backed(self) -> bool:
        """Tabulated kernels are interpolated and excluded from exact oracles."""
        return self.family != CUSTOM_TABULATED

    def tail_radius(self) -> float:
        """Radius beyond which the kernel tail is below the double-precision
        floor (~1e-14); whole-line integrals are truncated here.

        Gaussian factors reach the floor by 8/scale, the slower sech factor
        by 33/scale; shifts push the radius outward.  Tabulated kernels are
        zero outside their table by definition.
        """
        if self.family == SEPARABLE_SUM:
            factors = {"gauss": 8.0, "x_gauss": 8.0, "sech": 33.0}
            radius = 1.0
            for _, left, right in self.terms:
                for fn in (left, right):
                    radius = max(radius, factors[fn.kind] / fn.scale + abs(fn.shift))
            return radius
        if self.family == GAUSS_CAUCHY:
            return 8.0
        return float(self.table_radius)


@dataclass(frozen=True)
class TruncationScheme:
    """Strictly increasing truncation radii tau_n and the induced indicator
    chi_n of the interval (-tau_n, tau_n) and projection P_n (multiplication
    by chi_n)."""

    tau0: float = 1.0
    growth: str = "arithmetic"
    step: float = 0.5
    ratio: float = 1.5

    def __post_init__(self):
        if not (math.isfinite(self.tau0) and self.tau0 > 0):
            raise ConfigError("tau0", "must be finite and > 0")
        if self.growth not in ("arithmetic", "geometric"):
            raise ConfigError("growth", f"unknown growth {self.growth!r}")
        if self.growth == "arithmetic" and not (math.isfinite(self.step) and self.step > 0):
            raise ConfigError("step", "must be finite and > 0")
        if self.growth == "geometric" and not (math.isfinite(self.ratio) and self.ratio > 1):
            raise ConfigError("ratio", "must be finite and > 1")

    def tau(self, n: int) -> float:
        if n < 1:
            raise ValueError("truncation index n must be >= 1")
        if self.growth == "arithmetic":
            return self.tau0 + self.step * n
        try:
            return self.tau0 * self.ratio**n
        except OverflowError:  # beyond the float range; grids refuse it by their ceiling
            return math.inf

    def chi(self, n: int, x):
        """Indicator of the open interval (-tau_n, tau_n), vectorized."""
        return (np.abs(np.asarray(x, dtype=float)) < self.tau(n)).astype(float)

    def project(self, n: int, nodes, values):
        """P_n applied to a sampled function: zero outside (-tau_n, tau_n)."""
        return self.chi(n, nodes) * np.asarray(values)


def eval_kernel(k: KernelSpec, s, t):
    """Evaluate K(s,t); accepts scalars or broadcastable arrays.

    The values are float64 when the kernel is real (a separable sum with
    real coefficients, the Gaussian/Cauchy family, a real table) and complex
    otherwise.  A scalar comes back as a Python float or complex; an array is
    freshly allocated, so callers may scale it in place.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if k.family == SEPARABLE_SUM:
        out = _eval_separable(k, s, t)
    elif k.family == GAUSS_CAUCHY:
        out = _eval_gauss_cauchy(s, t)
    else:
        out = _eval_tabulated(k, s, t)
    return out.item() if out.ndim == 0 else out


def _eval_gauss_cauchy(s, t):
    """exp(-(s^2 + t^2)) / (1 + (s - t)^2), with one broadcast temporary."""
    den = s - t
    den *= den
    den += 1.0
    out = np.asarray(s * s + t * t)  # an array also for scalar s and t
    np.negative(out, out=out)
    np.exp(out, out=out)
    out /= den
    return out


def _basis_matrix(fns, x):
    """fns_j(x_i) as an (x.size, len(fns)) array."""
    flat = x.ravel()
    out = np.empty((flat.size, len(fns)))
    for j, fn in enumerate(fns):
        out[:, j] = fn(flat)
    return out


def _separable_factors(k, s, t):
    """(U(s) diag(c), V(t)): the basis matrices of a separable sum over the
    flattened points, so that K(s_i, t_j) = sum_l (U diag(c))[i,l] V[j,l]."""
    coeffs = np.array([complex(c) for c, _, _ in k.terms], dtype=complex)
    if not coeffs.imag.any():
        coeffs = coeffs.real
    left = _basis_matrix([left for _, left, _ in k.terms], s) * coeffs
    return left, _basis_matrix([right for _, _, right in k.terms], t)


def _eval_separable(k, s, t):
    """sum_j c_j left_j(s) right_j(t), as the product (U(s) diag(c)) V(t)^T
    when every axis of the broadcast varies in at most one of s and t (grids,
    scalar x vector), so those call patterns round alike; else elementwise."""
    shape = np.broadcast_shapes(s.shape, t.shape)
    d = len(shape)
    ps = (1,) * (d - s.ndim) + s.shape
    pt = (1,) * (d - t.ndim) + t.shape
    if all(a == 1 or b == 1 for a, b in zip(ps, pt)):
        u, v = _separable_factors(k, s, t)
        prod = u @ v.T
        # Interleave the axes of s and t; one of each pair has length 1.
        order = [i for pair in zip(range(d), range(d, 2 * d)) for i in pair]
        return prod.reshape(ps + pt).transpose(order).reshape(shape)
    u, v = _separable_factors(k, np.broadcast_to(s, shape), np.broadcast_to(t, shape))
    return np.einsum("ij,ij->i", u, v).reshape(shape)


def _eval_tabulated(k, s, t):
    from scipy.interpolate import RegularGridInterpolator

    npts = k.table_values.shape[0]
    axis = np.linspace(-k.table_radius, k.table_radius, npts)
    interp = RegularGridInterpolator(
        (axis, axis), k.table_values, method="linear", bounds_error=False, fill_value=0.0
    )
    ss, tt = np.broadcast_arrays(s, t)
    pts = np.stack([ss.ravel(), tt.ravel()], axis=-1)
    return interp(pts).reshape(ss.shape)


def carleman_norm(k: KernelSpec, s: float, disc, side: str = "row") -> float:
    """L^2 norm of the row K(s,.) (side="row") or column K(.,s) (side="column"),
    computed by quadrature on the given grid.  Row and column coincide for
    hermitian kernels."""
    if side not in ("row", "column"):
        raise ValueError(f"side must be 'row' or 'column', got {side!r}")
    if side == "row":
        vals = eval_kernel(k, s, disc.nodes)
    else:
        vals = eval_kernel(k, disc.nodes, s)
    return float(np.sqrt(np.sum(disc.weights * np.abs(vals) ** 2).real))


def subkernel_eval(k: KernelSpec, trunc: TruncationScheme, n: int, variant: str, s, t):
    """Truncated kernel: "plain" masks the first variable by chi_n, "tilde"
    masks both.  Equals eval_kernel inside the mask, zero outside."""
    if n < 1:
        raise ValueError("subkernel index n must be >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    out = np.asarray(eval_kernel(k, s, t))
    out *= trunc.chi(n, s)
    if variant == "tilde":
        out *= trunc.chi(n, t)
    return out.item() if out.ndim == 0 else out


def kernel_factors(k: KernelSpec, s, t):
    """Exact factors (left, right) of the kernel on the product grid s by t,
    K(s_i, t_j) = sum_l left[i,l] right[j,l] up to rounding, or None for a
    kernel sampled without them (gauss_cauchy, tables).  For a separable sum,
    left = U(s) diag(c) and right = V(t); the rank is the number of terms."""
    if k.family != SEPARABLE_SUM:
        return None
    return _separable_factors(k, np.asarray(s, dtype=float), np.asarray(t, dtype=float))


def subkernel_factors(k: KernelSpec, trunc: TruncationScheme, n: int, variant: str, x):
    """`kernel_factors` of the truncated kernel on x by x: left is masked by
    chi_n, and right too for "tilde"."""
    factors = kernel_factors(k, x, x)
    if factors is None:
        return None
    chi = trunc.chi(n, x)[:, None]
    left, right = factors
    return left * chi, (right * chi if variant == "tilde" else right)


def iterant_eval(k: KernelSpec, m: int, s: float, t: float, disc) -> complex:
    """m-th iterated kernel, the (m-1)-fold convolution of K with itself,
    by quadrature on the given grid.  For a rank-1 kernel K = u x v it equals
    c^{m-1} K(s,t) with c the overlap integral of u and v."""
    if m < 2:
        raise ValueError("iterant order m must be >= 2")
    x = disc.nodes
    w = disc.weights
    a = np.asarray(eval_kernel(k, x[:, None], x[None, :])) * w[None, :]
    vec = np.asarray(eval_kernel(k, x, t), dtype=complex)
    for _ in range(m - 2):
        vec = a @ vec
    row = np.asarray(eval_kernel(k, s, x), dtype=complex)
    return complex(np.sum(row * w * vec))


# Built-in kernels used throughout docs, demos, and verification.


def gauss_rank1() -> KernelSpec:
    """K(s,t) = e^{-s^2 - t^2}; hermitian, rank one."""
    g = BasisFn("gauss")
    return KernelSpec(SEPARABLE_SUM, ((1.0, g, g),), hermitian=True, label="gauss-rank1")


def odd_rank1() -> KernelSpec:
    """K(s,t) = e^{-s^2} * t e^{-t^2}; rank one with zero self-overlap, so the
    induced operator squares to zero."""
    return KernelSpec(
        SEPARABLE_SUM,
        ((1.0, BasisFn("gauss"), BasisFn("x_gauss")),),
        hermitian=False,
        label="odd-rank1",
    )


def rank2_orthogonal() -> KernelSpec:
    """K(s,t) = e^{-s^2}e^{-t^2} + 0.5 (s e^{-s^2})(t e^{-t^2}); hermitian,
    rank two with orthogonal components."""
    g = BasisFn("gauss")
    xg = BasisFn("x_gauss")
    return KernelSpec(
        SEPARABLE_SUM, ((1.0, g, g), (0.5, xg, xg)), hermitian=True, label="rank2-orth"
    )


def gauss_cauchy() -> KernelSpec:
    """K(s,t) = e^{-(s^2+t^2)} / (1 + (s-t)^2); hermitian, non-separable."""
    return KernelSpec(GAUSS_CAUCHY, hermitian=True, label="gauss-cauchy")


def zero_kernel() -> KernelSpec:
    g = BasisFn("gauss")
    return KernelSpec(SEPARABLE_SUM, ((0.0, g, g),), hermitian=True, label="zero")


BUILTIN_KERNELS = {
    "gauss_rank1": gauss_rank1,
    "odd_rank1": odd_rank1,
    "rank2_orthogonal": rank2_orthogonal,
    "gauss_cauchy": gauss_cauchy,
    "zero": zero_kernel,
}
