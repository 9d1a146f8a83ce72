"""Shared fixtures and closed-form oracles for the test suite.

The separable built-in kernels admit exact Gaussian integrals, which the
tests use as independent references:

    int e^{-2x^2} dx over (-r, r)     = sqrt(pi/2) * erf(r*sqrt(2))
    int x^2 e^{-2x^2} dx over (-r, r) = (1/4)sqrt(pi/2)erf(r√2) - (r/4)e^{-2r^2}
"""

import math

import numpy as np
import pytest
from scipy.special import erf, erfc

import fredkern as fk

GAUSS_FULL = math.sqrt(math.pi / 2.0)  # int e^{-2x^2} over R
XGAUSS_FULL = 0.25 * math.sqrt(math.pi / 2.0)  # int x^2 e^{-2x^2} over R


def gauss_overlap(radius=None):
    """int_{-r}^{r} e^{-2x^2} dx, the self-overlap of the gauss basis factor."""
    if radius is None:
        return GAUSS_FULL
    return GAUSS_FULL * erf(radius * math.sqrt(2.0))


def xgauss_overlap(radius=None):
    """int_{-r}^{r} x^2 e^{-2x^2} dx, the self-overlap of the x_gauss factor."""
    if radius is None:
        return XGAUSS_FULL
    return XGAUSS_FULL * erf(radius * math.sqrt(2.0)) - 0.5 * radius * math.exp(
        -2.0 * radius * radius
    )


def gauss_tail_l2(radius):
    """L^2 norm of e^{-x^2} restricted to |x| >= radius (erfc keeps precision
    deep in the tail)."""
    return math.sqrt(GAUSS_FULL * erfc(radius * math.sqrt(2.0)))


def is_oracle_backed(k):
    """Tabulated kernels are interpolated and excluded from exact oracles."""
    return k.family != "custom_tabulated"


def project(trunc, n, nodes, values):
    """P_n applied to a sampled function: zero outside (-tau_n, tau_n)."""
    return trunc.chi(n, nodes) * np.asarray(values)


@pytest.fixture
def rank1():
    return fk.gauss_rank1()


@pytest.fixture
def odd():
    return fk.odd_rank1()


@pytest.fixture
def rank2():
    return fk.rank2_orthogonal()


@pytest.fixture
def gcauchy():
    return fk.gauss_cauchy()


@pytest.fixture
def zero():
    return fk.zero_kernel()


@pytest.fixture
def trunc():
    return fk.TruncationScheme()


@pytest.fixture
def grid6(trunc):
    """Grid on (-4, 4): truncation index 6 under the default scheme."""
    return fk.build_grid(trunc, 6, 4, 8)


@pytest.fixture
def grid10(trunc):
    """Grid on (-6, 6): truncation index 10 under the default scheme."""
    return fk.build_grid(trunc, 10, 4, 8)


@pytest.fixture
def disc8():
    """Reference grid covering the built-in kernels' numerical support."""
    return fk.grid_on_interval(-8.0, 8.0, 4, 8)


def record_square_samplings(monkeypatch, min_side):
    """Record the shape of every kernel sampling with at least min_side rows
    and columns, wherever the package calls eval_kernel from."""
    from fredkern import convergence, kernels, quadrature, resolvent

    shapes = []
    sample = kernels.eval_kernel

    def recording(k, s, t):
        out = sample(k, s, t)
        if np.ndim(out) == 2 and min(np.shape(out)) >= min_side:
            shapes.append(np.shape(out))
        return out

    for mod in (kernels, quadrature, resolvent, convergence):
        if hasattr(mod, "eval_kernel"):
            monkeypatch.setattr(mod, "eval_kernel", recording)
    return shapes
