"""Reference values computed without fredkern.

Separable kernels K(s,t) = sum_j c_j u_j(s) v_j(t) have closed-form
resolvents on a truncation interval (-tau, tau): with the rank-r Gram matrix
G[k, j] = int_{-tau}^{tau} v_k u_j (by scipy.integrate.quad) and C = diag(c),

    det(I - lam T_n)  = det(I - lam C G)
    zeros             = 1 / eig(C G)
    R(s, t)           = chi(s) U(s) (I - lam C G)^{-1} C V(t)^T   (tilde: * chi(t))
    f = g + lam R g   = g(s) + lam chi(s) U(s) (I - lam C G)^{-1} C h,
                        h_k = int_{-tau}^{tau} v_k g.

The Gaussian/Cauchy kernel has no closed form; `NystromRef` solves its
collocation system with plain numpy on a composite Gauss-Legendre grid built
here, so checks still share no code with the package.

Kernels are described by plain data, as the benchmark generates them:
    {"family": "separable_sum", "terms": [[[c_re, c_im], [kind, scale, shift],
                                            [kind, scale, shift]], ...]}
    {"family": "gauss_cauchy"}
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import lu_factor, lu_solve

QUAD_OPTS = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 200}


def basis_scalar(kind, scale, shift):
    """u(x) = base(scale * (x - shift)) for one float x."""
    if kind == "gauss":
        return lambda x: math.exp(-((scale * (x - shift)) ** 2))
    if kind == "x_gauss":
        return lambda x: scale * (x - shift) * math.exp(-((scale * (x - shift)) ** 2))
    if kind == "sech":
        return lambda x: 1.0 / math.cosh(scale * (x - shift))
    raise ValueError(f"unknown basis kind {kind!r}")


def basis_array(kind, scale, shift, x):
    y = scale * (np.asarray(x, dtype=float) - shift)
    if kind == "gauss":
        return np.exp(-y * y)
    if kind == "x_gauss":
        return y * np.exp(-y * y)
    return 1.0 / np.cosh(y)


def chi(tau, x):
    return (np.abs(np.asarray(x, dtype=float)) < tau).astype(float)


def integral(f, a, b):
    # Integrals that vanish to roundoff (deep tails, odd products) warn that
    # the relative tolerance is out of reach; the absolute one still holds.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(f, a, b, **QUAD_OPTS)[0]


def elementary_symmetric(eigs, m_max):
    """e_0..e_m_max of the eigenvalues, so det(I - lam A) = sum (-lam)^m e_m."""
    e = np.zeros(m_max + 1, dtype=complex)
    e[0] = 1.0
    for mu in eigs:
        e[1:] = e[1:] + mu * e[:-1]
    return e


def gl_grid(a, b, panels_per_unit, order):
    """Composite Gauss-Legendre nodes and weights on (a, b)."""
    panels = max(1, int(math.ceil((b - a) * panels_per_unit - 1e-9)))
    xi, wi = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    return (mids[:, None] + halfs[:, None] * xi).ravel(), (halfs[:, None] * wi).ravel()


def _sqrt_psd(g):
    w, v = np.linalg.eigh(g)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


class Separable:
    """Closed-form truncated resolvent of a separable kernel on (-tau, tau)."""

    def __init__(self, terms, tau):
        self.tau = float(tau)
        self.c = np.array([complex(*t[0]) for t in terms])
        self.left = [tuple(t[1]) for t in terms]
        self.right = [tuple(t[2]) for t in terms]
        self.gram = self._gram(self.right, self.left, -self.tau, self.tau)
        self.cg = self.c[:, None] * self.gram
        self.mu = np.linalg.eigvals(self.cg)

    @staticmethod
    def _gram(rows, cols, a, b):
        fr = [basis_scalar(*p) for p in rows]
        fc = [basis_scalar(*p) for p in cols]
        return np.array([[integral(lambda x: f(x) * h(x), a, b) for h in fc] for f in fr])

    def rank(self):
        return len(self.c)

    def det(self, lam):
        return complex(np.linalg.det(np.eye(self.rank()) - lam * self.cg))

    def det_partial(self, lam, m_max):
        e = elementary_symmetric(self.mu, m_max)
        return complex(np.sum((-complex(lam)) ** np.arange(m_max + 1) * e))

    def zeros(self):
        return [1.0 / m for m in self.mu if abs(m) > 1e-13]

    def regular(self, lam, margin=0.05):
        """lam is regular with margin: every factor |1 - lam mu_i| >= margin."""
        return bool(np.all(np.abs(1.0 - complex(lam) * self.mu) >= margin))

    def u(self, x):
        return np.stack([basis_array(*p, x) for p in self.left], axis=-1)

    def v(self, x):
        return np.stack([basis_array(*p, x) for p in self.right], axis=-1)

    def resolvent(self, lam, s, t, tilde=False):
        m = np.linalg.solve(np.eye(self.rank()) - lam * self.cg, np.diag(self.c))
        vals = (chi(self.tau, s)[:, None] * self.u(s)) @ m @ self.v(t).T
        return vals * chi(self.tau, t)[None, :] if tilde else vals

    def solution(self, lam, g, nodes):
        """f = g + lam R g at the nodes, for g = (kind, scale, shift)."""
        gs = basis_scalar(*g)
        h = np.array(
            [integral(lambda x: basis_scalar(*p)(x) * gs(x), -self.tau, self.tau)
             for p in self.right]
        )
        m = np.linalg.solve(np.eye(self.rank()) - lam * self.cg, self.c * h)
        return basis_array(*g, nodes) + lam * chi(self.tau, nodes) * (self.u(nodes) @ m)

    def tail_norm(self, m, radius, tilde=False):
        """Norm of (T - T_n) T_n^m as an operator from L^2(t-range) to
        L^2(tau <= |s| <= radius); the t-range is (-radius, radius), or
        (-tau, tau) for the two-sided truncation."""
        mid = np.linalg.matrix_power(self.cg, m) * self.c[None, :]
        gu = self._gram(self.left, self.left, self.tau, radius)
        gu = gu + self._gram(self.left, self.left, -radius, -self.tau)
        t_lim = self.tau if tilde else radius
        gv = self._gram(self.right, self.right, -t_lim, t_lim)
        return float(np.linalg.norm(_sqrt_psd(gu) @ mid @ _sqrt_psd(gv), 2))


def separable_full_norm(terms, radius):
    """Operator norm of the untruncated separable kernel on L^2(-radius, radius)."""
    c = np.array([complex(*t[0]) for t in terms])
    left = [tuple(t[1]) for t in terms]
    right = [tuple(t[2]) for t in terms]
    gu = Separable._gram(left, left, -radius, radius)
    gv = Separable._gram(right, right, -radius, radius)
    return float(np.linalg.norm(_sqrt_psd(gu) @ np.diag(c) @ _sqrt_psd(gv), 2))


def gauss_cauchy(s, t):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.exp(-(s * s + t * t)) / (1.0 + (s - t) ** 2)


class NystromRef:
    """Collocation solution of a kernel (the Gaussian/Cauchy one unless given),
    truncated to (-tau, tau), with numpy on a grid built here."""

    def __init__(self, tau, panels_per_unit, order, kernel=gauss_cauchy):
        self.tau = float(tau)
        self.kernel = kernel
        self.nodes, self.weights = gl_grid(-tau, tau, panels_per_unit, order)
        self.a = kernel(self.nodes[:, None], self.nodes[None, :]) * self.weights[None, :]
        self._mu = None
        self._lu = (None, None)  # the last lambda and its factors

    @property
    def mu(self):
        if self._mu is None:
            sw = np.sqrt(self.weights)
            self._mu = np.linalg.eigvalsh(sw[:, None] * self.a / sw[None, :])
        return self._mu

    def _factor(self, lam):
        lam = complex(lam)
        if self._lu[0] != lam:
            self._lu = (lam, lu_factor(np.eye(len(self.nodes)) - lam * self.a))
        return self._lu[1]

    def det(self, lam):
        lu, piv = self._factor(lam)
        swaps = np.count_nonzero(piv != np.arange(len(piv)))
        return complex((-1.0) ** swaps * np.prod(np.diag(lu)))

    def det_partial(self, lam, m_max):
        e = elementary_symmetric(self.mu, m_max)
        return complex(np.sum((-complex(lam)) ** np.arange(m_max + 1) * e))

    def zeros(self):
        return [1.0 / m for m in self.mu if abs(m) > 1e-13]

    def regular(self, lam, margin=0.05):
        return bool(np.all(np.abs(1.0 - complex(lam) * self.mu) >= margin))

    def resolvent(self, lam, s, t, tilde=False):
        lam = complex(lam)
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        rows = chi(self.tau, s)[:, None] * self.kernel(s[:, None], self.nodes[None, :])
        cols = lu_solve(self._factor(lam), self.kernel(self.nodes[:, None], t[None, :]) + 0j)
        vals = chi(self.tau, s)[:, None] * self.kernel(s[:, None], t[None, :])
        vals = vals + lam * (rows * self.weights[None, :]) @ cols
        return vals * chi(self.tau, t)[None, :] if tilde else vals

    def solution(self, lam, g):
        """Solution of f - lam A f = g at the nodes, for g = (kind, scale, shift)."""
        return lu_solve(self._factor(lam), basis_array(*g, self.nodes).astype(complex))


def regular_with(mu, lam, margin=0.05):
    return bool(np.all(np.abs(1.0 - complex(lam) * np.asarray(mu)) >= margin))
