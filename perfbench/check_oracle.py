"""Checks the benchmark's oracle against the acceptance suite's frozen constants.

    python3 perfbench/check_oracle.py

Prints one PASS/FAIL line per check and exits 1 if any fails.  The constants
are those of tests/test_acceptance.py (truncation index 6, tau = 4).
"""

import sys

import numpy as np

import oracle

C_RANK1 = 1.2533141373154987
ZERO_RANK1 = 0.7978846
ZEROS_RANK2 = (0.7979, 6.3831)
F_AT_0 = 1.6025489

GAUSS = ("gauss", 1.0, 0.0)
X_GAUSS = ("x_gauss", 1.0, 0.0)
RANK1 = [[[1.0, 0.0], GAUSS, GAUSS]]
RANK2 = RANK1 + [[[0.5, 0.0], X_GAUSS, X_GAUSS]]
TAU = 4.0


def checks():
    r1 = oracle.Separable(RANK1, TAU)
    r2 = oracle.Separable(RANK2, TAU)
    yield "rank-1 Gram entry equals C_RANK1", abs(r1.gram[0, 0] - C_RANK1) <= 1e-14
    yield "rank-1 det(I - lam CG) = 1 - lam C_RANK1", all(
        abs(r1.det(lam) - (1.0 - lam * C_RANK1)) <= 1e-13 for lam in (0.3, 0.5, 0.5 + 0.2j))
    yield "rank-1 zero equals ZERO_RANK1", (
        len(r1.zeros()) == 1 and abs(r1.zeros()[0] - ZERO_RANK1) <= 1e-7)
    zeros2 = sorted(r2.zeros(), key=lambda z: z.real)
    yield "rank-2 zeros equal ZEROS_RANK2", len(zeros2) == 2 and all(
        abs(z - t) <= 1e-4 for z, t in zip(zeros2, ZEROS_RANK2))
    f0 = r1.solution(0.3, GAUSS, [0.0])[0]
    yield "rank-1 solution f(0) equals F_AT_0 within 1e-6", abs(f0 - F_AT_0) <= 1e-6
    # The closed-form resolvent solves its defining equation R = K + lam K o R.
    s, t = [0.3, -1.1], [0.7, 2.2]
    lam = 0.4 + 0.1j
    r = r2.resolvent(lam, s, t)
    x, w = oracle.gl_grid(-TAU, TAU, 8, 16)
    k_sx = r2.u(s) @ (r2.c[:, None] * r2.v(x).T)
    back = r2.u(s) @ (r2.c[:, None] * r2.v(t).T) + lam * (k_sx * w) @ r2.resolvent(lam, x, t)
    yield "closed-form resolvent satisfies R = K + lam K o R", float(abs(r - back).max()) <= 1e-12
    # The Nystrom reference, given the rank-1 kernel, reproduces its
    # determinant, zero and resolvent on its own grid.
    ref = oracle.NystromRef(TAU, 4, 8, kernel=lambda a, b: np.exp(-a * a - b * b))
    yield "Nystrom reference det, zero and R match the closed form", (
        abs(ref.det(0.3) - (1.0 - 0.3 * C_RANK1)) <= 1e-12
        and abs(min(ref.zeros(), key=abs) - ZERO_RANK1) <= 1e-7
        and float(abs(ref.resolvent(0.3, s, t) - r1.resolvent(0.3, s, t)).max()) <= 1e-12)


def main():
    failed = 0
    for desc, ok in checks():
        print(f"ORACLE {'PASS' if ok else 'FAIL'} - {desc}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
