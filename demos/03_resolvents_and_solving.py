"""Resolvent kernels of truncated kernels: evaluation, defining-equation
residuals, second-kind solves, and the series route for the full kernel.

Run:  python demos/03_resolvents_and_solving.py
"""

from dataclasses import replace

import numpy as np

import fredkern as fk

trunc = fk.TruncationScheme()
grid = fk.build_grid(trunc, 6, 4, 8)  # tau = 4
k = fk.gauss_rank1()
c = np.sqrt(np.pi / 2)
lam = 0.3

print("=" * 70)
print("Resolvent handle: factorize once, evaluate anywhere")
print("=" * 70)
h = fk.make_resolvent(k, trunc, 6, lam, grid)
print(f"R(0, 0)      = {fk.resolvent_eval(h, 0.0, 0.0).real:.10f}   "
      f"(exact 1/(1-lambda*c) = {1 / (1 - lam * c):.10f})")
print(f"R(1, -1)     = {fk.resolvent_eval(h, 1.0, -1.0).real:.10f}")
print(f"R(4.5, 0)    = {fk.resolvent_eval(h, 4.5, 0.0).real:.1f}        "
      "(compact support in the first variable)")

ht = fk.make_resolvent(k, trunc, 6, lam, grid, variant="tilde")
print(f"tilde R(1, 4.5) = {fk.resolvent_eval(ht, 1.0, 4.5).real:.1f}     "
      "(two-sided mask also cuts the second variable)")

print()
print("Residuals of the two defining second-kind equations:")
egrid = fk.grid_on_interval(-5.0, 5.0, 1, 8)
r_left, r_right = fk.residual_check(h, egrid)
print(f"  genuine handle:    left={r_left:.3e}   right={r_right:.3e}")
# A stale factor: the handle claims lambda x1.5 but keeps the LU at lambda.
r_left, r_right = fk.residual_check(replace(h, lam=1.5 * h.lam), egrid)
print(f"  stale (lambda x1.5): left={r_left:.3e}   right={r_right:.3e}   (negative control)")

print()
print("=" * 70)
print("Solving f - lambda*T_n f = g through the resolvent")
print("=" * 70)
g = np.exp(-grid.nodes**2)
f = fk.solve_equation(h, g)
idx = np.argmin(np.abs(grid.nodes))
print(f"g(s) = e^(-s^2), lambda = {lam}")
print(f"  f at node nearest 0: {f[idx].real:.10f}")
print(f"  exact g(s)/(1-lambda*c) there: "
      f"{np.exp(-grid.nodes[idx] ** 2) / (1 - lam * c):.10f}")

print()
print("Row and column slices of the resolvent kernel:")
col = fk.resolvent_carleman(h, "column", 0.0, grid)
row = fk.resolvent_carleman(h, "row", 0.0, grid)
print(f"  max |column - u/(1-lambda*c)| = "
      f"{np.max(np.abs(col.samples - np.exp(-grid.nodes**2) / (1 - lam * c))):.3e}")
print(f"  max |row - conj(column)|      = {np.max(np.abs(row.samples - np.conj(col.samples))):.3e}"
      "   (hermitian kernel, real lambda)")

print()
print("=" * 70)
print("Full-kernel resolvent by the iterated-kernel series (|lambda|*||T|| < 1)")
print("=" * 70)
disc = fk.grid_on_interval(-8.0, 8.0, 4, 8)
print(f"{'terms':>6} {'partial sum at (0,0)':>24} {'tail bound':>14}")
for terms in (1, 2, 4, 8, 16, 30):
    nv = fk.neumann_full(k, lam, 0.0, 0.0, disc, terms)
    print(f"{terms:>6} {nv.value.real:24.15f} {nv.tail_bound:14.3e}")
h10 = fk.make_resolvent(k, trunc, 10, lam, fk.build_grid(trunc, 10, 4, 8))
print(f"factorized route at tau=6:   {fk.resolvent_eval(h10, 0.0, 0.0).real:24.15f}")

print()
print("Identity between two truncations (applied to a probe basis):")
grid8 = fk.build_grid(trunc, 8, 4, 8)
ha = fk.make_resolvent(k, trunc, 8, lam, grid8)
hb = fk.make_resolvent(k, trunc, 3, lam, grid8)
print(f"  second-resolvent residual (n=3 vs n=8): "
      f"{fk.second_resolvent_residual(ha, hb):.3e}")
