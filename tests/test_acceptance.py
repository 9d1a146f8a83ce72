"""Acceptance suite: one test per criterion, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Tolerances are pinned here and are not to be loosened; the oracle constants
are closed-form Gaussian integrals (see conftest).
"""

from dataclasses import replace

import numpy as np

import fredkern as fk
from fredkern.cli import run_command

# Frozen targets.  The determinant slope is the overlap integral of the gauss
# factor over (-4, 4), frozen from 50-digit quadrature (1.2533141... as
# displayed with the criterion); the remaining constants are as stated.
C_RANK1 = 1.2533141373154987
ZERO_RANK1 = 0.7978846
ZEROS_RANK2 = (0.7979, 6.3831)
F_AT_0 = 1.6025489

N_LIST = range(2, 11)  # tau_n in {2, 2.5, ..., 6}


def check(num, desc, passed):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {desc}")
    assert passed, f"criterion {num} failed: {desc}"


def eval_grid():
    return fk.grid_on_interval(-6.5, 6.5, 1, 8)


def non_increasing(seq, slack=1e-10):
    return all(b <= a + slack for a, b in zip(seq, seq[1:]))


def test_criterion_1_rank1_determinant(rank1, trunc, grid6):
    assert abs(C_RANK1 - 1.2533141) < 5e-8  # frozen constant matches display
    m = fk.nystrom_matrix(rank1, trunc, 6, "plain", grid6)
    ok = True
    for lam in (0.3, 0.5, 0.5 + 0.2j):
        expected = 1.0 - lam * C_RANK1
        ok &= abs(fk.det_matrix(m, lam).value - expected) <= 1e-8
        ok &= abs(fk.det_series(rank1, trunc, 6, lam, grid6, 6).value - expected) <= 1e-8
    check(1, "rank-1 determinant, series and matrix paths, within 1e-8", ok)


def test_criterion_2_characteristic_values(rank1, rank2, trunc):
    grid = fk.build_grid(trunc, 6, 2, 8)
    res1 = fk.char_scan(rank1, trunc, 6, (0.0, 2.0, -0.5, 0.5), 4.0, grid)
    ok = len(res1.zeros) == 1 and abs(res1.zeros[0] - ZERO_RANK1) <= 1e-4
    res2 = fk.char_scan(rank2, trunc, 6, (0.0, 8.0, -1.0, 1.0), 2.0, grid)
    ok &= len(res2.zeros) == 2
    ok &= all(
        abs(z - t) <= 1e-3 for z, t in zip(sorted(res2.zeros, key=lambda z: z.real), ZEROS_RANK2)
    )
    check(2, "characteristic values of rank-1 and rank-2 built-ins located", ok)


def test_criterion_3_defining_equation_residuals(trunc, grid6):
    egrid = fk.grid_on_interval(-5.0, 5.0, 1, 8)
    ok = True
    for maker in (fk.gauss_rank1, fk.odd_rank1, fk.rank2_orthogonal, fk.gauss_cauchy):
        k = maker()
        for lam in (0.1, 0.3, 0.5 + 0.2j):
            h = fk.make_resolvent(k, trunc, 6, lam, grid6)
            r_left, r_right = fk.residual_check(h, egrid)
            ok &= r_left <= 1e-6 and r_right <= 1e-6
    # Negative control: a stale factor, the LU at 0.3 under a handle that claims 0.45.
    h = fk.make_resolvent(fk.gauss_rank1(), trunc, 6, 0.3, grid6)
    ok &= max(fk.residual_check(replace(h, lam=1.5 * h.lam), egrid)) >= 1e-2
    check(3, "defining-equation residuals <= 1e-6 with negative control >= 1e-2", ok)


def test_criterion_4_neumann_fredholm_cross_path(rank1, trunc, disc8):
    lam = 0.3  # |lambda| * ||T|| ~ 0.376 <= 0.5
    grid = fk.build_grid(trunc, 10, 4, 8)  # tau = 6
    h = fk.make_resolvent(rank1, trunc, 10, lam, grid)
    probes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    from fredkern.resolvent import neumann_kernel_matrix

    series_vals = neumann_kernel_matrix(rank1, lam, probes, probes, disc8, 30)
    handle_vals = h.eval_grid_matrix(probes, probes)
    ok = bool(np.max(np.abs(series_vals - handle_vals)) <= 1e-6)

    ref = fk.resolvent_eval(h, 0.0, 0.0)
    for terms in range(1, 31):
        nv = fk.neumann_full(rank1, lam, 0.0, 0.0, disc8, terms)
        ok &= abs(nv.value - ref) <= nv.tail_bound + 1e-10
    check(4, "series/factorized cross-path <= 1e-6 with tail bound honored", ok)


def test_criterion_5_solution_formula(rank1, trunc, grid6):
    lam = 0.3
    h = fk.make_resolvent(rank1, trunc, 6, lam, grid6)
    g = np.exp(-grid6.nodes**2)
    f = fk.solve_equation(h, g)

    row0 = h.eval_grid_matrix(np.array([0.0]), grid6.nodes)[0]
    f_at_0 = 1.0 + lam * np.sum(row0 * grid6.weights * g)
    ok = abs(f_at_0 - F_AT_0) <= 1e-6

    pts = np.linspace(-3.75, 3.75, 41)
    rows = h.eval_grid_matrix(pts, grid6.nodes)
    f_ext = np.exp(-pts**2) + lam * rows @ (grid6.weights * g)
    kn = np.asarray(
        fk.subkernel_eval(rank1, trunc, 6, "plain", pts[:, None], grid6.nodes[None, :])
    )
    back = f_ext - lam * kn @ (grid6.weights * f) - np.exp(-pts**2)
    ok &= bool(np.max(np.abs(back)) <= 1e-7)
    check(5, "second-kind solve: f(0) within 1e-6 and back-substitution <= 1e-7", ok)


def test_criterion_6_shifted_sequence_diagnostic(rank1, trunc):
    egrid = eval_grid()
    zero = fk.ShiftSchedule("zero")
    harm = fk.ShiftSchedule("harmonic", 1.0)
    ok = True
    finals = {}
    for tag, sched in (("zero", zero), ("harmonic", harm)):
        for variant in ("plain", "tilde"):
            rep = fk.resolvent_convergence_diagnostic(
                rank1, trunc, 0.3, sched, N_LIST, egrid, "largest_n", variant=variant
            )
            for seq in (rep.sup_T_diff, rep.sup_row_diff, rep.sup_col_diff):
                ok &= non_increasing(seq) and seq[-1] <= 1e-5
            finals[(tag, variant)] = (
                rep.sup_T_diff[-1],
                rep.sup_row_diff[-1],
                rep.sup_col_diff[-1],
            )
    for tag in ("zero", "harmonic"):
        deltas = [
            abs(a - b) for a, b in zip(finals[(tag, "plain")], finals[(tag, "tilde")])
        ]
        ok &= max(deltas) <= 1e-7

    # Stronger form for the unshifted schedule: the full-kernel series
    # reference must also be reached within tolerance.
    for variant in ("plain", "tilde"):
        rep = fk.resolvent_convergence_diagnostic(
            rank1, trunc, 0.3, zero, N_LIST, egrid, "neumann_disk",
            variant=variant, n_terms=60,
        )
        for seq in (rep.sup_T_diff, rep.sup_row_diff, rep.sup_col_diff):
            ok &= non_increasing(seq) and seq[-1] <= 1e-5
    check(6, "shifted-sequence distances non-increasing, finals <= 1e-5, tilde within 1e-7", ok)


def test_criterion_7_tail_condition(rank1, odd, trunc, disc8):
    seq = fk.tail_condition_report(rank1, trunc, 1, N_LIST, disc8)
    ok = all(b < a for a, b in zip(seq, seq[1:]))
    ok &= seq[-1] < 1e-8  # tau_n = 6
    odd_seq = fk.tail_condition_report(odd, trunc, 1, N_LIST, disc8)
    ok &= all(v <= 1e-12 for v in odd_seq)
    check(7, "composite tail norms strictly decreasing; nilpotent case <= 1e-12", ok)


def test_criterion_8_second_resolvent_identity(rank1, trunc):
    grid = fk.build_grid(trunc, 8, 4, 8)
    ha = fk.make_resolvent(rank1, trunc, 8, 0.3, grid)
    hb = fk.make_resolvent(rank1, trunc, 3, 0.3, grid)
    residual = fk.second_resolvent_residual(ha, hb)
    check(8, "second resolvent identity residual <= 1e-7 (n=3 vs n=8)", residual <= 1e-7)


def test_criterion_9_self_adjoint_zeros(rank2, trunc):
    grid = fk.build_grid(trunc, 6, 2, 8)
    res = fk.char_scan(rank2, trunc, 6, (0.0, 8.0, -1.0, 1.0), 2.0, grid)
    ok = len(res.zeros) > 0 and all(abs(z.imag) < 1e-6 for z in res.zeros)
    check(9, "hermitian built-in: every scanned zero has |Im| < 1e-6", ok)


def test_criterion_10_compact_case_envelope(rank1, trunc):
    sweep = fk.compact_sweep(
        rank1, trunc, [0.1, 0.3, 0.5, 0.3 + 0.2j], N_LIST, eval_grid(), n_terms=70
    )
    ok = sweep.skipped_lambdas == ()
    for seq in (sweep.envelope_T, sweep.envelope_row, sweep.envelope_col):
        ok &= non_increasing(seq) and seq[-1] <= 1e-5
    check(10, "uniform-in-lambda envelope decreasing with final <= 1e-5", ok)


def test_criterion_11_reproducibility(tmp_path):
    import json

    config = {
        "kernel": {
            "family": "separable_sum",
            "hermitian": True,
            "terms": [
                {
                    "coefficient": 1.0,
                    "left": {"kind": "gauss"},
                    "right": {"kind": "gauss"},
                }
            ],
        },
        "quadrature": {"panels_per_unit": 2, "order": 8},
        "scan": {"n": 6, "density": 3.0},
    }
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(config))
    captured = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run_command(["scan", "--config", str(cpath), "--out", str(out)]) == 0
        assert run_command(
            ["solve", "--config", str(cpath), "--lambda", "0.3", "--out", str(out)]
        ) == 0
        captured.append(
            (
                (out / "zeros.csv").read_bytes(),
                (out / "solution.csv").read_bytes(),
                (out / "config_echo.json").read_bytes(),
            )
        )
    check(11, "identical configs produce byte-identical CSV outputs", captured[0] == captured[1])
