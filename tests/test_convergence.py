"""Shifted-sequence diagnostics, boundedness probes, and tail conditions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fredkern as fk
from fredkern import convergence, resolvent
from conftest import gauss_overlap, record_square_samplings

N_LIST = range(2, 11)  # tau_n in {2, 2.5, ..., 6} under the default scheme


def eval_grid():
    return fk.grid_on_interval(-6.5, 6.5, 1, 8)


def non_increasing(seq, slack=1e-10):
    return all(b <= a + slack for a, b in zip(seq, seq[1:]))


def test_lambda_shift_zero_schedule():
    sched = fk.ShiftSchedule("zero")
    for lam in (0.5, 0.3 + 0.2j):
        for n in (1, 5, 40):
            assert fk.lambda_shift(lam, sched, n) == complex(lam)


def test_lambda_shift_harmonic_example():
    sched = fk.ShiftSchedule("harmonic", 1.0)
    assert fk.lambda_shift(0.5, sched, 10) == pytest.approx(0.5 / 0.95, abs=1e-7)


def test_lambda_shift_first_order_decay():
    # lambda_n - lambda = beta*lambda^2/(1 - beta*lambda), an O(1/n) offset.
    sched = fk.ShiftSchedule("harmonic", 1.0)
    lam = 0.5
    diffs = []
    for n in range(1, 30):
        beta = sched.beta(n)
        shifted = fk.lambda_shift(lam, sched, n)
        oracle = beta * lam * lam / (1.0 - beta * lam)
        assert shifted - lam == pytest.approx(oracle, abs=1e-14)
        diffs.append(abs(shifted - lam))
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_lambda_shift_pole():
    sched = fk.ShiftSchedule("harmonic", 2.0)
    with pytest.raises(fk.PoleError):
        fk.lambda_shift(0.5, sched, 1)  # beta_1 * lambda = 1


@settings(max_examples=100, derandomize=True)
@given(
    re=st.floats(min_value=-0.9, max_value=0.9),
    im=st.floats(min_value=-0.5, max_value=0.5),
    n=st.integers(min_value=1, max_value=50),
)
def test_schedules_vanish(re, im, n):
    beta0 = complex(re, im)
    for sched in (
        fk.ShiftSchedule("zero"),
        fk.ShiftSchedule("harmonic", beta0),
        fk.ShiftSchedule("geometric", beta0, ratio=0.7),
    ):
        assert abs(sched.beta(n)) <= abs(beta0) + 1e-12
        assert abs(sched.beta(50 * (n + 1))) <= abs(sched.beta(n)) + 1e-12


def test_schedule_validation():
    with pytest.raises(ValueError):
        fk.ShiftSchedule("linear")
    with pytest.raises(ValueError):
        fk.ShiftSchedule("geometric", 1.0, ratio=1.0)


def test_diagnostic_self_reference_is_zero(rank1, trunc):
    rep = fk.resolvent_convergence_diagnostic(
        rank1, trunc, 0.3, fk.ShiftSchedule("zero"), [6], eval_grid(), "largest_n"
    )
    assert rep.n_values == (6,)
    assert rep.sup_T_diff == (0.0,)
    assert rep.sup_row_diff == (0.0,)
    assert rep.sup_col_diff == (0.0,)


def test_diagnostic_zero_schedule_against_series(rank1, trunc):
    rep = fk.resolvent_convergence_diagnostic(
        rank1, trunc, 0.3, fk.ShiftSchedule("zero"), N_LIST, eval_grid(), "neumann_disk"
    )
    assert rep.reference_source == "neumann_disk"
    assert rep.skipped == ()
    for seq in (rep.sup_T_diff, rep.sup_row_diff, rep.sup_col_diff):
        assert len(seq) == len(tuple(N_LIST))
        assert all(math.isfinite(v) and v >= 0 for v in seq)
        assert non_increasing(seq)
        assert seq[-1] <= 1e-7


def test_diagnostic_truncation_error_oracle(rank1, trunc):
    # For the rank-1 kernel the kernel-difference sup is governed by the
    # Gaussian tail: sup |K/(1-lam c_n) - K/(1-lam c)| = |K|max * |...|, with
    # an extra tail term where the plain resolvent is cut off.
    lam = 0.3
    rep = fk.resolvent_convergence_diagnostic(
        rank1, trunc, lam, fk.ShiftSchedule("zero"), [4, 6], eval_grid(), "neumann_disk"
    )
    c_full = gauss_overlap()
    for n, measured in zip(rep.n_values, rep.sup_T_diff):
        c_n = gauss_overlap(trunc.tau(n))
        inside = abs(1.0 / (1.0 - lam * c_n) - 1.0 / (1.0 - lam * c_full))
        cutoff = math.exp(-trunc.tau(n) ** 2) / abs(1.0 - lam * c_full)
        assert 0.2 * max(inside, cutoff) <= measured <= 3.0 * (inside + cutoff)


def test_diagnostic_harmonic_first_order_offset(rank1, trunc):
    # The shift leaves a first-order offset |lambda_n - lambda| at the top
    # index; check it against the rank-1 closed form.
    lam = 0.3
    sched = fk.ShiftSchedule("harmonic", 1.0)
    lam_10 = fk.lambda_shift(lam, sched, 10)
    assert abs(lam_10 - lam) <= 0.05
    rep = fk.resolvent_convergence_diagnostic(
        rank1, trunc, lam, sched, N_LIST, eval_grid(), "neumann_disk"
    )
    c = gauss_overlap()
    oracle = abs(1.0 / (1.0 - lam_10 * c) - 1.0 / (1.0 - lam * c))
    assert rep.sup_T_diff[-1] == pytest.approx(oracle, rel=0.5)


def test_diagnostic_harmonic_converges_to_largest(rank1, trunc):
    rep = fk.resolvent_convergence_diagnostic(
        rank1, trunc, 0.3, fk.ShiftSchedule("harmonic", 1.0), N_LIST, eval_grid(), "largest_n"
    )
    for seq in (rep.sup_T_diff, rep.sup_row_diff, rep.sup_col_diff):
        assert non_increasing(seq)
        assert seq[-1] <= 1e-12


def test_diagnostic_characteristic_n_skipped(rank1, trunc):
    # Near the limiting characteristic value, large truncation indices become
    # numerically characteristic and are skipped rather than fatal.
    lam_star = 1.0 / gauss_overlap()
    rep = fk.resolvent_convergence_diagnostic(
        rank1, trunc, lam_star, fk.ShiftSchedule("zero"), [2, 10], eval_grid(), "largest_n"
    )
    assert 10 in rep.n_values or 10 in rep.skipped
    assert rep.skipped  # tau = 6 collapses the determinant below threshold


def test_schedule_robustness_final_distances(rank1, trunc):
    finals = []
    for sched in (
        fk.ShiftSchedule("zero"),
        fk.ShiftSchedule("harmonic", 1.0),
        fk.ShiftSchedule("geometric", 1.0, ratio=0.5),
    ):
        rep = fk.resolvent_convergence_diagnostic(
            rank1, trunc, 0.3, sched, N_LIST, eval_grid(), "largest_n"
        )
        finals.append(rep.sup_T_diff[-1])
    assert all(v <= 1e-12 for v in finals)
    spread = [v for v in finals if v > 1e-12]
    if len(spread) >= 2:
        assert max(spread) <= 2.0 * min(spread)


def test_tilde_variant_changes_little(rank1, trunc):
    kwargs = dict(reference="neumann_disk", n_terms=60)
    plain = fk.resolvent_convergence_diagnostic(
        rank1, trunc, 0.3, fk.ShiftSchedule("zero"), N_LIST, eval_grid(), **kwargs
    )
    tilde = fk.resolvent_convergence_diagnostic(
        rank1,
        trunc,
        0.3,
        fk.ShiftSchedule("zero"),
        N_LIST,
        eval_grid(),
        variant="tilde",
        **kwargs,
    )
    # The tilde correction is bounded by the reference kernel's tail beyond
    # tau_n, negligible at the top index.
    assert abs(tilde.sup_T_diff[-1] - plain.sup_T_diff[-1]) <= 1e-7
    assert abs(tilde.sup_row_diff[-1] - plain.sup_row_diff[-1]) <= 1e-7
    assert abs(tilde.sup_col_diff[-1] - plain.sup_col_diff[-1]) <= 1e-7


def test_boundedness_probe_inside_disk(rank1, trunc):
    c = gauss_overlap()
    probe = fk.boundedness_probe(rank1, trunc, 0.3, fk.ShiftSchedule("zero"), N_LIST)
    assert probe.bounded
    assert probe.M <= c / (1.0 - 0.3 * c) + 1e-3
    assert all(math.isfinite(v) for v in probe.norms)


def test_boundedness_probe_characteristic_divergence(rank1, trunc):
    zeta = 1.0 / gauss_overlap()
    probe = fk.boundedness_probe(rank1, trunc, zeta, fk.ShiftSchedule("zero"), N_LIST)
    assert not probe.bounded
    # The norm sequence blows up along the truncations (possibly to inf).
    assert (not math.isfinite(probe.M)) or probe.norms[-1] > 1e3 * probe.norms[0]


def test_boundedness_probe_rejects_zero(rank1, trunc):
    with pytest.raises(ValueError):
        fk.boundedness_probe(rank1, trunc, 0.0, fk.ShiftSchedule("zero"), N_LIST)


def test_punctured_disk_inclusion(rank1, trunc):
    # Every sampled zeta with |zeta| < 1/||T|| passes the probe.
    c = gauss_overlap()
    sched = fk.ShiftSchedule("harmonic", 0.5)
    for zeta in (0.05, 0.3, 0.6, 0.75, -0.4, 0.3 + 0.3j):
        assert abs(zeta) < 1.0 / c
        probe = fk.boundedness_probe(rank1, trunc, zeta, sched, N_LIST)
        assert probe.bounded


def test_tail_condition_report_rank1(rank1, trunc, disc8):
    seq = fk.tail_condition_report(rank1, trunc, 1, N_LIST, disc8)
    assert all(b < a for a, b in zip(seq, seq[1:]))
    assert seq[-1] < 1e-8
    tilde = fk.tail_condition_report(rank1, trunc, 1, N_LIST, disc8, variant="tilde")
    assert all(tv <= pv + 1e-12 for tv, pv in zip(tilde, seq))


def test_tail_condition_report_zero_and_nilpotent(zero, odd, trunc, disc8):
    assert all(v == 0.0 for v in fk.tail_condition_report(zero, trunc, 1, [2, 4], disc8))
    assert all(v <= 1e-12 for v in fk.tail_condition_report(odd, trunc, 1, N_LIST, disc8))


TAIL_ORACLE_KERNELS = {
    "gauss_cauchy": fk.gauss_cauchy,  # dense
    "rank2_orthogonal": fk.rank2_orthogonal,  # factored
    "gauss_plus_xgauss": lambda: fk.KernelSpec("separable_sum", (
        (0.1, fk.BasisFn("gauss"), fk.BasisFn("gauss")),
        (1.0, fk.BasisFn("x_gauss"), fk.BasisFn("x_gauss")))),  # factored
}


@pytest.mark.parametrize("variant", fk.kernels.VARIANTS)
@pytest.mark.parametrize("name", sorted(TAIL_ORACLE_KERNELS))
def test_tail_condition_report_matches_dense_oracle(trunc, name, variant):
    # The weighted 2-norm of the N x N matrix (A - A_n) A_n^m on the same run
    # grid, with A = K W and A_n = chi_n A (plain) or chi_n A chi_n (tilde).
    k = TAIL_ORACLE_KERNELS[name]()
    n_list = [2, 3, 4, 5, 6]
    disc = fk.grid_on_interval(-8.0, 8.0, 1, 8)
    grid = fk.quadrature.run_grid(disc.radius, [trunc.tau(n) for n in n_list], 1, 8)
    x, w = grid.nodes, grid.weights
    a = fk.eval_kernel(k, x[:, None], x[None, :]) * w
    sw = np.sqrt(w)
    for m in (1, 2, 3):
        got = fk.tail_condition_report(k, trunc, m, n_list, disc, variant)
        for n, value in zip(n_list, got):
            chi = trunc.chi(n, x)
            a_n = chi[:, None] * a * (chi[None, :] if variant == "tilde" else 1.0)
            tail = (a - a_n) @ np.linalg.matrix_power(a_n, m)
            want = np.linalg.norm(sw[:, None] * tail / sw[None, :], 2)
            assert abs(value - want) <= 1e-12 * want, (m, n, value, want)


def test_characteristic_repulsion(rank1, trunc):
    # Determinant zeros of every truncation stay far from the regular 0.3.
    grid_maker = lambda n: fk.build_grid(trunc, n, 2, 8)
    for n in N_LIST:
        res = fk.char_scan(rank1, trunc, n, (0.0, 2.0, -0.5, 0.5), 4.0, grid_maker(n))
        for z in res.zeros:
            assert abs(z - 0.3) >= 0.4


def test_compact_sweep_envelope(rank1, trunc):
    sweep = fk.compact_sweep(
        rank1, trunc, [0.1, 0.3, 0.5, 0.3 + 0.2j], N_LIST, eval_grid(), n_terms=70
    )
    assert sweep.skipped_lambdas == ()
    assert len(sweep.lambdas) == 4
    for seq in (sweep.envelope_T, sweep.envelope_row, sweep.envelope_col):
        assert non_increasing(seq)
        assert seq[-1] <= 1e-6


def test_compact_sweep_empty(rank1, trunc):
    sweep = fk.compact_sweep(rank1, trunc, [], N_LIST, eval_grid())
    assert sweep.reports == ()
    assert sweep.envelope_T == ()


def test_compact_sweep_skips_characteristic(rank1, trunc):
    lam_star = 1.0 / gauss_overlap()
    base = fk.compact_sweep(rank1, trunc, [0.3], N_LIST, eval_grid(), n_terms=70)
    mixed = fk.compact_sweep(rank1, trunc, [0.3, lam_star], N_LIST, eval_grid(), n_terms=70)
    assert mixed.skipped_lambdas == (complex(lam_star),)
    diff = np.max(
        np.abs(np.asarray(base.envelope_T) - np.asarray(mixed.envelope_T))
    )
    assert diff <= 1e-9


def test_monotone_improvement_all_builtins(trunc):
    # Every built-in kernel improves monotonically toward the top-index
    # resolvent at a regular lambda with |lambda| * norm below 0.9.
    # Norms: gauss_cauchy ~0.967, odd ~0.627, rank2 ~1.253, rank1 ~1.253.
    cases = (
        (fk.gauss_rank1(), 0.5),
        (fk.odd_rank1(), 0.9),
        (fk.rank2_orthogonal(), 0.5),
        (fk.gauss_cauchy(), 0.6),
    )
    for k, lam in cases:
        rep = fk.resolvent_convergence_diagnostic(
            k, trunc, lam, fk.ShiftSchedule("zero"), N_LIST, eval_grid(), "largest_n"
        )
        for seq in (rep.sup_T_diff, rep.sup_row_diff, rep.sup_col_diff):
            assert non_increasing(seq), (k.label, seq)
            assert seq[-1] <= 1e-5


def test_residuals_hold_at_larger_truncations(rank1, trunc):
    grid8 = fk.build_grid(trunc, 8, 4, 8)
    h = fk.make_resolvent(rank1, trunc, 8, 0.3, grid8)
    r_left, r_right = fk.residual_check(h, fk.grid_on_interval(-5.5, 5.5, 1, 8))
    assert r_left <= 1e-6 and r_right <= 1e-6


def test_geometric_truncation_scheme_end_to_end(rank1):
    trunc = fk.TruncationScheme(tau0=1.0, growth="geometric", ratio=1.4)
    grid = fk.build_grid(trunc, 4, 4, 8)  # tau_4 = 1.4^4 = 3.8416
    h = fk.make_resolvent(rank1, trunc, 4, 0.3, grid)
    c = gauss_overlap(trunc.tau(4))
    assert fk.resolvent_eval(h, 0.0, 0.0) == pytest.approx(1.0 / (1.0 - 0.3 * c), abs=1e-7)
    rep = fk.resolvent_convergence_diagnostic(
        rank1, trunc, 0.3, fk.ShiftSchedule("zero"), [2, 3, 4, 5], eval_grid(), "largest_n"
    )
    assert non_increasing(rep.sup_T_diff)
    assert rep.sup_T_diff[-1] == 0.0


def test_report_entries_nonnegative_finite(rank2, trunc):
    rep = fk.resolvent_convergence_diagnostic(
        rank2, trunc, 0.2, fk.ShiftSchedule("geometric", 0.3, ratio=0.5), [2, 4, 6],
        eval_grid(), "largest_n",
    )
    for seq in (rep.sup_T_diff, rep.sup_row_diff, rep.sup_col_diff):
        assert all(math.isfinite(v) and v >= 0.0 for v in seq)


def test_diagnostic_reference_blocks_match_separate_calls(gcauchy, trunc, monkeypatch):
    # The three series reference blocks come from two sums over the one
    # kernel sampling: (e u y) x e, split by rows, and e x y.  They match one
    # neumann_kernel_matrix call per block on the run grid.
    series = convergence._neumann_sums
    calls = []

    def recording(*args, **kwargs):
        out = series(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(convergence, "_neumann_sums", recording)
    lam = 0.25 + 0.15j
    egrid = fk.grid_on_interval(-6.5, 6.5, 1, 4)
    fk.resolvent_convergence_diagnostic(
        gcauchy, trunc, lam, fk.ShiftSchedule("zero"), [4, 6], egrid, "neumann_disk",
        panels_per_unit=2,
    )
    assert len(calls) == 2
    [stacked], [ref_rows] = calls
    disc = fk.quadrature.run_grid(gcauchy.tail_radius(), [trunc.tau(4), trunc.tau(6)], 2, 8)
    e, y = egrid.nodes, disc.nodes
    blocks = ((stacked[: len(e)], e, e), (stacked[len(e):], y, e), (ref_rows, e, y))
    for block, s_pts, t_pts in blocks:
        separate = resolvent.neumann_kernel_matrix(gcauchy, lam, s_pts, t_pts, disc, 40)
        assert block.shape == separate.shape
        assert np.max(np.abs(block - separate)) <= 1e-14


def _convergence_call(name, k, trunc, n_list, lambdas):
    egrid = fk.grid_on_interval(-6.5, 6.5, 1, 4)
    sched = fk.ShiftSchedule("harmonic", 0.1)
    if name == "compact_sweep":
        return fk.compact_sweep(k, trunc, lambdas, n_list, egrid, panels_per_unit=2)
    if name == "boundedness":
        return fk.boundedness_probe(k, trunc, 0.3, sched, n_list, panels_per_unit=2)
    if name == "tail":
        return fk.tail_condition_report(k, trunc, 2, n_list, fk.grid_on_interval(-8, 8, 2, 8), "tilde")
    lam = lambdas[0] if name == "neumann_disk" else lambdas[-1]
    return fk.resolvent_convergence_diagnostic(k, trunc, lam, sched, n_list, egrid, name,
                                               panels_per_unit=2)


@pytest.mark.parametrize("name", ["neumann_disk", "largest_n", "compact_sweep", "boundedness", "tail"])
def test_one_kernel_sampling_per_call(gcauchy, trunc, monkeypatch, name):
    # Every per-n object is a restriction of one sampling on the run grid, so
    # the number of samplings with at least as many rows and columns as the
    # smallest per-n grid (64 nodes at n = 2) depends on neither the number of
    # truncation indices nor the number of lambdas.
    for n_list, lambdas in (([2, 4], [0.3]), ([2, 3, 4, 5, 6, 8], [0.3, 0.2 + 0.1j, 1.5])):
        shapes = record_square_samplings(monkeypatch, 64)
        _convergence_call(name, gcauchy, trunc, n_list, lambdas)
        assert len(shapes) == 1, (n_list, shapes)
        monkeypatch.undo()


def test_largest_n_reference_factors_each_index_once(gcauchy, trunc, monkeypatch):
    factor = resolvent.lu_factor
    sizes = []

    def counting(a, **kwargs):
        sizes.append(len(a))
        return factor(a, **kwargs)

    monkeypatch.setattr(resolvent, "lu_factor", counting)
    rep = fk.resolvent_convergence_diagnostic(
        gcauchy, trunc, 0.6, fk.ShiftSchedule("zero"), [2, 4, 6], eval_grid(), "largest_n",
        panels_per_unit=2,
    )
    assert rep.reference_n == 6 and rep.sup_T_diff[-1] == 0.0
    assert sizes == [len(fk.build_grid(trunc, n, 2, 8).nodes) for n in (6, 2, 4)]


def test_boundedness_probe_spectral_at_unaligned_tau(gcauchy):
    # With tau0 = 1.1, tau_2 = 2.1 is no panel edge of a grid on (-tau_3, tau_3);
    # the run grid puts one there.
    trunc = fk.TruncationScheme(tau0=1.1)
    sched = fk.ShiftSchedule("zero")
    coarse, fine = (fk.boundedness_probe(gcauchy, trunc, 0.3, sched, [2, 3], ppu, 8).norms
                    for ppu in (4, 32))
    assert np.max(np.abs(np.array(coarse) - np.array(fine))) <= 1e-10


def test_diagnostic_column_distances_spectral(gcauchy, trunc):
    # At 3 and 5 panels per unit the tau_n = 2.5, 3.5, 4.5 are no panel edges
    # of a grid on (-8, 8); the run grid puts them there, so the column
    # distances agree with 16 panels per unit.
    def col_diffs(ppu):
        return np.array(fk.resolvent_convergence_diagnostic(
            gcauchy, trunc, 0.3, fk.ShiftSchedule("zero"), [3, 5, 7], eval_grid(),
            panels_per_unit=ppu).sup_col_diff)

    fine = col_diffs(16)
    for ppu in (3, 5):
        assert np.max(np.abs(col_diffs(ppu) / fine - 1.0)) <= 1e-10


# Kernels without exact factors: the Neumann reference on a checked factor.


def record_neumann_sums(monkeypatch):
    """Record (args, kwargs, result) of every `_neumann_sums` call."""
    series = convergence._neumann_sums
    calls = []

    def recording(*args, **kwargs):
        out = series(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(convergence, "_neumann_sums", recording)
    return calls


def test_gauss_cauchy_reference_runs_on_a_small_core(gcauchy, trunc, monkeypatch):
    # Two lambdas, one complex, share each block's chain, which runs on the
    # r x r core of a checked factor, r < N/2; the blocks match one
    # neumann_kernel_matrix call per block and lambda on the run grid.
    calls = record_neumann_sums(monkeypatch)
    lams = [0.3, 0.2 + 0.15j]
    egrid = fk.grid_on_interval(-6.5, 6.5, 1, 4)
    sweep = fk.compact_sweep(gcauchy, trunc, lams, [4, 6], egrid, "tilde", panels_per_unit=2)
    assert sweep.lambdas == tuple(lams)
    disc = fk.quadrature.run_grid(gcauchy.tail_radius(), [trunc.tau(4), trunc.tau(6)], 2, 8)
    e, y = egrid.nodes, disc.nodes
    assert len(calls) == 2
    (ze_args, ze_kwargs, on_ze), (ex_args, ex_kwargs, on_ex) = calls
    for args, kwargs in ((ze_args, ze_kwargs), (ex_args, ex_kwargs)):
        core = args[2]
        assert "head" in kwargs
        assert core.shape[0] == core.shape[1] and 2 * len(core) < len(y)
    for lam, stacked, ref_rows in zip(lams, on_ze, on_ex):
        blocks = ((stacked[: len(e)], e, e), (stacked[len(e):], y, e), (ref_rows, e, y))
        for block, s_pts, t_pts in blocks:
            separate = resolvent.neumann_kernel_matrix(gcauchy, lam, s_pts, t_pts, disc, 40)
            assert block.shape == separate.shape
            assert np.max(np.abs(block - separate)) <= 1e-14


def random_table(size=129):
    values = np.random.default_rng(7).standard_normal((size, size))
    return fk.KernelSpec("custom_tabulated", table_radius=4.0, table_values=values)


@pytest.mark.parametrize("make, ppu", [(fk.gauss_cauchy, 1), (random_table, 4)])
def test_rejected_factor_passes_the_dense_operands(trunc, monkeypatch, make, ppu):
    # gauss_cauchy on 128 nodes needs rank 64, not below N/2; the table's
    # rank exceeds every probe count below N/2 = 192, so the check fails.
    # Either way the series gets the operands of the dense reference.
    k = make()
    factors = convergence._sampled_factors
    built = []

    def recording(a):
        built.append(factors(a))
        return built[-1]

    monkeypatch.setattr(convergence, "_sampled_factors", recording)
    calls = record_neumann_sums(monkeypatch)
    egrid = fk.grid_on_interval(-6.5, 6.5, 1, 4)
    fk.resolvent_convergence_diagnostic(k, trunc, 1e-3, fk.ShiftSchedule("zero"), [4, 6], egrid,
                                        panels_per_unit=ppu)
    assert built == [None]
    run = convergence._sample_run(k, trunc, [4, 6], egrid, ppu, 8)
    kz, ne, rows_w = run.kz, run.ne, run.rows_w
    want = ((rows_w, rows_w[ne:], kz[ne:, :ne], kz[:, :ne]),
            (rows_w[:ne], rows_w[ne:], kz[ne:, ne:], kz[:ne, ne:]))
    assert len(calls) == 2
    for (args, kwargs, _), operands in zip(calls, want):
        assert kwargs == {}
        assert all(np.array_equal(got, op) for got, op in zip(args[1:5], operands))


def test_largest_n_diagnostic_builds_no_factor(gcauchy, trunc, monkeypatch):
    built = []
    monkeypatch.setattr(convergence, "_sampled_factors", lambda a: built.append(a))
    rep = fk.resolvent_convergence_diagnostic(
        gcauchy, trunc, 0.6, fk.ShiftSchedule("zero"), [4, 6], eval_grid(), "largest_n",
        panels_per_unit=2,
    )
    assert rep.reference_n == 6
    sweep = fk.compact_sweep(gcauchy, trunc, [1.5, 2.0j], [4, 6], eval_grid(), panels_per_unit=2)
    assert sweep.lambdas == (1.5, 2.0j)
    assert built == []


# Separable kernels: the convergence calls on the r x r cores of the factors.

GAUSS_BASIS = st.builds(fk.BasisFn, st.sampled_from(["gauss", "x_gauss"]),
                        st.floats(0.7, 1.6), st.floats(-2.0, 2.0))
UNIT_COEFF = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)


def hs_norm(k):
    """Hilbert-Schmidt norm of the kernel, an upper bound of ||T||."""
    grid = fk.grid_on_interval(-14.0, 14.0, 1, 8)
    x, w = grid.nodes, grid.weights
    return math.sqrt(float(np.sum(np.abs(fk.eval_kernel(k, x[:, None], x[None, :])) ** 2 * np.outer(w, w))))


def is_regular(k, trunc, lams, n_list):
    """|1 - lambda_n mu| >= 0.1 for every eigenvalue mu of each A_n."""
    for n in n_list:
        core = fk.nystrom_matrix(k, trunc, n, "plain", fk.build_grid(trunc, n, 1, 8)).core
        if np.min(np.abs(1.0 - lams[n] * np.linalg.eigvals(core))) < 0.1:
            return False
    return True


def withheld_factors(monkeypatch):
    """Sample every kernel densely, as for a kernel without factors."""
    monkeypatch.setattr(fk.quadrature, "kernel_factors", lambda *args: None)


def assert_close_sequences(got, want):
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape
        assert np.all(np.abs(g - w) <= 1e-12 * np.max(w, initial=0.0) + 1e-15), (g, w)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    terms=st.lists(st.tuples(UNIT_COEFF, GAUSS_BASIS, GAUSS_BASIS), min_size=1, max_size=6),
    variant=st.sampled_from(("plain", "tilde")),
    kind=st.sampled_from(("zero", "harmonic")),
    reference=st.sampled_from(convergence.REFERENCES),
    phases=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3),
    sizes=st.tuples(st.floats(0.05, 0.9), st.floats(0.05, 0.9), st.floats(1.2, 2.5)),
    m=st.integers(1, 2),
)
def test_factored_convergence_matches_dense(terms, variant, kind, reference, phases, sizes, m):
    k = fk.KernelSpec("separable_sum", tuple(terms))
    trunc = fk.TruncationScheme()
    n_list = [2, 4, 6]
    hs = hs_norm(k)
    # |lambda| ||T|| <= 0.9 for the first two, so they lie in the series disk.
    lams = [size / hs * complex(math.cos(p), math.sin(p)) for size, p in zip(sizes, phases)]
    sched = fk.ShiftSchedule(kind, 0.1 / abs(lams[0]) if kind == "harmonic" else 0.0)
    assume(is_regular(k, trunc, {n: fk.lambda_shift(lams[0], sched, n) for n in n_list}, n_list))
    assume(is_regular(k, trunc, {n: lams[2] for n in n_list}, n_list))
    egrid = fk.grid_on_interval(-4.0, 4.0, 1, 4)
    outer = fk.grid_on_interval(-8.0, 8.0, 1, 8)

    def calls():
        rep = fk.resolvent_convergence_diagnostic(k, trunc, lams[0], sched, n_list, egrid,
                                                  reference, variant, panels_per_unit=1)
        sweep = fk.compact_sweep(k, trunc, lams, n_list, egrid, variant, panels_per_unit=1)
        tail = fk.tail_condition_report(k, trunc, m, n_list, outer, variant)
        return rep, sweep, tail

    rep, sweep, tail = calls()
    with pytest.MonkeyPatch.context() as mp:
        withheld_factors(mp)
        dense_rep, dense_sweep, dense_tail = calls()
    assert (rep.n_values, rep.skipped, rep.reference_n) == (
        dense_rep.n_values, dense_rep.skipped, dense_rep.reference_n)
    assert_close_sequences((rep.sup_T_diff, rep.sup_row_diff, rep.sup_col_diff),
                           (dense_rep.sup_T_diff, dense_rep.sup_row_diff, dense_rep.sup_col_diff))
    assert (sweep.lambdas, sweep.skipped_lambdas) == (dense_sweep.lambdas, dense_sweep.skipped_lambdas)
    assert_close_sequences((sweep.envelope_T, sweep.envelope_row, sweep.envelope_col),
                           (dense_sweep.envelope_T, dense_sweep.envelope_row, dense_sweep.envelope_col))
    # The power iteration stops at a relative change of 1e-12; an odd core
    # (G_n = 0 up to rounding) leaves norms at the rounding floor.
    assert all(abs(f - d) <= 1e-10 * d + 1e-15 for f, d in zip(tail, dense_tail)), (tail, dense_tail)


@pytest.mark.parametrize("name", ["neumann_disk", "largest_n", "compact_sweep", "boundedness", "tail"])
def test_separable_kernel_is_never_sampled_square(rank2, trunc, monkeypatch, name):
    # The factored path samples the kernel's basis functions on the nodes,
    # never K on a product grid.
    shapes = record_square_samplings(monkeypatch, 64)
    _convergence_call(name, rank2, trunc, [2, 3, 4, 5, 6, 8], [0.3, 0.2 + 0.1j, 1.5])
    assert shapes == []


def scaled_gauss(c):
    return fk.KernelSpec("separable_sum", ((c, fk.BasisFn("gauss"), fk.BasisFn("gauss")),))


def scaled_table(c):
    axis = np.linspace(-4.0, 4.0, 17)
    values = np.exp(-axis[:, None] ** 2 - axis[None, :] ** 2)
    return fk.KernelSpec("custom_tabulated", table_radius=4.0, table_values=c * values)


@pytest.mark.parametrize("make", [scaled_gauss, scaled_table])
@pytest.mark.parametrize("c", [1e9, 1e-9, 1e80])
def test_neumann_reference_of_scaled_kernel(trunc, make, c):
    # lambda K is the same operator as at c = 1, while ||A|| is far from 1:
    # the unscaled chain A^i K overflowed (c = 1e9, NaN distances) or lambda^j
    # overflowed (c = 1e-9), and the power iteration's unscaled iterates
    # squared ||A||^2 past the float range (c = 1e80, norm inf).
    sched = fk.ShiftSchedule("zero")
    egrid = fk.grid_on_interval(-4.0, 4.0, 1, 4)

    def seqs(k, lam):
        rep = fk.resolvent_convergence_diagnostic(k, trunc, lam, sched, [2, 4, 6], egrid,
                                                  panels_per_unit=2)
        return np.array([rep.sup_T_diff, rep.sup_row_diff, rep.sup_col_diff])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = seqs(make(c), 0.3 / c) / c
    want = seqs(make(1.0), 0.3)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-13 * np.max(want, axis=1, keepdims=True))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("make", [scaled_gauss, scaled_table])
@pytest.mark.parametrize("c", [1e76, 1e-76])
def test_tail_norms_of_scaled_kernel(trunc, make, c, m):
    # The tail kernel (T - T_n) T_n^m scales as c^(m+1), up to 1e228 or down
    # to 1e-228; the unscaled iterates' squared norms left the float range.
    disc = fk.grid_on_interval(-8.0, 8.0, 1, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array(fk.tail_condition_report(make(c), trunc, m, [2, 4], disc))
    want = c ** (m + 1) * np.array(fk.tail_condition_report(make(1.0), trunc, m, [2, 4], disc))
    assert np.all(want > 0)
    assert np.all(np.abs(got - want) <= 1e-12 * want), (got, want)


def test_long_neumann_series_stays_finite(rank1, trunc):
    # At 3500 terms ||A||^j overflows and 0.3^j underflows; the tail past 40
    # terms is below 1e-16.
    sched = fk.ShiftSchedule("zero")

    def seqs(n_terms):
        rep = fk.resolvent_convergence_diagnostic(rank1, trunc, 0.3, sched, N_LIST, eval_grid(),
                                                  n_terms=n_terms)
        return np.array([rep.sup_T_diff, rep.sup_row_diff, rep.sup_col_diff])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = seqs(3500)
    want = seqs(40)
    assert np.all(np.abs(got - want) <= 1e-13 * np.max(want, axis=1, keepdims=True))


def unscaled_neumann_sum(lam, rows_w, a, cols, direct, n_terms):
    """The series with the chain left unscaled, the reference for inputs
    whose chain and powers of lambda stay in the float range."""
    total = np.asarray(direct, dtype=complex)
    row_side = len(rows_w) <= cols.shape[1]
    chain = rows_w if row_side else cols
    acc = lam * chain
    for j in range(2, n_terms):
        chain = chain @ a if row_side else a @ chain
        acc += lam**j * chain
    return total + (acc @ cols if row_side else rows_w @ acc)


@pytest.mark.parametrize("c", [1.0, 1e6])
def test_neumann_chain_scaling_is_exact(gcauchy, c):
    # Rescaling by powers of two changes no rounding: one shared chain gives
    # each lambda's unscaled sum bit for bit, from either side.  At c = 1e6
    # the chain reaches 1e240 and is rescaled, while lambda^j stays normal.
    disc = fk.grid_on_interval(-8.0, 8.0, 2, 8)
    x, s = disc.nodes, np.linspace(-3.0, 3.0, 7)
    a = c * fk.quadrature.full_matrix(gcauchy, disc)
    rows_w = fk.eval_kernel(gcauchy, s[:, None], x[None, :]) * disc.weights
    cols = fk.eval_kernel(gcauchy, x[:, None], s[None, :]) * (1.0 + 0.5j)
    lams = [complex(0.3 / c), (0.25 - 0.6j) / c]
    for args in ((rows_w, a, rows_w.T.copy()), (cols.T.copy(), a, cols)):
        direct = args[0] @ args[2]
        shared = resolvent._neumann_sums(lams, *args, direct, 40)
        for lam, got in zip(lams, shared):
            assert np.array_equal(got, unscaled_neumann_sum(lam, *args, direct, 40))
