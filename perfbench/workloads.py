"""The four benchmark workloads.

Each workload generates operations from a seeded `random.Random`, runs one
operation through fredkern's public API (the timed part), and checks the
output against `oracle` (untimed).  Every operation is a dict with
    "input": plain JSON data; the seed fixes it byte for byte,
    "meta":  N, rank and command, recorded per op so layer numbers can be
             split by size,
    "ref":   oracle state built while generating (never timed).

Cost is stratified.  Each block of `len(slots)` operations visits every slot
once in a seeded order, and everything that sets an operation's cost -- node
count, rank, kernel family, number of right-hand sides, region size, truncation
list, series length -- is a function of (slot, block) alone.  The seed draws
the values (coefficients, scales, shifts, lambda, points, variants), so the
mix of work in a run hardly depends on it and the end-to-end metrics stay
comparable across seeds.

Failure causes: an unexpected exception, a result outside tolerance, a wrong
exit code or stderr prefix (cli), or a refusal of a lambda the oracle calls
regular.

Inputs that hit a known defect of fredkern are kept out of the timed stream
and run instead as a few untimed probes per run (`probes`), so the defect
keeps showing, by cause, without counting as a failed workload op.
"""

import csv
import io
import json
import math
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import oracle

EXCEPTION = "exception"
TOLERANCE = "tolerance"
EXIT_CODE = "exit_code"
REFUSED = "refused_regular"

KINDS = ("gauss", "x_gauss", "sech")
GAUSS_KINDS = ("gauss", "x_gauss")

# Acceptance-suite tolerances (tests/test_acceptance.py).
TOL_DET = 1e-8
TOL_R = 1e-8
TOL_F = 1e-6
TOL_ZERO = 1e-6
TOL_RESIDUAL = 1e-6
TOL_FINAL = 1e-5
SLACK = 1e-10
TOL_TAIL = 1e-6
# The two-sided tail norm masks the outer grid at tau_n, which need not be a
# panel edge there; that first-order quadrature error reached 5.6e-4
# (relative) in generated cases, so the tilde variant is held to 1e-3.
TOL_TAIL_TILDE = 1e-3
ZERO_MARGIN = 1e-3  # oracle zeros this far inside the region must be found

# Radius past which every generated Gaussian-family kernel is below 1e-30;
# oracle tail norms integrate out to it.
GAUSS_RADIUS = 12.0

# det_series' Hadamard tail bound sums terms of size up to exp(e b^2 / 2),
# b = |lambda| sup|K| 2 tau_n, with math.exp, which overflows past
# b = 22.8.  Workload ops keep b <= 20; the scan probes use b in [30, 60].
SERIES_BASE_MAX = 20.0
SERIES_PROBE_BASE = (30.0, 60.0)
SCAN_PROBES = 3
NONFINITE_PROBES = 12


def tau(n):
    """Radius of the default truncation scheme: tau_n = 1 + n/2."""
    return 1.0 + 0.5 * n


def node_count(n, ppu, order):
    return max(1, math.ceil(2.0 * tau(n) * ppu - 1e-9)) * order


# ---------------------------------------------------------------------------
# random inputs


def _basis(rng, kinds, scale, shift):
    return [rng.choice(kinds), rng.uniform(*scale), rng.uniform(*shift)]


def separable(rng, rank, kinds=KINDS, scale=(0.7, 1.6), shift=(-2.0, 2.0)):
    terms = []
    for _ in range(rank):
        mag = rng.uniform(0.3, 1.5) * rng.choice((1.0, -1.0))
        if rng.random() < 0.3:
            phase = rng.uniform(-math.pi, math.pi)
            coeff = [mag * math.cos(phase), mag * math.sin(phase)]
        else:
            coeff = [mag, 0.0]
        terms.append([coeff, _basis(rng, kinds, scale, shift), _basis(rng, kinds, scale, shift)])
    return {"family": "separable_sum", "terms": terms}


def gaussian_separable(rng, rank):
    """Separable kernel whose factors all decay like Gaussians by tau = 6,
    the setting in which acceptance criteria 6, 7 and 10 apply."""
    return separable(rng, rank, GAUSS_KINDS, (1.0, 1.3), (-0.3, 0.3))


GAUSS_CAUCHY = {"family": "gauss_cauchy"}


def unit_phase(rng):
    """+1 (40%), -1 (20%) or a uniform complex phase (40%), as [re, im]."""
    u = rng.random()
    if u < 0.4:
        return [1.0, 0.0]
    if u < 0.6:
        return [-1.0, 0.0]
    phase = rng.uniform(-math.pi, math.pi)
    return [math.cos(phase), math.sin(phase)]


def scaled(phase, mag):
    return [phase[0] * mag, phase[1] * mag]


def regular_lambda(rng, is_regular, lo, hi):
    """Draw |lambda| log-uniform in [lo, hi] until the oracle calls it regular."""
    for _ in range(500):
        lam = scaled(unit_phase(rng), math.exp(rng.uniform(math.log(lo), math.log(hi))))
        if is_regular(complex(*lam)):
            return lam
    raise RuntimeError("no regular lambda found")


def cycle(values, *index):
    """Deterministic pick from `values`, varying with slot and block."""
    return values[sum((2 * i + 1) * v for i, v in enumerate(index)) % len(values)]


def region_around(rng, zeros, width, height):
    """A width x height region placed at random over one of the zeros with
    |z| <= 8 (or over 1 when there are none)."""
    near = sorted((complex(z) for z in zeros if abs(z) <= 8.0), key=lambda z: (z.real, z.imag))
    z0 = rng.choice(near) if near else complex(1.0, 0.0)
    re0 = z0.real - rng.uniform(0.15, 0.85) * width
    im0 = z0.imag - rng.uniform(0.15, 0.85) * height
    return [round(re0, 6), round(re0 + width, 6), round(im0, 6), round(im0 + height, 6)]


def kernel_sup(desc, t, ppu, order):
    """max |K| over the (s, t) pairs of the grid's nodes, as det_series sees it."""
    x, _ = oracle.gl_grid(-t, t, ppu, order)
    s, u = x[:, None], x[None, :]
    if desc["family"] == "gauss_cauchy":
        return float(np.max(oracle.gauss_cauchy(s, u)))
    k = sum(complex(*c) * oracle.basis_array(*l, s) * oracle.basis_array(*r, u)
            for c, l, r in desc["terms"])
    return float(np.max(np.abs(k)))


def rank_of(desc):
    return len(desc["terms"]) if desc["family"] == "separable_sum" else 0


def kernel_spec(fk, desc):
    if desc["family"] == "gauss_cauchy":
        return fk.gauss_cauchy()
    return fk.KernelSpec(
        "separable_sum",
        tuple((complex(*c), fk.BasisFn(*l), fk.BasisFn(*r)) for c, l, r in desc["terms"]),
    )


# ---------------------------------------------------------------------------
# checks


def close(got, ref, tol):
    """Max error within tol, relative to max(1, max |ref|)."""
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if got.shape != ref.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
    return bool(np.max(np.abs(got - ref), initial=0.0) <= tol * scale)


def zeros_match(found, ref_zeros, region):
    """Every zero found is an oracle zero, and every oracle zero well inside
    the region is found, both within TOL_ZERO * (1 + |z|)."""
    re0, re1, im0, im1 = region
    ref_zeros = list(ref_zeros)
    for z in found:
        if not any(abs(z - r) <= TOL_ZERO * (1 + abs(z)) for r in ref_zeros):
            return False
    for r in ref_zeros:
        inside = (re0 + ZERO_MARGIN < r.real < re1 - ZERO_MARGIN
                  and im0 + ZERO_MARGIN < r.imag < im1 - ZERO_MARGIN)
        if inside and not any(abs(z - r) <= TOL_ZERO * (1 + abs(r)) for z in found):
            return False
    return True


def det_series_close(got, ref, lam, mu, m_max):
    """Partial determinant series within TOL_DET of the size of its terms."""
    e = oracle.elementary_symmetric(mu, m_max)
    size = float(np.sum(np.abs(complex(lam)) ** np.arange(m_max + 1) * np.abs(e)))
    return abs(complex(got) - complex(ref)) <= TOL_DET * max(1.0, size)


def converges(seqs, n_count):
    """Distances non-increasing (slack 1e-10) with finals <= 1e-5."""
    for seq in seqs:
        if len(seq) != n_count:
            return False
        if any(b > a + SLACK for a, b in zip(seq, seq[1:])) or seq[-1] > TOL_FINAL:
            return False
    return True


def tails_match(got, ref, variant):
    tol = TOL_TAIL_TILDE if variant == "tilde" else TOL_TAIL
    return len(got) == len(ref) and all(abs(v - r) <= tol * r + 1e-12 for v, r in zip(got, ref))


class _Refs:
    """Per-run cache of oracle objects shared between operations."""

    def __init__(self):
        self._gc = {}

    def gauss_cauchy(self, t, ppu=4, order=8):
        key = (t, ppu, order)
        if key not in self._gc:
            self._gc[key] = oracle.NystromRef(t, ppu, order)
        return self._gc[key]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    slots = ()

    def __init__(self):
        self.refs = _Refs()

    def prepare(self, op, ctx):
        """Untimed per-op preparation; returns what `run` receives."""
        return op["input"]

    def release(self, arg):
        """Untimed clean-up after the op has been checked."""

    def probes(self, rng):
        """Untimed ops on inputs that hit a known defect; none by default."""
        return []


class Resolve(Workload):
    """Factorize once, evaluate many: make_resolvent, eval_grid_matrix, several
    solve_equation right-hand sides, and residual_check on a share of ops."""

    # (n, panels_per_unit, order): N = 96, 128, 192, 256, 320, 384, 480, 640,
    # 960.  An odd number of slots keeps the median op inside one slot.
    slots = ((2, 3, 8), (2, 4, 8), (4, 4, 8), (6, 4, 8), (8, 4, 8), (6, 3, 16),
             (8, 3, 16), (8, 4, 16), (10, 5, 16))
    # residual_check solves for N columns (three LU's worth of work); it runs
    # on 1 op in 5 of the slots up to N = 256, so the tail is set by size.
    residual_slots = 4

    def generate(self, rng, slot, block):
        n, ppu, order = self.slots[slot]
        t = tau(n)
        # 0 is the Gaussian/Cauchy kernel.  The median slot keeps one rank so
        # that the median op's cost is unimodal.
        rank = 6 if slot == len(self.slots) // 2 else cycle(range(13), slot, block)
        if rank == 0:
            desc = GAUSS_CAUCHY
            ref = None
            is_regular = self.refs.gauss_cauchy(t).regular
        else:
            desc = separable(rng, rank)
            ref = oracle.Separable(desc["terms"], t)
            is_regular = ref.regular
        lam = regular_lambda(rng, is_regular, 0.05, 2.0)
        inp = {
            "kernel": desc, "n": n, "ppu": ppu, "order": order, "lambda": lam,
            "variant": rng.choice(("plain", "tilde")),
            "s": sorted(rng.uniform(-t - 1, t + 1) for _ in range(16)),
            "t": sorted(rng.uniform(-t - 1, t + 1) for _ in range(16)),
            "g": [_basis(rng, ("gauss", "sech"), (0.7, 1.6), (-1.0, 1.0))
                  for _ in range(cycle((2, 3, 4), slot, block))],
            "residual": slot < self.residual_slots and cycle(range(5), block, slot) == 0,
        }
        meta = {"N": node_count(n, ppu, order), "rank": rank_of(desc), "command": "resolve"}
        return {"input": inp, "meta": meta, "ref": ref}

    def run(self, fk, inp):
        k = kernel_spec(fk, inp["kernel"])
        trunc = fk.TruncationScheme()
        n = inp["n"]
        grid = fk.build_grid(trunc, n, inp["ppu"], inp["order"])
        h = fk.make_resolvent(k, trunc, n, complex(*inp["lambda"]), grid, variant=inp["variant"])
        out = {
            "nodes": grid.nodes,
            "det": h.det.value,
            "R": h.eval_grid_matrix(np.array(inp["s"]), np.array(inp["t"])),
            "f": [fk.solve_equation(h, oracle.basis_array(*g, grid.nodes)) for g in inp["g"]],
        }
        if inp["residual"]:
            r = tau(n) + 0.5
            out["residual"] = fk.residual_check(h, fk.grid_on_interval(-r, r, 1, 8))
        return out

    def check(self, op, out):
        inp = op["input"]
        lam = complex(*inp["lambda"])
        tilde = inp["variant"] == "tilde"
        s, t = np.array(inp["s"]), np.array(inp["t"])
        ref = op["ref"]
        if ref is None:
            ref = oracle.NystromRef(tau(inp["n"]), inp["ppu"], inp["order"])
            if not close(out["nodes"], ref.nodes, 1e-12):
                return TOLERANCE
            f_ref = [ref.solution(lam, g) for g in inp["g"]]
        else:
            f_ref = [ref.solution(lam, g, out["nodes"]) for g in inp["g"]]
        ok = close(out["det"], ref.det(lam), TOL_DET)
        ok = ok and close(out["R"], ref.resolvent(lam, s, t, tilde), TOL_R)
        ok = ok and all(close(f, fr, TOL_F) for f, fr in zip(out["f"], f_ref))
        ok = ok and max(out.get("residual", (0.0,))) <= TOL_RESIDUAL
        return None if ok else TOLERANCE


class Scan(Workload):
    """Factorize per Newton step: char_scan on a region around an oracle zero,
    plus det_matrix at one regular lambda and det_series at a lambda whose
    Hadamard base stays within SERIES_BASE_MAX."""

    # N = 128, 160, 192, 216, 240: an odd number of close cost tiers keeps
    # the median op inside one tier.
    slots = ((6, 2, 8), (8, 2, 8), (10, 2, 8), (7, 3, 8), (8, 3, 8))

    def generate(self, rng, slot, block):
        n, ppu, order = self.slots[slot]
        t = tau(n)
        # 0 is the Gaussian/Cauchy kernel; the median slot keeps one rank.
        rank = 2 if slot == len(self.slots) // 2 else cycle(range(5), slot, block)
        if rank == 0:
            desc = GAUSS_CAUCHY
            ref = self.refs.gauss_cauchy(t, ppu, order)
        else:
            desc = separable(rng, rank)
            ref = oracle.Separable(desc["terms"], t)
        inp = {
            "kernel": desc, "n": n, "ppu": ppu, "order": order,
            "region": region_around(rng, ref.zeros(), 1.2, 0.6), "density": 3.0,
            "variant": rng.choice(("plain", "tilde")),
            "lambda": regular_lambda(rng, ref.regular, 0.05, 2.0),
            "m_max": cycle((2, 3, 4, 5, 6), slot, block),
        }
        base = kernel_sup(desc, t, ppu, order) * 2.0 * t
        hi = min(2.0, SERIES_BASE_MAX / base)
        inp["series_lambda"] = scaled(unit_phase(rng), math.exp(rng.uniform(math.log(0.05),
                                                                            math.log(hi))))
        meta = {"N": node_count(n, ppu, order), "rank": rank_of(desc), "command": "scan"}
        return {"input": inp, "meta": meta, "ref": ref, "base": base}

    def probes(self, rng):
        """Scan ops whose det_series lambda puts the Hadamard base past the
        overflow of fredholm._hadamard_tail's math.exp."""
        ops = []
        for i in range(SCAN_PROBES):
            op = self.generate(rng, i % len(self.slots), i)
            mag = rng.uniform(*SERIES_PROBE_BASE) / op["base"]
            op["input"]["series_lambda"] = scaled(unit_phase(rng), mag)
            op["meta"]["command"] = "scan:series_overflow"
            ops.append(op)
        return ops

    def run(self, fk, inp):
        k = kernel_spec(fk, inp["kernel"])
        trunc = fk.TruncationScheme()
        n = inp["n"]
        lam = complex(*inp["lambda"])
        grid = fk.build_grid(trunc, n, inp["ppu"], inp["order"])
        res = fk.char_scan(k, trunc, n, tuple(inp["region"]), inp["density"], grid,
                           variant=inp["variant"])
        m = fk.nystrom_matrix(k, trunc, n, "plain", grid)
        return {
            "zeros": res.zeros,
            "det": fk.det_matrix(m, lam).value,
            "det_series": fk.det_series(k, trunc, n, complex(*inp["series_lambda"]), grid,
                                        inp["m_max"]).value,
        }

    def check(self, op, out):
        inp, ref = op["input"], op["ref"]
        lam = complex(*inp["lambda"])
        ok = zeros_match(out["zeros"], ref.zeros(), inp["region"])
        if isinstance(ref, oracle.NystromRef):
            ok = ok and all(abs(ref.det(z)) < 1e-8 * (1 + abs(z)) for z in out["zeros"])
        ok = ok and close(out["det"], ref.det(lam), TOL_DET)
        slam = complex(*inp["series_lambda"])
        ok = ok and det_series_close(out["det_series"], ref.det_partial(slam, inp["m_max"]), slam,
                                     ref.mu, inp["m_max"])
        return None if ok else TOLERANCE


class Sweep(Workload):
    """Factorize per truncation index: resolvent_convergence_diagnostic (series
    reference inside the disk, largest-n outside), compact_sweep and
    tail_condition_report, all on Gaussian-decaying kernels."""

    # (operation, Gaussian/Cauchy kernel, panels_per_unit); the cheapest
    # first.  Seven slots: the median op falls in a converge_disk slot.
    slots = (("tailnorm", False, 2), ("converge_disk", False, 2), ("converge_disk", True, 2),
             ("converge_largest", False, 2), ("converge_largest", True, 2),
             ("compact", False, 2), ("compact", True, 2))

    def _full_norm(self, desc):
        if desc["family"] == "gauss_cauchy":
            return float(np.max(np.abs(self.refs.gauss_cauchy(8.0).mu)))
        return oracle.separable_full_norm(desc["terms"], GAUSS_RADIUS)

    def _truncated_mu(self, desc, n):
        if desc["family"] == "gauss_cauchy":
            return self.refs.gauss_cauchy(tau(n)).mu
        return oracle.Separable(desc["terms"], tau(n)).mu

    def generate(self, rng, slot, block):
        kind, gc, ppu = self.slots[slot]
        desc = GAUSS_CAUCHY if gc else gaussian_separable(rng, cycle((1, 2), slot, block))
        ns = [2, 4, 6, 8, 10] if kind == "tailnorm" else [4, 6, 8, 10]
        inp = {"op": kind, "kernel": desc, "n_list": ns, "ppu": ppu,
               "variant": rng.choice(("plain", "tilde")), "n_terms": 40}
        ref = None
        if kind in ("converge_disk", "compact"):
            # |lambda| ||T|| <= 0.5, so 40 series terms reach 1e-12.
            norm = self._full_norm(desc)
            lams = [scaled(unit_phase(rng), rng.uniform(0.1, 0.5) / norm)
                    for _ in range(1 if kind == "converge_disk" else 2)]
            if kind == "converge_disk":
                inp.update(reference="neumann_disk", schedule=["zero", 0.0], **{"lambda": lams[0]})
            else:
                inp["lambdas"] = lams
        elif kind == "converge_largest":
            norm = self._full_norm(desc)
            mus = {n: self._truncated_mu(desc, n) for n in ns}
            # Criterion 6 shifts lambda = 0.3 by beta_n = 1/n, so |beta_n lambda|
            # <= 0.15; harmonic schedules here keep |beta_1 lambda| in [0.02, 0.1].
            harmonic = rng.random() < 0.5
            b = rng.uniform(0.02, 0.1)

            def schedule(lam):
                return ["harmonic", b / abs(lam)] if harmonic else ["zero", 0.0]

            def is_regular(lam):
                beta0 = schedule(lam)[1]
                return all(oracle.regular_with(mus[n], lam / (1.0 - beta0 / n * lam)) for n in ns)

            lam = regular_lambda(rng, is_regular, 1.2 / norm, 2.5 / norm)
            inp.update(reference="largest_n", schedule=schedule(complex(*lam)), **{"lambda": lam})
        else:
            inp["m"] = cycle((1, 2), block)
            tilde = inp["variant"] == "tilde"
            ref = [oracle.Separable(desc["terms"], tau(n)).tail_norm(inp["m"], GAUSS_RADIUS, tilde)
                   for n in ns]
        meta = {"N": node_count(max(ns), ppu, 8), "rank": rank_of(desc), "command": kind}
        return {"input": inp, "meta": meta, "ref": ref}

    def run(self, fk, inp):
        k = kernel_spec(fk, inp["kernel"])
        trunc = fk.TruncationScheme()
        ns, ppu, variant = inp["n_list"], inp["ppu"], inp["variant"]
        if inp["op"] == "tailnorm":
            disc = fk.grid_on_interval(-GAUSS_RADIUS, GAUSS_RADIUS, ppu, 8)
            return {"tail": fk.tail_condition_report(k, trunc, inp["m"], ns, disc, variant=variant)}
        egrid = fk.grid_on_interval(-6.5, 6.5, 1, 4)
        if inp["op"] == "compact":
            sw = fk.compact_sweep(k, trunc, [complex(*l) for l in inp["lambdas"]], ns, egrid,
                                  variant=variant, panels_per_unit=ppu, order=8,
                                  n_terms=inp["n_terms"])
            return {"seqs": (sw.envelope_T, sw.envelope_row, sw.envelope_col),
                    "skipped": sw.skipped_lambdas}
        rep = fk.resolvent_convergence_diagnostic(
            k, trunc, complex(*inp["lambda"]), fk.ShiftSchedule(*inp["schedule"]), ns, egrid,
            reference=inp["reference"], variant=variant, panels_per_unit=ppu, order=8,
            n_terms=inp["n_terms"],
        )
        return {"seqs": (rep.sup_T_diff, rep.sup_row_diff, rep.sup_col_diff),
                "skipped": rep.skipped}

    def check(self, op, out):
        inp = op["input"]
        if inp["op"] == "tailnorm":
            return None if tails_match(out["tail"], op["ref"], inp["variant"]) else TOLERANCE
        if out["skipped"]:
            return REFUSED
        return None if converges(out["seqs"], len(inp["n_list"])) else TOLERANCE


# CLI -------------------------------------------------------------------------

COMMANDS = ("det", "solve", "resolvent", "scan", "converge", "tailnorm")
NONFINITE = (float("nan"), float("inf"), float("-inf"))


def _kernel_config(desc):
    if desc["family"] == "gauss_cauchy":
        return {"family": "gauss_cauchy"}

    def basis(p):
        return {"kind": p[0], "scale": p[1], "shift": p[2]}

    return {"family": "separable_sum",
            "terms": [{"coefficient": c, "left": basis(l), "right": basis(r)}
                      for c, l, r in desc["terms"]]}


def _set(cfg, path, value):
    node = cfg
    for key in path[:-1]:
        if isinstance(node, dict):
            node = node.setdefault(key, {})
        else:
            node = node[key]
    node[path[-1]] = value


class Cli(Workload):
    """The users' entry point: cli.run_command in-process on generated config
    files, every command at small N, plus malformed configs that must exit 1
    with E_CONFIG.  Configs with NaN/Infinity values, which must do the same
    but often exit 0 or E_INTERNAL (ROADMAP item 3), are the probes."""

    # An odd number of slots keeps the median op inside one command's slot.
    slots = COMMANDS + ("malformed",)
    categories = ("unknown_key", "wrong_type", "out_of_range")

    def generate(self, rng, slot, block):
        command = self.slots[slot]
        if command == "malformed":
            k = len(self.categories)
            return self._malformed(rng, cycle(self.categories, block),
                                   cycle(COMMANDS, block // k), slot, block, block // k)
        cfg, argv, ref = self._valid(rng, command, slot, block)
        inp = {"command": command, "config": cfg, "argv": argv, "malformed": False}
        meta = {"N": ref["N"], "rank": rank_of(ref["kernel"]), "command": command}
        return {"input": inp, "meta": meta, "ref": ref}

    def _malformed(self, rng, category, command, slot, block, pick):
        cfg, argv, _ = self._valid(rng, command, slot, block)
        path, value = self._mutation(rng, category, cfg, pick)
        _set(cfg, path, value)
        ref = {"category": category, "path": ".".join(str(p) for p in path)}
        inp = {"command": command, "config": cfg, "argv": argv, "malformed": True}
        meta = {"N": 0, "rank": 0, "command": f"{command}:{category}"}
        return {"input": inp, "meta": meta, "ref": ref}

    def probes(self, rng):
        slot = self.slots.index("malformed")
        return [self._malformed(rng, "nonfinite", COMMANDS[i % len(COMMANDS)], slot, i, i)
                for i in range(NONFINITE_PROBES)]

    def _valid(self, rng, command, slot, block):
        n, ppu = 4, 2
        t = tau(n)
        if command != "tailnorm" and cycle(range(4), slot, block) == 0:
            desc = GAUSS_CAUCHY
        elif command == "tailnorm":
            desc = gaussian_separable(rng, 1)  # the median slot: keep its cost unimodal
        elif command == "converge":
            desc = gaussian_separable(rng, cycle((1, 2), slot, block))
        else:
            desc = separable(rng, cycle((1, 2, 3), slot, block))
        cfg = {"kernel": _kernel_config(desc), "quadrature": {"panels_per_unit": ppu, "order": 8}}
        ref = {"kernel": desc, "N": node_count(n, ppu, 8)}
        if desc["family"] == "gauss_cauchy":
            oref = self.refs.gauss_cauchy(t, ppu, 8)
        else:
            oref = oracle.Separable(desc["terms"], t)
        argv = []
        block_cfg = {}
        if command in ("det", "solve", "resolvent"):
            lam = regular_lambda(rng, oref.regular, 0.05, 2.0)
            ref["lambda"] = lam
            block_cfg["n"] = n
            if rng.random() < 0.3:
                argv = ["--lambda", f"{lam[0]!r},{lam[1]!r}"]
            else:
                block_cfg["lambda"] = lam
        if command == "det":
            block_cfg["m_max"] = rng.randint(1, 8)
        elif command == "solve":
            block_cfg["g"] = dict(zip(("kind", "scale", "shift"),
                                      _basis(rng, ("gauss", "sech"), (0.7, 1.6), (-1.0, 1.0))))
        elif command == "resolvent":
            block_cfg.update(eval_radius=t + 1.0, eval_points=100,
                             variant=rng.choice(("plain", "tilde")))
        elif command == "scan":
            region = region_around(rng, oref.zeros(), 1.2, 0.6)
            block_cfg.update(n=n, density=3.0)
            if rng.random() < 0.3:
                argv = ["--region", ",".join(repr(v) for v in region)]
            else:
                block_cfg["region"] = region
            ref["region"] = region
        elif command == "converge":
            if desc["family"] == "gauss_cauchy":
                norm = float(np.max(np.abs(self.refs.gauss_cauchy(8.0).mu)))
            else:
                norm = oracle.separable_full_norm(desc["terms"], GAUSS_RADIUS)
            # |lambda| ||T|| <= 0.3, so 24 series terms reach 3e-13.
            block_cfg.update({"lambda": scaled(unit_phase(rng), rng.uniform(0.1, 0.3) / norm),
                              "n_list": [8, 10], "schedule": {"kind": "zero"},
                              "reference": "neumann_disk", "eval_radius": 6.5,
                              "variant": rng.choice(("plain", "tilde")), "n_terms": 24})
            ref.update(n_list=[8, 10], N=node_count(10, ppu, 8))
        elif command == "tailnorm":
            ns = [4, 6, 8, 10]
            block_cfg.update(m=1, n_list=ns,
                             variant=rng.choice(("plain", "tilde")))
            ref.update(n_list=ns, N=node_count(10, ppu, 8), tail=[
                oracle.Separable(desc["terms"], tau(m)).tail_norm(
                    block_cfg["m"], GAUSS_RADIUS, block_cfg["variant"] == "tilde") for m in ns])
        cfg[command] = block_cfg
        ref["oref"] = oref
        return cfg, argv, ref

    def _mutation(self, rng, category, cfg, pick):
        separable_kernel = cfg["kernel"]["family"] == "separable_sum"
        if category == "unknown_key":
            where = cycle(((), ("quadrature",), ("det",), ("scan",), ("truncation",)), pick)
            return where + (f"unknown_{rng.randint(0, 99)}",), 1
        if category == "wrong_type":
            choices = [(("det", "n"), "6"), (("quadrature", "order"), 8.5),
                       (("resolvent", "variant"), 1), (("scan", "region"), "0,2,-1,1"),
                       (("converge", "n_list"), 3), (("truncation", "tau0"), "1"),
                       (("solve", "g"), 3), (("det", "lambda"), "0.3"), (("kernel", "terms"), {})]
        elif category == "out_of_range":
            choices = [(("quadrature", "order"), 7), (("det", "m_max"), 9),
                       (("resolvent", "eval_points"), 1), (("quadrature", "panels_per_unit"), 0),
                       (("truncation", "tau0"), -1.0), (("scan", "density"), 0.0),
                       (("resolvent", "eval_radius"), -2.0), (("det", "n"), 0),
                       (("truncation", "step"), 0.0), (("converge", "reference"), "nearest"),
                       (("tailnorm", "variant"), "both"), (("converge", "n_list"), [])]
        else:
            v = rng.choice(NONFINITE)
            choices = [(("det", "lambda"), v), (("solve", "lambda"), v),
                       (("resolvent", "lambda"), v), (("resolvent", "eval_radius"), v),
                       (("scan", "density"), v), (("scan", "region"), [0.0, v, -0.5, 0.5]),
                       (("truncation", "step"), v), (("truncation", "tau0"), v),
                       (("converge", "eval_radius"), v), (("converge", "lambda"), v)]
            if separable_kernel:
                choices += [(("kernel", "terms", 0, "coefficient"), v),
                            (("kernel", "terms", 0, "left", "scale"), v),
                            (("kernel", "terms", 0, "right", "shift"), v)]
        if not separable_kernel:
            choices = [c for c in choices if c[0][0] != "kernel"]
        return cycle(choices, pick, pick // 6)

    def prepare(self, op, ctx):
        """Write the config file and pick a fresh output directory."""
        index = ctx.next_index()
        op_dir = os.path.join(ctx.workdir, f"op{index}")
        os.makedirs(op_dir)
        path = os.path.join(op_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["input"]["config"], fh)
        out = os.path.join(op_dir, "out")
        inp = op["input"]
        return {"argv": [inp["command"], "--config", path, "--out", out] + inp["argv"],
                "out": out, "dir": op_dir}

    def run(self, fk, arg):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = fk.cli.run_command(arg["argv"])
        return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                "out": arg["out"]}

    def release(self, arg):
        shutil.rmtree(arg["dir"], ignore_errors=True)

    def check(self, op, out):
        inp, ref = op["input"], op["ref"]
        if inp["malformed"]:
            ok = out["code"] == 1 and out["stderr"].startswith("E_CONFIG ")
            return None if ok else EXIT_CODE
        if out["code"] == 2 and out["stderr"].startswith("E_CHARACTERISTIC"):
            return REFUSED
        if out["code"] != 0:
            return EXIT_CODE
        with open(os.path.join(out["out"], "config_echo.json"), encoding="utf-8") as fh:
            json.load(fh)
        return None if getattr(self, "_check_" + inp["command"])(inp, ref, out) else TOLERANCE

    @staticmethod
    def _csv(out, name):
        with open(os.path.join(out["out"], name), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))

    def _check_det(self, inp, ref, out):
        fields = out["stdout"].split()
        if len(fields) != 3 or fields[0] != "D":
            return False
        got = complex(float(fields[1]), float(fields[2]))
        return close(got, ref["oref"].det(complex(*ref["lambda"])), TOL_DET)

    def _check_solve(self, inp, ref, out):
        _, rows = self._csv(out, "solution.csv")
        lam = complex(*ref["lambda"])
        g = inp["config"]["solve"]["g"]
        g = (g["kind"], g["scale"], g["shift"])
        oref = ref["oref"]
        if isinstance(oref, oracle.NystromRef):
            if not close(rows[:, 0], oref.nodes, 1e-12):
                return False
            f_ref = oref.solution(lam, g)
        else:
            f_ref = oref.solution(lam, g, rows[:, 0])
        return close(rows[:, 1] + 1j * rows[:, 2], f_ref, TOL_F)

    def _check_resolvent(self, inp, ref, out):
        _, rows = self._csv(out, "resolvent_grid.csv")
        block = inp["config"]["resolvent"]
        p = block["eval_points"]
        if rows.shape[0] != p * p:
            return False
        s, t = rows[::p, 0], rows[:p, 1]
        want = ref["oref"].resolvent(complex(*ref["lambda"]), s, t, block["variant"] == "tilde")
        return close((rows[:, 2] + 1j * rows[:, 3]).reshape(p, p), want, TOL_R)

    def _check_scan(self, inp, ref, out):
        _, rows = self._csv(out, "zeros.csv")
        found = [complex(a, b) for a, b in rows]
        oref = ref["oref"]
        ok = zeros_match(found, oref.zeros(), ref["region"])
        if isinstance(oref, oracle.NystromRef):
            ok = ok and all(abs(oref.det(z)) < 1e-8 * (1 + abs(z)) for z in found)
        return ok

    def _check_converge(self, inp, ref, out):
        _, rows = self._csv(out, "convergence.csv")
        return converges([rows[:, 2], rows[:, 3], rows[:, 4]], len(ref["n_list"]))

    def _check_tailnorm(self, inp, ref, out):
        _, rows = self._csv(out, "tailnorm.csv")
        return tails_match(rows[:, 2], ref["tail"], inp["config"]["tailnorm"]["variant"])


WORKLOADS = {"resolve": Resolve, "scan": Scan, "sweep": Sweep, "cli": Cli}
