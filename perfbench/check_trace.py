"""Traced-run checks for the fredkern benchmark.

    python3 perfbench/check_trace.py [--seed 1] [--seconds 3]

Runs every workload with --trace 1 and checks that
  * the per-layer metrics printed are exactly those of BENCHMARK.json, with
    the same units, and no op returned a wrong result;
  * top-level spans cover at least 95% of the traced op wall;
  * every layer shows self time on at least one workload;
  * the calls the workload design rules out are zero, and the ones it
    relies on are not;
  * the predicted dominant spans hold: LU and the norm estimate on resolve,
    fredholm LU and solves on scan, neumann_kernel_matrix on sweep.
Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resolve", "scan", "sweep", "cli")
LAYERS = ("kernels", "quadrature", "fredholm", "resolvent", "convergence", "cli")

ZERO = {
    "resolve": ("fredholm.char_scan.calls", "fredholm.lu_factor.calls",
                "resolvent.neumann_kernel_matrix.calls", "quadrature.tail_norm.calls",
                "convergence.resolvent_convergence_diagnostic.calls", "cli.run_command.calls"),
    "scan": ("quadrature.top_singular_value.calls", "resolvent.make_resolvent.calls",
             "resolvent.neumann_kernel_matrix.calls", "quadrature.tail_norm.calls",
             "convergence.resolvent_convergence_diagnostic.calls", "cli.run_command.calls"),
    "sweep": ("fredholm.char_scan.calls", "fredholm.lu_factor.calls", "cli.run_command.calls"),
    "cli": (),
}
NONZERO = {
    "resolve": ("resolvent.make_resolvent.calls", "quadrature.top_singular_value.calls",
                "resolvent.eval_grid_matrix.calls", "resolvent.solve_equation.calls"),
    "scan": ("fredholm.char_scan.calls", "fredholm.lu_factor.calls", "fredholm.det_matrix.calls"),
    "sweep": ("resolvent.neumann_kernel_matrix.calls", "convergence.compact_sweep.calls",
              "convergence.tail_condition_report.calls", "quadrature.tail_norm.calls"),
    "cli": ("cli.run_command.calls", "cli.parse_config.calls", "cli.emit_grid_csv.bytes"),
}


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace1.json"),
              encoding="utf-8") as fh:
        dump = json.load(fh)
    return result, dump


def share(dump, *names):
    """Self time of the named spans as a share of the traced op wall."""
    total = dump["info"]["traced_s"] * 1e3
    return sum(dump["names"].get(n, {}).get("self_ms", 0.0) for n in names) / total


def checks(runs, declared):
    for w, (result, dump) in runs.items():
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        yield f"{w}: per-layer metrics and units match BENCHMARK.json", got == declared
        yield f"{w}: no op outside tolerance", result["correct"]
        cover = result["metrics"]["top_span_coverage"]["value"]
        yield f"{w}: top-level spans cover {cover:.4f} >= 0.95 of the op wall", cover >= 0.95
        m = {name: v["value"] for name, v in result["metrics"].items()}
        zero = [n for n in ZERO[w] if m[n] != 0]
        yield f"{w}: predicted-absent calls are zero {zero or ''}", not zero
        missing = [n for n in NONZERO[w] if m[n] == 0]
        yield f"{w}: predicted-present calls are nonzero {missing or ''}", not missing
    for layer in LAYERS:
        yield f"layer {layer} has self time on some workload", any(
            r["metrics"][f"{layer}.self_ms"]["value"] > 0 for r, _ in runs.values())
    resolve = runs["resolve"][1]
    lu = share(resolve, "resolvent.lu_factor")
    norm = share(resolve, "quadrature.top_singular_value", "quadrature.matrix_norm_estimate")
    yield f"resolve: LU factor {lu:.2f} and norm estimate {norm:.2f} each >= 0.10", (
        lu >= 0.10 and norm >= 0.10)
    scan = share(runs["scan"][1], "fredholm.lu_factor", "fredholm.lu_solve")
    yield f"scan: fredholm LU and solves {scan:.2f} >= 0.50", scan >= 0.50
    names = runs["sweep"][1]["names"]
    top = max(names, key=lambda n: names[n]["self_ms"])
    yield f"sweep: largest self time is {top}", top == "resolvent.neumann_kernel_matrix"


def main(argv):
    p = argparse.ArgumentParser(description="traced-run checks")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=3.0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    runs = {w: traced_run(w, args.seed, args.seconds) for w in WORKLOADS}
    failed = 0
    for desc, ok in checks(runs, declared):
        print(f"TRACE {'PASS' if ok else 'FAIL'} - {desc}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
