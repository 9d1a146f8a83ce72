"""fredkern benchmark.

    python3 perfbench/run.py --workload {resolve,scan,sweep,cli,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; fredkern is imported from ./src.  With
--trace 0 the last stdout line is a JSON object carrying the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced pass
over the same operations.  `--workload all` runs the four workloads, each in
its own process, and prints every metric with its unit.  See README.md.
"""

import os
import sys
import time

# One BLAS/LAPACK thread, fixed before numpy is first imported (threadpoolctl
# is not available).  Measured rationale in README.md.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "FREDKERN_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse(argv):
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("resolve", "scan", "sweep", "cli", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="measure one set-up (import plus warm-up op) and exit")
    return p.parse_args(argv)


def main(argv):
    args = parse(argv)
    if args.workload == "all":
        import harness

        return harness.run_all(args)
    if not os.path.isdir(os.path.join(SRC, "fredkern")):
        sys.stderr.write(f"fredkern sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import fredkern
    import fredkern.cli  # noqa: F401  (not imported by the package itself)

    import_s = time.perf_counter() - t0
    import harness

    if args.setup_probe:
        import json

        print(json.dumps({"setup_s": harness.setup_probe(args, fredkern, import_s)}))
        return 0
    return harness.run(args, fredkern, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
