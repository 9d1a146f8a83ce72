"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload scan --seeds 1 2 3 4 5 [--seconds 15]

Runs the workload once per seed (untraced) and prints, for each end-to-end
metric of BENCHMARK.json, the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    p = argparse.ArgumentParser(description="end-to-end spread over seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    worst = 0.0
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{args.workload:8s} {m['name']:12s} median {med:12.6g} {m['unit']:5s} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:.4f} bound {m['bound']}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
