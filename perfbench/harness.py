"""Timing loop, metrics and reporting for the fredkern benchmark.

A run is closed-loop: one client in one process sends the next operation as
soon as the previous one returns.  Input generation and output checks run
between operations, outside the timed region; the run stops once the timed
operation wall reaches --seconds.
"""

import hashlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Context:
    """Working directory for operations that write files (cli)."""

    def __init__(self, workload, seed):
        self.workdir = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
        self._index = 0

    def __enter__(self):
        os.makedirs(self.workdir, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def next_index(self):
        self._index += 1
        return self._index


def op_stream(wl, seed):
    """Endless seeded operation stream; each block visits every slot once."""
    rng = random.Random(seed)
    for block in itertools.count():
        order = list(range(len(wl.slots)))
        rng.shuffle(order)
        for slot in order:
            yield wl.generate(rng, slot, block)


def warmup_op(wl, seed):
    """Slot 0 is each workload's cheapest."""
    return wl.generate(random.Random(f"warmup-{seed}"), 0, 0)


def run_op(fk, wl, op, ctx, tracer=None, index=None):
    """Run and check one operation; returns (seconds, failure cause, detail)."""
    arg = wl.prepare(op, ctx)
    try:
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            out, err = wl.run(fk, arg), None
        except Exception as exc:  # counted as a failed op, by cause
            out, err = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        if err is not None:
            refused = isinstance(err, (fk.CharacteristicValueError, fk.NeumannDivergenceError))
            return dt, workloads.REFUSED if refused else workloads.EXCEPTION, repr(err)[:200]
        try:
            cause = wl.check(op, out)
        except Exception as exc:  # output missing or unreadable
            return dt, workloads.EXCEPTION, f"check: {exc!r}"[:200]
    finally:
        wl.release(arg)
    detail = None
    if cause is not None:
        detail = op["meta"]["command"]
        if "code" in out:
            detail += f" exit={out['code']} {out['stderr'].strip()[:120]}"
    return dt, cause, detail


def run_pass(fk, wl, ops, ctx, seconds=None, tracer=None):
    """Run ops until the timed wall reaches `seconds` (or all of `ops`)."""
    records, done = [], []
    timed = 0.0
    for i, op in enumerate(ops):
        dt, cause, detail = run_op(fk, wl, op, ctx, tracer, i)
        timed += dt
        records.append({"op": i, **op["meta"], "ms": dt * 1e3, "failed": cause, "detail": detail})
        done.append(op)
        if seconds is not None and timed >= seconds:
            break
    return records, done, timed


def inputs_digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps(op["input"], sort_keys=True).encode())
    return h.hexdigest()


def machine():
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct, n)."""
    lat = sorted(latencies)
    n = len(lat)
    k = min(TAIL_BEYOND, n - 1)
    return lat[n - 1 - k], 100.0 * (n - k) / n, n


def setup_probe(args, fk, import_s):
    """One setup sample: import (measured by run.py) plus one warm-up op."""
    wl = workloads.WORKLOADS[args.workload]()
    op = warmup_op(wl, args.seed)
    with Context(args.workload, args.seed) as ctx:
        dt, cause, detail = run_op(fk, wl, op, ctx)
    if cause is not None:
        raise RuntimeError(f"warm-up op failed: {cause} {detail}")
    return import_s + dt


def setup_samples(args, first):
    samples = [first]
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_probes(fk, wl, seed, ctx):
    """Untimed known-defect probes; returns their records."""
    records = []
    for i, op in enumerate(wl.probes(random.Random(f"probes-{seed}"))):
        _, cause, detail = run_op(fk, wl, op, ctx)
        records.append({"probe": i, **op["meta"], "failed": cause, "detail": detail})
    return records


def summarize(records):
    causes = {}
    for r in records:
        if r["failed"]:
            causes[r["failed"]] = causes.get(r["failed"], 0) + 1
    return causes, [r["detail"] for r in records if r["failed"]][:5]


def run(args, fk, import_s):
    wl = workloads.WORKLOADS[args.workload]()
    setup_first = setup_probe(args, fk, import_s)
    setups = setup_samples(args, setup_first)

    with Context(args.workload, args.seed) as ctx:
        records, ops, timed = run_pass(fk, wl, op_stream(wl, args.seed), ctx, args.seconds)
        traced_records, stats, spans, tracer = None, None, None, None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(fk)
            try:
                traced_records, _, traced = run_pass(fk, wl, ops, ctx, tracer=tracer)
            finally:
                tracer.uninstall()
            spans = tracer.spans
            stats = tracing.aggregate(spans)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = run_probes(fk, wl, args.seed, ctx)

    all_records = records + (traced_records or [])
    attempted = len(all_records)
    failed = sum(1 for r in all_records if r["failed"])
    causes, examples = summarize(all_records)
    lat = [r["ms"] for r in records]
    tail_ms, tail_pct, n = tail(lat)
    e2e = {
        "ops_per_s": len(records) / timed,
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    probe_causes, probe_examples = summarize(probes)
    probe_failed = sum(probe_causes.values())
    known_defects = {"probes": len(probes), "failed": probe_failed, "causes": probe_causes,
                     "examples": probe_examples}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "ops": len(records), "timed_s": timed, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "fail_causes": causes, "fail_examples": examples,
        "op_ms_tail_percentile": tail_pct, "op_ms_tail_samples": n,
        "op_ms_tail_beyond": min(TAIL_BEYOND, n - 1), "setup_samples_s": setups,
        "inputs_sha256": inputs_digest(ops), "known_defects": known_defects,
        "machine": machine(),
    }
    if args.trace:
        overhead = (traced - timed) / timed
        probe_frac = probe_failed / len(probes) if probes else 0.0
        metrics = tracing.per_layer(stats, traced * 1e3, overhead, failed / attempted, probe_frac,
                                    spans)
        info["absent"] = tracing.absent(tracer)
        info["traced_s"] = traced
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    os.makedirs(OUT, exist_ok=True)
    dump = {"info": info, "end_to_end": e2e, "ops": all_records, "probes": probes}
    if args.trace:
        dump["names"] = stats
        dump["spans"] = spans
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)

    # `correct` means no op returned a result outside tolerance.  Crashes,
    # refusals of regular lambdas and wrong exit codes are failed ops, counted
    # by cause in `failed` and in the first line printed.
    correct = workloads.TOLERANCE not in causes
    print(json.dumps({k: info[k] for k in (
        "workload", "seed", "ops", "timed_s", "fail_causes", "fail_examples",
        "op_ms_tail_percentile", "op_ms_tail_samples", "setup_samples_s",
        "inputs_sha256", "known_defects", "machine")}))
    for name, m in metrics.items():
        print(f"metric {args.workload} {name} {m['value']:.6g} {m['unit']}")
    if args.trace and info["absent"]:
        print(f"absent: {' '.join(info['absent'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process; prints all metrics with units."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
            rows.append((name, metric, m["value"], m["unit"]))
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    for name, metric, value, unit in rows:
        print(f"{name:8s} {metric:52s} {value:14.6g} {unit}")
    print(json.dumps(total))
    return 0
