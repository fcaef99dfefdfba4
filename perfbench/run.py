"""Layered benchmark of the hdg_elastic solver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder-k1 --seed 1 --seconds 25 --trace 0

Each execution of a workload runs in a fresh worker process (worker.py)
with the workload's BLAS thread count in its environment. Executions repeat
while the next one fits in --seconds (at least one); with --trace 1 every
execution is a pair, untraced then traced, so that the tracing overhead is
measured in the same run. Untraced runs add set-up-only executions, which
run the same harness with its solves stubbed, until set-up time has three
samples. Every operation's outputs are compared with
perfbench/references.json; the last line printed is one JSON object with
the keys correct, attempted, failed and metrics (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1).
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
TOLERANCE = 1e-10
TIME_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 3


def nproc():
    return len(os.sched_getaffinity(0))


def blas_threads(workload):
    """ladder-k1 runs with the library default (one thread per core), set
    explicitly; the other workloads pin the BLAS to one thread."""
    return nproc() if workload == "ladder-k1" else 1


def load_average():
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, trace, deadline, setup_only=False, spans_out=None):
    threads = str(blas_threads(args.workload))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    cmd += ["--spans-out", str(spans_out)] if spans_out else []
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def expected(ref, seed):
    if ref["kind"] == "quadratic":
        c = worker.initial_coefficients(seed)
        return float(c @ ref["gram"] @ c)
    return ref["value"]


def check(op, refs, seed):
    """None when every output of op matches its reference, else the reason."""
    if op["error"]:
        return op["error"].strip().splitlines()[-1]
    for key, ref in refs[op["op"]].items():
        if key not in op["outputs"]:
            return f"{key} missing"
        value, want = op["outputs"][key], expected(ref, seed)
        scale = 1.0 if ref["kind"] == "roundoff" else abs(want)
        if not abs(value - want) <= TOLERANCE * scale:
            return f"{key}={value!r}, reference {want!r}"
    return None


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, reps, setups):
    """Gated metrics, and the workload's other metrics as (value, unit)."""
    med = statistics.median
    metrics = {"wall_s": med(r["wall_s"] for r in reps),
               "setup_s": med(setups),
               "peak_rss_mb": med(r["peak_rss_mb"] for r in reps)}
    extra = {}
    if workload.startswith("ladder"):
        extra["finest_solve_s"] = (med(r["finest_solve_s"] for r in reps), "s")
    for label in ("newmark", "trapezoid") if workload == "transient" else ():
        steps = [r[f"{label}_step_ms"] for r in reps if len(r[f"{label}_step_ms"]) > 1]
        drifts = [r[f"{label}_max_rel_drift"] for r in reps
                  if f"{label}_max_rel_drift" in r]   # absent when the run raised
        for q in (50, 95) if steps else ():
            extra[f"{label}_step_ms_p{q}"] = (med(percentile(s, q) for s in steps), "ms")
        if drifts:
            extra[f"{label}_max_rel_drift"] = (med(drifts), "ratio")
    return metrics, extra


def per_layer(reps, traced):
    med = statistics.median
    metrics = {k: med(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    untraced_wall = med(r["wall_s"] for r in reps)
    metrics["trace.traced_wall_s"] = med(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - untraced_wall
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_wall
    return metrics


def environment(args, versions, load_start):
    try:   # only when the checkout itself is a git work tree
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    sha = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": nproc(),
            "blas_threads": blas_threads(args.workload), **versions,
            "loadavg_1min_start": load_start, "loadavg_1min_end": load_average()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Layered benchmark of hdg_elastic")
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes (n <= 2, a few steps) for the tests")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    if not (ROOT / "src" / "hdg_elastic" / "__init__.py").is_file():
        print(f"no solver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mode = "smoke" if args.smoke else "full"
    refs = json.loads(REFERENCES.read_text())[mode][args.workload]
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    load_start = load_average()

    reps, traced = [], []
    try:
        while True:
            t0 = time.perf_counter()
            reps.append(run_worker(args, 0, deadline))
            if args.trace:
                spans = results_dir / (f"spans-{args.workload}-seed{args.seed}"
                                       f"-{len(traced)}.json")
                traced.append(run_worker(args, 1, deadline, spans_out=spans))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > args.seconds:
                break
        setups = [r["setup_s"] for r in reps]
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_worker(args, 0, deadline, setup_only=True)["setup_s"])
    except WorkerFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    failures = [(op["op"], why) for r in reps + traced for op in r["ops"]
                if (why := check(op, refs, args.seed))]
    attempted = sum(len(r["ops"]) for r in reps + traced)
    fail_rate = len(failures) / attempted
    if args.trace:
        metrics, extra, wanted = per_layer(reps, traced), {}, spec["per_layer"]
    else:
        metrics, extra = end_to_end(args.workload, reps, setups)
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    units = {m["name"]: m["unit"] for m in wanted}

    env = environment(args, reps[0]["versions"], load_start)
    print(f"workload {args.workload} seed {args.seed} mode {mode} "
          f"executions {len(reps)}{' + traced ' + str(len(traced)) if traced else ''}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in extra.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'fail_rate':40s} {fail_rate:14.6g} ratio "
          f"({len(failures)} of {attempted} operations)")
    for op, why in failures:
        print(f"  FAILED {op}: {why}")
    if traced:
        selfs = traced[0]["self_times"]
        print(f"self time of the first traced execution "
              f"(wall_s {traced[0]['wall_s']:.4f} s, spans in {spans.parent.name}/):")
        for name, (s, calls) in sorted(selfs.items(), key=lambda kv: -kv[1][0]):
            print(f"  {name:40s} {s:12.4f} s {calls:8d} calls")
        print(f"  {'sum':40s} {sum(s for s, _ in selfs.values()):12.4f} s")

    record = {"workload": args.workload, "seed": args.seed, "mode": mode,
              "environment": env, "metrics": metrics, "extra": extra,
              "fail_rate": fail_rate, "failures": failures,
              "executions": [{k: v for k, v in r.items() if k != "versions"}
                             for r in reps + traced], "setup_samples": setups}
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{mode}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"record written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    # exit through SystemExit on SIGTERM, so that subprocess.run kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
