"""cliffordkit benchmark.

    python3 perfbench/run.py --workload atlas-8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  One workload runs per process, as a closed
loop with one client: each job starts when the previous one has finished.
With `--trace 0` the run is timed and reports the end-to-end metrics, with
times scaled to a reference host speed by `host_probe` (`spawn_probe` for
cli-cold's jobs); with `--trace 1` it
reports the per-layer metrics of a traced replay of the first pass (see
layers.py).  Every job's output is checked exactly; the last line of stdout
is one JSON object, and the exit code is 1 if any check failed.
`--workload all` runs each workload in its own child process and prints a
summary.  NOTES.md explains the workloads and metrics.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
import workloads

ROOT = os.getcwd()
SETUP_REPS = 21      # set-up is repeated and its median reported
MIN_JOBS = 100       # job_p90_ms needs at least ten jobs beyond it
MAX_WALL_S = 120.0   # no further pass starts after this, whatever the count
PROBE_LOOPS = 100_000
PROBE_REF_S = 0.005  # median host_probe time on the baseline machine (NOTES.md)
SPAWN_REF_S = 0.052  # median spawn_probe time on the baseline machine

_BASELINE_MODULES = set(sys.modules)


def fresh_import():
    """Import cliffordkit anew, dropping every module loaded since start-up."""
    for name in set(sys.modules) - _BASELINE_MODULES:
        del sys.modules[name]
    return importlib.import_module("cliffordkit")


def fresh_setup(cls, seed):
    """A workload on a fresh import; returns (workload, set-up seconds)."""
    gc.collect()  # every set-up starts from the same collector state
    t0 = time.perf_counter()
    wl = cls(fresh_import(), seed, ROOT)
    return wl, time.perf_counter() - t0


def host_probe():
    """Seconds taken by a fixed integer loop that never touches cliffordkit.

    It allocates no tracked objects, so nothing the program leaves behind
    can slow it; only the host's speed moves it."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i & 7
    return time.perf_counter() - t0


def spawn_probe():
    """Seconds taken to start and end a bare interpreter (`python -c pass`).

    It runs no cliffordkit code.  The jobs of cli-cold are interpreter
    starts, whose speed the integer loop follows poorly; this probe follows
    it closely (NOTES.md)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True)
    return time.perf_counter() - t0


def run_job(wl, job):
    """(duration, ok) of one timed job; failures are reported on stderr."""
    t0 = time.perf_counter()
    try:
        out = wl.run(job)
    except Exception:
        dt = time.perf_counter() - t0
        print(f"job {job!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return dt, False
    dt = time.perf_counter() - t0
    return dt, check(wl, job, out)


def check(wl, job, out):
    try:
        ok = wl.check(job, out)
    except Exception:
        print(f"check of {job!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return False
    if not ok:
        print(f"job {job!r}: output failed its exact check", file=sys.stderr)
    return ok


def units(kind):
    """Metric name -> unit for one list of BENCHMARK.json ("end_to_end" or
    "per_layer"); a run reports exactly these metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def timed(cls, seed, seconds):
    """End-to-end metrics, with times scaled to the reference host speed."""
    # The host's speed changes from second to second, by up to 2x over
    # minutes, and the probes follow it: each set-up and each job is scaled
    # by the probes on either side of it.
    setups, before = [], host_probe()
    for _ in range(SETUP_REPS):
        wl, dt = fresh_setup(cls, seed)
        after = host_probe()
        setups.append(dt * 2 * PROBE_REF_S / (before + after))
        before = after
    probe, ref = ((spawn_probe, SPAWN_REF_S) if cls is workloads.CliCold
                  else (host_probe, PROBE_REF_S))
    probes = [probe()]
    samples, failed = [], 0
    start = time.perf_counter()
    for jobs in wl.passes():
        for job in jobs:
            dt, ok = run_job(wl, job)
            failed += not ok
            probes.append(probe())
            samples.append((job, dt * 2 * ref / (probes[-2] + probes[-1])))
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(samples) >= MIN_JOBS) or elapsed >= MAX_WALL_S:
            break
    # A job's latency is the median over its repetitions in the run; single
    # times let the percentiles slide across the gaps between job sizes.
    by_job = {}
    for job, dt in samples:
        by_job.setdefault(job, []).append(dt)
    typical = {job: statistics.median(dts) for job, dts in by_job.items()}
    latencies = [typical[job] for job, _dt in samples]
    who = resource.RUSAGE_CHILDREN if cls is workloads.CliCold else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(samples) / sum(dt for _job, dt in samples),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    print(f"{probe.__name__}: median {statistics.median(probes) * 1e3:.2f} ms, "
          f"range {min(probes) * 1e3:.2f}-{max(probes) * 1e3:.2f} ms over "
          f"{len(probes)} probes around jobs; reference {ref * 1e3:g} ms")
    return len(samples), failed, {k: (metrics[k], u) for k, u in units("end_to_end").items()}


def replay(cls, seed, tr, install):
    """Set up on a fresh import and run the first pass through `run_traced`,
    timing each job with tracer `tr`, which also wraps the layers if
    `install`.  Returns (jobs run, jobs failed)."""
    ck = fresh_import()
    undo = layers.install(tr, ck) if install else []
    wl = cls(ck, seed, ROOT)
    # Of the set-up, only algebra construction counts: operand generation
    # must not add to the product, QC or unary counters of the jobs.
    tr.keep_only("core.algebra_init")
    jobs = next(wl.passes())
    outs, failed = [], 0
    for job in jobs:
        try:
            outs.append((job, tr.job(wl.run_traced, job)))
        except Exception:
            print(f"job {job!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
            failed += 1
    layers.uninstall(undo)
    return len(jobs), failed + sum(not check(wl, job, out) for job, out in outs)


def traced(cls, seed):
    """Per-layer metrics from two traced replays, which must count alike.

    Two untraced replays come first: the first warms the process, the second
    is the base of trace.overhead_frac."""
    tracers = [layers.Tracer() for _ in range(4)]
    attempted = failed = 0
    for i, tr in enumerate(tracers):
        ran, bad = replay(cls, seed, tr, install=i >= 2)
        attempted += ran
        failed += bad
    untraced, reps = tracers[1], tracers[2:]
    first, second = reps[0].counts, reps[1].counts
    differing = sorted(k for k in set(first) | set(second)
                       if first.get(k) != second.get(k))
    for name in differing:
        print(f"trace: counter {name} differs between two traced runs of one "
              f"seed: {first.get(name)} vs {second.get(name)}", file=sys.stderr)
    failed += len(differing)
    per_layer = units("per_layer")
    per_rep = [layers.layer_metrics(tr, per_layer) for tr in reps]
    # counts agree (checked above); times are averaged over the two runs
    metrics = {k: (v + per_rep[1][k]) / 2 if per_layer[k] == "s" else v
               for k, v in per_rep[0].items()}
    metrics.update(layers.import_breakdown(workloads.cli_env(ROOT)))
    metrics["trace.overhead_frac"] = metrics["trace.job_s"] / untraced.job_s - 1
    return attempted, failed, {k: (metrics[k], u) for k, u in per_layer.items()}


def run_one(args):
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, metrics = traced(cls, args.seed)
    else:
        attempted, failed, metrics = timed(cls, args.seed, args.seconds)
    print(f"{args.workload} (seed {args.seed}, trace {args.trace}):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:14.6g} {unit}")
    print(f"  {'fail_frac':32} {failed / attempted:14.6g} share "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process; a table of the end-to-end metrics."""
    code = 0
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        if proc.returncode not in (0, 1):
            rows.append((name, None))
            continue
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    for name, result in rows:
        if result is None:
            print(f"{name}: no result")
            continue
        print(f"{name}:")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32} {m['value']:14.6g} {m['unit']}")
        print(f"  {'fail_frac':32} {result['failed'] / result['attempted']:14.6g} "
              f"share ({result['failed']} of {result['attempted']} jobs)")
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cliffordkit", "__init__.py")):
        print("run.py: src/cliffordkit not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
