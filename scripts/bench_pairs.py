#!/usr/bin/env python3
"""Alternating before/after benchmark pairs: this checkout against a parent.

    python3 scripts/bench_pairs.py --pr 17 --parent HEAD~1
    python3 scripts/bench_pairs.py --smoke

Run from the repository root.  The parent commit and HEAD are each
extracted with `git archive <rev> | tar -x` into a temporary directory, so
that neither side reads a `__pycache__` left in the working checkout;
uncommitted edits are not measured (`change_worktree_dirty` records
whether there were any).  Every workload of
`BENCHMARK.json` gets ten pairs of `run_seconds` runs with seed 2.  Each
pair runs this checkout's `perfbench/run.py` once with the working
directory set to each extract, the side that goes first alternating from pair
to pair, so that a drift in the host's speed falls on both sides alike.
The last stdout line of each run is its JSON result; a run whose last line
is no result object did not run.

`BENCH_<pr>.json` gets, for each workload and end-to-end metric of
`BENCHMARK.json`, each side's runs, median and quartiles and the number of
pairs the change won, together with the host, the Python version, the
seed, both commit ids and, per side, whether its `src` held compiled
bytecode after the runs (when `PYTHONDONTWRITEBYTECODE` is unset, both
extracts' `src` is compiled before the first pair).  `--smoke` runs
one short pair of atlas-8 against HEAD and writes its file into the
temporary directory.  Exits 1 if a run fails or reports a failed check.
"""

import argparse
import compileall
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

RUN = os.path.join("perfbench", "run.py")
PAIRS = 10
SEED = 2


def git(*argv, cwd="."):
    return subprocess.run(["git", *argv], cwd=cwd, capture_output=True,
                          text=True, check=True).stdout.strip()


def extract(rev, dest):
    """The tree of commit `rev`, unpacked into `dest`; returns its full id."""
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"bench_pairs: git archive {rev} failed")
    return git("rev-parse", rev)


def extract_sides(parent, tmp):
    """Fresh extracts of `parent` and of HEAD in `tmp`; returns ({side: tree},
    the commits entry of the BENCH file)."""
    trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
    for tree in trees.values():
        os.mkdir(tree)
    commits = {"parent": extract(parent, trees["parent"]),
               "change": extract("HEAD", trees["change"]),
               "change_worktree_dirty": bool(git("status", "--porcelain",
                                                 "--untracked-files=no"))}
    return trees, commits


def bytecode_read(tree):
    """Whether `tree`'s src holds compiled bytecode that imports can read."""
    return any(pathlib.Path(tree, "src").rglob("*.pyc"))


def last_json(stdout):
    """The result object on the last line of a run's stdout, or None when
    that line is no JSON object with `metrics` (a crash, or no output)."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    if not (isinstance(result, dict) and isinstance(result.get("metrics"), dict)):
        return None
    return result


def run_side(tree, workload, seconds):
    """One run of this checkout's perfbench/run.py on `tree`; its result."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(RUN), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    result = last_json(proc.stdout) if proc.returncode in (0, 1) else None
    if result is None:
        sys.stderr.write(proc.stderr)
    return result


def run_pairs(trees, workload, count, seconds, names):
    """`count` alternating pairs of `workload` on trees {'parent', 'change'};
    returns (pairs, failed), failed when a run did not run or failed a check."""
    pairs, failed = [], False
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_side(trees[side], workload, seconds)
        if any(pair[side] is None for side in order):
            print(f"bench_pairs: {workload} pair {i + 1} did not run", file=sys.stderr)
            failed = True
            continue
        failed = failed or not (pair["parent"]["correct"] and pair["change"]["correct"])
        pairs.append(pair)
        print(f"{workload} pair {i + 1}/{count} ({order[0]} first): " + ", ".join(
            f"{name} {pair['parent']['metrics'][name]['value']:.4g} -> "
            f"{pair['change']['metrics'][name]['value']:.4g}"
            for name in names), flush=True)
    return pairs, failed


def _spread(vals):
    """(q1, median, q3) of `vals`, inclusive quartiles."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs, better):
    """Per metric of `better` (name -> 'higher' | 'lower'): each side's runs,
    quartiles and the change's wins over `pairs`, a list of
    {'first', 'parent', 'change'} with run.py's JSON results."""
    out = {}
    for name, direction in better.items():
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("parent", "change")}
        wins = sum((c > p) if direction == "higher" else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"unit": pairs[0]["change"]["metrics"][name]["unit"],
                     "better": direction, "change_wins": wins,
                     "pairs": len(pairs)}
        for side, vals in sides.items():
            q1, med, q3 = _spread(vals)
            out[name][side] = {"median": med, "q1": q1, "q3": q3, "runs": vals}
    return out


def bench_document(meta, results, better):
    """The BENCH file: `meta` plus, per workload, the metric summaries and
    the attempted and failed job counts of each run."""
    doc = dict(meta)
    doc["workloads"] = {}
    for workload, pairs in results.items():
        doc["workloads"][workload] = {
            "first": [p["first"] for p in pairs],
            "jobs": {side: [[p[side]["attempted"], p[side]["failed"]]
                            for p in pairs] for side in ("parent", "change")},
            "metrics": summarize(pairs, better),
        }
    return doc


def host():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu": model, "cpus": os.cpu_count()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", help="names BENCH_<pr>.json (required unless --smoke)")
    ap.add_argument("--parent", default="HEAD~1", help="the commit compared against")
    ap.add_argument("--smoke", action="store_true",
                    help="one short atlas-8 pair against HEAD, written to a temp dir")
    args = ap.parse_args()
    if not (args.smoke or args.pr):
        ap.error("--pr is required unless --smoke")
    if not os.path.isfile(RUN):
        print("bench_pairs: run from the repository root", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    count, seconds = PAIRS, bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.smoke:
        args.pr, args.parent, count, seconds, workloads = "smoke", "HEAD", 1, 1, ["atlas-8"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees, commits = extract_sides(args.parent, tmp)
        if not os.environ.get("PYTHONDONTWRITEBYTECODE"):
            for tree in trees.values():
                compileall.compile_dir(os.path.join(tree, "src"), quiet=1)
        results, code = {}, 0
        for workload in workloads:
            pairs, failed = run_pairs(trees, workload, count, seconds, better)
            code = code or int(failed)
            if pairs:
                results[workload] = pairs
        meta = {"pr": args.pr, "host": host(), "python": platform.python_version(),
                "bytecode_cached": {side: bytecode_read(tree)
                                    for side, tree in trees.items()},
                "seconds": seconds, "seed": SEED, "commits": commits}
        out = (os.path.join(tmp, "BENCH_smoke.json") if args.smoke
               else f"BENCH_{args.pr}.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(bench_document(meta, results, better), fh, indent=1)
            fh.write("\n")
        print(f"bench_pairs: wrote {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
