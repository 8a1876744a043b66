#!/usr/bin/env python3
"""Re-measure the README time bounds of the p+q <= 12 commands.

    python3 scripts/sweep_bounds.py

Run from the repository root.  Times `cpt`, `classify --oracle`,
`idempotent` and `factorize` on each of the 25 signatures with p+q in
{11, 12}, five fresh processes each (`python3 -m cliffordkit.cli ...` with
`src` on the path, wall time of the whole process).  For each command it
prints the worst per-signature median and the signature that gave it.
Exits 1 if any request exits non-zero or times out.
"""

import os
import statistics
import subprocess
import sys
import time

RUNS = 5
TIMEOUT_S = 300
COMMANDS = (("cpt",), ("classify", "--oracle"), ("idempotent",), ("factorize",))
SIGNATURES = [(p, n - p) for n in (11, 12) for p in range(n + 1)]


def wall_time(argv, env):
    """Wall time of one fresh-process request, or None if it fails."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "cliffordkit.cli", *argv],
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    dt = time.perf_counter() - t0
    return dt if proc.returncode == 0 else None


def main():
    if not os.path.isdir(os.path.join("src", "cliffordkit")):
        sys.exit("sweep_bounds: run from the repository root "
                 "(src/cliffordkit missing)")
    env = dict(os.environ, PYTHONPATH="src", PYTHONIOENCODING="utf-8")
    failures = 0
    for name, *flags in COMMANDS:
        worst, worst_sig = 0.0, None
        for p, q in SIGNATURES:
            argv = [name, str(p), str(q), *flags]
            times = [wall_time(argv, env) for _ in range(RUNS)]
            if None in times:
                print(f"FAILED: cliffordkit {' '.join(argv)}", flush=True)
                failures += 1
                continue
            median = statistics.median(times)
            if median > worst:
                worst, worst_sig = median, (p, q)
        label = " ".join([name, *flags])
        where = f"{worst_sig[0]} {worst_sig[1]}" if worst_sig else "-"
        print(f"{label}: worst median {worst:.2f} s ({name} {where})",
              flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
