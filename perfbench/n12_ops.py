"""Time the n = 12 CLI operations once each, under a fixed timeout.

    python3 perfbench/n12_ops.py

Run from the repository root.  Each request runs in a fresh interpreter
(`python3 -m cliffordkit.cli ...` with `src` on the path); the script prints
one Markdown table row per request with the wall time, or "timed out at T".
These requests are too slow for the gated workloads, so they are recorded
once in NOTES.md instead.
"""

import os
import subprocess
import sys
import time

TIMEOUT_S = 300

REQUESTS = (
    ["idempotent", "6", "6"],
    ["classify", "6", "6", "--oracle"],
    ["cpt", "6", "6"],
)


def main():
    if not os.path.isdir(os.path.join("src", "cliffordkit")):
        sys.exit("n12_ops: run from the repository root (src/cliffordkit missing)")
    env = dict(os.environ, PYTHONPATH="src", PYTHONIOENCODING="utf-8")
    print("| request | result |")
    print("|---|---|")
    for argv in REQUESTS:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "cliffordkit.cli", *argv],
                                  env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            result = f"timed out at {TIMEOUT_S} s"
        else:
            dt = time.perf_counter() - t0
            result = f"{dt:.1f} s, exit {proc.returncode}"
        print(f"| `{' '.join(argv)}` | {result} |", flush=True)


if __name__ == "__main__":
    main()
