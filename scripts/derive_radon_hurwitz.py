#!/usr/bin/env python3
"""Re-derive the Radon-Hurwitz base table by brute force.

For every signature with p+q <= MAX_N, find the exact maximum number k of
independent, pairwise-commuting basis blades squaring to +1 (the factor count
of a primitive idempotent), and solve r_{q-p} = q - k.  Prints the base table
and cross-checks consistency across all signatures sharing q - p.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from cliffordkit import clifford
from cliffordkit.ideals import (RADON_HURWITZ_BASE, max_commuting_square_set,
                               radon_hurwitz)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=8)
    args = ap.parse_args()

    derived = {}
    t0 = time.monotonic()
    for n in range(args.max_n + 1):
        for p in range(n + 1):
            q = n - p
            k, gens = max_commuting_square_set(clifford(p, q))
            r = q - k
            i = q - p
            if i in derived and derived[i] != r:
                print(f"INCONSISTENT at ({p},{q}): r_{i} = {r} vs {derived[i]}")
                return 1
            derived[i] = r
            print(f"Cl({p},{q}): k = {k}  ->  r_{i} = {r}")
    print(f"\nderived in {time.monotonic() - t0:.1f}s")

    base = tuple(derived.get(i, derived.get(i - 8, -99) + 4) for i in range(8))
    print(f"base table r_0..r_7 = {base}")
    print(f"frozen constant     = {RADON_HURWITZ_BASE}")
    mismatches = 0
    for i in sorted(derived):
        ok = derived[i] == radon_hurwitz(i)
        mismatches += not ok
        print(f"  r_{i:+d} = {derived[i]}  ({'ok' if ok else 'MISMATCH'})")
    return 0 if base == RADON_HURWITZ_BASE and not mismatches else 1


if __name__ == "__main__":
    raise SystemExit(main())
