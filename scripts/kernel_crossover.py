#!/usr/bin/env python3
"""Time the two geometric-product paths of `cliffordkit.core` side by side.

    python3 scripts/kernel_crossover.py              # n = 4..10
    python3 scripts/kernel_crossover.py --max-n 12   # the pair path takes seconds there
    python3 scripts/kernel_crossover.py --min-n 2 --max-n 5

For each n, field (R, C) and fill (the share of basis blades each operand
carries), two seeded operands of Cl(n//2, n - n//2) are multiplied by
`_pair_product` (blade pairs) and by `_spinor_product` (matrices on the
spinor module), each the minimum over repeated runs.  The columns are the
blade pairs |a|*|b|, both times, their ratio, the pair count at which the
two paths would cost the same (the spinor time over the pair time per
pair), the pairs above which `Multivector.__mul__` takes the spinor path,
and the path it takes.  The last is the selection constant at work: it
depends on n and the field only.  Both paths are checked to give the same
product.  Stdlib only; run from anywhere.
"""

import argparse
import os
import random
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from cliffordkit import QC, clifford, core  # noqa: E402

FILLS = (Fraction(1), Fraction(1, 2), Fraction(1, 8))


def operand(alg, rng, fill):
    def coeff():
        re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        if alg.field == "R":
            return re
        return QC(re, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

    keys = rng.sample(alg.basis, max(1, alg.dim * fill.numerator // fill.denominator))
    return alg.mv({k: coeff() for k in keys})


def best_time(fn, budget):
    """The least time of fn over as many runs as fit in `budget` seconds
    (at least two, the first of which also builds any cached table)."""
    times = []
    start = time.perf_counter()
    while len(times) < 2 or time.perf_counter() - start < budget:
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
    return min(times), out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=10)
    ap.add_argument("--budget", type=float, default=0.3,
                    help="seconds of repeated runs per path and row (default 0.3)")
    args = ap.parse_args(argv)
    if not 0 <= args.min_n <= args.max_n <= core.MAX_N:
        ap.error(f"need 0 <= --min-n <= --max-n <= {core.MAX_N}")
    rng = random.Random(18)
    print(f"{'n':>2} {'K':>1} {'fill':>4} {'pairs':>8} {'pair ms':>9} {'spinor ms':>9} "
          f"{'ratio':>6} {'even at':>8} {'switch':>8} path")
    for n in range(args.min_n, args.max_n + 1):
        for field in ("R", "C"):
            alg = clifford(n // 2, n - n // 2, field)
            for fill in FILLS:
                a, b = operand(alg, rng, fill), operand(alg, rng, fill)
                pairs = len(a.c) * len(b.c)
                tp, want = best_time(lambda: core._pair_product(a, b), args.budget)
                ts, got = best_time(lambda: core._spinor_product(a, b), args.budget)
                if got != want:
                    raise SystemExit(f"kernel_crossover: the paths differ on {alg!r}")
                path = "spinor" if pairs > alg.spinor_pairs else "pairs"
                print(f"{n:>2} {field:>1} {str(fill):>4} {pairs:>8} {tp * 1e3:>9.3f} "
                      f"{ts * 1e3:>9.3f} {tp / ts:>6.2f} {round(ts / tp * pairs):>8} "
                      f"{alg.spinor_pairs:>8} {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
