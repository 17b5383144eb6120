#!/usr/bin/env python3
"""Recompute both extreme-eigenvalue tables and check them against the references.

Each value must round to its table entry as `reference.check_reference` says.

Usage: python scripts/reproduce_tables.py [--n-max N] [--seed S]
"""

import argparse
import sys
import time

from flipspectra.flipgraph import build_associahedron
from flipspectra.reference import LAMBDA_2_TABLE, LAMBDA_MIN_TABLE, check_reference
from flipspectra.spectra import lambda_2, lambda_min


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ok = True
    print(f"{'n':>3} {'n-3':>4} {'lambda_min':>12} {'ref':>8} {'lambda_2':>12} {'ref':>8} {'secs':>6}")
    for n in range(5, args.n_max + 1):
        t0 = time.perf_counter()
        g = build_associahedron(n)
        lmin = lambda_min(g, seed=args.seed)
        l2 = lambda_2(g, seed=args.seed)
        dt = time.perf_counter() - t0
        ref_min = LAMBDA_MIN_TABLE.get(n)
        ref_2 = LAMBDA_2_TABLE.get(n)
        row_ok = (
            check_reference("lambda_min", n, lmin.value) is not False
            and check_reference("lambda_2", n, l2.value) is not False
        )
        ok &= row_ok
        print(
            f"{n:>3} {n - 3:>4} {lmin.value:>12.6f} {ref_min if ref_min is not None else '-':>8}"
            f" {l2.value:>12.6f} {ref_2 if ref_2 is not None else '-':>8} {dt:>6.1f}"
            + ("" if row_ok else "  <-- MISMATCH")
        )
    print("all rows match the reference tables" if ok else "MISMATCH against the reference tables")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
