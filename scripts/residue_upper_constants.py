#!/usr/bin/env python3
"""Per-residue constants of the slice upper bound.

The dynamic program over diagonal-slice splits gives an upper bound ub(n)
for the smallest flip-graph eigenvalue; for every residue r of n mod 10 it
satisfies ub(n) <= L n + c_r, where L = LIMIT_UPPER_CONSTANT, the per-step
rate lambda_min(12) / 10 = -0.6904.  This script prints the c_r table and
spot checks the inequality on a range of n.

Usage: python scripts/residue_upper_constants.py [--n-max N]
"""

import argparse
import sys

from flipspectra.bounds import assoc_upper_bound, holds, upper_bound_residue_constants
from flipspectra.reference import LIMIT_UPPER_CONSTANT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=200)
    args = parser.parse_args()

    consts = upper_bound_residue_constants(args.n_max)
    print(f"r   c_r      (ub(n) <= {LIMIT_UPPER_CONSTANT} n + c_r for n = r mod 10)")
    for r, c in consts.items():
        print(f"{r}   {c:.6f}")
    for n in range(4, args.n_max + 1):
        assert holds(assoc_upper_bound(n), LIMIT_UPPER_CONSTANT * n + consts[n % 10]), n
    print(f"inequality verified for n = 4..{args.n_max}")
    sample = [13, 22, 47, 100]
    print("sample bounds:", {n: round(assoc_upper_bound(n), 4) for n in sample})
    return 0


if __name__ == "__main__":
    sys.exit(main())
