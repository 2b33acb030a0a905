#!/usr/bin/env python3
"""Print homology dimension tables for small loop orders.

Example:
    python3 scripts/homology_table.py --n 0 --colors 0 --loop-max 2

A slice over the package's default bounds is refused with one
``error: ...`` line on stderr and exit code 2, before any table prints.
"""

import argparse
import sys

from ogc.complexes import REDUCED_CONSTRAINTS, homology_table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=0)
    ap.add_argument("--colors", type=int, default=0)
    ap.add_argument("--loop-max", type=int, default=2)
    ap.add_argument("--vertices-max", type=int, default=6)
    args = ap.parse_args(argv)

    tables = []
    try:
        for b in range(1, args.loop_max + 1):
            v_top = min(args.vertices_max, 2 * b + 1) if args.colors == 0 else args.vertices_max
            # the rows `homology` prints: the boundaries from v_top + 1
            # enter the top row, so it is homology, not a cycle count
            tables.append((b, homology_table(b, args.colors, args.n, REDUCED_CONSTRAINTS, v_top)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"reduced complex, k={args.colors}, n={args.n}")
    print(f"{'b':>3} {'v':>3} {'e':>3} {'degree':>7} {'dim H':>6}")
    for b, rows in tables:
        for v, degree, dim in rows:
            print(f"{b:>3} {v:>3} {v + b:>3} {degree:>7} {dim:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
