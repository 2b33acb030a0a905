#!/usr/bin/env python3
"""Print homology dimension tables for small loop orders.

Example:
    python3 scripts/homology_table.py --n 0 --colors 0 --loop-max 2
"""

import argparse

from ogc.complexes import REDUCED_CONSTRAINTS, homology_dims, slice_chain


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=0)
    ap.add_argument("--colors", type=int, default=0)
    ap.add_argument("--loop-max", type=int, default=2)
    ap.add_argument("--vertices-max", type=int, default=6)
    args = ap.parse_args(argv)

    print(f"reduced complex, k={args.colors}, n={args.n}")
    print(f"{'b':>3} {'v':>3} {'e':>3} {'degree':>7} {'dim H':>6}")
    for b in range(1, args.loop_max + 1):
        v_top = min(args.vertices_max, 2 * b + 1) if args.colors == 0 else args.vertices_max
        # one slice above the top, as `homology` builds it: without the
        # boundaries from v_top + 1, dim H at v_top would be a cycle count
        chain = slice_chain(b, args.colors, args.n, REDUCED_CONSTRAINTS, v_max=v_top + 1)
        for v, degree, dim in homology_dims(chain):
            if v <= v_top:
                print(f"{b:>3} {v:>3} {v + b:>3} {degree:>7} {dim:>6}")


if __name__ == "__main__":
    main()
