"""The `canon` workload: canonicalization coherence on seeded random graphs.

Run as a fresh process:

    PYTHONPATH=src python3 perfbench/canon.py --seed 7

Each of the PAIRS pairs is a random admissible graph and its image under a
random symmetry, both canonicalized through the public ``ogc.graphs`` API. The
checks are those of acceptance criterion 6: the representatives agree, the
signs compose, and zero is orbit-invariant.

The graphs are drawn like criterion 6's, extended to v = 7, with two
changes that keep the batch cost the same from seed to seed while edges,
colors and symmetries still come from the seed. (v, k, parity, e) cycle
through a fixed schedule instead of being drawn, because a
canonicalization costs v! permutations. And at v >= 6 a draw is kept only
when it is rigid (see is_rigid): such a class is never Zero, so every
canonicalization sweeps all v! permutations. Drawn freely, the share of
Zero classes, which end the sweep early, moved the batch cost by about
fifteen percent between seeds. Zero classes still occur at v = 5, where
they cost little, so zero invariance stays checked.

Prints one JSON object: pairs, zero classes, failed pairs and a digest of
every canonical result (equal digests mean equal outputs). Exit code 0
when no pair failed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from ogc.graphs import GroupElement, Parity, act, canonicalize, make_graph

VERTICES = (5, 6, 7)
COLORS = (0, 1, 2)
PARITIES = (Parity.EVEN, Parity.ODD)
EDGES = (6, 7, 8)  # rigid graphs need e >= 6 at v = 6, 7 without colors
SCHEDULE = len(VERTICES) * len(COLORS) * len(PARITIES) * len(EDGES)
PAIRS = 2 * SCHEDULE  # about 7 s per batch
RIGID_FROM = 6
MAX_DRAWS = 100_000


def slot(i):
    """(v, k, parity, e) of the i-th pair; the schedule repeats every SCHEDULE pairs."""
    v = VERTICES[i % 3]
    k = COLORS[i // 3 % 3]
    parity = PARITIES[i // 9 % 2]
    e = EDGES[i // 18 % 3]
    return v, k, parity, e


def random_admissible_graph(rng, v, e, k):
    """Criterion 6's generator with v, e and k given: random endpoints, and
    each color oriented along a random vertex order, hence acyclic."""
    edges = []
    for _ in range(e):
        t = rng.randrange(v)
        h = rng.randrange(v)
        while h == t:
            h = rng.randrange(v)
        edges.append((t, h))
    orders = [rng.sample(range(v), v) for _ in range(k)]
    colors = [
        tuple(1 if order.index(t) < order.index(h) else -1 for order in orders)
        for t, h in edges
    ]
    return make_graph(v, edges, colors)


def is_rigid(g):
    """True when no two edges join the same pair of vertices and colour
    refinement (1-WL) gives every vertex its own class.

    Symmetries preserve refinement classes, so the only symmetry fixing such
    a graph moves no vertex and, with no parallel edges, no edge: the class
    has no odd automorphism and is not Zero.
    """
    if len({frozenset(r[:2]) for r in g.records}) < g.e:
        return False
    nbrs = [[] for _ in range(g.v)]
    for t, h, *signs in g.records:
        # the color orientations seen from each end, unchanged by reversal
        nbrs[t].append((h, tuple(signs)))
        nbrs[h].append((t, tuple(-s for s in signs)))
    colors = [0] * g.v
    while True:
        sigs = [(colors[x], tuple(sorted((colors[y], s) for y, s in nbrs[x]))) for x in range(g.v)]
        relabel = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        if len(relabel) == len(set(colors)):
            return len(relabel) == g.v
        colors = [relabel[sig] for sig in sigs]


def draw(rng, v, e, k):
    for _ in range(MAX_DRAWS):
        g = random_admissible_graph(rng, v, e, k)
        if v < RIGID_FROM or is_rigid(g):
            return g
    raise RuntimeError(f"no rigid graph with v={v}, e={e}, k={k} in {MAX_DRAWS} draws")


def run(seed):
    rng = random.Random(seed)
    digest = hashlib.sha256()
    zeros = failed = 0
    for i in range(PAIRS):
        v, k, parity, e = slot(i)
        g = draw(rng, v, e, k)
        vp = tuple(rng.sample(range(v), v))
        ep = tuple(rng.sample(range(e), e))
        flips = frozenset(j for j in range(e) if rng.random() < 0.35)
        moved, s = act(g, GroupElement(vp, ep, flips), parity)
        a = canonicalize(g, parity)
        b = canonicalize(moved, parity)
        if a.is_zero:
            zeros += 1
            ok = b.is_zero
        else:
            ok = not b.is_zero and b.rep == a.rep and s * b.sign == a.sign
        failed += not ok
        digest.update(repr((None if a.is_zero else a.rep.records, a.sign)).encode())
    return {"pairs": PAIRS, "zeros": zeros, "failed": failed, "digest": digest.hexdigest()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    out = run(args.seed)
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return 0 if out["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
