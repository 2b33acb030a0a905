"""The orbit generator's valence and connectivity prunes against its
unpruned output.

``_orbit_reps`` drops a branch once every completion has a vertex below
the minimum valence, and tests valence and connectivity at each leaf
before sweeping its block permutations.  Both are isomorphism invariants,
so the pruned output must be the unpruned output filtered by the same
predicates: the same representatives with the same stabilizers, in the
same order, with loops and without.  A skeleton shape's structures are
the decorations (``_decorations``) of the connected multigraphs with
loops, and a decoration has its multigraph's valences, so on the pruned
multigraphs they must be the decorated unpruned ones, filtered.  The
predicates (valence by counting ends, a loop twice; connectivity by
search from vertex 0, from ``oracles.py``) share no code with the
generator.  The unpruned side calls the uncached generator, so its
structures do not stay in memory.
"""

import pytest

from ogc.graphs import _decorations, _orbit_reps
from oracles import connected

MIN_VALENCES = (2, 3)
MULTIGRAPH_SLICES = [(v, e) for v in range(1, 7) for e in range(0, 11)]
SKELETON_SHAPES = [(v, s, d) for v in range(1, 6) for d in range(0, 6) for s in range(0, 11 - 2 * d)]


def multigraphs(v, e, m=0, conn=False, loops=False):
    return _orbit_reps.__wrapped__(v, e, loops, conn, m)


def skeletons(v, s, d, m=0):
    """A shape's decorated structures, each with its multigraph's stabilizer."""
    return tuple(
        (dec, stab) for pairs, stab in multigraphs(v, s + d, m, True, True) for dec in _decorations(v, pairs, d)
    )


def valences(v, edges):
    val = [0] * v
    for t, h in edges:
        val[t] += 1
        val[h] += 1
    return val


@pytest.mark.parametrize("v, e", MULTIGRAPH_SLICES)
def test_multigraph_prunes_keep_the_filtered_orbits(v, e):
    for loops in (False, True):
        full = multigraphs(v, e, loops=loops)
        for m in MIN_VALENCES:
            for conn in (False, True):
                kept = tuple(
                    (edges, stab) for edges, stab in full
                    if min(valences(v, edges)) >= m and (not conn or connected(v, edges))
                )
                assert multigraphs(v, e, m, conn, loops) == kept, (m, conn, loops)


@pytest.mark.parametrize("v, s, d", SKELETON_SHAPES)
def test_skeleton_prunes_keep_the_filtered_orbits(v, s, d):
    full = skeletons(v, s, d)
    for m in MIN_VALENCES:
        kept = tuple((edges, stab) for edges, stab in full if min(valences(v, edges[0] + edges[1])) >= m)
        assert skeletons(v, s, d, m) == kept, m


def test_prunes_build_nothing_without_enough_edge_ends():
    # 7 vertices need 21 edge ends at valence 3, and 10 edges have 20
    assert multigraphs(7, 10, 3, True) == ()
    assert skeletons(6, 9, 0, 4) == ()
