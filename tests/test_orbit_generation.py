"""The orbit generator against the exhaustive S_v action.

``complexes._multigraph_reps`` and ``skeleton._skeleton_structures`` build
one labeled representative per orbit together with its stabilizer.  Three
checks hold them to the exhaustive picture: the orbit-stabilizer count of
all labeled structures, the stabilizer as exactly the permutations fixing
the representative, and representatives pairwise non-isomorphic.  The
oracles here (acyclicity by depth-first search, connectivity by search
from vertex 0, all v! permutations) share no code with the generator.
"""

import itertools
from math import comb, factorial

import pytest

from ogc.complexes import _multigraph_reps
from ogc.skeleton import _skeleton_structures

MULTIGRAPH_SLICES = [(v, e) for v in range(1, 6) for e in range(0, 9)]
SKELETON_SHAPES = [(v, s, d) for v in range(1, 5) for s in range(0, 6) for d in range(0, 6 - s)]

# per edge type of a structure: directed arcs, or undirected pairs
MULTIGRAPH = (False,)
SKELETON = (True, False)


def multigraph_reps(v, e):
    return [((M.pairs,), M.stab) for M in _multigraph_reps(v, e)]


def skeleton_reps(v, s, d):
    return [((solids, dotteds), stab) for solids, dotteds, stab in _skeleton_structures(v, s, d)]


def image(p, structure, directed):
    return tuple(
        tuple(sorted((p[t], p[h]) if dirn or p[t] <= p[h] else (p[h], p[t]) for t, h in edges))
        for dirn, edges in zip(directed, structure)
    )


def acyclic(v, arcs):
    succ = [[h for t, h in arcs if t == x] for x in range(v)]
    state = [0] * v  # 0 new, 1 on the stack, 2 finished

    def visit(x):
        state[x] = 1
        for y in succ[x]:
            if state[y] == 1 or (state[y] == 0 and not visit(y)):
                return False
        state[x] = 2
        return True

    return all(state[x] or visit(x) for x in range(v))


def connected(v, pairs):
    reached, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for t, h in pairs:
            for a, b in ((t, h), (h, t)):
                if a == x and b not in reached:
                    reached.add(b)
                    frontier.append(b)
    return len(reached) == v


def labeled_skeleton_count(v, s, d):
    """Connected structures with s solid arcs (acyclic) and d dotted
    pairs or loops on v labeled vertices, by brute force."""
    solid_alpha = [(t, h) for t in range(v) for h in range(v) if t != h]
    dotted_alpha = [(t, h) for t in range(v) for h in range(t, v)]
    count = 0
    for solids in itertools.combinations_with_replacement(solid_alpha, s):
        if not acyclic(v, solids):
            continue
        for dotteds in itertools.combinations_with_replacement(dotted_alpha, d):
            count += connected(v, solids + dotteds)
    return count


@pytest.mark.parametrize("v, e", MULTIGRAPH_SLICES + [(6, 9)])
def test_multigraph_orbit_stabilizer(v, e):
    pairs = comb(v, 2)
    labeled = comb(pairs + e - 1, e) if pairs else int(e == 0)
    assert sum(factorial(v) // len(stab) for _, stab in multigraph_reps(v, e)) == labeled


def test_skeleton_orbit_stabilizer():
    for v, s, d in SKELETON_SHAPES:
        reps = skeleton_reps(v, s, d)
        assert sum(factorial(v) // len(stab) for _, stab in reps) == labeled_skeleton_count(v, s, d), (v, s, d)


def all_reps():
    for v, e in MULTIGRAPH_SLICES:
        yield v, MULTIGRAPH, multigraph_reps(v, e)
    for v, s, d in SKELETON_SHAPES:
        yield v, SKELETON, skeleton_reps(v, s, d)


def test_stabilizer_is_the_full_automorphism_group():
    for v, directed, reps in all_reps():
        for rep, stab in reps:
            assert image(range(v), rep, directed) == rep, "representative not sorted"
            fixing = {p for p in itertools.permutations(range(v)) if image(p, rep, directed) == rep}
            assert all(image(p, rep, directed) == rep for p in stab)
            assert len(stab) == len(set(stab)) == len(fixing), (v, rep)


def test_representatives_pairwise_non_isomorphic():
    for v, directed, reps in all_reps():
        perms = list(itertools.permutations(range(v)))
        forms = {min(image(p, rep, directed) for p in perms) for rep, _ in reps}
        assert len(forms) == len(reps), (v, directed)
