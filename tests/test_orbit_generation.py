"""The orbit generator against the exhaustive S_v action.

``graphs._orbit_reps`` builds one labeled representative per orbit
together with its signed stabilizer, for the multigraphs under the
ordinary basis and the connected solid/dotted structures under the
skeleton one.  Three checks hold it to the exhaustive picture: the
orbit-stabilizer count of all labeled structures, the stabilizer as
exactly the permutations fixing the representative, and representatives
pairwise non-isomorphic.  The oracles here (acyclicity by depth-first
search, connectivity by search from vertex 0, all v! permutations) share
no code with the generator.  Each stabilizer element's sign, which the
generator multiplies together from its blocks, must also equal the
parity of the whole permutation (``perm_parity``, by inversions).
The cached tuple holds what the search ``_orbit_search`` emits, in the
order it emits it, and a search stopped by its ``emit`` has emitted a
prefix of it.
"""

import itertools
from math import comb, factorial

import pytest

from ogc.graphs import _orbit_reps, _orbit_search, perm_parity

MULTIGRAPH_SLICES = [(v, e) for v in range(1, 6) for e in range(0, 9)]
SKELETON_SHAPES = [(v, s, d) for v in range(1, 5) for s in range(0, 6) for d in range(0, 6 - s)]

# per edge type of a structure: directed arcs, or undirected pairs
MULTIGRAPH = (False,)
SKELETON = (True, False)


def multigraph_reps(v, e):
    return _orbit_reps(v, ((e, False, False),))


def skeleton_reps(v, s, d):
    return _orbit_reps(v, ((s, True, False), (d, False, True)), True)


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
            perms = [p for p, _ in stab]
            assert all(image(p, rep, directed) == rep for p in perms)
            assert len(perms) == len(set(perms)) == len(fixing), (v, rep)
            assert all(sign == perm_parity(p) for p, sign in stab), (v, rep)


def test_representatives_pairwise_non_isomorphic():
    for v, directed, reps in all_reps():
        perms = list(itertools.permutations(range(v)))
        forms = {min(image(p, rep, directed) for p in perms) for rep, _ in reps}
        assert len(forms) == len(reps), (v, directed)


# the top slices that `homology` and `verify-props` search: the reduced
# k = 0 (6, 9) slice of the `tables` benchmark (every vertex 3-valent),
# and the connected k = 1 slices above verify-props' default table, at
# least 0- and 2-valent
SEARCHED_TOP_SLICES = [(6, ((9, False, False),), True, 3)] + [
    (6, ((e, False, False),), True, m) for e in (5, 6, 7) for m in (0, 2)
]


class Stop(Exception):
    pass


def test_search_emits_the_cached_tuple_and_stops_when_emit_raises():
    keys = [(v, ((e, False, False),), False, 0) for v, e in MULTIGRAPH_SLICES]
    keys += [(v, ((s, True, False), (d, False, True)), True, 0) for v, s, d in SKELETON_SHAPES]
    for key in keys + SEARCHED_TOP_SLICES:
        found = []
        _orbit_search(*key, found.append)
        assert tuple(found) == _orbit_reps(*key), key
        for stop_at in {min(1, len(found)), len(found) // 2, len(found)} - {0}:
            prefix = []

            def emit(rep):
                prefix.append(rep)
                if len(prefix) == stop_at:
                    raise Stop

            with pytest.raises(Stop):
                _orbit_search(*key, emit)
            assert prefix == found[:stop_at], key
