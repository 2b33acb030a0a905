"""The orbit generator against the exhaustive S_v action.

``graphs._orbit_reps`` builds one labeled representative per orbit
together with its signed stabilizer, for the multigraphs of the ordinary
basis (with or without loops) and, with loops and connected, for the
skeleton one, whose solid/dotted structures are their decorations
(``graphs._decorations``).  Three checks hold it to the exhaustive
picture: the orbit-stabilizer count of all labeled structures (for a
skeleton shape, of the decorations of every multigraph), the stabilizer
as exactly the permutations fixing the representative, and
representatives pairwise non-isomorphic.  The decorations of one
multigraph must be exactly the labeled structures on it, each once.  The
oracles here (acyclicity by depth-first search, connectivity by search
from vertex 0, all v! permutations) share no code with the generator.
Each stabilizer element's sign, which the generator multiplies together
from its blocks, must also equal the parity of the whole permutation
(``perm_parity``, by inversions).  The cached tuple holds what the search
``_orbit_search`` emits, in the order it emits it, and a search stopped
by its ``emit`` has emitted a prefix of it.
"""

import itertools
from math import comb, factorial

import pytest

from ogc.graphs import _decorations, _orbit_reps, _orbit_search, perm_parity

MULTIGRAPH_SLICES = [(v, e) for v in range(1, 6) for e in range(0, 9)]
SKELETON_SHAPES = [(v, s, d) for v in range(1, 5) for s in range(0, 6) for d in range(0, 6 - s)]
LOOPS = (False, True)


def multigraph_reps(v, e, loops=False):
    return _orbit_reps(v, e, loops, False, 0)


def skeleton_reps(v, s, d):
    """The connected multigraphs with loops that a shape decorates."""
    return _orbit_reps(v, s + d, True, True, 0)


def image(p, pairs):
    return tuple(sorted((p[t], p[h]) if p[t] <= p[h] else (p[h], p[t]) for t, h in pairs))


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


def labeled_structures(v, s, d):
    """Every labeled structure of ``labeled_skeleton_count``, as (solid
    arcs, dotted pairs or loops), each sorted."""
    solid_alpha = [(t, h) for t in range(v) for h in range(v) if t != h]
    dotted_alpha = [(t, h) for t in range(v) for h in range(t, v)]
    for solids in itertools.combinations_with_replacement(solid_alpha, s):
        if acyclic(v, solids):
            yield from ((solids, dotteds) for dotteds in itertools.combinations_with_replacement(dotted_alpha, d))


@pytest.mark.parametrize("v, e", MULTIGRAPH_SLICES + [(6, 9)])
def test_multigraph_orbit_stabilizer(v, e):
    for loops in LOOPS:
        pairs = comb(v, 2) + loops * v
        labeled = comb(pairs + e - 1, e) if pairs else int(e == 0)
        assert sum(factorial(v) // len(stab) for _, stab in multigraph_reps(v, e, loops)) == labeled, loops


def test_skeleton_orbit_stabilizer():
    # two levels: each orbit's v!/|stab| labelings, times its decorations
    for v, s, d in SKELETON_SHAPES:
        reps = skeleton_reps(v, s, d)
        count = sum(factorial(v) // len(stab) * len(list(_decorations(v, pairs, d))) for pairs, stab in reps)
        assert count == labeled_skeleton_count(v, s, d), (v, s, d)


def test_decorations_are_the_labeled_structures_on_their_multigraph():
    for v, s, d in SKELETON_SHAPES:
        on = {}
        for solids, dotteds in labeled_structures(v, s, d):
            on.setdefault(image(range(v), solids + dotteds), []).append((solids, dotteds))
        for pairs, _ in skeleton_reps(v, s, d):
            decorations = list(_decorations(v, pairs, d))
            assert len(set(decorations)) == len(decorations), (v, pairs, d)
            assert sorted(decorations) == sorted(on.get(pairs, [])), (v, pairs, d)


def all_reps():
    for v, e in MULTIGRAPH_SLICES:
        for loops in LOOPS:
            yield v, multigraph_reps(v, e, loops)
    for v, s, d in SKELETON_SHAPES:
        yield v, skeleton_reps(v, s, d)


def test_stabilizer_is_the_full_automorphism_group():
    for v, reps in all_reps():
        for rep, stab in reps:
            assert image(range(v), rep) == rep, "representative not sorted"
            fixing = {p for p in itertools.permutations(range(v)) if image(p, rep) == rep}
            perms = [p for p, _ in stab]
            assert all(image(p, rep) == rep for p in perms)
            assert len(perms) == len(set(perms)) == len(fixing), (v, rep)
            assert all(sign == perm_parity(p) for p, sign in stab), (v, rep)


def test_representatives_pairwise_non_isomorphic():
    for v, reps in all_reps():
        perms = list(itertools.permutations(range(v)))
        forms = {min(image(p, rep) for p in perms) for rep, _ in reps}
        assert len(forms) == len(reps), v


# the top slices that `homology` and `verify-props` search: the reduced
# k = 0 (6, 9) slice of the `tables` benchmark (every vertex 3-valent),
# and the connected k = 1 slices above verify-props' default table, at
# least 0- and 2-valent
SEARCHED_TOP_SLICES = [(6, 9, False, True, 3)] + [(6, e, False, True, m) for e in (5, 6, 7) for m in (0, 2)]


class Stop(Exception):
    pass


def test_search_emits_the_cached_tuple_and_stops_when_emit_raises():
    keys = [(v, e, loops, False, 0) for v, e in MULTIGRAPH_SLICES for loops in LOOPS]
    keys += sorted({(v, s + d, True, True, 0) for v, s, d in SKELETON_SHAPES})
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
