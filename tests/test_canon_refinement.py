"""The refinement labeling engine against the exhaustive v! sweep.

Canonical forms sweep only the permutations that respect the refined
cells.  The exhaustive sweep over all of S_v, kept as the reference, must
agree with them: on which classes are Zero, on which graphs share a class,
and on signs up to one factor per class.
"""

import itertools
import random
from functools import lru_cache

import pytest

from ogc.graphs import (
    GRAPH_KINDS,
    SKELETON_KINDS,
    GroupElement,
    Parity,
    _canonical_form,
    _cell_perms,
    _edge_ends,
    _normal_form,
    _perms_with_signs,
    _refine,
    act,
    canonicalize,
    make_graph,
    perm_parity,
)
from ogc import skeleton as skeleton_module
from ogc.skeleton import (
    SkeletonFamily,
    SkeletonGraph,
    canonicalize_skeleton,
    expand_dotted,
    make_skeleton,
    skeleton_degree_slice,
)

EVEN, ODD = Parity.EVEN, Parity.ODD


def is_rigid(g):
    """No two edges join the same pair of vertices, and 1-WL color
    refinement, written here apart from the engine's ``_refine``, gives
    every vertex its own class: then no symmetry moves a vertex or an
    edge, and the class is not Zero."""
    if len({frozenset(r[:2]) for r in g.records}) < g.e:
        return False
    seen_from = [[] for _ in range(g.v)]
    for rec in g.records:
        t, h, signs = rec[0], rec[1], rec[2:]
        # each end sees the far end and the colors pointing away from it
        seen_from[t].append((h, signs))
        seen_from[h].append((t, tuple(-s for s in signs)))
    label = [0] * g.v
    while True:
        sig = [(label[x], tuple(sorted((label[y], s) for y, s in seen_from[x]))) for x in range(g.v)]
        classes = sorted(set(sig))
        if len(classes) == len(set(label)):
            return len(classes) == g.v
        label = [classes.index(s) for s in sig]


# ---------------------------------------------------------------------------
# inputs


def random_admissible_graph(rng, v, e, k):
    """Random endpoints (parallel edges allowed), each color oriented
    along a random vertex order, hence acyclic."""
    edges = []
    for _ in range(e):
        t, h = rng.sample(range(v), 2)
        edges.append((t, h))
    orders = [rng.sample(range(v), v) for _ in range(k)]
    colors = [tuple(1 if o.index(t) < o.index(h) else -1 for o in orders) for t, h in edges]
    return make_graph(v, edges, colors)


def oriented(v, pairs, rng, k):
    """The undirected pairs with random intrinsic directions and k colors
    from random vertex orders."""
    edges = [(t, h) if rng.random() < 0.5 else (h, t) for t, h in pairs]
    orders = [rng.sample(range(v), v) for _ in range(k)]
    colors = [tuple(1 if o.index(t) < o.index(h) else -1 for o in orders) for t, h in edges]
    return make_graph(v, edges, colors)


def symmetric_shapes():
    cycles = [[(i, (i + 1) % n) for i in range(n)] for n in (3, 4, 5, 6)]
    k4 = list(itertools.combinations(range(4), 2))
    wheel5 = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    theta = [(0, 1)] * 3
    return [(max(max(p) for p in pairs) + 1, pairs) for pairs in cycles + [k4, wheel5, k33, theta]]


def random_element(rng, g):
    vp = tuple(rng.sample(range(g.v), g.v))
    ep = tuple(rng.sample(range(g.e), g.e))
    flips = frozenset(i for i in range(g.e) if rng.random() < 0.4)
    return GroupElement(vp, ep, flips)


@lru_cache(maxsize=None)
def graph_cases():
    """(graph, parity) pairs: random admissible graphs with v <= 6, the
    symmetric shapes, and every configuration expand_dotted builds, each
    next to a random image under the symmetry action."""
    rng = random.Random(20261018)
    base = []
    for _ in range(160):
        v = rng.randint(2, 6)
        base.append(random_admissible_graph(rng, v, rng.randint(1, 8), rng.randint(0, 2)))
    for v, pairs in symmetric_shapes():
        for k in (0, 1, 2):
            base.append(oriented(v, pairs, rng, k))
    base.extend(expansion_configurations())
    cases = []
    for g in base:
        for parity in (EVEN, ODD):
            moved, _ = act(g, random_element(rng, g), parity)
            cases += [(g, parity), (moved, parity)]
    return tuple(cases)


EXPANDED_SKELETONS = [
    make_skeleton(2, [], [(0, 1), (0, 1), (0, 1)], k=0),
    make_skeleton(2, [(0, 1)], [(0, 1), (0, 1)], k=0),
    make_skeleton(2, [(0, 1), (1, 0)], [(0, 0)], k=0),
    make_skeleton(3, [(0, 1), (1, 2)], [(0, 2), (0, 2)], k=0),
    make_skeleton(3, [(0, 1, 1), (0, 2, -1)], [(1, 2, 1), (0, 1, -1)], k=1),
]


def expansion_configurations():
    """Every graph expand_dotted hands to canonicalize, over the skeletons
    above and the k = 0 special-family slices with b = 1, 2 up to six
    expanded vertices."""
    skeletons = list(EXPANDED_SKELETONS)
    for b, u_max in ((1, 6), (2, 5)):
        for u in range(1, u_max + 1):
            for m in (0, 1):
                skeletons += skeleton_degree_slice(b, u, 0, m, SkeletonFamily.SPECIAL).basis
    seen = []
    real = skeleton_module.canonicalize

    def record(g, parity):
        seen.append(g)
        return real(g, parity)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(skeleton_module, "canonicalize", record)
        for sg in skeletons:
            for parity in (EVEN, ODD):
                expand_dotted(sg, parity)
    return list(dict.fromkeys(seen))


@lru_cache(maxsize=None)
def skeleton_cases():
    """(skeleton, parity) pairs: random skeletons with parallel solid and
    dotted edges and dotted tadpoles, next to a random image of each."""
    rng = random.Random(1703)
    base = list(EXPANDED_SKELETONS)
    for _ in range(220):
        v = rng.randint(1, 5)
        k = rng.randint(0, 2)
        solid = []
        if v > 1:
            for _ in range(rng.randint(0, 4)):
                solid.append(tuple(rng.sample(range(v), 2)) + random_signs(rng, k))
        dotted = []
        for _ in range(rng.randint(0 if solid else 1, 4)):
            dotted.append((rng.randrange(v), rng.randrange(v)) + random_signs(rng, k))
        base.append(SkeletonGraph(v, k, tuple(solid), tuple(dotted)))
    cases = []
    for sg in base:
        for parity in (EVEN, ODD):
            moved, _ = sk_act(rng, sg, parity)
            cases += [(sg, parity), (moved, parity)]
    return tuple(cases)


def random_signs(rng, k):
    return tuple(rng.choice((1, -1)) for _ in range(k))


def sk_act(rng, sg, parity):
    """A random skeleton symmetry: vertex relabeling, solid and dotted
    edge relabelings and dotted reversals; returns (image, sign) with the
    sign rules of the solid/dotted complex."""
    vp = rng.sample(range(sg.v), sg.v)
    sp = rng.sample(range(sg.n_solid), sg.n_solid)
    dp = rng.sample(range(sg.n_dotted), sg.n_dotted)
    flips = [rng.random() < 0.4 for _ in range(sg.n_dotted)]
    solid = [None] * sg.n_solid
    for i, rec in enumerate(sg.solid):
        solid[sp[i]] = (vp[rec[0]], vp[rec[1]]) + rec[2:]
    dotted = [None] * sg.n_dotted
    for i, rec in enumerate(sg.dotted):
        t, h, cs = vp[rec[0]], vp[rec[1]], rec[2:]
        if flips[i]:
            t, h, cs = h, t, tuple(-s for s in cs)
        dotted[dp[i]] = (t, h) + cs
    if parity is EVEN:
        sign = perm_parity(sp) * (-1) ** sum(flips)
    else:
        sign = perm_parity(vp) * perm_parity(dp)
    return SkeletonGraph(sg.v, sg.k, tuple(solid), tuple(dotted)), sign


# ---------------------------------------------------------------------------
# the oracle comparison


def assert_matches_exhaustive(results):
    """``results`` holds (v, parity, refined, exhaustive) rows, each side a
    (form, sign) pair or None for Zero.  The two sides must agree on Zero,
    partition the graphs into the same classes, and differ in sign by one
    factor per class."""
    ref_of, exh_of, factor = {}, {}, {}
    for v, parity, refined, exhaustive in results:
        assert (refined is None) == (exhaustive is None)
        if refined is None:
            continue
        r, e = (v, parity, refined[0]), (v, parity, exhaustive[0])
        ref_of.setdefault(e, set()).add(r)
        exh_of.setdefault(r, set()).add(e)
        factor.setdefault(e, set()).add(refined[1] * exhaustive[1])
    assert ref_of, "no non-Zero class among the inputs"
    assert all(len(s) == 1 for s in ref_of.values()), "one exhaustive class, two reps"
    assert all(len(s) == 1 for s in exh_of.values()), "one rep, two exhaustive classes"
    assert all(len(s) == 1 for s in factor.values()), "signs disagree within a class"


def canonical_pair(cls):
    return None if cls.is_zero else (cls.rep, cls.sign)


def test_graphs_match_exhaustive_sweep():
    results = []
    zeros = 0
    for g, parity in graph_cases():
        exhaustive = _normal_form((g.records,), GRAPH_KINDS, parity, _perms_with_signs(g.v))
        refined = canonical_pair(canonicalize(g, parity))
        if refined is not None:
            refined = (refined[0].records, refined[1])
        zeros += refined is None
        results.append((g.v, parity, refined, exhaustive))
    assert zeros, "no Zero class among the inputs"
    assert_matches_exhaustive(results)


def test_graph_signs_compose_under_action():
    rng = random.Random(5)
    for g, parity in graph_cases()[::2]:
        moved, s = act(g, random_element(rng, g), parity)
        a, b = canonicalize(g, parity), canonicalize(moved, parity)
        assert a.is_zero == b.is_zero
        if not a.is_zero:
            assert b.rep == a.rep and s * b.sign == a.sign
            again = canonicalize(a.rep, parity)
            assert again.rep == a.rep and again.sign == 1


def test_skeletons_match_exhaustive_sweep():
    results = []
    zeros = 0
    for sg, parity in skeleton_cases():
        exhaustive = _normal_form((sg.solid, sg.dotted), SKELETON_KINDS, parity, _perms_with_signs(sg.v))
        refined = canonical_pair(canonicalize_skeleton(sg, parity))
        if refined is not None:
            refined = ((refined[0].solid, refined[0].dotted), refined[1])
        zeros += refined is None
        results.append((sg.v, parity, refined, exhaustive))
    assert zeros, "no Zero class among the inputs"
    assert_matches_exhaustive(results)


def test_skeleton_signs_compose_under_action():
    rng = random.Random(6)
    tadpoles = multiple = 0
    for sg, parity in skeleton_cases()[::2]:
        tadpoles += any(r[0] == r[1] for r in sg.dotted)
        ends = [frozenset(r[:2]) for r in sg.solid + sg.dotted]
        multiple += len(set(ends)) < len(ends)
        moved, s = sk_act(rng, sg, parity)
        a, b = canonicalize_skeleton(sg, parity), canonicalize_skeleton(moved, parity)
        assert a.is_zero == b.is_zero
        if not a.is_zero:
            assert b.rep == a.rep and s * b.sign == a.sign
            again = canonicalize_skeleton(a.rep, parity)
            assert again.rep == a.rep and again.sign == 1
    assert tadpoles and multiple


def test_rigid_graph_sweeps_one_permutation():
    rng = random.Random(11)
    rigid = 0
    for _ in range(400):
        v = rng.randint(4, 7)
        g = random_admissible_graph(rng, v, rng.randint(v, v + 3), rng.randint(0, 2))
        cells = _refine(g.v, _edge_ends(g.v, (g.records,), GRAPH_KINDS))
        if is_rigid(g):
            rigid += 1
            assert len(list(_cell_perms(cells))) == 1
    assert rigid >= 20


def test_cell_perms_respect_blocks_and_signs():
    cells = [[3, 0], [4], [1, 2, 5]]
    perms = list(_cell_perms(cells))
    assert len(perms) == 2 * 1 * 6
    assert len({p for p, _ in perms}) == len(perms)
    for perm, sign in perms:
        assert sign == perm_parity(perm)
        assert {perm[3], perm[0]} == {0, 1} and perm[4] == 2
        assert {perm[1], perm[2], perm[5]} == {3, 4, 5}


def engine_inputs():
    """(v, edges, kinds) of every graph and skeleton case, as
    canonicalize and canonicalize_skeleton hand them to the engine."""
    graphs = [(g.v, (g.records,), GRAPH_KINDS) for g, _ in graph_cases()]
    skeletons = [(sg.v, (sg.solid, sg.dotted), SKELETON_KINDS) for sg, _ in skeleton_cases()]
    return list(dict.fromkeys(graphs + skeletons))


def test_memo_agrees_with_unmemoized_engine():
    """The memo is keyed on the parity and the kinds too: the same edges
    under the other parity, or read as the other kind, are another class."""
    assert _canonical_form.cache_info().maxsize is not None
    inputs = engine_inputs()
    for v, edges, kinds in inputs:
        for parity in (EVEN, ODD):
            _canonical_form(v, edges, kinds, parity)
    hits = _canonical_form.cache_info().hits
    for v, edges, kinds in inputs:
        for parity in (EVEN, ODD):
            expected = _canonical_form.__wrapped__(v, edges, kinds, parity)
            assert _canonical_form(v, edges, kinds, parity) == expected
            assert _canonical_form(v, edges, kinds, parity) == expected
    assert _canonical_form.cache_info().hits >= hits + 2 * len(inputs)


def fixpoint_cells(v, nbrs):
    """Reference refinement: rounds until the class count stops growing,
    with no early exit for a discrete partition."""
    classes = [0] * v
    while True:
        sigs = [(classes[x], tuple(sorted((classes[y], tag, d) for y, tag, d in nbrs[x]))) for x in range(v)]
        order = sorted(set(sigs))
        new = [order.index(s) for s in sigs]
        if len(order) == len(set(classes)):
            return [[x for x in range(v) if new[x] == c] for c in range(len(order))]
        classes = new


def test_refine_matches_fixpoint_refinement():
    discrete = coarse = 0
    for v, edges, kinds in engine_inputs():
        nbrs = _edge_ends(v, edges, kinds)
        cells = _refine(v, nbrs)
        assert cells == fixpoint_cells(v, nbrs)
        discrete += len(cells) == v
        coarse += len(cells) < v
    assert discrete and coarse
