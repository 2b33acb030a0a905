"""Core graph model: predicates, the signed action, canonical forms."""

import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ogc.graphs import (
    CanonicalClass,
    ColoredGraph,
    GroupElement,
    Parity,
    TermVector,
    _acyclic_support_signs,
    act,
    canonicalize,
    is_acyclic_in_color,
    is_connected,
    is_passing,
    make_graph,
    perm_parity,
    valence,
)
from ogc.complexes import REDUCED_CONSTRAINTS, SliceParams
from ogc.skeleton import SkeletonGraph
from oracles import is_weakly_passing

EVEN, ODD = Parity.EVEN, Parity.ODD


def graph(v, edges, colors=None):
    return make_graph(v, edges, colors)


SINGLE_EDGE = graph(2, [(0, 1)])
TRIANGLE = graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
DOUBLE_EDGE = graph(2, [(0, 1), (0, 1)])


class TestPredicates:
    def test_single_edge_acyclic_any_color(self):
        g = graph(2, [(0, 1)], [(1, -1)])
        assert is_acyclic_in_color(g, 1)
        assert is_acyclic_in_color(g, 2)

    def test_two_colored_four_vertex_graph_acyclic_in_both_colors(self):
        # a 2-colored graph shaped like the worked examples: both color
        # orientations admit a topological order
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        colors = [(1, 1)] * 6
        g = graph(4, edges, colors)
        assert is_acyclic_in_color(g, 1) and is_acyclic_in_color(g, 2)

    def test_cycle_in_one_color_detected(self):
        # color 1 acyclic, color 2 runs around the triangle
        edges = [(0, 1), (1, 2), (0, 2)]
        colors = [(1, 1), (1, 1), (1, -1)]
        g = ColoredGraph(3, 2, tuple(e + c for e, c in zip(edges, colors)))
        assert is_acyclic_in_color(g, 1)
        assert not is_acyclic_in_color(g, 2)

    def test_color_out_of_range(self):
        with pytest.raises(ValueError):
            is_acyclic_in_color(SINGLE_EDGE, 1)

    def test_connectivity(self):
        assert is_connected(graph(1, []))
        assert not is_connected(graph(2, []))
        assert is_connected(TRIANGLE)

    def test_valence(self):
        assert valence(graph(1, []), 0) == 0
        assert all(valence(TRIANGLE, x) == 2 for x in range(3))
        assert all(valence(K4, x) == 3 for x in range(4))
        with pytest.raises(ValueError):
            valence(TRIANGLE, 5)

    def test_passing_k0_every_two_valent(self):
        assert is_passing(TRIANGLE, 0)
        assert not is_passing(K4, 0)

    def test_passing_needs_in_one_out_one(self):
        # vertex 1 is the head of both incident edges in the single color
        g = graph(3, [(0, 1), (2, 1)], [(1,), (1,)])
        assert not is_passing(g, 1)
        g2 = graph(3, [(0, 1), (1, 2)], [(1,), (1,)])
        assert is_passing(g2, 1)

    def test_weakly_passing(self):
        # passing in color 1, head of both edges in color 2
        g = graph(3, [(0, 1), (1, 2)], [(1, 1), (1, -1)])
        assert is_weakly_passing(g, 1)
        # passing in both colors
        g2 = graph(3, [(0, 1), (1, 2)], [(1, 1), (1, 1)])
        assert not is_weakly_passing(g2, 1)
        assert not is_weakly_passing(g2, 0)  # 1-valent


class TestAct:
    def test_identity(self):
        elem = GroupElement((0, 1, 2), (0, 1, 2), frozenset())
        for parity in (EVEN, ODD):
            h, sign = act(TRIANGLE, elem, parity)
            assert h == TRIANGLE and sign == 1

    def test_swap_parallel_edges_even(self):
        elem = GroupElement((0, 1), (1, 0), frozenset())
        h, sign = act(DOUBLE_EDGE, elem, EVEN)
        assert h == DOUBLE_EDGE and sign == -1

    def test_flip_one_edge_odd(self):
        g = graph(2, [(0, 1)], [(1, -1)])
        elem = GroupElement((0, 1), (0,), frozenset({0}))
        h, sign = act(g, elem, ODD)
        assert h.records == ((1, 0, -1, 1),)
        assert sign == -1
        # flipping twice is the identity with sign +1
        h2, sign2 = act(h, elem, ODD)
        assert h2 == g and sign * sign2 == 1

    def test_dimension_mismatch(self):
        elem = GroupElement((0, 1), (0,), frozenset())
        with pytest.raises(ValueError):
            act(TRIANGLE, elem, EVEN)

    @pytest.mark.parametrize(
        "g, elem",
        [
            (TRIANGLE, GroupElement((0, 0, 1), (0, 1, 2), frozenset())),  # would make the tadpole (0, 0)
            (TRIANGLE, GroupElement((0, 1, 5), (0, 1, 2), frozenset())),  # vertex image out of range
            (DOUBLE_EDGE, GroupElement((0, 1), (1, 1), frozenset())),  # would leave a None record
            (TRIANGLE, GroupElement((0, 1, 2), (0, 1, 2), frozenset({7}))),  # flips no edge, yet signs
        ],
        ids=["repeated-vertex", "vertex-out-of-range", "repeated-edge", "stray-flip"],
    )
    def test_non_permutations_and_stray_flips_are_refused(self, g, elem):
        for parity in (EVEN, ODD):
            with pytest.raises(ValueError):
                act(g, elem, parity)


class TestCanonicalize:
    def test_single_edge_already_canonical(self):
        cls = canonicalize(SINGLE_EDGE, EVEN)
        assert cls.rep == SINGLE_EDGE and cls.sign == 1

    def test_double_edge_zero_even(self):
        assert canonicalize(DOUBLE_EDGE, EVEN).is_zero

    def test_double_edge_zero_odd_too(self):
        # the vertex swap reverses both edges: sign (-1) * (-1)^2 = -1
        assert canonicalize(DOUBLE_EDGE, ODD).is_zero

    def test_triple_edge_survives_odd(self):
        theta = graph(2, [(0, 1)] * 3)
        assert canonicalize(theta, EVEN).is_zero
        assert not canonicalize(theta, ODD).is_zero

    def test_triangle_zero_even_survives_odd(self):
        # a vertex swap induces an odd edge transposition
        assert canonicalize(TRIANGLE, EVEN).is_zero
        assert not canonicalize(TRIANGLE, ODD).is_zero

    def test_triangle_relabelings_share_rep(self):
        # brute force over all 3! relabelings: identical reps, and the
        # sign composition rule holds against the base labeling
        for parity in (EVEN, ODD):
            base = canonicalize(TRIANGLE, parity)
            for perm in itertools.permutations(range(3)):
                elem = GroupElement(perm, (0, 1, 2), frozenset())
                moved, s = act(TRIANGLE, elem, parity)
                cls = canonicalize(moved, parity)
                if base.is_zero:
                    assert cls.is_zero
                else:
                    assert cls.rep == base.rep
                    assert s * cls.sign == base.sign

    def test_idempotent(self):
        g = graph(4, [(0, 2), (1, 2), (2, 3), (0, 3)], [(1,), (1,), (1,), (1,)])
        cls = canonicalize(g, ODD)
        again = canonicalize(cls.rep, ODD)
        assert again.rep == cls.rep and again.sign == 1


def random_graph(rng, v=None, e=None, k=None):
    v = v or rng.randint(2, 5)
    e = e if e is not None else rng.randint(1, 7)
    k = k if k is not None else rng.randint(0, 2)
    edges = []
    for _ in range(e):
        t = rng.randrange(v)
        h = rng.randrange(v)
        while h == t:
            h = rng.randrange(v)
        edges.append((t, h))
    orders = [rng.sample(range(v), v) for _ in range(k)]
    colors = []
    for t, h in edges:
        row = tuple(1 if order.index(t) < order.index(h) else -1 for order in orders)
        colors.append(row)
    return make_graph(v, edges, colors)


def random_element(rng, g):
    vp = tuple(rng.sample(range(g.v), g.v))
    ep = tuple(rng.sample(range(g.e), g.e))
    flips = frozenset(i for i in range(g.e) if rng.random() < 0.4)
    return GroupElement(vp, ep, flips)


class TestCoherence:
    def test_canonical_reps_invariant_under_action(self):
        rng = random.Random(20240811)
        for _ in range(300):
            g = random_graph(rng)
            parity = rng.choice((EVEN, ODD))
            elem = random_element(rng, g)
            moved, s = act(g, elem, parity)
            a = canonicalize(g, parity)
            b = canonicalize(moved, parity)
            if a.is_zero:
                assert b.is_zero
            else:
                assert b.rep == a.rep
                assert s * b.sign == a.sign

    def test_acyclicity_invariant_under_action(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_graph(rng, k=2)
            elem = random_element(rng, g)
            moved, _ = act(g, elem, EVEN)
            for c in (1, 2):
                assert is_acyclic_in_color(moved, c)


@st.composite
def graphs_strategy(draw):
    v = draw(st.integers(2, 4))
    e = draw(st.integers(1, 5))
    k = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_graph(random.Random(seed), v=v, e=e, k=k)


@settings(max_examples=60, deadline=None)
@given(graphs_strategy(), st.sampled_from([EVEN, ODD]), st.integers(0, 2**32 - 1))
def test_property_sign_composition(g, parity, seed):
    rng = random.Random(seed)
    e1 = random_element(rng, g)
    e2 = random_element(rng, g)
    m1, s1 = act(g, e1, parity)
    m2, s2 = act(m1, e2, parity)
    a, b = canonicalize(g, parity), canonicalize(m2, parity)
    if a.is_zero:
        assert b.is_zero
    else:
        assert b.rep == a.rep and s1 * s2 * b.sign == a.sign


def test_perm_parity():
    assert perm_parity((0, 1, 2)) == 1
    assert perm_parity((1, 0, 2)) == -1
    assert perm_parity((1, 2, 0)) == 1


def sweep_support_signs(v, support):
    """Reference: the sign vectors that the v! linear vertex orders induce
    on the pairs; every acyclic orientation comes from such an order."""
    out = set()
    for order in itertools.permutations(range(v)):
        pos = {x: i for i, x in enumerate(order)}
        out.add(tuple(1 if pos[t] < pos[h] else -1 for t, h in support))
    return tuple(sorted(out))


def test_acyclic_support_signs_match_order_sweep():
    supports = [
        (v, support)
        for v in range(6)
        for r in range(v * (v - 1) // 2 + 1)
        for support in itertools.combinations(itertools.combinations(range(v), 2), r)
    ]
    rng = random.Random(77)
    for v in (6, 7):
        pairs = list(itertools.combinations(range(v), 2))
        for _ in range(25):
            supports.append((v, tuple(sorted(rng.sample(pairs, rng.randint(v - 1, 2 * v))))))
    for v, support in supports:
        assert _acyclic_support_signs(v, support) == sweep_support_signs(v, support), (v, support)


def test_term_vector_stores_fractions():
    vec = TermVector()
    vec.add_class(CanonicalClass(SINGLE_EDGE, -1), 3)
    half = TermVector()
    half.add(TRIANGLE, 1)
    vec.add_vector(half, Fraction(1, 2))
    assert vec.terms == {SINGLE_EDGE: -3, TRIANGLE: Fraction(1, 2)}
    assert all(type(c) is Fraction for c in vec.terms.values())


@pytest.mark.parametrize(
    "record, fields",
    [
        (ColoredGraph(3, 1, ((0, 1, 1), (1, 2, -1))), ("v", "k", "records")),
        (SkeletonGraph(2, 0, ((0, 1),), ((0, 1), (1, 1))), ("v", "k", "solid", "dotted")),
        (CanonicalClass(ColoredGraph(2, 0, ((0, 1),)), -1), ("rep", "sign")),
        (SliceParams(4, 6, 0, 1, REDUCED_CONSTRAINTS), ("v", "e", "k", "n", "constraints")),
    ],
    ids=["ColoredGraph", "SkeletonGraph", "CanonicalClass", "SliceParams"],
)
def test_records_are_immutable_values_of_their_fields(record, fields):
    values = tuple(getattr(record, name) for name in fields)
    # dict and set orders, and so every row, follow the field tuple's hash
    assert hash(record) == hash(values)
    assert type(record)(*values) == record
    # the --workers pool pickles records both ways
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record
    named = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{type(record).__name__}({named})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_graph_repr_names_its_fields():
    # the form ClosureError messages print for a term outside the basis
    assert repr(ColoredGraph(2, 0, ((0, 1),))) == "ColoredGraph(v=2, k=0, records=((0, 1),))"
