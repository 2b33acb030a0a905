"""Basis enumeration, the differential, and homology of small slices."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from ogc.graphs import (
    ColoredGraph,
    Parity,
    TermVector,
    canonicalize,
    is_acyclic_in_color,
    is_connected,
    make_graph,
    merge_labels,
    relabel_records,
    valence,
)
from ogc.complexes import (
    Constraint,
    REDUCED_CONSTRAINTS,
    SliceParams,
    contract_edge,
    delete_one_valent,
    differential,
    differential_matrix,
    enumerate_basis,
    homology_dims,
    slice_chain,
)
from ogc.linalg import ClosureError, rank

EVEN, ODD = Parity.EVEN, Parity.ODD
CONNECTED = frozenset({Constraint.CONNECTED})

K4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def params(v, e, k=0, n=0, constraints=CONNECTED):
    return SliceParams(v, e, k, n, frozenset(constraints))


def oracle_basis(v, e, k, parity, constraints):
    """Independent enumeration: sweep multisets of *ordered* pairs and all
    color matrices, canonicalize, and collect distinct classes."""
    pairs = [(t, h) for t in range(v) for h in range(v) if t != h]
    reps = set()
    for ms in itertools.combinations_with_replacement(pairs, e):
        for colors in itertools.product(itertools.product((1, -1), repeat=k), repeat=e):
            records = tuple(p + c for p, c in zip(ms, colors))
            g = ColoredGraph(v, k, records)
            if any(
                not _color_ok(g, c) for c in range(1, k + 1)
            ):
                continue
            if Constraint.CONNECTED in constraints and not is_connected(g):
                continue
            if not _oracle_constraints_ok(g, constraints):
                continue
            cls = canonicalize(g, parity)
            if not cls.is_zero:
                reps.add(cls.rep)
    return reps


def _color_ok(g, c):
    from ogc.graphs import is_acyclic_in_color

    return is_acyclic_in_color(g, c)


def _oracle_constraints_ok(g, constraints):
    from ogc.graphs import is_passing, valence

    degs = [valence(g, x) for x in range(g.v)]
    if Constraint.MIN_VALENCE_2 in constraints and any(d < 2 for d in degs):
        return False
    if Constraint.ONLY_2_VALENT in constraints and any(d != 2 for d in degs):
        return False
    if Constraint.MIN_VALENCE_3_SOMEWHERE in constraints and not any(d >= 3 for d in degs):
        return False
    if Constraint.NO_PASSING in constraints and any(is_passing(g, x) for x in range(g.v)):
        return False
    return True


class TestEnumerateBasis:
    def test_point(self):
        sl = enumerate_basis(params(1, 0))
        assert len(sl) == 1

    def test_double_edge_slice_empty_even(self):
        assert len(enumerate_basis(params(2, 2, n=0))) == 0

    def test_k4_slice(self):
        sl = enumerate_basis(params(4, 6, n=0, constraints=REDUCED_CONSTRAINTS))
        k4 = canonicalize(K4, EVEN)
        assert k4.rep in sl.basis

    @pytest.mark.parametrize("v,e,k,n", [(3, 3, 0, 0), (3, 3, 0, 1), (3, 4, 1, 0), (4, 4, 0, 1), (3, 3, 2, 1)])
    def test_matches_independent_oracle_connected(self, v, e, k, n):
        sl = enumerate_basis(params(v, e, k, n))
        expected = oracle_basis(v, e, k, Parity.from_n(n), CONNECTED)
        assert set(sl.basis) == expected

    def test_matches_oracle_reduced(self):
        sl = enumerate_basis(params(4, 6, 0, 0, REDUCED_CONSTRAINTS))
        expected = oracle_basis(4, 6, 0, EVEN, REDUCED_CONSTRAINTS)
        assert set(sl.basis) == expected

    def test_matches_oracle_no_passing_without_min2(self):
        cons = frozenset(
            {Constraint.CONNECTED, Constraint.MIN_VALENCE_3_SOMEWHERE, Constraint.NO_PASSING}
        )
        sl = enumerate_basis(params(4, 6, 0, 0, cons))
        expected = oracle_basis(4, 6, 0, EVEN, cons)
        assert set(sl.basis) == expected
        assert canonicalize(K4, EVEN).rep in sl.basis

    def test_inconsistent_constraints(self):
        with pytest.raises(ValueError):
            enumerate_basis(
                params(2, 2, constraints={Constraint.ONLY_2_VALENT, Constraint.MIN_VALENCE_3_SOMEWHERE})
            )

    def test_bounds_refused_without_force(self):
        with pytest.raises(ValueError):
            enumerate_basis(params(9, 2))

    # a negative color count once failed inside itertools.product, or gave
    # an empty reduced basis
    @pytest.mark.parametrize("v, e, constraints", [(4, 6, CONNECTED), (3, 3, REDUCED_CONSTRAINTS)])
    def test_negative_color_count_refused(self, v, e, constraints):
        with pytest.raises(ValueError, match="color count k >= 0"):
            enumerate_basis(SliceParams(v, e, -1, 0, constraints))

    def test_degree_and_loop_number(self):
        p = params(4, 6, 0, 2)
        assert p.degree == (4 - 1) * 2 + (1 - 2) * 6 == 0
        assert p.loop_number == 2


class TestContraction:
    def test_single_edge_contracts_to_point(self):
        g = make_graph(2, [(0, 1)])
        for parity in (EVEN, ODD):
            vec = contract_edge(g, 1, parity)
            assert len(vec) == 1
            (rep, coeff), = vec.terms.items()
            assert rep.v == 1 and rep.e == 0 and coeff == 1

    def test_triangle_contraction_dies_even(self):
        tri = make_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert contract_edge(tri, 1, EVEN).is_zero()

    def test_tadpole_creation_is_zero(self):
        g = make_graph(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
        assert contract_edge(g, 1, ODD).is_zero()

    def test_colored_cycle_creation_is_zero(self):
        # color 1 runs 0->1->2->3 and 0->3; contracting the (0, 3) edge
        # merges the endpoints and closes the color loop
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(1,), (1,), (1,), (1,)])
        vec = contract_edge(g, 4, ODD)
        assert vec.is_zero()

    def test_edge_label_out_of_range(self):
        with pytest.raises(ValueError):
            contract_edge(K4, 7, EVEN)


class TestDeletion:
    def test_single_edge_deletions(self):
        g = make_graph(2, [(0, 1)])
        for parity in (EVEN, ODD):
            for x in (0, 1):
                vec = delete_one_valent(g, x, parity)
                (rep, coeff), = vec.terms.items()
                assert rep.v == 1 and coeff == 1

    def test_pendant_on_triangle(self):
        # vertex 3 hangs off a triangle; deleting it leaves the triangle,
        # which survives only for odd n
        g = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert delete_one_valent(g, 3, EVEN).is_zero()
        vec = delete_one_valent(g, 3, ODD)
        (rep, coeff), = vec.terms.items()
        assert rep.v == 3 and rep.e == 3
        # by hand: vertex 3 and edge 4 are already last and the edge heads
        # into the deleted vertex, so no sign is picked up
        assert coeff == canonicalize(make_graph(3, [(0, 1), (0, 2), (1, 2)]), ODD).sign

    def test_not_one_valent(self):
        with pytest.raises(ValueError):
            delete_one_valent(K4, 0, EVEN)


class TestDifferential:
    def test_point_graph(self):
        g = make_graph(1, [])
        assert differential(g, EVEN).is_zero()

    def test_triangle_even(self):
        tri = make_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert differential(tri, EVEN).is_zero()

    def test_k4_even(self):
        assert differential(K4, EVEN).is_zero()

    def test_cancellation_pendant_edge(self):
        # contracting a pendant edge cancels against deleting its leaf:
        # delta of the 2-path = c1 + c2 - d0 - d2 and each c cancels a d
        path = make_graph(3, [(0, 1), (1, 2)])
        vec = differential(path, ODD)
        assert vec.is_zero()

    def test_b_preservation_and_degree(self):
        g = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])
        for parity in (EVEN, ODD):
            for rep in differential(g, parity).terms:
                assert rep.e - rep.v == g.e - g.v

    @pytest.mark.parametrize(
        "term",
        [lambda g: differential(g, ODD), lambda g: contract_edge(g, 1, EVEN)],
        ids=["differential", "contract_edge"],
    )
    def test_color_cycle_is_refused(self, term):
        # built directly, past make_graph's check: color 1 runs 0 -> 1 -> 2 -> 0
        g = ColoredGraph(3, 1, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
        with pytest.raises(ValueError, match="color 1 orientation has a directed cycle"):
            term(g)


def _slice_graphs():
    """Every connected basis element with v <= 5, e <= v + 1 and k <= 2
    but the (5, 6, 2) slices, which alone take about three times as long as
    the rest, and the unconstrained slices up to (4, 3) at k <= 1, which hold
    K2 components, each with its parity."""
    slices = [
        (v, e, k, n, CONNECTED)
        for v in range(1, 6)
        for e in range(v - 1, v + 2)
        for k in (0, 1, 2)
        for n in (0, 1)
        if (v, e, k) != (5, 6, 2)
    ]
    slices += [(v, e, k, n, frozenset()) for v in (2, 3, 4) for e in range(1, v) for k in (0, 1) for n in (0, 1)]
    for v, e, k, n, cons in slices:
        for g in enumerate_basis(params(v, e, k, n, cons)).basis:
            yield g, Parity.from_n(n)


class TestLeafCancellation:
    def test_leaf_contraction_equals_its_deletion_and_differential_is_literal(self):
        leaf_edges = k2_components = 0
        for g, parity in _slice_graphs():
            degrees = [valence(g, x) for x in range(g.v)]
            contractions = [contract_edge(g, t, parity) for t in range(1, g.e + 1)]
            deletions = {x: delete_one_valent(g, x, parity) for x in range(g.v) if degrees[x] == 1}
            # every term built: all contractions minus all 1-valent deletions
            literal = TermVector()
            for vec in contractions:
                literal.add_vector(vec)
            for vec in deletions.values():
                literal.add_vector(vec, -1)
            assert differential(g, parity) == literal, (g, parity)
            for (u, w, *_), contraction in zip(g.records, contractions):
                if degrees[u] == degrees[w] == 1:
                    k2_components += 1
                elif u in deletions or w in deletions:
                    assert contraction == deletions[u if u in deletions else w], (g, u, w, parity)
                    leaf_edges += 1
        # the sweep reaches both cases the shortened differential treats
        assert leaf_edges > 1000 and k2_components > 10


def _literal_differential(g, parity):
    """Every contraction minus every 1-valent deletion, each term built and
    filtered here: a merged graph drops when one of its records is a
    tadpole or when ``is_acyclic_in_color`` finds a cycle in some color.
    Returns the vector and, per dropped contraction that closes a cycle,
    the list of colors in which it does."""
    odd = parity is ODD
    degrees = [valence(g, x) for x in range(g.v)]
    terms = [(a, r[0], r[1], 1) for a, r in enumerate(g.records)]
    terms += [(a, x, x, -1) for a, r in enumerate(g.records) for x in r[:2] if degrees[x] == 1]
    out, cycles = TermVector(), []
    for a, keep, gone, coeff in terms:
        records = relabel_records(g.records, merge_labels(g.v, keep, gone), a)
        if any(r[0] == r[1] for r in records):
            continue
        merged = ColoredGraph(g.v - 1, g.k, records)
        closed = [c for c in range(1, g.k + 1) if not is_acyclic_in_color(merged, c)]
        if closed:
            cycles.append(closed)
            continue
        # vertex `gone` and edge a move last, the edge turned to head into
        # `gone`: vertex moves and reversals are odd for odd n, edge moves
        # for even n
        moves = g.v - 1 - gone if odd else g.e - 1 - a
        reversed_ = odd and g.records[a][1] != gone
        out.add_class(canonicalize(merged, parity), coeff * (-1) ** (moves + reversed_))
    return out, cycles


class TestLiteralDifferential:
    def test_differential_equals_the_sum_built_without_its_filters(self):
        # k = 2 contractions that close a cycle in one color only, by color:
        # a cycle test that skips a color lets one of them through
        single_color_cycles = Counter()
        for g, parity in _slice_graphs():
            literal, cycles = _literal_differential(g, parity)
            column = differential(g, parity)
            assert column == literal, (g, parity)
            assert all(type(c) is Fraction for c in column.terms.values()), (g, parity)
            if g.k == 2:
                single_color_cycles.update(closed[0] for closed in cycles if len(closed) == 1)
        assert single_color_cycles[1] >= 1000 and single_color_cycles[2] >= 1000, single_color_cycles

    def test_matrix_entries_are_fractions(self):
        entries = []
        for b, k, n in itertools.product((0, 1), (1, 2), (0, 1)):
            chain = slice_chain(b, k, n, CONNECTED, v_max=4)
            for src, dst in zip(chain, chain[1:]):
                entries += differential_matrix(src, dst).data.values()
        assert len(entries) > 500 and all(type(x) is Fraction and x for x in entries)


class TestMatrices:
    def test_empty_src(self):
        src = enumerate_basis(params(2, 2, n=0))
        dst = enumerate_basis(params(1, 1, n=0))
        m = differential_matrix(src, dst)
        assert m.rows == len(dst) and m.cols == 0

    def test_k4_column_is_zero(self):
        src = enumerate_basis(params(4, 6, 0, 0, REDUCED_CONSTRAINTS))
        dst = enumerate_basis(params(3, 5, 0, 0, REDUCED_CONSTRAINTS))
        m = differential_matrix(src, dst)
        assert m.is_zero()

    def test_param_mismatch(self):
        a = enumerate_basis(params(3, 3))
        b = enumerate_basis(params(3, 2))
        with pytest.raises(ValueError):
            differential_matrix(a, b)

    @pytest.mark.parametrize("k,n", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_dsquared_small_connected(self, k, n):
        for b in (-1, 0, 1):
            chain = slice_chain(b, k, n, CONNECTED, v_max=4)
            for a, mid, c in zip(chain, chain[1:], chain[2:]):
                if len(a) and len(mid) and len(c):
                    m1 = differential_matrix(a, mid)
                    m2 = differential_matrix(mid, c)
                    assert (m2 @ m1).is_zero()

    def test_closure_violation_raises(self):
        # a slice artificially missing a target element must fail loudly;
        # the source slice needs a nonzero differential for the check to bite
        src = enumerate_basis(params(4, 4, 0, 1))
        dst_full = enumerate_basis(params(3, 3, 0, 1))
        broken = type(dst_full)(dst_full.params, tuple(), dst_full.degree)
        assert any(not differential(g, ODD).is_zero() for g in src.basis)
        with pytest.raises(ClosureError, match="differential term missing from the target slice: "):
            differential_matrix(src, broken)


class TestRankCrossCheck:
    def test_modular_rank_agrees_on_real_differentials(self):
        from oracles import rank_mod_p

        src = enumerate_basis(params(5, 7, 1, 1))
        dst = enumerate_basis(params(4, 6, 1, 1))
        m = differential_matrix(src, dst)
        assert rank(m) == rank_mod_p(m)

    def test_dense_elimination_agrees_on_real_differential(self):
        from test_linalg import dense_rank

        src = enumerate_basis(params(4, 5, 1, 1))
        dst = enumerate_basis(params(3, 4, 1, 1))
        m = differential_matrix(src, dst)
        rows = [[m.data.get((i, j), 0) for j in range(m.cols)] for i in range(m.rows)]
        assert rank(m) == dense_rank(rows)


class TestHomology:
    def test_empty_chain_slices(self):
        chain = slice_chain(-1, 0, 0, CONNECTED, v_max=2)
        rows = homology_dims(chain)
        assert all(isinstance(r, tuple) and len(r) == 3 for r in rows)

    def test_single_slice_zero_differentials(self):
        sl = enumerate_basis(params(4, 6, 0, 0, REDUCED_CONSTRAINTS))
        rows = homology_dims([sl])
        assert rows[0][2] == len(sl)

    def test_k4_class_is_nonzero_in_homology(self):
        chain = slice_chain(2, 0, 0, REDUCED_CONSTRAINTS, v_max=5)
        rows = {v: dim for v, _, dim in homology_dims(chain)}
        assert rows[4] >= 1
