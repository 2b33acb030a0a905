"""The spanning-tree map: trees, signs, chain map, quasi-isomorphism."""

import pytest

from ogc.graphs import (
    ColoredGraph,
    GroupElement,
    Parity,
    TermVector,
    act,
    make_graph,
)
from ogc.complexes import (
    REDUCED_CONSTRAINTS,
    SliceParams,
    differential_matrix,
    enumerate_basis,
    slice_chain,
)
from ogc.linalg import SparseRationalMatrix, induced_rank, rank
from ogc.skeleton import (
    SkeletonFamily,
    canonicalize_skeleton,
    make_skeleton,
    skeleton_degree_slice,
    skeleton_differential_matrix,
)
from ogc.treemap import (
    induced_matrix,
    spanning_tree_map,
    spanning_trees,
    tree_image,
    verify_chain_map,
    verify_quasi_iso,
)
from oracles import is_valid_special, tree_count_oracle

EVEN, ODD = Parity.EVEN, Parity.ODD

K4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])

# the four-vertex, six-edge example with the star tree at the central
# vertex: vertices 0..3 with 0 on top, edges labeled 1..6
EXAMPLE = make_graph(
    4,
    [(1, 2), (3, 1), (1, 0), (2, 3), (0, 2), (3, 0)],
)
EXAMPLE_TREE = (1, 3, 5)  # edges labeled 2, 4, 6


class TestSpanningTrees:
    def test_single_edge(self):
        assert spanning_trees(make_graph(2, [(0, 1)])) == [(0,)]

    def test_triangle(self):
        tri = make_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert spanning_trees(tri) == [(0, 1), (0, 2), (1, 2)]

    def test_k4_sixteen(self):
        trees = spanning_trees(K4)
        assert len(trees) == 16
        assert len(set(trees)) == 16
        assert tree_count_oracle(K4) == 16

    def test_parallel_edges_count_separately(self):
        g = make_graph(2, [(0, 1), (0, 1), (0, 1)])
        assert len(spanning_trees(g)) == 3 == tree_count_oracle(g)

    def test_matches_matrix_tree_on_random_graphs(self):
        import random

        rng = random.Random(17)
        for _ in range(25):
            v = rng.randint(2, 5)
            edges = []
            # random connected multigraph: a random tree plus extras
            for y in range(1, v):
                edges.append((rng.randrange(y), y))
            for _ in range(rng.randint(0, 4)):
                t = rng.randrange(v)
                h = rng.randrange(v)
                if t != h:
                    edges.append((min(t, h), max(t, h)))
            g = make_graph(v, edges)
            assert len(spanning_trees(g)) == tree_count_oracle(g)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            spanning_trees(make_graph(3, [(0, 1)]))


class TestTreeImage:
    def test_worked_example_structure(self):
        # root 0, star tree {2, 4, 6}: two tree edges run against their
        # intrinsic direction, so the prefactor is (+1) in both parities
        for parity in (EVEN, ODD):
            term = tree_image(EXAMPLE, 0, EXAMPLE_TREE, parity)
            assert term.reversals == 2
            assert not term.image.is_zero
            expected = make_skeleton(
                4,
                [(3, 1), (3, 2), (0, 3)],
                [(1, 2), (1, 0), (0, 2)],
                k=0,
            )
            cls = canonicalize_skeleton(expected, parity.flipped)
            assert not cls.is_zero
            assert term.image.rep == cls.rep
            assert term.image.sign == cls.sign

    def test_worked_example_expanded_form(self):
        # the displayed expansion of the example image: skeleton vertices
        # d=0, a=2, b=4, c=6 interleaved with middles e=1, f=3, g=5, and
        # nine edges in the all-heads-into-the-middle configuration; it
        # must appear in the expanded image with coefficient (1/2)^3
        from fractions import Fraction

        from ogc.graphs import ColoredGraph, canonicalize
        from ogc.skeleton import expand_dotted

        displayed = ColoredGraph(
            7,
            1,
            (
                (6, 2, 1),  # 1: c -> a
                (6, 4, 1),  # 2: c -> b
                (0, 6, 1),  # 3: d -> c
                (2, 1, 1),  # 4: a -> e
                (4, 1, 1),  # 5: b -> e
                (2, 3, 1),  # 6: a -> f
                (0, 3, 1),  # 7: d -> f
                (0, 5, 1),  # 8: d -> g
                (4, 5, 1),  # 9: b -> g
            ),
        )
        for parity in (EVEN, ODD):
            term = tree_image(EXAMPLE, 0, EXAMPLE_TREE, parity)
            m_parity = parity.flipped
            vec = TermVector()
            vec.add_vector(expand_dotted(term.image.rep, m_parity), term.image.sign)
            target = canonicalize(displayed, m_parity)
            assert not target.is_zero
            assert vec.terms.get(target.rep) is not None
            assert vec.terms[target.rep] * target.sign == Fraction(1, 8)

    def test_image_is_valid_and_preserves_shape(self):
        src = enumerate_basis(SliceParams(4, 6, 0, 0, REDUCED_CONSTRAINTS))
        for g in src.basis:
            for x in range(g.v):
               for tree in spanning_trees(g)[:4]:
                    term = tree_image(g, x, tree, EVEN)
                    if term.image.is_zero:
                        continue
                    rep = term.image.rep
                    assert rep.v == g.v
                    assert rep.n_solid == g.v - 1
                    assert rep.n_dotted == g.e - g.v + 1
                    assert is_valid_special(rep)

    def test_tree_outside_the_edges_rejected(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        for tree in [(0,), (-1, 0), (0, 3)]:
            with pytest.raises(ValueError, match="edge indices"):
                tree_image(g, 0, tree, EVEN)
        with pytest.raises(ValueError, match="span"):
            tree_image(g, 0, (0, 0), EVEN)

    def test_prefactor_zero_reversals(self):
        # a path oriented away from the root keeps every tree edge
        g = make_graph(3, [(0, 1), (1, 2), (0, 1), (1, 2)])
        term = tree_image(g, 0, (0, 1), EVEN)
        assert term.reversals == 0

    def test_prefactor_single_reversal_odd(self):
        g = make_graph(3, [(1, 0), (1, 2), (0, 1), (1, 2)])
        # tree edge 0 = (1, 0) points toward the root 0: one reversal
        term = tree_image(g, 0, (0, 1), ODD)
        assert term.reversals == 1


class TestSpanningTreeMap:
    def test_all_two_valent_guard(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert spanning_tree_map(g, ODD).is_zero()

    def test_k4_term_structure(self):
        vec = spanning_tree_map(K4, EVEN, project=False)
        assert not vec.is_zero()
        for rep in vec.terms:
            assert rep.v == 4 and rep.n_solid == 3 and rep.n_dotted == 3

    def test_well_defined_under_relabeling(self):
        import random

        rng = random.Random(3)
        src = enumerate_basis(SliceParams(4, 6, 0, 0, REDUCED_CONSTRAINTS))
        for g in src.basis[:3]:
            base = spanning_tree_map(g, EVEN, project=False)
            for _ in range(4):
                vp = tuple(rng.sample(range(g.v), g.v))
                ep = tuple(rng.sample(range(g.e), g.e))
                flips = frozenset(i for i in range(g.e) if rng.random() < 0.3)
                moved, s = act(g, GroupElement(vp, ep, flips), EVEN)
                vec = spanning_tree_map(moved, EVEN, project=False)
                expected = TermVector()
                expected.add_vector(base, s)
                assert vec == expected

    def test_degree_and_loop_bookkeeping(self):
        # expanded image sizes (e+1, 2e-v+1) keep the degree identity
        g = K4
        v, e = g.v, g.e
        vec = spanning_tree_map(g, EVEN, project=False)
        for rep in vec.terms:
            v_exp = rep.v + rep.n_dotted
            e_exp = rep.n_solid + 2 * rep.n_dotted
            assert (v_exp, e_exp) == (e + 1, 2 * e - v + 1)
            assert e_exp - v_exp == e - v
            for n in (0, 1, 2, 5):
                lhs = (v - 1) * n + (1 - n) * e
                rhs = (v_exp - 1) * (n + 1) + (1 - (n + 1)) * e_exp
                assert lhs == rhs

    def test_image_acyclic_all_colors(self):
        from ogc.graphs import is_acyclic_in_color
        from ogc.skeleton import expand_dotted

        vec = spanning_tree_map(K4, EVEN, project=False)
        for rep in vec.terms:
            expanded = expand_dotted(rep, ODD)
            for full in expanded.terms:
                assert is_acyclic_in_color(full, 1)

    def test_projection_vacuous_for_even_sources(self):
        raw = spanning_tree_map(K4, EVEN, project=False)
        projected = spanning_tree_map(K4, EVEN, project=True)
        assert raw == projected


class TestChainMap:
    def test_k4(self):
        report = verify_chain_map(K4, EVEN)
        assert report.ok
        # delta K4 = 0, so both sides collect to zero
        assert report.rhs_terms == 0 and report.lhs_terms == 0

    @pytest.mark.parametrize("n", [0, 1])
    def test_theta_graph(self, n):
        theta = make_graph(2, [(0, 1), (0, 1), (0, 1)])
        report = verify_chain_map(theta, Parity.from_n(n))
        assert report.ok

    @pytest.mark.parametrize("n", [0, 1])
    def test_full_reduced_slice_v4(self, n):
        src = enumerate_basis(SliceParams(4, 6, 0, n, REDUCED_CONSTRAINTS))
        for g in src.basis:
            report = verify_chain_map(g, Parity.from_n(n))
            assert report.ok, f"chain map fails on {g}"
            assert report.projection_vacuous

    @pytest.mark.parametrize("n", [0, 1])
    def test_one_base_color_sources(self, n):
        # one base color: the ambient quotient genuinely drops passing
        # terms on the derivative side, and the image side leaves the
        # solid/dotted span through string interiors
        from ogc.complexes import differential, differential_in_slice

        parity = Parity.from_n(n)
        drops = 0
        for (v, e) in [(4, 5), (4, 6)]:
            src = enumerate_basis(SliceParams(v, e, 1, n, REDUCED_CONSTRAINTS))
            for g in src.basis:
                full = differential(g, parity)
                reduced = differential_in_slice(g, parity, REDUCED_CONSTRAINTS)
                if len(full) != len(reduced):
                    drops += 1
                report = verify_chain_map(g, parity)
                assert report.native_equal, f"chain map fails on {g}"
                assert report.expanded_equal
        if n == 1:
            assert drops > 0


class TestQuasiIso:
    @pytest.mark.parametrize("n", [0, 1])
    def test_loop_order_one(self, n):
        report = verify_quasi_iso(1, 0, n)
        assert report.ok
        total = sum(r.dim_source for r in report.rows)
        # the three-fold edge class lives here for odd n
        if n == 1:
            assert total >= 1

    def test_k4_class_maps_to_nonzero(self):
        report = verify_quasi_iso(2, 0, 0)
        assert report.ok
        by_v = {r.v: r for r in report.rows}
        assert by_v[4].dim_source == 1
        assert by_v[4].dim_target == 1

    def test_images_of_boundaries_are_boundaries(self):
        # n = 1, b = 2: the image of the boundary of the source slice v = 4
        # is nonzero in slice u = 6, but it is a boundary there
        b, n, v, u = 2, 1, 3, 6
        gc = {sl.params.v: sl for sl in slice_chain(b, 0, n, REDUCED_CONSTRAINTS, v_max=v + 1)}
        sk = {w: skeleton_degree_slice(b, w, 0, n + 1, SkeletonFamily.SIMPLE) for w in (u, u + 1)}
        d_src = differential_matrix(gc[v + 1], gc[v])
        d_sk = skeleton_differential_matrix(sk[u + 1], sk[u])
        f_lo, f_hi = induced_matrix(gc[v], sk[u]), induced_matrix(gc[v + 1], sk[u + 1])
        images = f_lo @ d_src
        # the chain-map identity F_v D_{v+1} = D_{u+1} F_{v+1}, as matrices
        assert images.data == (d_sk @ f_hi).data
        assert rank(images) == 1
        assert induced_rank(SparseRationalMatrix(0, images.cols), images, d_sk, 0, rank(d_sk)) == 0
