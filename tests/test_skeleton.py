"""Solid/dotted complex: parities, expansion, the differential."""

import itertools
import re
from fractions import Fraction

import pytest

from ogc.graphs import ColoredGraph, Parity, TermVector, canonicalize
from ogc.complexes import REDUCED_CONSTRAINTS, SHAPE_BOUNDS, contract_edge, differential_in_slice
from ogc.skeleton import (
    SkeletonFamily,
    SkeletonGraph,
    SkeletonSliceParams,
    canonicalize_skeleton,
    contract_solid,
    dotted_differential,
    enumerate_skeleton_shape,
    expand_dotted,
    has_dotted_tadpole,
    has_multiple_edge,
    make_skeleton,
    quotient_kills,
    skeleton_degree_slice,
    skeleton_differential,
    skeleton_differential_matrix,
    skeleton_homology_dims,
)
from oracles import extract_skeleton, is_valid_special, is_weakly_passing

EVEN, ODD = Parity.EVEN, Parity.ODD

# two vertices joined by three dotted edges: every vertex 3-valent
TRIPLE_DOTTED = make_skeleton(2, [], [(0, 1), (0, 1), (0, 1)], k=0)

# 3-valent pair: one solid and two dotted edges between two vertices
SOLID_PLUS_TWO_DOTTED = make_skeleton(2, [(0, 1)], [(0, 1), (0, 1)], k=0)


def all_valid_shapes(v, s, d, k, n, family=SkeletonFamily.SPECIAL):
    return enumerate_skeleton_shape(SkeletonSliceParams(v, s, d, k, n, family))


class TestCanonicalParities:
    def test_swapping_dotted_edges(self):
        # two indistinguishable parallel dotted edges: swapping them is
        # an automorphism, odd exactly for odd m
        assert canonicalize_skeleton(SOLID_PLUS_TWO_DOTTED, ODD).is_zero
        assert not canonicalize_skeleton(SOLID_PLUS_TWO_DOTTED, EVEN).is_zero

    def test_parallel_solid_edges(self):
        sg = make_skeleton(2, [(0, 1), (0, 1)], [(0, 1)], k=0)
        # swapping the two identical solid edges is odd for even m
        assert canonicalize_skeleton(sg, EVEN).is_zero
        assert not canonicalize_skeleton(sg, ODD).is_zero

    def test_reversing_dotted_arrow(self):
        # the arrow of a dotted tadpole reverses onto itself: odd
        # automorphism exactly for even m
        tadpole = make_skeleton(2, [(0, 1), (1, 0)], [(0, 0)], k=0)
        assert canonicalize_skeleton(tadpole, EVEN).is_zero
        assert not canonicalize_skeleton(tadpole, ODD).is_zero

    def test_triple_dotted_zero_both_parities(self):
        # even m: the vertex swap reverses all three dotted arrows;
        # odd m: two identical dotted labels transpose
        for parity in (EVEN, ODD):
            assert canonicalize_skeleton(TRIPLE_DOTTED, parity).is_zero

    def test_two_solid_one_dotted_survives_odd(self):
        sg = make_skeleton(2, [(0, 1), (0, 1)], [(0, 1)], k=0)
        assert not canonicalize_skeleton(sg, ODD).is_zero
        assert canonicalize_skeleton(sg, EVEN).is_zero

    def test_expansion_of_zero_class_collects_to_zero(self):
        for parity in (EVEN, ODD):
            assert expand_dotted(TRIPLE_DOTTED, parity).is_zero()

    def test_idempotent(self):
        for parity in (EVEN, ODD):
            cls = canonicalize_skeleton(SOLID_PLUS_TWO_DOTTED, parity)
            if cls.is_zero:
                continue
            again = canonicalize_skeleton(cls.rep, parity)
            assert again.rep == cls.rep and again.sign == 1


class TestValidity:
    def test_triple_dotted_valid(self):
        assert is_valid_special(TRIPLE_DOTTED)

    def test_two_valent_vertex_needs_base_color(self):
        # k = 0: a 2-valent vertex is never allowed
        sg = make_skeleton(3, [(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)], k=0)
        # vertex 2 is 3-valent, vertices 0,1 are 4- and 4-valent? recount:
        # 0: solid(0,1), dotted(0,1),(0,2) -> 3; 1: solid twice + dotted -> 4; 2: 3
        assert is_valid_special(sg)
        bad = make_skeleton(3, [(0, 1)], [(1, 2), (0, 2)], k=0)
        assert not is_valid_special(bad)  # all vertices 2-valent

    def test_solid_anti_parallel_is_color_cycle(self):
        sg = make_skeleton(2, [(0, 1), (1, 0)], [(0, 1)], k=0)
        assert not is_valid_special(sg)

    def test_multiple_edge_detection(self):
        assert has_multiple_edge(SOLID_PLUS_TWO_DOTTED)
        assert not has_multiple_edge(
            make_skeleton(2, [(0, 1)], [], k=0)
        )

    @pytest.mark.parametrize(
        "solid, dotted, message",
        [
            ([(0, -1)], [], "out of range"),
            ([(0, 2)], [(0, 1)], "out of range"),
            ([(0, 1, 7)], [], "must be"),
            ([(0, 1, 1)], [(0, 1)], "does not carry 1 color signs"),
        ],
        ids=["negative-end", "end-past-v", "sign-7", "sign-counts-differ"],
    )
    def test_malformed_records_are_refused(self, solid, dotted, message):
        with pytest.raises(ValueError, match=message):
            make_skeleton(2, solid, dotted)

    def test_non_members_are_still_built(self):
        # anti-parallel solids and dotted tadpoles are records the tests
        # build on purpose; only the membership oracle rejects them
        for sg in (make_skeleton(2, [(0, 1), (1, 0)], [(0, 1)]), make_skeleton(2, [(0, 1)], [(1, 1)])):
            assert not is_valid_special(sg)


def labeled_members(v, s, d, k):
    """Every labeled graph of a shape that the membership oracle accepts,
    built without the orbit search: each multiset of solid arcs and of
    dotted pairs (t <= h, a reversal being a symmetry) with every choice
    of base color signs."""
    signs = list(itertools.product((1, -1), repeat=k))
    solid = [(t, h) + c for t in range(v) for h in range(v) if t != h for c in signs]
    dotted = [(t, h) + c for t in range(v) for h in range(t, v) for c in signs]
    for solids in itertools.combinations_with_replacement(solid, s):
        for dotteds in itertools.combinations_with_replacement(dotted, d):
            sg = SkeletonGraph(v, k, solids, dotteds)
            if is_valid_special(sg):
                yield sg


def in_family(sg, family, parity):
    if quotient_kills(sg, family, parity):
        return False
    if family is SkeletonFamily.TADPOLE_SUB:
        return has_dotted_tadpole(sg)
    return family is not SkeletonFamily.MULTI_SUB or has_multiple_edge(sg)


class TestShapeEnumeration:
    def test_bases_equal_brute_force(self):
        """Every shape with v <= 3, s + d <= 4 and k <= 1, both parities,
        all four families: the basis is the set of canonical non-Zero
        classes of the labeled members the family keeps, each once."""
        found = 0
        for v, k, s in itertools.product((1, 2, 3), (0, 1), range(5)):
            for d in range(5 - s):
                members = list(labeled_members(v, s, d, k))
                for n in (0, 1):
                    parity = Parity.from_n(n)
                    reps = {canonicalize_skeleton(sg, parity).rep for sg in members} - {None}
                    for family in SkeletonFamily:
                        got = enumerate_skeleton_shape(SkeletonSliceParams(v, s, d, k, n, family))
                        assert len(set(got)) == len(got)
                        assert set(got) == {rep for rep in reps if in_family(rep, family, parity)}, (v, s, d, k, n, family)
                        found += len(got)
        assert found > 100

    @pytest.mark.parametrize("v, s, d, k", [(2, -1, 4, 0), (2, 3, -1, 1), (0, 1, 1, 0), (0, 0, 0, 1)])
    def test_bad_counts_rejected_before_any_search(self, v, s, d, k):
        with pytest.raises(ValueError, match="need v >= 1 and nonnegative edge counts"):
            enumerate_skeleton_shape(SkeletonSliceParams(v, s, d, k, 0, SkeletonFamily.SPECIAL))

    @pytest.mark.parametrize("v, s, d, k, n", [(2, 1, 2, 3, 0), (2, 11, 1, 0, 1)])
    def test_shape_over_the_bounds_needs_force(self, v, s, d, k, n):
        params = SkeletonSliceParams(v, s, d, k, n, SkeletonFamily.SPECIAL)
        message = f"slice (v={v}, e={s + 2 * d}, k={k}) exceeds the default bounds {SHAPE_BOUNDS}"
        with pytest.raises(ValueError, match=re.escape(message)):
            enumerate_skeleton_shape(params)
        assert enumerate_skeleton_shape(params, force=True)

    def test_shape_empty_by_valence_is_never_refused(self):
        # seven vertices, two edges: over the vertex bound, and too few ends
        assert SHAPE_BOUNDS["v"] < 7
        assert enumerate_skeleton_shape(SkeletonSliceParams(7, 1, 1, 0, 0, SkeletonFamily.SPECIAL)) == ()


class TestQuotient:
    SIMPLE = SkeletonFamily.SIMPLE

    def test_tadpole_killed_odd(self):
        tadpole = make_skeleton(2, [(0, 1), (1, 0)], [(0, 0)], k=0)
        assert quotient_kills(tadpole, self.SIMPLE, ODD)

    def test_multi_killed_odd(self):
        assert quotient_kills(SOLID_PLUS_TWO_DOTTED, self.SIMPLE, ODD)

    def test_simple_survives(self):
        # a simple 4-vertex graph: solid tree plus dotted chords
        sg = make_skeleton(
            4, [(0, 1), (0, 2), (0, 3)], [(1, 2), (1, 3), (2, 3)], k=0
        )
        assert not quotient_kills(sg, self.SIMPLE, ODD)
        assert not canonicalize_skeleton(sg, ODD).is_zero

    def test_even_projection_is_identity(self):
        assert not quotient_kills(SOLID_PLUS_TWO_DOTTED, self.SIMPLE, EVEN)
        assert not canonicalize_skeleton(SOLID_PLUS_TWO_DOTTED, EVEN).is_zero


class TestExpand:
    def test_no_dotted_single_term(self):
        sg = make_skeleton(2, [(0, 1)], [], k=0)
        vec = expand_dotted(sg, EVEN)
        assert len(vec) == 1
        ((rep, coeff),) = vec.terms.items()
        assert coeff == 1 and rep.k == 1

    def test_one_dotted_two_terms_half(self):
        # two parallel solids keep the endpoints 3-valent, so the two
        # configurations are genuinely distinct classes
        vec = expand_dotted(make_skeleton(2, [(0, 1), (0, 1)], [(0, 1)], k=0), ODD)
        assert sorted(abs(c) for c in vec.terms.values()) == [Fraction(1, 2)] * 2

    def test_two_dotted_quarters(self):
        sg = SOLID_PLUS_TWO_DOTTED
        vec = expand_dotted(sg, EVEN)
        assert vec and all(c.denominator in (2, 4) for c in vec.terms.values())
        # product structure: the four hand-built configurations with
        # multiplicative signs give the same vector
        direct = TermVector()
        for c0, s0 in ((0, 1), (1, -1)):
            for c1, s1 in ((0, 1), (1, -1)):
                records = [(0, 1, 1)]
                for j, cfg in enumerate((c0, c1)):
                    z = 2 + j
                    if cfg == 0:
                        records += [(0, z, 1), (1, z, 1)]
                    else:
                        records += [(z, 0, 1), (z, 1, 1)]
                g = ColoredGraph(4, 1, tuple(records))
                direct.add_class(canonicalize(g, EVEN), Fraction(s0 * s1, 4))
        assert vec == direct

    def test_expansion_is_weakly_passing_at_middles(self):
        vec = expand_dotted(SOLID_PLUS_TWO_DOTTED, EVEN)
        assert not vec.is_zero()
        for rep in vec.terms:
            assert rep.v == 4 and rep.e == 5
            assert sum(is_weakly_passing(rep, x) for x in range(rep.v)) == 2


class TestExtract:
    def test_no_weakly_passing_all_solid(self):
        g = ColoredGraph(2, 1, ((0, 1, 1), (0, 1, 1), (0, 1, 1)))
        sk = extract_skeleton(g)
        assert sk.n_solid == 3 and sk.n_dotted == 0

    def test_round_trip_through_expansion(self):
        cases = [
            (EVEN, SOLID_PLUS_TWO_DOTTED),
            (ODD, make_skeleton(2, [(0, 1), (0, 1)], [(0, 1)], k=0)),
            (EVEN, make_skeleton(4, [(0, 1), (0, 2), (0, 3)], [(1, 2), (1, 3), (2, 3)], k=0)),
            (ODD, make_skeleton(2, [(0, 1)], [(0, 0)], k=0)),
        ]
        for parity, sg in cases:
            target = canonicalize_skeleton(sg, parity)
            assert not target.is_zero
            vec = expand_dotted(sg, parity)
            for rep in vec.terms:
                back = canonicalize_skeleton(extract_skeleton(rep), parity)
                assert not back.is_zero
                assert back.rep == target.rep

    def test_string_of_length_three_rejected(self):
        # path 0 -> a -> b -> 1 alternating in the only color, plus solid
        # edges making the ends 3-valent
        records = (
            (0, 2, 1),
            (3, 2, 1),
            (3, 4, 1),
            (0, 4, 1),
            (0, 4, 1),
        )
        # vertex 2: edges 1,2 head into it (not passing); vertex 3: edges
        # 2,3 leave it (not passing) -> both weakly passing, string length 3
        g = ColoredGraph(5, 1, records)
        with pytest.raises(ValueError):
            extract_skeleton(g)


class TestDottedDifferential:
    def test_no_dotted_empty(self):
        sg = make_skeleton(2, [(0, 1)], [], k=0)
        assert dotted_differential(sg, EVEN).is_zero()

    def test_single_dotted_replacement(self):
        # two solids plus one dotted between two vertices: the reversed
        # replacement closes a last-color 2-cycle and drops, leaving the
        # all-solid triple once
        sg = make_skeleton(2, [(0, 1), (0, 1)], [(0, 1)], k=0)
        vec = dotted_differential(sg, ODD)
        assert len(vec) == 1
        ((rep, coeff),) = vec.terms.items()
        assert rep.n_solid == 3 and rep.n_dotted == 0

    def test_well_defined_on_zero_class(self):
        # the triple dotted graph is a zero class; its image collects to 0
        for parity in (EVEN, ODD):
            assert dotted_differential(TRIPLE_DOTTED, parity).is_zero()
            assert skeleton_differential(TRIPLE_DOTTED, parity).is_zero()

    def test_crossed_combination_killed(self):
        # contracting the two string edges of the symmetric (crossed)
        # combination cancels exactly, for context graphs drawn from a
        # genuine expansion
        for parity in (EVEN, ODD):
            plain = expand_dotted(make_skeleton(2, [(0, 1), (0, 1)], [(0, 1)], k=0), parity)
            if plain.is_zero():
                continue
            for base_rep, _ in plain.terms.items():
                z = base_rep.v
                local = TermVector()
                for cfg in (0, 1):
                    if cfg == 0:
                        extra = [(0, z, 1), (1, z, 1)]
                    else:
                        extra = [(z, 0, 1), (z, 1, 1)]
                    g = ColoredGraph(z + 1, 1, tuple(list(base_rep.records) + extra))
                    for t in (g.e - 1, g.e):
                        local.add_vector(contract_edge(g, t, parity), Fraction(1, 2))
                assert local.is_zero()


class TestContractSolid:
    def test_index_out_of_range_rejected(self):
        # as contract_edge rejects an edge label outside 1..e
        for j in (-1, SOLID_PLUS_TWO_DOTTED.n_solid):
            with pytest.raises(ValueError, match="out of range"):
                contract_solid(SOLID_PLUS_TWO_DOTTED, j, EVEN)


def expanded_differential(vec: TermVector, parity) -> TermVector:
    """Differential of an expanded vector inside the ambient no-passing
    quotient of the full complex."""
    out = TermVector()
    for rep, coeff in vec.terms.items():
        out.add_vector(differential_in_slice(rep, parity, REDUCED_CONSTRAINTS), coeff)
    return out


class TestExpansionCompatibility:
    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_k0_exact(self, parity):
        cases = [
            TRIPLE_DOTTED,
            SOLID_PLUS_TWO_DOTTED,
            make_skeleton(2, [(0, 1), (0, 1)], [(0, 1)], k=0),
            make_skeleton(4, [(0, 1), (0, 2), (0, 3)], [(1, 2), (1, 3), (2, 3)], k=0),
            make_skeleton(3, [(0, 1), (0, 2), (1, 2)], [(1, 2), (0, 1)], k=0),
            make_skeleton(2, [(0, 1)], [(0, 0), (1, 1)], k=0),
        ]
        for sg in cases:
            assert is_valid_special(sg)
            lhs = TermVector()
            for rep, coeff in skeleton_differential(sg, parity).terms.items():
                lhs.add_vector(expand_dotted(rep, parity), coeff)
            rhs = expanded_differential(expand_dotted(sg, parity), parity)
            assert lhs == rhs, f"expansion compatibility fails on {sg}"

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_k1_exact_modulo_unreduced_strings(self, parity):
        # for k = 1 the contraction of a solid edge joining two 2-valent
        # vertices leaves the solid/dotted span; the native differential
        # projects those terms away, so the expanded difference must
        # consist of graphs with weakly passing vertices only
        shapes = [(3, 2, 2), (3, 3, 1), (4, 3, 2)]
        checked = 0
        for v, s, d in shapes:
            for sg in all_valid_shapes(v, s, d, 1, parity.value)[:12]:
                lhs = TermVector()
                for rep, coeff in skeleton_differential(sg, parity).terms.items():
                    lhs.add_vector(expand_dotted(rep, parity), coeff)
                rhs = expanded_differential(expand_dotted(sg, parity), parity)
                diff = TermVector()
                diff.add_vector(rhs)
                diff.add_vector(lhs, -1)
                for rep in diff.terms:
                    assert any(is_weakly_passing(rep, x) for x in range(rep.v))
                checked += 1
        assert checked > 10


class TestSkeletonDsquared:
    @pytest.mark.parametrize(
        "k,n,b,u_max",
        # (1, 0, 1, 6): the even-parity string rewrite of contract_solid
        # first meets a d^2 product at u = 6
        [(0, 0, 1, 5), (0, 1, 1, 5), (0, 0, 2, 8), (0, 1, 2, 8), (1, 0, 1, 4), (1, 1, 1, 4), (1, 0, 1, 6)],
    )
    def test_dsquared_zero(self, k, n, b, u_max):
        slices = {
            u: skeleton_degree_slice(b, u, k, n, SkeletonFamily.SPECIAL)
            for u in range(1, u_max + 1)
        }
        mats = {}
        for u in range(2, u_max + 1):
            if len(slices[u]) and len(slices[u - 1]):
                mats[u] = skeleton_differential_matrix(slices[u], slices[u - 1])
        products = 0
        for u in range(3, u_max + 1):
            if u in mats and (u - 1) in mats:
                assert (mats[u - 1] @ mats[u]).is_zero(), f"d^2 != 0 at u={u} b={b} k={k} n={n}"
                products += 1
        if (k, b) == (0, 2):
            assert products > 0


class TestSubfamilies:
    def test_tadpole_subcomplex_acyclic_small(self):
        rows, _ = skeleton_homology_dims(1, 0, 1, SkeletonFamily.TADPOLE_SUB, u_max=6)
        assert all(dim == 0 for _, dim in rows)

    def test_multi_subcomplex_acyclic_small(self):
        rows, _ = skeleton_homology_dims(1, 0, 1, SkeletonFamily.MULTI_SUB, u_max=6)
        assert all(dim == 0 for _, dim in rows)

    def test_quotient_differential_squares_to_zero(self):
        # the projected differential of the no-tadpole no-multi quotient
        # is itself a differential (the quotient is well defined)
        slices = {
            u: skeleton_degree_slice(2, u, 0, 1, SkeletonFamily.SIMPLE)
            for u in range(5, 9)
        }
        mats = {
            u: skeleton_differential_matrix(slices[u], slices[u - 1])
            for u in range(6, 9)
            if len(slices[u]) and len(slices[u - 1])
        }
        checked = 0
        for u in range(7, 9):
            if u in mats and (u - 1) in mats:
                assert (mats[u - 1] @ mats[u]).is_zero()
                checked += 1
        assert checked
