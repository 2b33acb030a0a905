"""The spanning-tree comparison map into the solid/dotted complex.

For a graph with k colors, a chosen root x and a spanning tree, the
image graph keeps the source as its skeleton: tree edges become solid
and are oriented away from the root in the new last color, non-tree
edges become dotted with their intrinsic arrow kept, and all base
colors survive unchanged.  The map raises the grading parameter by one,
so all image-side signs live in the opposite parity.

Labeling of the image (normative for signs): the root takes name 0,
every other skeleton vertex the label of the tree edge heading into it,
and the middle vertex of each dotted edge the label of its source edge;
solid edges take the source label of their head vertex, and the
string-edge pairs are numbered consecutively afterwards with the lower
number at the arrow tail.  The sign is the product of three shifts:
(-1)^(n*x) for moving the root x to the front, (-1)^(n*r) with r the
number of tree edges oriented against their former intrinsic direction,
and, when image vertices are odd, a -1 for each non-tree label below a
tree label: the swaps that bring the names into the
skeleton-then-middles order of ``skeleton.expand_dotted``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .graphs import (
    CanonicalClass,
    ColoredGraph,
    Parity,
    TermVector,
    GRAPH_KINDS,
    VERTICES_ODD,
    _pairs_connected,
    is_connected,
    relabel_records,
    shift_sign,
    valence,
)
from .complexes import (
    BasisSlice,
    REDUCED_CONSTRAINTS,
    differential_in_slice,
    differential_matrix,
    slice_chain,
)
from .linalg import SparseRationalMatrix, homology, induced_rank, matrix_of, rank
from .skeleton import (
    SkeletonDegreeSlice,
    SkeletonFamily,
    SkeletonGraph,
    canonicalize_skeleton,
    expand_dotted,
    quotient_kills,
    skeleton_degree_slice,
    skeleton_differential,
    skeleton_differential_matrix,
)


def spanning_trees(g: ColoredGraph):
    """All spanning trees as sorted tuples of 0-based edge indices, in
    lexicographic order: the (v - 1)-subsets of the edges that connect all
    vertices.  Parallel edges count separately.  Raises on disconnected
    input.
    """
    if not is_connected(g):
        raise ValueError("spanning trees need a connected graph")
    return [
        tree
        for tree in itertools.combinations(range(g.e), g.v - 1)
        if _pairs_connected(g.v, [g.records[i][:2] for i in tree])
    ]


class TreeImage(NamedTuple):
    """One signed image term: the reversal count and the canonical class
    (its sign folds in every convention above)."""

    reversals: int
    image: CanonicalClass


def tree_image(g: ColoredGraph, x: int, tree, n_parity: Parity) -> TreeImage:
    """The single-tree map for root x; image parity is the flip of the
    source parity."""
    tree = tuple(sorted(tree))
    v = g.v
    if not (0 <= x < v):
        raise ValueError(f"root {x} out of range")
    if len(tree) != v - 1 or not all(0 <= i < g.e for i in tree):
        raise ValueError(f"tree must be v - 1 edge indices in 0..{g.e - 1}")
    # orient the tree away from x; each other vertex is named by the rank
    # of its incoming tree edge, which orders as that edge's label does
    lab = [None] * v
    lab[x] = 0
    solid = []
    reversals = 0
    frontier = [x]
    while frontier:
        par = frontier.pop()
        for pos, i in enumerate(tree):
            rec = g.records[i]
            if par not in rec[:2]:
                continue
            child = rec[1] if rec[0] == par else rec[0]
            if lab[child] is not None:
                continue
            lab[child] = pos + 1
            if rec[0] == par:
                solid.append(rec)
            else:
                solid.append((par, child) + tuple(-s for s in rec[2:]))
                reversals += 1
            frontier.append(child)
    if None in lab:
        raise ValueError("edges do not span the graph")
    # moving the root to label 0, the reversals, and the crossings of tree
    # edge labels over the lower non-tree labels that become middles
    sign = (
        shift_sign(x, VERTICES_ODD, n_parity)
        * shift_sign(reversals, GRAPH_KINDS[0].reversal_odd, n_parity)
        * shift_sign(sum(i - pos for pos, i in enumerate(tree)), VERTICES_ODD, n_parity.flipped)
    )
    tree_set = set(tree)
    sk = SkeletonGraph(
        v,
        g.k,
        relabel_records(sorted(solid, key=lambda r: r[1]), lab),
        relabel_records([r for i, r in enumerate(g.records) if i not in tree_set], lab),
    )
    cls = canonicalize_skeleton(sk, n_parity.flipped)
    if not cls.is_zero:
        cls = CanonicalClass(cls.rep, cls.sign * sign)
    return TreeImage(reversals, cls)


def spanning_tree_map(g: ColoredGraph, n_parity: Parity, project=True) -> TermVector:
    """Sum over roots and spanning trees, weighted by valence - 2.

    With ``project`` the result passes through the tadpole/multi-edge
    quotient of the image parity; image graphs of multiplicity-free
    sources never hit it.  The terms are canonical already, so the
    quotient only drops the ones it kills.
    """
    m_parity = n_parity.flipped
    out = TermVector()
    trees = spanning_trees(g)
    for x in range(g.v):
        weight = valence(g, x) - 2
        if weight == 0:
            continue
        for tree in trees:
            term = tree_image(g, x, tree, n_parity)
            if term.image.is_zero:
                continue
            out.add(term.image.rep, Fraction(weight) * term.image.sign)
    if not project:
        return out
    return out.without(lambda rep: quotient_kills(rep, SkeletonFamily.SIMPLE, m_parity))


class ChainMapReport(NamedTuple):
    native_equal: bool
    expanded_equal: bool
    projection_vacuous: bool
    lhs_terms: int
    rhs_terms: int

    @property
    def ok(self):
        return self.native_equal and self.expanded_equal


def verify_chain_map(g: ColoredGraph, n_parity: Parity) -> ChainMapReport:
    """Check that mapping then differentiating equals differentiating
    then mapping, natively and through the expansion."""
    m_parity = n_parity.flipped
    hvec = spanning_tree_map(g, n_parity, project=False)
    lhs = hvec.mapped(lambda rep: skeleton_differential(rep, m_parity))
    rhs = differential_in_slice(g, n_parity, REDUCED_CONSTRAINTS).mapped(
        lambda rep: spanning_tree_map(rep, n_parity, project=False)
    )

    def expand(rep):
        return expand_dotted(rep, m_parity)

    return ChainMapReport(
        native_equal=lhs == rhs,
        expanded_equal=lhs.mapped(expand) == rhs.mapped(expand),
        projection_vacuous=not any(quotient_kills(rep, SkeletonFamily.SIMPLE, m_parity) for rep in hvec.terms),
        lhs_terms=len(lhs),
        rhs_terms=len(rhs),
    )


def induced_matrix(src: BasisSlice, dst: SkeletonDegreeSlice) -> SparseRationalMatrix:
    """Coordinates of the map on one source slice: column j is the image
    of basis element j in the degree slice one loop order up."""
    n_parity = src.params.parity
    return matrix_of(
        lambda g: spanning_tree_map(g, n_parity, project=True),
        src.basis,
        dst.basis,
        f"image term missing from target slice u={dst.u}",
    )


class QuasiIsoRow:
    """One degree of the comparison: source slice v, target slice u, their
    homology dimensions and whether the induced map is an isomorphism."""

    __slots__ = ("v", "u", "degree", "dim_source", "dim_target", "induced_iso")

    def __init__(self, v: int, u: int, degree: int, dim_source: int, dim_target: int, induced_iso: bool):
        self.v, self.u, self.degree = v, u, degree
        self.dim_source, self.dim_target, self.induced_iso = dim_source, dim_target, induced_iso

    @property
    def ok(self):
        return self.dim_source == self.dim_target and self.induced_iso


class QuasiIsoReport(NamedTuple):
    b: int
    k: int
    n: int
    rows: list

    @property
    def ok(self):
        return all(r.ok for r in self.rows)


def verify_quasi_iso(b: int, k: int, n: int, force=False) -> QuasiIsoReport:
    """Degree-by-degree homology comparison for one loop order, plus the
    check that the induced map on homology is an isomorphism.

    Only the k = 0 source is naturally bounded (vertices at most 2b); the
    whole chain is finite there and the comparison is exact.
    """
    if k != 0:
        raise ValueError("the exact end-to-end comparison is implemented for k = 0 sources")
    chain = slice_chain(b, 0, n, REDUCED_CONSTRAINTS, v_max=2 * b + 1, force=force)
    gc = {sl.params.v: sl for sl in chain}
    u_hi = 5 * b
    sk = {
        u: skeleton_degree_slice(b, u, 0, n + 1, SkeletonFamily.SIMPLE, force=force)
        for u in range(1, u_hi + 2)
    }
    gc_mat, gc_ranks, gc_dims = homology(gc, differential_matrix)
    sk_mat, sk_ranks, sk_dims = homology(sk, skeleton_differential_matrix)
    rows = []
    for u in range(1, u_hi + 1):
        v = u - b - 1
        dim_t = sk_dims[u]
        dim_s = gc_dims.get(v, 0)
        # the images of the cycles of slice v must span dim_s dimensions
        # modulo the boundaries into slice u
        induced_ok = dim_s == dim_t
        if induced_ok and dim_s:
            images = induced_matrix(gc[v], sk[u])
            d_src = gc_mat.get(v, SparseRationalMatrix(0, images.cols))
            d_sk = sk_mat.get(u + 1, SparseRationalMatrix(images.rows, 0))
            induced_ok = induced_rank(d_src, images, d_sk, gc_ranks.get(v, 0), sk_ranks.get(u + 1, 0)) == dim_s
        rows.append(QuasiIsoRow(v, u, sk[u].degree, dim_s, dim_t, induced_ok))
    return QuasiIsoReport(b, k, n, rows)


def image_homology_class_nonzero(g_slice: BasisSlice, element_index: int, sk_slices, sk_mats, u) -> bool:
    """Whether one basis element's image survives modulo boundaries."""
    image = induced_matrix(
        BasisSlice(g_slice.params, (g_slice.basis[element_index],), g_slice.degree),
        sk_slices[u],
    )
    boundaries = sk_mats.get(u + 1, SparseRationalMatrix(len(sk_slices[u]), 0))
    return induced_rank(SparseRationalMatrix(0, 1), image, boundaries, 0, rank(boundaries)) == 1
