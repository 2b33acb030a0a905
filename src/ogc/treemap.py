"""The spanning-tree comparison map into the solid/dotted complex.

For a graph with k colors, a chosen root x and a spanning tree, the
image graph keeps the source as its skeleton: tree edges become solid
and are oriented away from the root in the new last color, non-tree
edges become dotted with their intrinsic arrow kept, and all base
colors survive unchanged.  The map raises the grading parameter by one,
so all image-side signs live in the opposite parity.

Labeling of the image (normative for signs): the root is relabeled 0 in
the source first; image vertices take the source labels of the tree
edge heading into them, middle vertices of dotted edges take the label
of their source edge; solid edges take the source label of their head
vertex, and the string-edge pairs are numbered consecutively afterwards
with the lower number at the arrow tail.  Everything is multiplied by
(-1)^(n*r) with r the number of tree edges oriented against their
former intrinsic direction.
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
    perm_parity,
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
    """One signed image term: root, tree, reversal count, and the
    canonical class (its sign folds in every convention above)."""

    source: ColoredGraph
    root: int
    tree: tuple
    reversals: int
    image: CanonicalClass


def tree_image(g: ColoredGraph, x: int, tree, n_parity: Parity) -> TreeImage:
    """The single-tree map for root x; image parity is the flip of the
    source parity."""
    tree = tuple(sorted(tree))
    m_parity = n_parity.flipped
    v, e, k = g.v, g.e, g.k
    if not (0 <= x < v):
        raise ValueError(f"root {x} out of range")
    # source-side relabeling putting the root at 0 (cyclic shift)
    shift = {y: (0 if y == x else y + 1 if y < x else y) for y in range(v)}
    sign = shift_sign(x, VERTICES_ODD, n_parity)
    records = relabel_records(g.records, shift)
    # root the tree: parent[child] = (edge index, away_from_root_is_intrinsic)
    adj = {y: [] for y in range(v)}
    tree_set = set(tree)
    for i in tree:
        t, h = records[i][0], records[i][1]
        adj[t].append((i, h))
        adj[h].append((i, t))
    if len(tree) != v - 1:
        raise ValueError("tree must have v - 1 edges")
    parent_edge = {}
    order = [0]
    seen = {0}
    while order:
        cur = order.pop()
        for i, other in adj[cur]:
            if other not in seen:
                seen.add(other)
                parent_edge[other] = (i, cur)
                order.append(other)
    if len(seen) != v:
        raise ValueError("edges do not span the graph")
    # image vertex names: 0 for the root, the incoming tree edge label
    # for other skeleton vertices, the source edge label for middles
    name = {0: 0}
    reversals = 0
    solid_raw = []
    for child, (i, par) in parent_edge.items():
        name[child] = i + 1
        rec = records[i]
        if rec[0] == par:
            cs = rec[2:]
        else:
            cs = tuple(-s for s in rec[2:])
            reversals += 1
        solid_raw.append((par, child) + cs)
    sign *= shift_sign(reversals, GRAPH_KINDS[0].reversal_odd, n_parity)
    non_tree = [i for i in range(e) if i not in tree_set]
    skeleton_names = sorted(name[y] for y in range(v))
    rank_of = {nm: i for i, nm in enumerate(skeleton_names)}
    my_index = {y: rank_of[name[y]] for y in range(v)}
    # the name-order interleaves skeleton and middle labels; bringing it
    # to the skeleton-then-middles layout costs a sign in the image
    # parity where vertices are odd
    middle_names = [i + 1 for i in non_tree]
    layout = skeleton_names + middle_names
    position = {nm: i for i, nm in enumerate(layout)}
    rho = [position[nm] for nm in range(e + 1)]
    if m_parity is Parity.ODD and perm_parity(rho) < 0:
        sign = -sign
    # solid records in the order of their heads' source labels
    solid_records = relabel_records(sorted(solid_raw, key=lambda r: r[1]), my_index)
    dotted_records = relabel_records([records[i] for i in non_tree], my_index)
    sk = SkeletonGraph(v, k, solid_records, dotted_records)
    cls = canonicalize_skeleton(sk, m_parity)
    if not cls.is_zero:
        cls = CanonicalClass(cls.rep, cls.sign * sign)
    return TreeImage(g, x, tree, reversals, cls)


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
    graph: ColoredGraph
    native_equal: bool
    expanded_equal: bool
    projection_vacuous: bool
    lhs_terms: int
    rhs_terms: int

    @property
    def ok(self):
        return self.native_equal and self.expanded_equal


def verify_chain_map(g: ColoredGraph, n_parity: Parity, expanded=True) -> ChainMapReport:
    """Check that mapping then differentiating equals differentiating
    then mapping, natively and (optionally) through the expansion.

    The expanded comparison canonicalizes graphs on e + 1 vertices, so
    it is worth skipping on larger inputs once the native path is
    trusted."""
    m_parity = n_parity.flipped
    hvec = spanning_tree_map(g, n_parity, project=False)
    lhs = hvec.mapped(lambda rep: skeleton_differential(rep, m_parity))
    rhs = differential_in_slice(g, n_parity, REDUCED_CONSTRAINTS).mapped(
        lambda rep: spanning_tree_map(rep, n_parity, project=False)
    )
    native_equal = lhs == rhs
    expanded_equal = native_equal
    if expanded:
        def expand(rep):
            return expand_dotted(rep, m_parity)

        expanded_equal = lhs.mapped(expand) == rhs.mapped(expand)
    vacuous = not any(quotient_kills(rep, SkeletonFamily.SIMPLE, m_parity) for rep in hvec.terms)
    return ChainMapReport(
        graph=g,
        native_equal=native_equal,
        expanded_equal=expanded_equal,
        projection_vacuous=vacuous,
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
