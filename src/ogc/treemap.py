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
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    CanonicalClass,
    ColoredGraph,
    Parity,
    TermVector,
    _pairs_connected,
    is_connected,
    perm_parity,
    valence,
)
from .complexes import (
    BasisSlice,
    REDUCED_CONSTRAINTS,
    differential_in_slice,
)
from .linalg import SparseRationalMatrix, homology, kernel_basis, matrix_from_columns, matrix_of, rank
from .skeleton import (
    SkeletonDegreeSlice,
    SkeletonFamily,
    SkeletonGraph,
    canonicalize_skeleton,
    expand_dotted,
    has_dotted_tadpole,
    has_multiple_edge,
    project_to_simple,
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


def tree_count_oracle(g: ColoredGraph) -> int:
    """Matrix-tree count: determinant of the reduced Laplacian."""
    n = g.v
    lap = [[Fraction(0)] * n for _ in range(n)]
    for rec in g.records:
        t, h = rec[0], rec[1]
        lap[t][t] += 1
        lap[h][h] += 1
        lap[t][h] -= 1
        lap[h][t] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    size = n - 1
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            for cc in range(c, size):
                m[r][cc] -= f * m[c][cc]
    return int(det)


@dataclass(frozen=True)
class TreeImage:
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
    sign = 1
    if n_parity is Parity.ODD and x & 1:
        sign = -sign
    records = tuple((shift[r[0]], shift[r[1]]) + r[2:] for r in g.records)
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
        solid_raw.append((child, par, cs))
    if n_parity is Parity.ODD and reversals & 1:
        sign = -sign
    non_tree = [i for i in range(e) if i not in tree_set]
    skeleton_names = sorted(name[y] for y in range(v))
    my_index = {}
    rank_of = {nm: i for i, nm in enumerate(skeleton_names)}
    for y in range(v):
        my_index[y] = rank_of[name[y]]
    # the name-order interleaves skeleton and middle labels; bringing it
    # to the skeleton-then-middles layout costs a sign in the image
    # parity where vertices are odd
    middle_names = [i + 1 for i in non_tree]
    layout = skeleton_names + middle_names
    position = {nm: i for i, nm in enumerate(layout)}
    rho = [position[nm] for nm in range(e + 1)]
    if m_parity is Parity.ODD and perm_parity(rho) < 0:
        sign = -sign
    solid_records = []
    for child, par, cs in sorted(solid_raw, key=lambda s: s[0]):
        solid_records.append((my_index[par], my_index[child]) + cs)
    dotted_records = []
    for i in non_tree:
        rec = records[i]
        dotted_records.append((my_index[rec[0]], my_index[rec[1]]) + rec[2:])
    sk = SkeletonGraph(v, k, tuple(solid_records), tuple(dotted_records))
    cls = canonicalize_skeleton(sk, m_parity)
    if not cls.is_zero:
        cls = CanonicalClass(cls.rep, cls.sign * sign)
    return TreeImage(g, x, tree, reversals, cls)


def spanning_tree_map(g: ColoredGraph, n_parity: Parity, project=True) -> TermVector:
    """Sum over roots and spanning trees, weighted by valence - 2.

    With ``project`` the result passes through the tadpole/multi-edge
    quotient of the image parity; image graphs of multiplicity-free
    sources never hit it.
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
    projected = TermVector()
    for rep, coeff in out.terms.items():
        cls = project_to_simple(rep, m_parity)
        projected.add_class(cls, coeff)
    return projected


@dataclass
class ChainMapReport:
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
    vacuous = True
    if m_parity is Parity.ODD:
        for rep in hvec.terms:
            if has_dotted_tadpole(rep) or has_multiple_edge(rep):
                vacuous = False
    return ChainMapReport(
        graph=g,
        native_equal=native_equal,
        expanded_equal=expanded_equal,
        projection_vacuous=vacuous,
        lhs_terms=len(lhs),
        rhs_terms=len(rhs),
    )


class ImageClosureError(RuntimeError):
    pass


def induced_matrix(src: BasisSlice, dst: SkeletonDegreeSlice) -> SparseRationalMatrix:
    """Coordinates of the map on one source slice: column j is the image
    of basis element j in the degree slice one loop order up."""
    n_parity = src.params.parity
    return matrix_of(
        lambda g: spanning_tree_map(g, n_parity, project=True),
        src.basis,
        dst.basis,
        lambda rep: ImageClosureError(f"image term missing from target slice u={dst.u}: {rep}"),
    )


@dataclass
class QuasiIsoRow:
    v: int
    u: int
    degree: int
    dim_source: int
    dim_target: int
    induced_iso: bool

    @property
    def ok(self):
        return self.dim_source == self.dim_target and self.induced_iso


@dataclass
class QuasiIsoReport:
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
    from .complexes import SliceParams, differential_matrix, enumerate_basis

    if k != 0:
        raise ValueError("the exact end-to-end comparison is implemented for k = 0 sources")
    n_parity = Parity.from_n(n)
    family = SkeletonFamily.SIMPLE
    v_hi = 2 * b
    gc = {}
    for v in range(1, v_hi + 2):
        e = v + b
        if e < 0:
            continue
        gc[v] = enumerate_basis(
            SliceParams(v, e, 0, n, REDUCED_CONSTRAINTS), force=force
        )
    u_hi = 5 * b
    sk = {
        u: skeleton_degree_slice(b, u, 0, n + 1, family, force=force)
        for u in range(1, u_hi + 2)
    }
    gc_mat, gc_dims = homology(gc, differential_matrix)
    sk_mat, sk_dims = homology(sk, skeleton_differential_matrix)
    rows = []
    for u in range(1, u_hi + 1):
        v = u - b - 1
        dim_t = sk_dims[u]
        dim_s = gc_dims.get(v, 0)
        induced_ok = True
        if dim_s or dim_t:
            induced_ok = _induced_iso(gc, gc_mat, sk, sk_mat, v, u, dim_s, dim_t)
        degree = u - (n + 1) + (1 - (n + 1)) * b
        rows.append(QuasiIsoRow(v, u, degree, dim_s, dim_t, induced_ok))
    return QuasiIsoReport(b, k, n, rows)


def _induced_iso(gc, gc_mat, sk, sk_mat, v, u, dim_s, dim_t):
    if dim_s != dim_t:
        return False
    src = gc.get(v)
    if src is None or not len(src):
        return dim_t == 0
    if v in gc_mat:
        cycles = kernel_basis(gc_mat[v])
    else:
        cycles = [{j: Fraction(1)} for j in range(len(src))]
    images = induced_matrix(src, sk[u]) @ matrix_from_columns(len(src), cycles)
    return _rank_mod_boundaries(sk, sk_mat, u, images.columns()) == dim_s


def _rank_mod_boundaries(sk, sk_mat, u, columns):
    """Rank of the columns of slice u modulo the boundaries from u + 1."""
    boundaries = sk_mat[u + 1].columns() if (u + 1) in sk_mat else []
    base = rank(matrix_from_columns(len(sk[u]), boundaries))
    return rank(matrix_from_columns(len(sk[u]), boundaries + columns)) - base


def image_homology_class_nonzero(g_slice: BasisSlice, element_index: int, sk_slices, sk_mats, u) -> bool:
    """Whether one basis element's image survives modulo boundaries."""
    m = induced_matrix(
        BasisSlice(g_slice.params, (g_slice.basis[element_index],), g_slice.degree),
        sk_slices[u],
    )
    return _rank_mod_boundaries(sk_slices, sk_mats, u, m.columns()[:1]) == 1
