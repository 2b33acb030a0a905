"""The oriented complex with solid and dotted edges.

A SkeletonGraph has two kinds of edges.  A solid edge is an ordinary
edge whose record direction *is* its orientation in the distinguished
last color (color k+1); it also carries the k base color signs.  A
dotted edge stands for the antisymmetric half-difference of the two
length-2 strings through a middle vertex that alternate in the last
color; its record direction is the arrow from the lower-labeled string
edge to the higher one, and it carries base color signs only.

Parities (m is the complex's own grading parameter):

* vertices are odd for m odd,
* solid edge labels are odd for m even,
* dotted edge labels are odd for m odd (same parity as vertices),
* reversing a dotted arrow is odd for m even (opposite parity),
* solid arrows are pinned to the last color and are never reversed.

These rules are declared as the two edge kinds ``graphs.SKELETON_KINDS``,
and the graph module's typed-edge kernel applies them, so canonical forms,
classes (``graphs.CanonicalClass``) and bases of both complexes come from
the same code.

All differential signs below are anchored to the expanded picture in
the full (k+1)-colored complex, where middle vertices are labeled after
all skeleton vertices, in dotted-record order, and each dotted edge
expands to two consecutively labeled edges with the lower label on the
arrow-tail side.  ``expand_dotted`` realizes exactly that labeling, so
compatibility with the full differential is testable term by term.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from typing import NamedTuple

from .graphs import (
    SKELETON_KINDS,
    VERTICES_ODD,
    ZERO,
    CanonicalClass,
    ColoredGraph,
    Parity,
    TermVector,
    _arcs_acyclic,
    _canonical_form,
    _color_acyclic,
    _colored_classes,
    _orbit_reps,
    _pair_degrees,
    _pairs_connected,
    _passing_in_color,
    canonicalize,
    merge_labels,
    relabel_records,
    shift_sign,
)
from .complexes import SHAPE_BOUNDS
from .linalg import SparseRationalMatrix, homology, matrix_of

SOLID, DOTTED = SKELETON_KINDS


class SkeletonGraph(NamedTuple):
    """Two-kind graph: ``solid[i]`` and ``dotted[i]`` are flat records
    ``(tail, head, s_1, ..., s_k)`` carrying the k base color signs."""

    v: int
    k: int
    solid: tuple
    dotted: tuple

    @property
    def n_solid(self):
        return len(self.solid)

    @property
    def n_dotted(self):
        return len(self.dotted)

    def __lt__(self, other):
        return sk_sort_key(self) < sk_sort_key(other)


def sk_sort_key(sg: SkeletonGraph):
    return (
        sg.v,
        sg.k,
        len(sg.solid),
        len(sg.dotted),
        tuple(r[:2] for r in sg.solid),
        tuple(r[:2] for r in sg.dotted),
        tuple(r[2:] for r in sg.solid),
        tuple(r[2:] for r in sg.dotted),
    )


def make_skeleton(v, solid, dotted, k=None):
    solid = tuple(tuple(r) for r in solid)
    dotted = tuple(tuple(r) for r in dotted)
    if k is None:
        sample = solid + dotted
        k = len(sample[0]) - 2 if sample else 0
    return SkeletonGraph(v, k, solid, dotted)


def canonicalize_skeleton(sg: SkeletonGraph, parity: Parity) -> CanonicalClass:
    """Canonical representative of sg's signed class, or ZERO: the graph
    engine on the solid and dotted kinds (``SKELETON_KINDS``)."""
    out = _canonical_form(sg.v, (sg.solid, sg.dotted), SKELETON_KINDS, parity)
    if out is None:
        return ZERO
    (solid, dotted), sign = out
    return CanonicalClass(SkeletonGraph(sg.v, sg.k, solid, dotted), sign)


# ---------------------------------------------------------------------------
# structural predicates


def _sk_last_color_acyclic(sg):
    return _arcs_acyclic(sg.v, [(r[0], r[1]) for r in sg.solid])


def is_valid_special(sg: SkeletonGraph) -> bool:
    """Membership in the solid/dotted complex: connected, no cycles in
    any color, no solid tadpoles, every vertex at least 3-valent or
    2-valent but not passing in some base color, and at least one vertex
    at least 3-valent."""
    if sg.v < 1:
        return False
    if any(r[0] == r[1] for r in sg.solid):
        return False
    if not _pairs_connected(sg.v, [r[:2] for r in sg.solid + sg.dotted]):
        return False
    for c in range(1, sg.k + 1):
        if not _color_acyclic(sg.v, sg.solid + sg.dotted, c):
            return False
    if not _sk_last_color_acyclic(sg):
        return False
    some_big = False
    for x, val in enumerate(_pair_degrees(sg.v, [r[:2] for r in sg.solid + sg.dotted])):
        if val >= 3:
            some_big = True
            continue
        if val < 2:
            return False
        if all(_passing_in_color(sg.solid + sg.dotted, x, c) for c in range(1, sg.k + 1)):
            # passing in every base color: either fully passing or an
            # unreduced string interior; excluded either way
            return False
    return some_big


def has_dotted_tadpole(sg):
    return any(r[0] == r[1] for r in sg.dotted)


def has_multiple_edge(sg):
    seen = set()
    for rec in sg.solid + sg.dotted:
        key = (rec[0], rec[1]) if rec[0] < rec[1] else (rec[1], rec[0])
        if key in seen:
            return True
        seen.add(key)
    return False


class SkeletonFamily(enum.Enum):
    SPECIAL = "special"            # the full solid/dotted complex
    SIMPLE = "simple"              # quotient without tadpoles or multiple edges
    TADPOLE_SUB = "tadpole_sub"    # graphs with a dotted tadpole
    MULTI_SUB = "multi_sub"        # no tadpole, at least one multiple edge


def quotient_kills(sg, family, parity):
    """Whether the family's quotient sends sg to zero: the odd-parity
    SIMPLE quotient kills dotted tadpoles and multiple edges, and MULTI_SUB
    kills dotted tadpoles.  The other families are subcomplexes."""
    if family is SkeletonFamily.SIMPLE:
        return parity is Parity.ODD and (has_dotted_tadpole(sg) or has_multiple_edge(sg))
    return family is SkeletonFamily.MULTI_SUB and has_dotted_tadpole(sg)


# ---------------------------------------------------------------------------
# the differential


def contract_solid(sg: SkeletonGraph, j: int, parity: Parity) -> TermVector:
    """Contract the 0-based solid edge j, projecting the result back into
    the solid/dotted span.  Empty vector for terms that die."""
    S, D = sg.n_solid, sg.n_dotted
    if not (0 <= j < S):
        raise ValueError(f"solid edge {j} out of range 0..{S - 1}")
    x, y = sg.solid[j][:2]
    out = TermVector()
    sign = shift_sign(sg.v + D - 1 - y, VERTICES_ODD, parity) * shift_sign(S - 1 - j, SOLID.labels_odd, parity)
    lab = merge_labels(sg.v, x, y)
    new_solid = relabel_records(sg.solid, lab, j)
    new_dotted = relabel_records(sg.dotted, lab)
    v_new = sg.v - 1
    candidate = SkeletonGraph(v_new, sg.k, new_solid, new_dotted)
    records = new_solid + new_dotted
    for c in range(1, sg.k + 1):
        if not _color_acyclic(v_new, records, c):
            return out
    if not _sk_last_color_acyclic(candidate):
        return out
    # the merged vertex p stays unless it is 2-valent and passing in every
    # base color: then a dotted edge at p, or two solids that also pass p
    # in the last color, project to zero, and two solids co-oriented at p
    # form a length-2 string whose antisymmetric part is one dotted edge
    p = lab[y]
    ends = [i for i, rec in enumerate(records) for end in rec[:2] if end == p]
    if len(ends) != 2 or not all(_passing_in_color(records, p, c) for c in range(1, sg.k + 1)):
        out.add_class(canonicalize_skeleton(candidate, parity), sign)
        return out
    i1, i2 = ends
    if i2 >= len(new_solid):
        return out
    r1, r2 = new_solid[i1], new_solid[i2]
    into = r1[1] == p
    if into != (r2[1] == p):
        return out
    # p becomes the new middle vertex and the solids i1 < i2 its string
    # edges, each moved to the last labels; the dotted arrow runs from
    # i1's far end to i2's and takes i1's colors oriented into p, with a
    # -1 when both solids leave p
    far = 0 if into else 1
    row = r1[2:] if into else tuple(-s for s in r1[2:])
    sign *= (1 if into else -1) * shift_sign(v_new + D - 1 - p, VERTICES_ODD, parity)
    sign *= shift_sign(i1 + i2 + 1, SOLID.labels_odd, parity)
    closed = merge_labels(v_new, p, p)
    rest_solid = relabel_records(new_solid[:i2] + new_solid[i2 + 1 :], closed, i1)
    rest_dotted = relabel_records(new_dotted, closed)
    new_rec = (closed[r1[far]], closed[r2[far]]) + row
    rewritten = SkeletonGraph(v_new - 1, sg.k, rest_solid, rest_dotted + (new_rec,))
    out.add_class(canonicalize_skeleton(rewritten, parity), sign)
    return out


def dotted_differential(sg: SkeletonGraph, parity: Parity) -> TermVector:
    """Replace each dotted edge by a solid one minus (-1)^m the reversed
    solid one, in the last color, keeping the base colors."""
    out = TermVector()
    D = sg.n_dotted
    for j, rec in enumerate(sg.dotted):
        x, y, cs = rec[0], rec[1], rec[2:]
        pre = shift_sign(D - 1 - j, DOTTED.labels_odd, parity)
        rest = tuple(r for i, r in enumerate(sg.dotted) if i != j)
        for direction, coeff in (
            ((x, y) + cs, pre),
            ((y, x) + tuple(-s for s in cs), -pre if parity is Parity.EVEN else pre),
        ):
            candidate = SkeletonGraph(sg.v, sg.k, sg.solid + (direction,), rest)
            if not _sk_last_color_acyclic(candidate):
                continue
            out.add_class(canonicalize_skeleton(candidate, parity), coeff)
    return out


def skeleton_differential(sg: SkeletonGraph, parity: Parity) -> TermVector:
    """Sum of all solid contractions plus the dotted-to-solid part."""
    out = TermVector()
    for j in range(sg.n_solid):
        out.add_vector(contract_solid(sg, j, parity))
    out.add_vector(dotted_differential(sg, parity))
    return out


# ---------------------------------------------------------------------------
# expansion into the full complex


def expand_dotted(sg: SkeletonGraph, parity: Parity) -> TermVector:
    """Expansion into the full (k+1)-colored complex.

    Each dotted edge becomes half the difference of its two length-2
    configurations; middle vertices are labeled after the skeleton
    vertices in dotted-record order, string edges after the solid edges
    in consecutive pairs with the lower label at the arrow tail.
    """
    K = sg.k + 1
    base = [r + (1,) for r in sg.solid]
    D = sg.n_dotted
    out = TermVector()
    for config in itertools.product((0, 1), repeat=D):
        records = list(base)
        coeff = Fraction(1, 2**D)
        for j, rec in enumerate(sg.dotted):
            x, y, cs = rec[0], rec[1], rec[2:]
            z = sg.v + j
            neg = tuple(-s for s in cs)
            if config[j] == 0:
                # both string edges head into the middle in the last color
                records.append((x, z) + cs + (1,))
                records.append((y, z) + neg + (1,))
            else:
                records.append((z, x) + neg + (1,))
                records.append((z, y) + cs + (1,))
                coeff = -coeff
        g = ColoredGraph(sg.v + D, K, tuple(records))
        out.add_class(canonicalize(g, parity), coeff)
    return out


# ---------------------------------------------------------------------------
# graded bases


class SkeletonSliceParams(NamedTuple):
    """One shape: v skeleton vertices, given solid and dotted counts."""

    v: int
    n_solid: int
    n_dotted: int
    k: int
    n: int
    family: SkeletonFamily

    @property
    def parity(self):
        return Parity.from_n(self.n)


def _family_admits(sg, family, parity):
    if not is_valid_special(sg) or quotient_kills(sg, family, parity):
        return False
    if family is SkeletonFamily.TADPOLE_SUB:
        return has_dotted_tadpole(sg)
    if family is SkeletonFamily.MULTI_SUB:
        return has_multiple_edge(sg)
    return True


def enumerate_skeleton_shape(params: SkeletonSliceParams, force=False):
    """Canonical classes of one (v, solids, dotteds) shape, sorted.

    Two levels, like the ordinary basis enumeration: connected structures
    of the least valence the complex admits, up to relabeling, first,
    then the colored classes on each (``graphs._colored_classes``) that
    the family admits, stored as their ``canonicalize_skeleton``
    representatives.  A shape whose edges have too few ends for that
    valence is empty, and builds nothing whatever its size.
    """
    v, k, s, d = params.v, params.k, params.n_solid, params.n_dotted
    # the least valence is_valid_special admits: without base colors
    # every 2-valent vertex passes
    m = 3 if k == 0 else 2
    if m * v > 2 * (s + d):
        return ()  # empty before any bound applies
    if not force and (v > SHAPE_BOUNDS["v"] or s + 2 * d > SHAPE_BOUNDS["e"] or k > SHAPE_BOUNDS["k"]):
        raise ValueError(f"shape {params} exceeds default bounds; pass force=True")
    parity = params.parity
    structures = _orbit_reps(v, ((s, True, False), (d, False, True)), True, m)

    def admit(edges):
        return _family_admits(SkeletonGraph(v, k, *edges), params.family, parity)

    classes = [canonicalize_skeleton(SkeletonGraph(v, k, *edges), parity)
               for edges in _colored_classes(v, k, structures, SKELETON_KINDS, parity, admit)]
    assert ZERO not in classes, "stabilizer and refinement disagree on Zero"
    return tuple(sorted((cls.rep for cls in classes), key=sk_sort_key))


class SkeletonDegreeSlice:
    """All shapes sharing one degree: fixed loop number and fixed
    expanded vertex count u = v + dotted count."""

    __slots__ = ("b", "u", "k", "n", "family", "basis")

    def __init__(self, b: int, u: int, k: int, n: int, family: SkeletonFamily, basis: tuple):
        self.b, self.u, self.k, self.n, self.family, self.basis = b, u, k, n, family, basis

    def __len__(self):
        return len(self.basis)

    @property
    def degree(self) -> int:
        return self.u - self.n + (1 - self.n) * self.b


def skeleton_degree_slice(b, u, k, n, family, force=False) -> SkeletonDegreeSlice:
    basis = []
    for v in range(1, u + 1):
        d = u - v
        s = v + b - d
        if s < 0 or d < 0:
            continue
        params = SkeletonSliceParams(v, s, d, k, n, family)
        basis.extend(enumerate_skeleton_shape(params, force=force))
    return SkeletonDegreeSlice(b, u, k, n, family, tuple(basis))


def projected_skeleton_differential(sg, parity, family) -> TermVector:
    """The differential composed with the family's quotient projection."""
    return skeleton_differential(sg, parity).without(lambda rep: quotient_kills(rep, family, parity))


def skeleton_differential_matrix(src: SkeletonDegreeSlice, dst: SkeletonDegreeSlice) -> SparseRationalMatrix:
    if (dst.b, dst.k, dst.n, dst.family) != (src.b, src.k, src.n, src.family) or dst.u != src.u - 1:
        raise ValueError("dst must be the same family one degree down")
    parity = Parity.from_n(src.n)
    return matrix_of(
        lambda sg: projected_skeleton_differential(sg, parity, src.family),
        src.basis,
        dst.basis,
        f"differential term left the {src.family.value} family (u={src.u} -> {dst.u})",
    )


def skeleton_homology_dims(b, k, n, family, u_max, force=False):
    """Homology dimensions per degree slice u = 1..u_max for one loop
    order, as (u, dim) rows, and the slices.

    Slices above u_max are treated as empty, so the top row is only exact
    when the family is structurally empty there.
    """
    slices = {u: skeleton_degree_slice(b, u, k, n, family, force=force) for u in range(1, u_max + 1)}
    _, _, dims = homology(slices, skeleton_differential_matrix)
    return list(dims.items()), slices
