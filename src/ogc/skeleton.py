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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graphs import (
    SKELETON_KINDS,
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
    is_weakly_passing,
)
from .complexes import SHAPE_BOUNDS
from .linalg import SparseRationalMatrix, homology, matrix_of


@dataclass(frozen=True)
class SkeletonGraph:
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


def project_to_simple(sg: SkeletonGraph, parity: Parity) -> CanonicalClass:
    """Quotient by tadpole-bearing and multiple-edge-bearing graphs.

    The quotient only exists for odd m; for even m the projection is the
    identity and this just canonicalizes.
    """
    if parity is Parity.ODD and (has_dotted_tadpole(sg) or has_multiple_edge(sg)):
        return ZERO
    return canonicalize_skeleton(sg, parity)


# ---------------------------------------------------------------------------
# the differential


def _merged_vertex_cases(k, new_solid, new_dotted, p):
    """Classify the merged vertex p after a solid contraction.

    Returns one of:
      "keep"            valid vertex,
      "drop"            projects to zero (fully passing, or a string
                        interior involving a dotted edge),
      ("rewrite", ...)  both incident edges solid and co-oriented in the
                        last color: the pair is a length-2 string and
                        its antisymmetric part is a new dotted edge.
    """
    incident = []
    for idx, rec in enumerate(new_solid):
        count = (rec[0] == p) + (rec[1] == p)
        incident.extend([("s", idx, rec)] * count)
    for idx, rec in enumerate(new_dotted):
        count = (rec[0] == p) + (rec[1] == p)
        incident.extend([("d", idx, rec)] * count)
    if len(incident) != 2:
        return "keep"
    # base-color passing test at the 2-valent p
    if not all(_passing_in_color(new_solid + new_dotted, p, c) for c in range(1, k + 1)):
        return "keep"
    if any(kind == "d" for kind, _, _ in incident):
        return "drop"
    (_, i1, r1), (_, i2, r2) = incident
    into1 = r1[1] == p
    into2 = r2[1] == p
    if into1 != into2:
        # head of one and tail of the other in the last color as well:
        # a fully passing vertex, killed by the ambient quotient
        return "drop"
    return ("rewrite", i1, i2, into1)


def contract_solid(sg: SkeletonGraph, j: int, parity: Parity) -> TermVector:
    """Contract the 0-based solid edge j, projecting the result back into
    the solid/dotted span.  Empty vector for terms that die."""
    S, D = sg.n_solid, sg.n_dotted
    rec = sg.solid[j]
    x, y = rec[0], rec[1]
    out = TermVector()
    sign = 1
    if parity is Parity.ODD:
        if (sg.v + D - 1 - y) & 1:
            sign = -sign
    else:
        if (S - 1 - j) & 1:
            sign = -sign
    merged = x if x < y else x - 1

    def relabel(z):
        if z == y:
            return merged
        return z if z < y else z - 1

    new_solid = [
        (relabel(r[0]), relabel(r[1])) + r[2:] for i, r in enumerate(sg.solid) if i != j
    ]
    new_dotted = [(relabel(r[0]), relabel(r[1])) + r[2:] for r in sg.dotted]
    v_new = sg.v - 1
    candidate = SkeletonGraph(v_new, sg.k, tuple(new_solid), tuple(new_dotted))
    for c in range(1, sg.k + 1):
        if not _color_acyclic(v_new, candidate.solid + candidate.dotted, c):
            return out
    if not _sk_last_color_acyclic(candidate):
        return out
    case = _merged_vertex_cases(sg.k, new_solid, new_dotted, merged)
    if case == "drop":
        return out
    if case == "keep":
        out.add_class(canonicalize_skeleton(candidate, parity), sign)
        return out
    _, i1, i2, into = case
    # length-2 string through p: replace the two solids by one dotted edge
    p = merged
    r1, r2 = new_solid[i1], new_solid[i2]
    u = r1[0] if r1[1] == p else r1[1]
    w = r2[0] if r2[1] == p else r2[1]
    if into:
        row = r1[2:]
        cfg_sign = 1
    else:
        row = tuple(-s for s in r1[2:])
        cfg_sign = -1
    if parity is Parity.ODD:
        if ((v_new + D - 1) - p) & 1:
            sign = -sign
    else:
        if (i1 + i2 + 1) & 1:
            sign = -sign
    sign *= cfg_sign

    def relabel2(z):
        return z if z < p else z - 1

    rest_solid = tuple(
        (relabel2(r[0]), relabel2(r[1])) + r[2:]
        for i, r in enumerate(new_solid)
        if i not in (i1, i2)
    )
    rest_dotted = tuple((relabel2(r[0]), relabel2(r[1])) + r[2:] for r in new_dotted)
    new_rec = (relabel2(u), relabel2(w)) + row
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
        pre = 1
        if parity is Parity.ODD and (D - 1 - j) & 1:
            pre = -pre
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
# expansion into the full complex and skeleton extraction


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


def extract_skeleton(g: ColoredGraph) -> SkeletonGraph:
    """Collapse strings of weakly passing vertices into skeleton edges.

    Length-1 strings give solid edges (record direction = last-color
    direction), length-2 strings give dotted edges (arrow from the lower
    string-edge label to the higher one, reversed for the configuration
    that points away from the middle).  Longer strings are outside the
    solid/dotted span and raise ValueError.
    """
    if g.k < 1:
        raise ValueError("skeleton extraction needs the distinguished last color")
    K = g.k
    weak = [is_weakly_passing(g, x) for x in range(g.v)]
    skeleton_vertices = [x for x in range(g.v) if not weak[x]]
    if not skeleton_vertices:
        raise ValueError("graph has no skeleton vertices")
    new_label = {x: i for i, x in enumerate(skeleton_vertices)}
    incident = {x: [] for x in range(g.v)}
    for idx, rec in enumerate(g.records):
        incident[rec[0]].append(idx)
        incident[rec[1]].append(idx)
    used = set()
    solid, dotted = [], []
    for start in skeleton_vertices:
        for first in incident[start]:
            if first in used:
                continue
            chain = [first]
            mids = []
            prev = start
            cur = _other_end(g.records[first], prev)
            while weak[cur]:
                mids.append(cur)
                nxt = next(i for i in incident[cur] if i != chain[-1])
                chain.append(nxt)
                prev = cur
                cur = _other_end(g.records[nxt], prev)
            used.update(chain)
            if len(chain) == 1:
                rec = g.records[first]
                t, h = (rec[0], rec[1]) if rec[1 + K] > 0 else (rec[1], rec[0])
                cs = tuple(s if rec[1 + K] > 0 else -s for s in rec[2 : 1 + K])
                solid.append((new_label[t], new_label[h]) + cs)
            elif len(chain) == 2:
                a, b = sorted(chain)
                mid = mids[0]
                ra = g.records[a]
                ua, ub = _other_end(ra, mid), _other_end(g.records[b], mid)
                a_into_mid = (ra[1] == mid) == (ra[1 + K] > 0)
                tail, head = (ua, ub) if a_into_mid else (ub, ua)
                # base colors run consistently through the string; read
                # them off edge a relative to the dotted arrow
                cs = []
                for c in range(1, K):
                    toward_mid = (ra[1] == mid) == (ra[1 + c] > 0)
                    starts_at_tail = ua == tail
                    cs.append(1 if toward_mid == starts_at_tail else -1)
                dotted.append((new_label[tail], new_label[head]) + tuple(cs))
            else:
                raise ValueError("skeleton edge of length 3 or more")
    if len(used) != g.e:
        raise ValueError("closed string of weakly passing vertices")
    return SkeletonGraph(len(skeleton_vertices), K - 1, tuple(sorted(solid)), tuple(sorted(dotted)))


def _other_end(rec, x):
    return rec[1] if rec[0] == x else rec[0]


# ---------------------------------------------------------------------------
# graded bases


class SkeletonFamily(enum.Enum):
    SPECIAL = "special"            # the full solid/dotted complex
    SIMPLE = "simple"              # quotient without tadpoles or multiple edges
    TADPOLE_SUB = "tadpole_sub"    # graphs with a dotted tadpole
    MULTI_SUB = "multi_sub"        # no tadpole, at least one multiple edge


@dataclass(frozen=True)
class SkeletonSliceParams:
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
    if not is_valid_special(sg):
        return False
    if family is SkeletonFamily.SPECIAL:
        return True
    if family is SkeletonFamily.SIMPLE:
        if parity is Parity.EVEN:
            return True
        return not (has_dotted_tadpole(sg) or has_multiple_edge(sg))
    if family is SkeletonFamily.TADPOLE_SUB:
        return has_dotted_tadpole(sg)
    if family is SkeletonFamily.MULTI_SUB:
        return not has_dotted_tadpole(sg) and has_multiple_edge(sg)
    raise ValueError(family)


@lru_cache(maxsize=None)
def _skeleton_structures(v, n_solid, n_dotted):
    """Orbit representatives of connected (directed acyclic solid,
    undirected dotted) edge structures, with stabilizers: the labelings
    with sorted (solid out, solid in, dotted degree, dotted loops)
    signatures built first by the orbit generator ``_orbit_reps``."""
    kinds = ((n_solid, True, False), (n_dotted, False, True))
    return tuple((s, d, stab) for (s, d), stab in _orbit_reps(v, kinds, connected=True))


def enumerate_skeleton_shape(params: SkeletonSliceParams, force=False):
    """Canonical classes of one (v, solids, dotteds) shape, sorted.

    Two levels, like the ordinary basis enumeration: connected structures
    up to relabeling first, then the colored classes on each
    (``graphs._colored_classes``) that the family admits, stored as their
    ``canonicalize_skeleton`` representatives.
    """
    v, k = params.v, params.k
    e = params.n_solid + 2 * params.n_dotted
    if not force and (v > SHAPE_BOUNDS["v"] or e > SHAPE_BOUNDS["e"] or k > SHAPE_BOUNDS["k"]):
        raise ValueError(f"shape {params} exceeds default bounds; pass force=True")
    parity = params.parity
    shapes = _skeleton_structures(v, params.n_solid, params.n_dotted)
    structures = (((solids, dotteds), stab) for solids, dotteds, stab in shapes)

    def admit(edges):
        return _family_admits(SkeletonGraph(v, k, *edges), params.family, parity)

    reps = _colored_classes(v, k, structures, SKELETON_KINDS, parity, admit)
    return tuple(sorted((SkeletonGraph(v, k, solid, dotted) for solid, dotted in reps), key=sk_sort_key))


@dataclass(frozen=True)
class SkeletonDegreeSlice:
    """All shapes sharing one degree: fixed loop number and fixed
    expanded vertex count u = v + dotted count."""

    b: int
    u: int
    k: int
    n: int
    family: SkeletonFamily
    basis: tuple

    def __len__(self):
        return len(self.basis)


def skeleton_degree_slice(b, u, k, n, family, force=False) -> SkeletonDegreeSlice:
    basis = []
    for v in range(1, u + 1):
        d = u - v
        s = v + b - d
        if s < 0 or d < 0:
            continue
        if k == 0 and 3 * v > 2 * (s + d):
            # without base colors every vertex must be at least 3-valent
            continue
        params = SkeletonSliceParams(v, s, d, k, n, family)
        basis.extend(enumerate_skeleton_shape(params, force=force))
    basis.sort(key=lambda g: (g.v, sk_sort_key(g)))
    return SkeletonDegreeSlice(b, u, k, n, family, tuple(basis))


class SkeletonClosureError(RuntimeError):
    pass


def projected_skeleton_differential(sg, parity, family) -> TermVector:
    """The differential composed with the family's quotient projection."""
    vec = skeleton_differential(sg, parity)
    if family in (SkeletonFamily.SPECIAL, SkeletonFamily.TADPOLE_SUB):
        return vec
    out = TermVector()
    for rep, coeff in vec.terms.items():
        if family is SkeletonFamily.SIMPLE and parity is Parity.ODD:
            if has_dotted_tadpole(rep) or has_multiple_edge(rep):
                continue
        if family is SkeletonFamily.MULTI_SUB:
            if has_dotted_tadpole(rep):
                continue
        out.add(rep, coeff)
    return out


def skeleton_differential_matrix(src: SkeletonDegreeSlice, dst: SkeletonDegreeSlice) -> SparseRationalMatrix:
    if (dst.b, dst.k, dst.n, dst.family) != (src.b, src.k, src.n, src.family) or dst.u != src.u - 1:
        raise ValueError("dst must be the same family one degree down")
    parity = Parity.from_n(src.n)
    return matrix_of(
        lambda sg: projected_skeleton_differential(sg, parity, src.family),
        src.basis,
        dst.basis,
        lambda rep: SkeletonClosureError(
            f"differential term left the {src.family.value} family (u={src.u} -> {dst.u}): {rep}"
        ),
    )


def skeleton_homology_dims(b, k, n, family, u_max, force=False):
    """Homology dimensions per degree slice u = 1..u_max for one loop
    order, as (u, dim) rows, and the slices.

    Slices above u_max are treated as empty, so the top row is only exact
    when the family is structurally empty there.
    """
    slices = {u: skeleton_degree_slice(b, u, k, n, family, force=force) for u in range(1, u_max + 1)}
    _, dims = homology(slices, skeleton_differential_matrix)
    return list(dims.items()), slices
