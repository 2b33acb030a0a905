"""Colored directed multigraphs and their signed symmetry classes.

Conventions used throughout the package:

* Vertices are labeled ``0..v-1``.  Edges are labeled ``1..e``; an edge's
  label is its 1-based position in the record list (internal indices are
  0-based).
* An edge record is a flat tuple ``(tail, head, s_1, ..., s_k)`` with
  ``tail != head`` and every color sign ``s_c`` in ``{+1, -1}``.  The
  intrinsic orientation runs tail -> head; color ``c`` runs tail -> head
  when ``s_c = +1`` and head -> tail when ``s_c = -1``.
* Reversing an edge swaps tail/head and negates all color signs, so the
  colored orientations relative to the vertices never change.
* Symmetries carry signs depending only on the parity of the grading
  parameter ``n``:

  - ``n`` even: transposing two edge labels flips the sign; vertex
    relabelings and edge reversals are sign-free.
  - ``n`` odd: transposing two vertex labels flips the sign, and so does
    each single edge reversal; edge relabelings are sign-free.

* A graph whose symmetry class supports an odd automorphism is zero; the
  canonical form machinery detects this and reports the distinguished
  ``Zero`` value.

Canonical forms come from one labeling engine shared with the skeleton
complex.  It sees a graph as a tuple of typed edge kinds (``EdgeKind``):
each kind says whether its arrows reverse and under which parity an
arrow reversal or a swap of two of its labels is odd.  A ColoredGraph is
one kind (``GRAPH_KINDS``), a solid/dotted skeleton two
(``SKELETON_KINDS``).  Color refinement (``_refine``, fed by
``_edge_ends``) splits the vertices into an ordered partition that every
isomorphism respects, and the normalization kernel ``_normal_form`` takes
the minimal form over the permutations that map each cell onto its own
block of positions (``_cell_perms``), not over all v! of them.  This is
the refinement half of McKay & Piperno, "Practical graph isomorphism
II", J. Symbolic Comput. 60 (2014), without individualization.  The
bases of both complexes come from one enumerator, ``_colored_classes``,
which colors the structures of the orbit generator ``_orbit_reps``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple


class Parity(enum.Enum):
    """Parity of the integer grading parameter n."""

    EVEN = 0
    ODD = 1

    @classmethod
    def from_n(cls, n: int) -> "Parity":
        return cls(n & 1)

    @property
    def flipped(self) -> "Parity":
        return Parity(1 - self.value)


@dataclass(frozen=True)
class ColoredGraph:
    """A labeled directed multigraph with k per-edge orientation signs.

    ``records[i]`` is the flat record of the edge labeled ``i + 1``.
    """

    v: int
    k: int
    records: tuple

    @property
    def e(self) -> int:
        return len(self.records)

    @property
    def edges(self):
        """Ordered (tail, head) pairs, one per edge."""
        return tuple(r[:2] for r in self.records)

    def __lt__(self, other):
        return sort_key(self) < sort_key(other)


def make_graph(v, edges, colors=None, check=True):
    """Build a ColoredGraph from (tail, head) pairs and color-sign rows."""
    if colors is None:
        colors = [()] * len(edges)
    if len(colors) != len(edges):
        raise ValueError("one color row per edge required")
    k = len(colors[0]) if colors else 0
    records = tuple(tuple(e) + tuple(c) for e, c in zip(edges, colors))
    g = ColoredGraph(v, k, records)
    if check:
        check_graph(g)
    return g


def check_graph(g: ColoredGraph):
    """Validate the ColoredGraph invariants, raising ValueError on failure."""
    for rec in g.records:
        if len(rec) != 2 + g.k:
            raise ValueError(f"record {rec} does not carry {g.k} color signs")
        t, h = rec[0], rec[1]
        if t == h:
            raise ValueError(f"tadpole edge at vertex {t}")
        if not (0 <= t < g.v and 0 <= h < g.v):
            raise ValueError(f"vertex index out of range in record {rec}")
        if any(s not in (1, -1) for s in rec[2:]):
            raise ValueError(f"color signs must be +-1 in record {rec}")
    for c in range(1, g.k + 1):
        if not is_acyclic_in_color(g, c):
            raise ValueError(f"color {c} orientation has a directed cycle")


@dataclass(frozen=True)
class GroupElement:
    """One symmetry: a vertex relabeling, an edge relabeling and reversals.

    ``vertex_perm[i]`` is the new label of vertex ``i``; ``edge_perm[i]``
    is the new 0-based index of the edge at index ``i``; ``flips`` holds
    0-based indices of reversed edges.
    """

    vertex_perm: tuple
    edge_perm: tuple
    flips: frozenset


@dataclass(frozen=True)
class CanonicalClass:
    """Canonical representative with sign, or the distinguished Zero.

    A non-zero value means the input graph equals ``sign`` times the class
    of ``rep`` in the signed quotient.  ``rep is None`` encodes Zero.  Both
    complexes use it: ``rep`` is a ColoredGraph or a skeleton.SkeletonGraph.
    """

    rep: ColoredGraph | None
    sign: int

    @property
    def is_zero(self) -> bool:
        return self.rep is None


ZERO = CanonicalClass(None, 0)


def perm_parity(perm) -> int:
    """Sign (+1/-1) of a permutation given as a sequence of images."""
    perm = list(perm)
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _inversion_parity(items) -> int:
    """Sign of the permutation sorting ``items`` (must be tie-free)."""
    inv = 0
    n = len(items)
    for i in range(n):
        a = items[i]
        for j in range(i + 1, n):
            if a > items[j]:
                inv += 1
    return -1 if inv & 1 else 1


@lru_cache(maxsize=None)
def perm_sign(perm: tuple) -> int:
    """Cached ``perm_parity`` for tuple permutations that recur, such as
    the stabilizer elements the basis enumerators sweep per coloring."""
    return perm_parity(perm)


@lru_cache(maxsize=None)
def _perms_with_signs(v: int):
    return tuple((p, perm_parity(p)) for p in itertools.permutations(range(v)))


def _refine(v, nbrs):
    """Color refinement (1-WL) to a stable ordered partition of 0..v-1.

    ``nbrs[x]`` lists ``(y, tag, data)`` for every edge end at x, where y
    is the far end and the tag and ``data`` describe the edge as seen from
    x; they must not change when the edge is reversed.  Each round a
    vertex's new class is the rank of its old class together with the
    sorted (neighbor class, tag, data) triples it sees.  Nothing depends
    on vertex labels, so a relabeled graph gets the relabeled cells in the
    same order.  Returns the cells as lists, in class order.
    """
    classes = [0] * v
    count = 1 if v else 0
    while True:
        sigs = [
            (classes[x], tuple(sorted((classes[y], tag, d) for y, tag, d in nbrs[x])))
            for x in range(v)
        ]
        rank_of = {s: i for i, s in enumerate(sorted(set(sigs)))}
        classes = [rank_of[s] for s in sigs]
        if len(rank_of) == count:
            break
        count = len(rank_of)
    cells = [[] for _ in range(count)]
    for x in range(v):
        cells[classes[x]].append(x)
    return cells


def _cell_perms(cells):
    """Yield (vertex permutation, sign) for every permutation that maps
    each cell onto its own block of positions, blocks in cell order.

    Every automorphism preserves the refined cells, so this set is closed
    under composing with automorphisms: its minimal normalized form is a
    class invariant, and an odd automorphism still shows as an equal form
    with the opposite sign.  A partition into singletons yields one
    permutation.
    """
    base = []
    blocks = []
    for cell in cells:
        blocks.append((cell, len(base), _perms_with_signs(len(cell))))
        base.extend(cell)
    # base lists the vertices by position, so it is the inverse of the
    # identity-within-blocks relabeling and has the same sign
    base_sign = perm_parity(base)
    perm = [0] * len(base)
    for choice in itertools.product(*(b[2] for b in blocks)):
        sign = base_sign
        for (cell, start, _), (p, s) in zip(blocks, choice):
            sign *= s
            for j, x in enumerate(cell):
                perm[x] = start + p[j]
        yield tuple(perm), sign


def _orbit_reps(v, kinds, connected=False):
    """Orbit representatives, with full stabilizers, of typed edge
    structures on v labeled vertices (orderly generation after McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26 (1998)).

    ``kinds`` lists ``(count, directed, loops)``: ``count`` arcs (t, h)
    forming an acyclic digraph, or pairs t < h plus loops (t, t) if
    ``loops``.  Returns ``(edges, stab)``: one sorted tuple per kind and
    the vertex permutations fixing it; ``connected`` keeps connected ones.

    Only labelings whose vertex signatures ((out, in) per directed kind,
    (degree, loops) per undirected one) do not increase are built.  Edges
    are chosen in (min end, max end) order, so vertices complete in label
    order, and a branch dies once a partial signature exceeds the last
    completed one or an arc closes a cycle.  Such labelings of one orbit
    differ by permutations within blocks of equal signature: the first
    one built is kept, and sweeping the block permutations marks the
    others seen and finds the stabilizer, which is all automorphisms
    because they preserve signatures.
    """
    alphabet, opens = [], set()
    for a in range(v):
        opens.add(len(alphabet))
        for b in range(a, v):
            for kind, (_, directed, loops) in enumerate(kinds):
                if a == b:
                    if loops:
                        alphabet.append((kind, a, a, a, ((a, 2 * kind + 1),)))
                else:
                    alphabet.append((kind, a, b, a, ((a, 2 * kind), (b, 2 * kind + directed))))
                    if directed:
                        alphabet.append((kind, b, a, a, ((b, 2 * kind), (a, 2 * kind + 1))))
    last = {entry[0]: i for i, entry in enumerate(alphabet)}
    if any(count and kind not in last for kind, (count, _, _) in enumerate(kinds)):
        return ()
    rem = [count for count, _, _ in kinds]
    done = [0] * len(kinds)
    sig = [[0] * (2 * len(kinds)) for _ in range(v)]
    chosen = [[] for _ in kinds]
    seen, reps = set(), []

    def image(p):
        return tuple(
            tuple(sorted((p[t], p[h]) if directed or p[t] <= p[h] else (p[h], p[t]) for t, h in es))
            for (_, directed, _), es in zip(kinds, chosen)
        )

    def leaf():
        if sig != sorted(sig, reverse=True):
            return
        if connected and not _pairs_connected(v, [p for es in chosen for p in es]):
            return
        key = image(range(v))
        if key in seen:
            return
        cells = [list(c) for _, c in itertools.groupby(range(v), key=sig.__getitem__)]
        stab = []
        for p, _ in _cell_perms(cells):
            moved = image(p)
            seen.add(moved)
            if moved == key:
                stab.append(p)
        reps.append((key, tuple(stab)))

    def extend(i):
        # every kind's last entry takes all its remaining edges, so the
        # counts run out at the latest with the alphabet
        while True:
            if rem == done:
                return leaf()
            kind, t, h, a, bumps = alphabet[i]
            # entering vertex a's entries, vertex a - 1 is complete and no
            # later vertex may outrank it
            if a and i in opens and max(sig[a:]) > sig[a - 1]:
                return
            if rem[kind]:
                break
            i += 1
        count, directed = rem[kind], kinds[kind][1]
        low = count if last[kind] == i else 0
        added = 0
        while True:
            if added >= low:
                rem[kind] = count - added
                extend(i + 1)
            # an arc t -> h closes a cycle only if h has out-arcs and t in-arcs
            if added == count or (
                directed and not added and sig[h][2 * kind] and sig[t][2 * kind + 1]
                and not _arcs_acyclic(v, chosen[kind] + [(t, h)])
            ):
                break
            added += 1
            chosen[kind].append((t, h))
            for x, c in bumps:
                sig[x][c] += 1
            if a and (sig[t] > sig[a - 1] or sig[h] > sig[a - 1]):
                break
        del chosen[kind][len(chosen[kind]) - added:]
        for x, c in bumps:
            sig[x][c] -= added
        rem[kind] = count

    extend(0)
    return tuple(reps)


@lru_cache(maxsize=None)
def _acyclic_support_signs(v: int, support: tuple):
    """All sign assignments on the distinct pairs that orient them
    acyclically, each sign taken relative to the (t, h) order with t < h.

    Every acyclic orientation is induced by some linear vertex order, so
    sweeping all orders and collecting induced sign vectors is exhaustive.
    """
    out = set()
    for perm in itertools.permutations(range(v)):
        pos = [0] * v
        for i, x in enumerate(perm):
            pos[x] = i
        out.add(tuple(1 if pos[t] < pos[h] else -1 for t, h in support))
    return tuple(sorted(out))


def _colorings(v, k, edges):
    """Every k-coloring of a structure, as records (one sorted tuple per
    kind).  Each color orients every support pair acyclically, parallel
    edges alike, so a structure with a tadpole has none; with no colors
    the structure is its own records."""
    if not k:
        yield edges
        return
    if any(t == h for es in edges for t, h in es):
        return  # a color on a tadpole is a cycle
    support = tuple(sorted({(min(t, h), max(t, h)) for es in edges for t, h in es}))
    index = {p: i for i, p in enumerate(support)}
    # each edge reads its signs off its support pair, negated when it
    # runs from the higher end
    slots = tuple(
        tuple((t, h, index[(min(t, h), max(t, h))], 1 if t < h else -1) for t, h in es) for es in edges
    )
    for combo in itertools.product(_acyclic_support_signs(v, support), repeat=k):
        yield tuple(
            tuple(sorted((t, h) + tuple(flip * signs[i] for signs in combo) for t, h, i, flip in es))
            for es in slots
        )


def _colored_classes(v, k, structures, kinds, parity, admit):
    """Canonical forms of the non-Zero classes of k-colored graphs on the
    given structures, one per class, in structure order.

    ``structures`` yields ``(edges, stab)`` as ``_orbit_reps`` lists them:
    one sorted tuple of (t, h) pairs per kind in ``kinds`` and the vertex
    permutations fixing it.  The colorings of one class form one orbit of
    the stabilizer, its full automorphism group, so a coloring is kept
    when ``admit`` accepts its records and it is its own minimal form over
    the stabilizer; its class's ``_canonical_form`` is stored, so the
    differential's terms find it.
    """
    reps = []
    for edges, stab in structures:
        stab_signed = tuple((p, perm_sign(p)) for p in stab)
        for colored in _colorings(v, k, edges):
            if not admit(colored):
                continue
            out = _normal_form(colored, kinds, parity, stab_signed)
            if out is None or out[0] != colored:
                continue  # zero class, or a non-canonical labeling of one
            form = _canonical_form(v, colored, kinds, parity)
            assert form is not None, "stabilizer and refinement disagree on Zero"
            reps.append(form[0])
    return reps


def sort_key(g: ColoredGraph):
    """Total order on graphs: (tail, head) data first, then color data.

    Comparing all pair data before any color data means that, over the
    stabilizer of a sorted underlying multigraph, the minimal form differs
    from the others in its color data only; the basis enumerator's
    one-coloring-per-class test compares exactly that.
    """
    return (g.v, g.k, tuple(r[:2] for r in g.records), tuple(r[2:] for r in g.records))


class EdgeKind(NamedTuple):
    """Relabeling rules of one edge kind.

    ``reversible``: an arrow of this kind may be reversed, negating its
    color signs, and such an edge may be a tadpole.  ``reversal_odd`` and
    ``labels_odd``: the parity under which reversing one arrow, resp.
    swapping two edge labels of this kind, flips the sign (None: never).
    """

    reversible: bool
    reversal_odd: Parity | None
    labels_odd: Parity


# vertex swaps are odd for odd parity in both complexes
GRAPH_KINDS = (EdgeKind(True, Parity.ODD, Parity.EVEN),)
# solid arrows are pinned to the last color; dotted ones reverse
SKELETON_KINDS = (EdgeKind(False, None, Parity.EVEN), EdgeKind(True, Parity.EVEN, Parity.ODD))


def _edge_ends(v, edges, kinds):
    """Refinement input of a typed-edge graph (one record tuple per kind):
    at each edge end, the far end, the tag ``2 * kind + end`` and the color
    signs pointing away from this end, none of which a reversal changes.
    ``end`` is 1 at the head of a pinned arrow and at a reversible
    tadpole, whose signs are taken up to reversal, and 0 otherwise."""
    nbrs = [[] for _ in range(v)]
    for i, (records, kind) in enumerate(zip(edges, kinds)):
        out_tag, in_tag = 2 * i, 2 * i + (not kind.reversible)
        for rec in records:
            t, h, cs = rec[0], rec[1], rec[2:]
            neg = tuple(-s for s in cs)
            if t == h and kind.reversible:
                nbrs[t].append((t, 2 * i + 1, min(cs, neg)))
            else:
                nbrs[t].append((h, out_tag, cs))
                nbrs[h].append((t, in_tag, neg))
    return nbrs


def _normal_form(edges, kinds, parity, perms):
    """Minimal normalized form with sign over the given vertex perms, or
    None when an odd automorphism kills the class.

    ``edges`` holds one tuple of flat records per kind in ``kinds``.  Each
    relabeling reverses the reversible edges so that tail < head (a
    tadpole takes the smaller of its two sign rows) and sorts each kind's
    records, folding in the sign rules of the parity (a vertex relabeling
    is odd for odd parity, the kinds say the rest); forms compare by the
    pair data of every kind before any color data.  ``perms`` is an
    iterable of (vertex permutation, permutation sign) pairs closed under
    composing with the graph's automorphisms: the refinement-respecting
    permutations (canonical forms), the full stabilizer of a sorted
    underlying structure (the basis enumerators' test, where every image
    has the structure's pair data), or all of S_v (the exhaustive
    reference).
    """
    vertices_odd = parity is Parity.ODD
    best = best_key = None
    best_sign = 0
    for perm, psign in perms:
        sign = psign if vertices_odd else 1
        form = []
        for records, kind in zip(edges, kinds):
            reversible, reversal_odd = kind.reversible, kind.reversal_odd is parity
            recs = []
            for rec in records:
                t, h, cs = perm[rec[0]], perm[rec[1]], rec[2:]
                if reversible and t >= h:
                    neg = tuple(-s for s in cs)
                    if t > h or neg < cs:
                        t, h, cs = h, t, neg
                        if reversal_odd:
                            sign = -sign
                    elif neg == cs and reversal_odd:
                        # reversing the tadpole is an odd automorphism
                        return None
                recs.append((t, h) + cs)
            srt = sorted(recs)
            if kind.labels_odd is parity:
                if any(srt[i] == srt[i + 1] for i in range(len(srt) - 1)):
                    return None
                sign *= _inversion_parity(recs)
            form.append(tuple(srt))
        # each kind has the same record count in every form, so the flat
        # list compares like the per-kind tuples of pair, then color data
        key = [r[:2] for rs in form for r in rs] + [r[2:] for rs in form for r in rs]
        if best_key is None or key < best_key:
            best, best_key, best_sign = tuple(form), key, sign
        elif key == best_key and sign != best_sign:
            return None
    return best, best_sign


def _canonical_form(v, edges, kinds, parity):
    """Canonical (form, sign) of a typed-edge graph, or None for Zero: the
    kernel over the relabelings that respect the refined cells."""
    cells = _refine(v, _edge_ends(v, edges, kinds))
    return _normal_form(edges, kinds, parity, _cell_perms(cells))


def canonicalize(g: ColoredGraph, parity: Parity) -> CanonicalClass:
    """Canonical representative of g's signed symmetry class, or ZERO:
    the records are one reversible edge kind (``GRAPH_KINDS``).  Two
    relabelings reaching the same normal form with opposite signs witness
    an odd automorphism and yield Zero.
    """
    out = _canonical_form(g.v, (g.records,), GRAPH_KINDS, parity)
    if out is None:
        return ZERO
    (recs,), sign = out
    return CanonicalClass(ColoredGraph(g.v, g.k, recs), sign)


def act(g: ColoredGraph, elem: GroupElement, parity: Parity):
    """Apply a symmetry to g; returns (new graph, sign).

    The sign follows the parity rule: sgn(edge permutation) for n even,
    sgn(vertex permutation) * (-1)^#flips for n odd.
    """
    if len(elem.vertex_perm) != g.v or len(elem.edge_perm) != g.e:
        raise ValueError("group element dimensions do not match the graph")
    vp = elem.vertex_perm
    new_records = [None] * g.e
    for i, rec in enumerate(g.records):
        t, h = vp[rec[0]], vp[rec[1]]
        cs = rec[2:]
        if i in elem.flips:
            t, h = h, t
            cs = tuple(-s for s in cs)
        new_records[elem.edge_perm[i]] = (t, h) + cs
    if parity is Parity.EVEN:
        sign = perm_parity(elem.edge_perm)
    else:
        sign = perm_parity(vp) * (-1 if len(elem.flips) & 1 else 1)
    return ColoredGraph(g.v, g.k, tuple(new_records)), sign


def is_acyclic_in_color(g: ColoredGraph, c: int) -> bool:
    """True iff the color-c orientation of g has no directed cycle."""
    if not (1 <= c <= g.k):
        raise ValueError(f"color {c} out of range 1..{g.k}")
    return _color_acyclic(g.v, g.records, c)


def _color_acyclic(v, records, c) -> bool:
    """True iff color c orients the flat records without a directed cycle."""
    return _arcs_acyclic(v, [(r[0], r[1]) if r[1 + c] > 0 else (r[1], r[0]) for r in records])


def _arcs_acyclic(v, arcs) -> bool:
    indeg = [0] * v
    out = [[] for _ in range(v)]
    for a, b in arcs:
        out[a].append(b)
        indeg[b] += 1
    stack = [x for x in range(v) if indeg[x] == 0]
    seen = 0
    while stack:
        x = stack.pop()
        seen += 1
        for y in out[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                stack.append(y)
    return seen == v


def _pair_degrees(v, pairs):
    deg = [0] * v
    for t, h in pairs:
        deg[t] += 1
        deg[h] += 1
    return tuple(deg)


def _pairs_connected(v, pairs) -> bool:
    """True iff the (t, h) pairs join the vertices 0..v-1 into one
    component (union-find with path halving)."""
    parent = list(range(v))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    comps = v
    for t, h in pairs:
        a, b = find(t), find(h)
        if a != b:
            parent[a] = b
            comps -= 1
    return comps == 1


def is_connected(g: ColoredGraph) -> bool:
    """True iff the underlying undirected graph has one component."""
    if g.v < 1:
        raise ValueError("graph needs at least one vertex")
    return _pairs_connected(g.v, g.edges)


def valence(g: ColoredGraph, x: int) -> int:
    if not (0 <= x < g.v):
        raise ValueError(f"vertex {x} out of range")
    return sum((rec[0] == x) + (rec[1] == x) for rec in g.records)


def _passing_in_color(records, x, c) -> bool:
    """x ends exactly two of the flat records, neither a tadpole, and is
    the color-c head of one of them: 2-valent with color-c in-degree 1
    and out-degree 1."""
    incident = [rec for rec in records if x in rec[:2]]
    if len(incident) != 2 or any(rec[0] == rec[1] for rec in incident):
        return False
    return sum((rec[1] if rec[1 + c] > 0 else rec[0]) == x for rec in incident) == 1


def is_passing(g: ColoredGraph, x: int) -> bool:
    """2-valent and the head of one edge and the tail of the other in
    every color.  With no colors every 2-valent vertex passes."""
    if not (0 <= x < g.v):
        raise ValueError(f"vertex {x} out of range")
    if valence(g, x) != 2:
        return False
    return all(_passing_in_color(g.records, x, c) for c in range(1, g.k + 1))


def is_weakly_passing(g: ColoredGraph, x: int) -> bool:
    """Passing in every color but the last one, where it is not passing.

    The graph's last color plays the distinguished role; the remaining
    k - 1 colors are the base ones.
    """
    if g.k < 1:
        raise ValueError("weak passing needs at least one color")
    if not (0 <= x < g.v):
        raise ValueError(f"vertex {x} out of range")
    if valence(g, x) != 2:
        return False
    if _passing_in_color(g.records, x, g.k):
        return False
    return all(_passing_in_color(g.records, x, c) for c in range(1, g.k))


def has_passing_vertex(g: ColoredGraph) -> bool:
    return any(d == 2 and is_passing(g, x) for x, d in enumerate(_pair_degrees(g.v, g.edges)))


def to_text(g: ColoredGraph) -> str:
    """Debug serialization: header line, then one edge per line
    ``a: t h s_1...s_k`` with signs written + or -."""
    lines = [f"v {g.v} k {g.k}"]
    for i, rec in enumerate(g.records):
        signs = " ".join("+" if s > 0 else "-" for s in rec[2:])
        line = f"{i + 1}: {rec[0]} {rec[1]}"
        if signs:
            line += " " + signs
        lines.append(line)
    return "\n".join(lines)


def from_text(text: str) -> ColoredGraph:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split()
    v, k = int(head[1]), int(head[3])
    records = []
    for ln in lines[1:]:
        label, rest = ln.split(":")
        parts = rest.split()
        t, h = int(parts[0]), int(parts[1])
        signs = tuple(1 if s == "+" else -1 for s in parts[2:])
        if len(signs) != k:
            raise ValueError(f"edge {label} carries {len(signs)} signs, expected {k}")
        records.append((t, h) + signs)
    return ColoredGraph(v, k, tuple(records))


class TermVector:
    """Finite formal linear combination with exact rational coefficients.

    Keys are hashable graph objects (canonical representatives); zero
    coefficients are dropped eagerly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, coeff in terms.items() if isinstance(terms, dict) else terms:
                self.add(key, coeff)

    def add(self, key, coeff):
        coeff = Fraction(coeff)
        if not coeff:
            return
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            del self.terms[key]

    def add_class(self, cls, coeff=1):
        if not cls.is_zero:
            self.add(cls.rep, Fraction(coeff) * cls.sign)

    def add_vector(self, other, scale=1):
        for key, coeff in other.terms.items():
            self.add(key, Fraction(scale) * coeff)

    def mapped(self, fn):
        """The linear extension of ``fn`` (key -> TermVector) applied to
        this vector."""
        out = TermVector()
        for key, coeff in self.terms.items():
            out.add_vector(fn(key), coeff)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, TermVector) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"TermVector({len(self.terms)} terms)"
