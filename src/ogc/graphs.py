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
* ``ColoredGraph``, ``GroupElement`` and ``CanonicalClass`` are
  ``typing.NamedTuple`` records: immutable, and hashed and compared in C
  as their field tuples, which the differential's sums,
  ``linalg.matrix_of``'s index and the canonical-form memo do for every
  term.

Canonical forms come from one labeling engine shared with the skeleton
complex.  It sees a graph as a tuple of typed edge kinds (``EdgeKind``):
each kind says whether its arrows reverse and under which parity an
arrow reversal or a swap of two of its labels is odd.  A ColoredGraph is
one kind (``GRAPH_KINDS``), a solid/dotted skeleton two
(``SKELETON_KINDS``).  Color refinement (``_refine``, fed by
``_edge_ends``) splits the vertices into an ordered partition that every
isomorphism respects, and the normalization kernel ``_normal_form`` takes
the least form in the one order of forms (``form_key``, which also sorts
both bases) over the permutations that map each cell onto its own block
of positions (``_cell_perms``), not over all v! of them.  This is
the refinement half of McKay & Piperno, "Practical graph isomorphism
II", J. Symbolic Comput. 60 (2014), without individualization.  Both
bases come from one multigraph orbit search, ``_orbit_search``, and one
enumerator, ``_colored_classes``, which colors each multigraph's
decorations under its signed stabilizer: the multigraph itself for a
ColoredGraph, its solid/dotted structures (``_decorations``) for a
skeleton.

Most inputs refine to singleton cells: 5,762 of the 6,304 the engine
computes in a ``verify-props --n 1 --colors 1`` run.  ``_refine`` stops
as soon as every cell is a singleton, and ``_canonical_form`` then
applies ``_cell_perms``' one relabeling through ``_relabeled_form``, the
routine that gives ``_normal_form`` the form of each permutation.

Each labeled graph is canonicalized once per process, as far as a small
memo allows.  ``_canonical_form`` keeps the last ``CANON_MEMO_SIZE``
(1,024) results in an ``lru_cache`` keyed on the vertex count, the
records, the kinds and the parity; bounded, it adds about 0.8 MB of peak
memory, and 4,289 of the 10,593 calls in that run hit.  A hit returns
what the engine computes for the same four arguments, and each process
keeps its own memo, so ``--workers`` cannot change a row.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
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


class ColoredGraph(NamedTuple):
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


def make_graph(v, edges, colors=None):
    """Build a ColoredGraph from (tail, head) pairs and color-sign rows;
    ValueError for records ``check_records`` refuses, a tadpole or a color cycle."""
    if colors is None:
        colors = [()] * len(edges)
    if len(colors) != len(edges):
        raise ValueError("one color row per edge required")
    k = len(colors[0]) if colors else 0
    records = tuple(tuple(e) + tuple(c) for e, c in zip(edges, colors))
    check_records(v, k, records)
    for rec in records:
        if rec[0] == rec[1]:
            raise ValueError(f"tadpole edge at vertex {rec[0]}")
    for c in range(1, k + 1):
        if not _color_acyclic(v, records, c):
            raise ValueError(f"color {c} orientation has a directed cycle")
    return ColoredGraph(v, k, records)


def check_records(v, k, records):
    """Raise ValueError unless every flat record holds two ends in 0..v-1
    and k color signs, each +-1."""
    for rec in records:
        if len(rec) != 2 + k:
            raise ValueError(f"record {rec} does not carry {k} color signs")
        if not (0 <= rec[0] < v and 0 <= rec[1] < v):
            raise ValueError(f"vertex index out of range in record {rec}")
        if any(s not in (1, -1) for s in rec[2:]):
            raise ValueError(f"color signs must be +-1 in record {rec}")


class GroupElement(NamedTuple):
    """One symmetry: a vertex relabeling, an edge relabeling and reversals.

    ``vertex_perm[i]`` is the new label of vertex ``i``; ``edge_perm[i]``
    is the new 0-based index of the edge at index ``i``; ``flips`` holds
    0-based indices of reversed edges.
    """

    vertex_perm: tuple
    edge_perm: tuple
    flips: frozenset


class CanonicalClass(NamedTuple):
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


def perm_parity(items) -> int:
    """Sign (+1/-1) of the permutation sorting the tie-free ``items``, by
    counting inversions; for a permutation given as a sequence of images
    that is its own sign."""
    inv = 0
    n = len(items)
    for i in range(n):
        a = items[i]
        for j in range(i + 1, n):
            if a > items[j]:
                inv += 1
    return -1 if inv & 1 else 1


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

    A round's cells come from a stable sort of the vertices by signature.
    Refinement stops once every cell is a singleton: a round ranks the
    signatures by the old class first, so it would give back the same
    cells in the same order.
    """
    classes = [0] * v
    cells = [list(range(v))] if v else []
    while len(cells) < v:
        sigs = [(classes[x], sorted([(classes[y], tag, d) for y, tag, d in ends])) for x, ends in enumerate(nbrs)]
        count, cells, prev = len(cells), [], None
        for x in sorted(range(v), key=sigs.__getitem__):
            if sigs[x] != prev:
                prev, cell = sigs[x], []
                cells.append(cell)
            cell.append(x)
            classes[x] = len(cells) - 1
        if len(cells) == count:
            break
    return cells


def _cell_perms(cells):
    """Yield (vertex permutation, sign) for every permutation that maps
    each cell onto its own block of positions, blocks in cell order.

    Every automorphism preserves the refined cells, so this set is closed
    under composing with automorphisms: its minimal normalized form is a
    class invariant, and an odd automorphism still shows as an equal form
    with the opposite sign.  A partition into singletons yields its one
    permutation directly.
    """
    base = [x for cell in cells for x in cell]
    # base lists the vertices by position, so it is the inverse of the
    # identity-within-blocks relabeling and has the same sign
    base_sign = perm_parity(base)
    perm = [0] * len(base)
    if len(cells) == len(base):
        for i, x in enumerate(base):
            perm[x] = i
        yield tuple(perm), base_sign
        return
    starts = itertools.accumulate(map(len, cells), initial=0)
    blocks = [(cell, start, _perms_with_signs(len(cell))) for cell, start in zip(cells, starts)]
    for choice in itertools.product(*(b[2] for b in blocks)):
        sign = base_sign
        for (cell, start, _), (p, s) in zip(blocks, choice):
            sign *= s
            for j, x in enumerate(cell):
                perm[x] = start + p[j]
        yield tuple(perm), sign


def _orbit_search(v, e, loops, connected, min_valence, emit):
    """Orbit representatives, with full signed stabilizers, of multigraphs
    with e edges on v labeled vertices (orderly generation after McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26 (1998)).

    An edge is a pair t < h, or a loop (t, t) if ``loops``.  Calls
    ``emit((pairs, stab))`` as the search finds each: the sorted pairs
    and the (vertex permutation, sign) pairs fixing them, as
    ``_cell_perms`` yields them; ``emit`` may raise to stop the search.
    Only multigraphs that are connected, if ``connected``, and whose every
    vertex has valence at least ``min_valence`` are emitted; a pair end
    counts once and a loop twice.

    Only labelings whose vertex signatures (degree, loops) do not increase
    are built.  Edges are chosen in (min end, max end) order, so vertices
    complete in label order, and a branch dies once a partial signature
    exceeds the last completed one.  Such labelings of one orbit differ by
    permutations within blocks of equal signature: the first one built is
    kept, and sweeping the block permutations marks the others seen and
    finds the stabilizer, which is all automorphisms because they preserve
    signatures.

    Valence and connectivity are isomorphism invariants, so a branch may
    also die once every completion is rejected: when the last completed
    vertex ends below ``min_valence``, or the later vertices miss more
    valence than the remaining edges have ends.  Such a branch holds only
    labelings of rejected orbits, so every kept orbit has the same
    representative, stabilizer and position as without the filters.
    """
    alphabet, opens = [], set()
    for a in range(v):
        opens.add(len(alphabet))
        for b in range(a if loops else a + 1, v):
            alphabet.append((a, b, ((a, 1, 2),) if a == b else ((a, 0, 1), (b, 0, 1))))
    m = min_valence
    if (e and not alphabet) or m * v > 2 * e:
        return
    sig = [[0, 0] for _ in range(v)]
    val = [0] * v  # valences; each bump says what its edge adds
    chosen = []
    seen = set()

    def image(p):
        return tuple(sorted((p[t], p[h]) if p[t] <= p[h] else (p[h], p[t]) for t, h in chosen))

    def leaf():
        if sig != sorted(sig, reverse=True):
            return
        if m and min(val) < m:
            return
        if connected and not _pairs_connected(v, chosen):
            return
        key = image(range(v))
        if key in seen:
            return
        cells = [list(c) for _, c in itertools.groupby(range(v), key=sig.__getitem__)]
        stab = []
        for p, sign in _cell_perms(cells):
            moved = image(p)
            seen.add(moved)
            if moved == key:
                stab.append((p, sign))
        emit((key, tuple(stab)))

    def extend(i, rem):
        # the last entry takes all remaining edges, so they run out at the
        # latest with the alphabet
        if not rem:
            return leaf()
        t, h, bumps = alphabet[i]
        # entering vertex t's entries, vertex t - 1 is complete: no later
        # vertex may outrank it, it must reach the minimum valence, and the
        # remaining edges must cover what the later vertices miss
        if t and i in opens:
            if max(sig[t:]) > sig[t - 1]:
                return
            if m and (val[t - 1] < m or sum(max(0, m - d) for d in val[t:]) > 2 * rem):
                return
        added = 0
        while True:
            if added >= (rem if i == len(alphabet) - 1 else 0):
                extend(i + 1, rem - added)
            if added == rem:
                break
            added += 1
            chosen.append((t, h))
            for x, c, w in bumps:
                sig[x][c] += 1
                val[x] += w
            if t and (sig[t] > sig[t - 1] or sig[h] > sig[t - 1]):
                break
        del chosen[len(chosen) - added:]
        for x, c, w in bumps:
            sig[x][c] -= added
            val[x] -= w * added

    extend(0, e)


@lru_cache(maxsize=None)
def _orbit_reps(v, e, loops, connected, min_valence):
    """The generation layer's one cache: ``_orbit_search``'s orbits."""
    reps = []
    _orbit_search(v, e, loops, connected, min_valence, reps.append)
    return tuple(reps)


@lru_cache(maxsize=None)
def _acyclic_support_signs(v: int, support: tuple):
    """All sign assignments on the distinct pairs that orient them
    acyclically, each sign taken relative to the (t, h) order with t < h.

    The pairs are oriented one at a time by ``_reach``'s rule, branching
    where it applies it once: an arc whose head already reaches its tail
    is skipped, and ``reach[x]`` is the bit set of the vertices reachable
    from x.  Each branch is acyclic, and the two orientations of a pair
    lead to disjoint branches, so every acyclic orientation is found once.
    """
    out = []
    signs = [0] * len(support)

    def extend(i, reach):
        if i == len(support):
            out.append(tuple(signs))
            return
        t, h = support[i]
        for sign, a, b in ((1, t, h), (-1, h, t)):
            if not reach[b] >> a & 1:
                signs[i] = sign
                # whatever reaches a now reaches everything b reaches
                extend(i + 1, [r | reach[b] if r >> a & 1 else r for r in reach])

    extend(0, [1 << x for x in range(v)])
    return tuple(sorted(out))


def _decorations(v, pairs, d):
    """Every labeled solid/dotted decoration of a multigraph's sorted pairs,
    as sorted (solid arcs, dotted pairs): d edges dotted, every loop among
    them, and the rest solid arcs, parallel ones pointing the same way and
    all oriented acyclically (``_acyclic_support_signs``)."""
    for solid in dict.fromkeys(itertools.combinations([p for p in pairs if p[0] != p[1]], len(pairs) - d)):
        dotted = tuple((Counter(pairs) - Counter(solid)).elements())
        support = tuple(dict.fromkeys(solid))
        for signs in _acyclic_support_signs(v, support):
            up = dict(zip(support, signs))
            yield tuple(sorted((t, h) if up[t, h] > 0 else (h, t) for t, h in solid)), dotted


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


def _colored_classes(v, k, structures, kinds, parity, admit, decorate=None):
    """One labeled coloring (one sorted record tuple per kind) per non-Zero
    class of k-colored graphs on the given multigraphs, in their order.

    ``structures`` yields ``(pairs, stab)`` as ``_orbit_reps`` lists them,
    and the stabilizer is swept as it is.  ``decorate(pairs)`` yields the
    labeled structures on a multigraph, one sorted tuple of (t, h) pairs
    per kind in ``kinds``; without it the multigraph is its one structure.
    The decorated colorings of one class form one orbit of the stabilizer,
    the multigraph's full automorphism group, so each orbit is swept once,
    from the first of them that ``admit`` accepts (admission is a class
    property): every image is marked seen, and that coloring is yielded
    unless the class is Zero, that is unless a tadpole or repeated records
    make every image Zero or two images agree with opposite signs (an odd
    automorphism).  Under a one-permutation stabilizer each is its own
    class, and its one relabeling is the Zero test.  A coloring is its
    class's canonical form up to sign: callers canonicalize what they store.
    """
    for pairs, stab in structures:
        colorings = (c for edges in (decorate(pairs) if decorate else ((pairs,),)) for c in _colorings(v, k, edges))
        if len(stab) == 1:
            ((perm, sign),) = stab
            for colored in colorings:
                if admit(colored) and _relabeled_form(colored, kinds, parity, perm, sign) is not None:
                    yield colored
            continue
        seen = set()
        for colored in colorings:
            if colored in seen or not admit(colored):
                continue
            signs, zero = {}, False
            for perm, sign in stab:
                out = _relabeled_form(colored, kinds, parity, perm, sign)
                if out is None:
                    zero = True
                    break
                zero |= signs.setdefault(out[0], out[1]) != out[1]
            seen.update(signs)
            if not zero:
                yield colored


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
VERTICES_ODD = Parity.ODD
GRAPH_KINDS = (EdgeKind(True, Parity.ODD, Parity.EVEN),)
# solid arrows are pinned to the last color; dotted ones reverse
SKELETON_KINDS = (EdgeKind(False, None, Parity.EVEN), EdgeKind(True, Parity.EVEN, Parity.ODD))


def _edge_ends(v, edges, kinds):
    """Refinement input of a typed-edge graph (one record tuple per kind):
    at each edge end, the far end, the tag ``2 * kind + end`` and the color
    signs pointing away from this end, none of which a reversal changes.
    ``end`` is 1 at the head of a pinned arrow and at a reversible
    tadpole, whose signs are taken up to reversal, and 0 otherwise.  The
    signs are the bits of an int, the first sign highest and +1 a one:
    the records of one kind carry equally many signs, so these ints order
    as the sign tuples do, and negating the signs complements the bits."""
    nbrs = [[] for _ in range(v)]
    for i, (records, kind) in enumerate(zip(edges, kinds)):
        out_tag, in_tag = 2 * i, 2 * i + (not kind.reversible)
        for rec in records:
            t, h = rec[0], rec[1]
            bits = 0
            for s in rec[2:]:
                bits = bits << 1 | (s > 0)
            neg = bits ^ ((1 << (len(rec) - 2)) - 1)
            if t == h and kind.reversible:
                nbrs[t].append((t, 2 * i + 1, min(bits, neg)))
            else:
                nbrs[t].append((h, out_tag, bits))
                nbrs[h].append((t, in_tag, neg))
    return nbrs


def _relabeled_form(edges, kinds, parity, perm, sign):
    """Normalized form and sign of the vertex relabeling ``perm`` of sign
    ``sign``, or None when it shows an odd automorphism: an odd tadpole
    reversal that fixes its signs, or two equal records of a kind whose
    label swaps are odd.  ``edges`` holds one tuple of flat records per
    kind in ``kinds``.  Reversible edges turn so that tail < head (a
    tadpole takes the smaller of its two sign rows) and each kind's
    records are sorted, under the sign rules of the parity (a vertex
    relabeling is odd for odd parity, the kinds say the rest).
    """
    if parity is not VERTICES_ODD:
        sign = 1
    form = []
    for records, kind in zip(edges, kinds):
        reversible, reversal_odd = kind.reversible, kind.reversal_odd is parity
        recs = []
        for rec in records:
            t, h, cs = perm[rec[0]], perm[rec[1]], rec[2:]
            if reversible and t >= h:
                neg = tuple([-s for s in cs])
                if t > h or neg < cs:
                    t, h, cs = h, t, neg
                    if reversal_odd:
                        sign = -sign
                elif neg == cs and reversal_odd:
                    # reversing the tadpole is an odd automorphism
                    return None
            recs.append((t, h) + cs)
        if kind.labels_odd is parity:
            if len(set(recs)) < len(recs):
                return None
            sign *= perm_parity(recs)
        form.append(tuple(sorted(recs)))
    return tuple(form), sign


def form_key(edges):
    """The one order of forms, one record tuple per kind: pair data of every
    kind, then color data.  A slice or skeleton shape fixes the record
    counts, so a sorted basis lists the classes on one structure together."""
    return [r[:2] for rs in edges for r in rs] + [r[2:] for rs in edges for r in rs]


def _normal_form(edges, kinds, parity, perms):
    """Least ``_relabeled_form`` under ``form_key``, with its sign, over the
    given vertex perms, or None when an odd automorphism kills the class.
    ``perms`` is an iterable of (vertex permutation, permutation sign)
    pairs closed under composing with the graph's automorphisms: the
    refinement-respecting permutations (canonical forms) or all of S_v
    (the exhaustive reference).
    """
    best = best_key = None
    best_sign = 0
    for perm, psign in perms:
        out = _relabeled_form(edges, kinds, parity, perm, psign)
        if out is None:
            return None
        form, sign = out
        key = form_key(form)
        if best_key is None or key < best_key:
            best, best_key, best_sign = form, key, sign
        elif key == best_key and sign != best_sign:
            return None
    return best, best_sign


def shift_sign(d, odd, parity):
    """Sign of moving one label ``d`` places, or of ``d`` arrow reversals:
    each step is a swap that flips the sign under the parity ``odd``
    (``VERTICES_ODD``, or an edge kind's ``labels_odd`` or
    ``reversal_odd``; None: never)."""
    return -1 if d & 1 and odd is parity else 1


def merge_labels(v, x, y):
    """Relabeling of 0..v-1, as a list of new labels, that maps y onto x
    and closes the gap at y.  With x == y it only closes the gap, for a
    vertex that no remaining record touches."""
    lab = [z - (z > y) for z in range(v)]
    lab[y] = lab[x]
    return lab


def relabel_records(records, lab, skip=None):
    """The flat records with both ends relabeled by ``lab``, leaving out
    the record at index ``skip``."""
    return tuple((lab[r[0]], lab[r[1]]) + r[2:] for i, r in enumerate(records) if i != skip)


# entries of the canonical-form memo, bounded to keep its peak memory
# small (see the module docstring)
CANON_MEMO_SIZE = 1 << 10


@lru_cache(maxsize=CANON_MEMO_SIZE)
def _canonical_form(v, edges, kinds, parity):
    """Canonical (form, sign) of a typed-edge graph, or None for Zero: the
    kernel over the relabelings that respect the refined cells, or the
    one relabeling when the cells are singletons.  Memoized on all four
    arguments (see the module docstring)."""
    cells = _refine(v, _edge_ends(v, edges, kinds))
    if len(cells) < v:
        return _normal_form(edges, kinds, parity, _cell_perms(cells))
    ((perm, sign),) = _cell_perms(cells)
    return _relabeled_form(edges, kinds, parity, perm, sign)


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
    vp, ep = elem.vertex_perm, elem.edge_perm
    if sorted(vp) != list(range(g.v)) or sorted(ep) != list(range(g.e)) or not set(elem.flips) <= set(range(g.e)):
        raise ValueError("group element must permute the vertices and the edges and flip only edges")
    new_records = [None] * g.e
    for i, rec in enumerate(g.records):
        t, h = vp[rec[0]], vp[rec[1]]
        cs = rec[2:]
        if i in elem.flips:
            t, h = h, t
            cs = tuple(-s for s in cs)
        new_records[ep[i]] = (t, h) + cs
    if parity is Parity.EVEN:
        sign = perm_parity(ep)
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
    return _reach(v, [(r[0], r[1]) if r[1 + c] > 0 else (r[1], r[0]) for r in records]) is not None


def _reach(v, arcs):
    """``reach[x]``: the bit set of the vertices x reaches along the
    (tail, head) arcs, itself included, or None when the arcs close a
    directed cycle.  The arcs join one at a time: an arc a -> b closes a
    cycle iff b already reaches a (a tadpole included); otherwise whatever
    reaches a now also reaches everything b reaches."""
    reach = [1 << x for x in range(v)]
    for a, b in arcs:
        if reach[b] >> a & 1:
            return None
        reach = [r | reach[b] if r >> a & 1 else r for r in reach]
    return reach


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


def _passing(v, k, records):
    """The passing vertices of the flat records, from one pass over them: a
    vertex passes when it ends two records and, in every one of the k
    colors, is the head of exactly one.  A tadpole counts twice in each
    color, so its vertex never passes in a color; with no colors every
    2-valent vertex passes."""
    ends = [0] * v
    heads = [[0] * v for _ in range(k)]
    for rec in records:
        t, h = rec[0], rec[1]
        ends[t] += 1
        ends[h] += 1
        for count, s in zip(heads, rec[2:]):
            count[h if s > 0 else t] += 1 + (t == h)
    return [x for x in range(v) if ends[x] == 2 and all(count[x] == 1 for count in heads)]


def is_passing(g: ColoredGraph, x: int) -> bool:
    """2-valent and the head of one edge and the tail of the other in
    every color.  With no colors every 2-valent vertex passes."""
    if not (0 <= x < g.v):
        raise ValueError(f"vertex {x} out of range")
    return x in _passing(g.v, g.k, g.records)


def has_passing_vertex(g: ColoredGraph) -> bool:
    return 2 in _pair_degrees(g.v, g.edges) and bool(_passing(g.v, g.k, g.records))


class TermVector:
    """Finite formal linear combination with exact rational coefficients.

    Keys are hashable graph objects (canonical representatives); zero
    coefficients are dropped eagerly.
    """

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = {}

    def add(self, key, coeff):
        if not isinstance(coeff, Fraction):
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
            self.add(cls.rep, coeff * cls.sign)

    def add_vector(self, other, scale=1):
        for key, coeff in other.terms.items():
            self.add(key, scale * coeff)

    @classmethod
    def from_counts(cls, counts):
        """The vector of a dict of int coefficients summed elsewhere: one
        Fraction per nonzero entry."""
        out = cls()
        out.terms = {key: Fraction(coeff) for key, coeff in counts.items() if coeff}
        return out

    def without(self, killed):
        """This vector without the terms whose key ``killed`` accepts: a
        quotient projection."""
        out = TermVector()
        out.terms = {key: coeff for key, coeff in self.terms.items() if not killed(key)}
        return out

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
