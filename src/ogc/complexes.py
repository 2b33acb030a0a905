"""Graded bases of the oriented graph complexes and their differential.

A slice is the span of symmetry classes of connected k-colored graphs
with fixed vertex and edge counts, optionally restricted by valence and
passing-vertex constraints.  The differential is the sum of the edge
contractions minus the deletions of 1-valent vertices; it always drops
both counts by one and never changes the loop number e - v.  One
finisher, ``_basis``, sorts the canonical forms of the classes that
``_classes`` admits by ``graphs.form_key``, for this complex and for the
solid/dotted one (``skeleton.enumerate_skeleton_shape``); matrices come
from ``linalg.matrix_of``.

Each column of the differential is built in one pass over its source
graph, and only from the terms that survive.  Contracting an edge with
exactly one 1-valent end gives the same signed class as deleting that
leaf, so ``differential`` skips the pair: it builds only the
contractions of the other edges and the deletions of the leaves of K2
components.  Before any relabeling, ``_contractible`` counts the edges
on each vertex pair and, per color, the vertices each vertex reaches,
and drops every contraction that would form a tadpole or close a
colored cycle.  The surviving terms are canonicalized and their signed
coefficients added as ints into one dict, which becomes the column's
``TermVector`` with one Fraction per entry.  ``contract_edge`` and
``delete_one_valent`` build single terms through the same helper.

Why these two tests are all it takes.  Contracting the edge u -> w
merges w into u; a tadpole forms iff another edge joins u and w.  With
no such edge, take a color and its arc p -> q on the pair.  The source
is acyclic in that color, so a directed cycle in the merged graph must
pass through the merged vertex, and reading it back in the source gives
a path between the ends of the pair that avoids the contracted edge: not
from p to p or q to q (a cycle in the source), not from q to p (a cycle
with the arc p -> q), so from p to q.  That path is not the arc itself
and, the pair carrying one edge, not of length 1; conversely every path
p -> ... -> q of length >= 2 closes a cycle.  So the contraction closes a
cycle in that color iff p reaches q by a path of length >= 2.  Deleting
a vertex with its edge leaves a subgraph of an acyclic orientation, so a
deletion never closes a cycle, and it never forms a tadpole.

Sign bookkeeping (validated globally by the d^2 = 0 suite): every term
removes one edge, labeled t, and one vertex x, through one helper,
``_removals``; x is the head of a contracted edge or the deleted leaf.
Before the removal x moves to the last vertex label and t to the last
edge label, each by a cyclic shift, and the edge reverses to point at x
if needed.  The shifts contribute (-1)^(v-1-x) resp. (-1)^(e-t) under
the parity that makes them odd, and the reversal -1 under odd parity
(``graphs.shift_sign``).

Homology tables.  Since d^2 = 0, the rank of the differential out of the
slice above a table is at most the kernel dimension at the table's top,
so ``homology_table`` builds that slice only until the bound is met; the
columns it never builds are checked for closure only by ``verify-dsq``.
It ranks each class's column from a labeled coloring, which gives the
representative's column up to sign, and canonicalizes no class there.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import NamedTuple

from .graphs import (
    ColoredGraph,
    Parity,
    TermVector,
    GRAPH_KINDS,
    VERTICES_ODD,
    _canonical_form,
    _colored_classes,
    _orbit_reps,
    _orbit_search,
    _pair_degrees,
    _reach,
    canonicalize,
    form_key,
    has_passing_vertex,
    merge_labels,
    relabel_records,
    shift_sign,
)
from .linalg import SparseRationalMatrix, column_map, homology, matrix_of, rank_until

(EDGES,) = GRAPH_KINDS


class Constraint(enum.Enum):
    CONNECTED = "connected"
    MIN_VALENCE_2 = "min_valence_2"
    NO_PASSING = "no_passing"
    MIN_VALENCE_3_SOMEWHERE = "min_valence_3_somewhere"
    ONLY_2_VALENT = "only_2_valent"


# the reduced complex: at least 2-valent, somewhere 3-valent, passing
# vertices quotiented away
REDUCED_CONSTRAINTS = frozenset(
    {
        Constraint.CONNECTED,
        Constraint.MIN_VALENCE_2,
        Constraint.MIN_VALENCE_3_SOMEWHERE,
        Constraint.NO_PASSING,
    }
)

DEFAULT_BOUNDS = {"v": 8, "e": 12, "k": 2}
# one skeleton shape: vertices, expanded edges (solid + 2 * dotted), colors
SHAPE_BOUNDS = {"v": 6, "e": 12, "k": 2}


class SliceParams(NamedTuple):
    v: int
    e: int
    k: int
    n: int
    constraints: frozenset

    @property
    def parity(self) -> Parity:
        return Parity.from_n(self.n)

    @property
    def degree(self) -> int:
        return (self.v - 1) * self.n + (1 - self.n) * self.e

    @property
    def loop_number(self) -> int:
        return self.e - self.v


class BasisSlice:
    """The sorted basis of one slice and its degree; its length is the
    basis size."""

    __slots__ = ("params", "basis", "degree")

    def __init__(self, params: SliceParams, basis: tuple, degree: int):
        self.params, self.basis, self.degree = params, basis, degree

    def __len__(self):
        return len(self.basis)


def check_constraints(constraints):
    constraints = frozenset(constraints)
    bad = constraints - set(Constraint)
    if bad:
        raise ValueError(f"unknown constraints {bad}")
    if Constraint.ONLY_2_VALENT in constraints and Constraint.MIN_VALENCE_3_SOMEWHERE in constraints:
        raise ValueError("only_2_valent excludes min_valence_3_somewhere")
    return constraints


def check_bounds(v, e, k, force=False, bounds=DEFAULT_BOUNDS):
    """Refuse a slice over the table, ``DEFAULT_BOUNDS`` or, with e = solid
    + 2 * dotted, ``SHAPE_BOUNDS`` for a skeleton shape, unless forced."""
    if force:
        return
    if v > bounds["v"] or e > bounds["e"] or k > bounds["k"]:
        raise ValueError(
            f"slice (v={v}, e={e}, k={k}) exceeds the default bounds "
            f"{bounds}; pass force=True to override"
        )


# ---------------------------------------------------------------------------
# basis enumeration


def _min_valence(k, cons):
    """The least degree a slice admits: 2 under min_valence_2 or
    only_2_valent, and 3 if also k = 0 and no_passing, because with no
    colors every 2-valent vertex passes."""
    if not cons & {Constraint.MIN_VALENCE_2, Constraint.ONLY_2_VALENT}:
        return 0
    return 3 if k == 0 and Constraint.NO_PASSING in cons else 2


def _admits_degrees(v, pairs, cons):
    """The degree constraints the orbit generator leaves, on a multigraph."""
    degrees = _pair_degrees(v, pairs)
    if Constraint.ONLY_2_VALENT in cons and any(d != 2 for d in degrees):
        return False
    return Constraint.MIN_VALENCE_3_SOMEWHERE not in cons or any(d >= 3 for d in degrees)


def _orbit_args(params: SliceParams):
    """The orbit generator's arguments for the slice's underlying
    multigraphs: connected ones only under the connectivity constraint,
    and only ones of the least degree the constraints admit."""
    cons = params.constraints
    return params.v, params.e, False, Constraint.CONNECTED in cons, _min_valence(params.k, cons)


def _classes(v, k, parity, cons, structures, kinds=GRAPH_KINDS, decorate=None):
    """The classes on the given orbit multigraphs under the constraints,
    in their order, each as a labeled coloring (one record tuple per kind)
    as it is found: the colored classes (``graphs._colored_classes``) of
    the ``decorate`` structures on the multigraphs that pass the degree
    constraints, without colorings that have a passing vertex under
    no_passing.  Both read the edges of all kinds together, so one routine
    admits the classes of both bases."""
    structures = ((pairs, stab) for pairs, stab in structures if _admits_degrees(v, pairs, cons))
    no_passing = Constraint.NO_PASSING in cons

    def admit(records):
        return not no_passing or not has_passing_vertex(ColoredGraph(v, k, sum(records, ())))

    return _colored_classes(v, k, structures, kinds, parity, admit, decorate)


def _basis(v, k, parity, cons, structures, kinds=GRAPH_KINDS, decorate=None):
    """The canonical forms (one record tuple per kind) of the classes
    ``_classes`` admits, sorted by ``form_key``: the basis order of both
    complexes.  Each class is found once, and Zero classes never are."""
    found = _classes(v, k, parity, cons, structures, kinds, decorate)
    classes = [_canonical_form(v, edges, kinds, parity) for edges in found]
    assert None not in classes, "stabilizer and refinement disagree on Zero"
    return sorted((form for form, _ in classes), key=form_key)


def enumerate_basis(params: SliceParams, force=False) -> BasisSlice:
    """All canonical classes of the slice, in basis order: ``_basis`` on
    the cached ``graphs._orbit_reps``."""
    check_constraints(params.constraints)
    check_bounds(params.v, params.e, params.k, force)
    if params.v < 1 or params.e < 0 or params.k < 0:
        raise ValueError("need v >= 1, e >= 0 and color count k >= 0")
    v, k = params.v, params.k
    forms = _basis(v, k, params.parity, params.constraints, _orbit_reps(*_orbit_args(params)))
    return BasisSlice(params, tuple(ColoredGraph(v, k, records) for (records,) in forms), params.degree)


# ---------------------------------------------------------------------------
# the differential


def _contractible(g: ColoredGraph):
    """Per edge index, whether contracting the edge leaves a graph: not
    when a second edge joins its ends (a tadpole), nor when in some color
    its tail reaches its head by a path of length >= 2 (a directed
    cycle).  The module docstring proves that nothing else can fail."""
    pairs = [(r[0], r[1]) if r[0] < r[1] else (r[1], r[0]) for r in g.records]
    mult = Counter(pairs)
    ok = [mult[pair] == 1 for pair in pairs]
    for i in range(2, 2 + g.k):
        # each edge as its color-(i - 1) arc
        arcs = [(r[0], r[1]) if r[i] > 0 else (r[1], r[0]) for r in g.records]
        reach = _reach(g.v, arcs)
        if reach is None:
            raise ValueError(f"color {i - 1} orientation has a directed cycle")
        # far[x]: the vertices x reaches by a path of length >= 2
        far = [0] * g.v
        for a, b in arcs:
            far[a] |= reach[b] & ~(1 << b)
        ok = [keep and not far[a] >> b & 1 for keep, (a, b) in zip(ok, arcs)]
    return ok


def _removals(g: ColoredGraph, removals, parity: Parity) -> TermVector:
    """The sum of the given terms of the differential, each a tuple
    (a, keep, gone, coeff): ``coeff`` times g with the edge at index a
    removed and vertex ``gone`` merged into ``keep``, or deleted when
    ``keep == gone`` (then no other record touches it), signed as the
    module docstring says.  The caller has dropped the terms that form a
    tadpole or a colored cycle (``_contractible``); Zero classes drop
    here.  Coefficients add up as ints, one Fraction per entry at the
    end."""
    counts = {}
    for a, keep, gone, coeff in removals:
        records = relabel_records(g.records, merge_labels(g.v, keep, gone), a)
        cls = canonicalize(ColoredGraph(g.v - 1, g.k, records), parity)
        if cls.is_zero:
            continue
        head = g.records[a][1]
        sign = (
            shift_sign(g.v - 1 - gone, VERTICES_ODD, parity)
            * shift_sign(g.e - 1 - a, EDGES.labels_odd, parity)
            * shift_sign(head != gone, EDGES.reversal_odd, parity)
        )
        counts[cls.rep] = counts.get(cls.rep, 0) + coeff * sign * cls.sign
    return TermVector.from_counts(counts)


def contract_edge(g: ColoredGraph, t: int, parity: Parity) -> TermVector:
    """Contract the edge labeled t (1-based); empty vector when the
    contraction forms a tadpole or a colored cycle or a Zero class."""
    if not (1 <= t <= g.e):
        raise ValueError(f"edge label {t} out of range 1..{g.e}")
    u, w = g.records[t - 1][:2]
    return _removals(g, [(t - 1, u, w, 1)] if _contractible(g)[t - 1] else [], parity)


def delete_one_valent(g: ColoredGraph, x: int, parity: Parity) -> TermVector:
    """Remove the 1-valent vertex x together with its edge."""
    incident = [i for i, r in enumerate(g.records) if x in r[:2]]
    if len(incident) != 1:
        raise ValueError(f"vertex {x} is not 1-valent")
    return _removals(g, [(incident[0], x, x, 1)], parity)


def differential(g: ColoredGraph, parity: Parity) -> TermVector:
    """Sum of all edge contractions minus all 1-valent deletions, built in
    one pass over g: ``_contractible`` tests every edge for a tadpole and
    a colored cycle at once, and ``_removals`` canonicalizes the terms
    that survive and adds their signed coefficients as ints, one Fraction
    per entry of the result.

    The contraction of an edge with exactly one 1-valent end equals the
    deletion of that leaf, so both are skipped.  Only a K2 component, an
    edge whose two ends are leaves, keeps its contraction and both
    deletions.  Why the pair cancels, for an edge a = (u -> w) and a leaf
    x:

    * Head leaf, x = w: the contraction merges w into u, the deletion
      closes the gap at w; no other record touches w, so both relabel
      the same records, and both move w and the edge last with no
      reversal.  Same class, same sign.
    * Tail leaf, x = u: the two results differ only in where w's image
      sits, so their labelings differ by a cycle of |u - w| positions,
      of sign (-1)^(|u-w|-1).  Under even parity vertex relabelings
      and reversals are sign-free and the edge shifts agree.  Under odd
      parity edge shifts are sign-free, and the deletion's
      (-1)^(v-1-u) times its reversal -1 times the cycle's sign is
      (-1)^(v-1-w), the contraction's sign.
    """
    deg = _pair_degrees(g.v, g.edges)
    contractible = _contractible(g)
    removals = []
    for a, rec in enumerate(g.records):
        u, w = rec[0], rec[1]
        leaves = (deg[u] == 1) + (deg[w] == 1)
        if leaves == 1:
            continue
        if contractible[a]:
            removals.append((a, u, w, 1))
        if leaves == 2:
            removals += ((a, u, u, -1), (a, w, w, -1))
    return _removals(g, removals, parity)


def differential_in_slice(g: ColoredGraph, parity: Parity, constraints) -> TermVector:
    """Differential followed by the quotient projection of the slice:
    with the no-passing constraint, terms with a passing vertex drop."""
    vec = differential(g, parity)
    if Constraint.NO_PASSING not in constraints:
        return vec
    return vec.without(has_passing_vertex)


_MISSING = "differential term missing from the target slice"


def _image(params: SliceParams):
    return lambda g: differential_in_slice(g, params.parity, params.constraints)


def differential_matrix(src: BasisSlice, dst: BasisSlice) -> SparseRationalMatrix:
    """Matrix of the differential from src to dst (column j = image of
    basis element j).  A term missing from dst is a basis-closure bug and
    raises ``linalg.ClosureError`` instead of being dropped."""
    sp, dp = src.params, dst.params
    if (dp.v, dp.e, dp.k, dp.n, dp.constraints) != (sp.v - 1, sp.e - 1, sp.k, sp.n, sp.constraints):
        raise ValueError("dst params must equal src params shifted by (v-1, e-1)")
    return matrix_of(_image(sp), src.basis, dst.basis, _MISSING)


def slice_chain(b, k, n, constraints, v_max, force=False):
    """Slices with loop number b for v = v_max down to 1, in the order the
    differential maps them."""
    out = []
    for v in range(v_max, 0, -1):
        e = v + b
        if e < 0:
            continue
        params = SliceParams(v, e, k, n, frozenset(constraints))
        out.append(enumerate_basis(params, force=force))
    return out


def homology_dims(chain):
    """Homology dimensions of a chain of slices ordered by decreasing v.

    Boundary slices use zero maps, so the first and last entries are only
    correct when the adjacent slices outside the list are empty.
    Returns (v, degree, dim) rows in the order of the chain.
    """
    for a, b in zip(chain, chain[1:]):
        if (b.params.v, b.params.e) != (a.params.v - 1, a.params.e - 1):
            raise ValueError("chain slices must step down by one vertex and one edge")
    _, _, dims = homology({sl.params.v: sl for sl in chain}, differential_matrix)
    return [(sl.params.v, sl.degree, dims[sl.params.v]) for sl in chain]


def homology_table(b, k, n, constraints, v_top, force=False):
    """Rows (v, degree, dim) of the homology with loop number b for v =
    v_top down to 1, equal to those of ``homology_dims(slice_chain(b, k,
    n, constraints, v_top + 1))``, with the slice above v_top built only
    as far as its rank needs.

    As d^2 = 0, the rank of the differential out of that slice is at most
    the kernel dimension at v_top, the v_top row of the chain below
    (homology from ranks; Weibel 1994, section 1.5).  When that is 0
    nothing above v_top is built; otherwise its orbit search
    (``graphs._orbit_search``) passes on each structure as it finds it,
    and the differential columns of the classes on it, each from a labeled
    coloring (``_classes``), are ranked as they come
    (``linalg.rank_until``) until the rank meets the bound.  Columns never
    built are never checked for closure.  The slice's bounds are checked
    first, as building it would.
    """
    top = SliceParams(v_top + 1, v_top + 1 + b, k, n, frozenset(constraints))
    if top.e >= 0:
        check_bounds(top.v, top.e, k, force)
    chain = slice_chain(b, k, n, constraints, v_max=v_top, force=force)
    rows = homology_dims(chain)
    if rows and rows[0][0] == v_top:
        v, degree, kernel = rows[0]
        column = column_map(_image(top), chain[0].basis, _MISSING)

        def search(emit):
            def columns(structure):
                for (records,) in _classes(top.v, k, top.parity, top.constraints, (structure,)):
                    emit(column(ColoredGraph(top.v, k, records)))

            _orbit_search(*_orbit_args(top), columns)

        rows[0] = (v, degree, kernel - rank_until(search, kernel))
    return rows
