"""Graded bases of the oriented graph complexes and their differential.

A slice is the span of symmetry classes of connected k-colored graphs
with fixed vertex and edge counts, optionally restricted by valence and
passing-vertex constraints.  The differential contracts single edges and
deletes 1-valent vertices; it always drops both counts by one and never
changes the loop number e - v.  Bases come from the graph module's
colored-class enumerator, matrices from ``linalg.matrix_of``.

Sign bookkeeping for the differential (validated globally by the d^2 = 0
suite): before contracting edge t = (u -> w) the head w is moved to the
last vertex label and t to the last edge label, each by a cyclic shift;
before deleting a 1-valent vertex x the vertex is moved last, its edge is
moved last and reversed to point at x if needed.  The shifts contribute
(-1)^(v-1-w) resp. (-1)^(e-t) under the parity that makes them odd.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    ColoredGraph,
    Parity,
    TermVector,
    GRAPH_KINDS,
    _color_acyclic,
    _colored_classes,
    _orbit_reps,
    _pair_degrees,
    _pairs_connected,
    canonicalize,
    has_passing_vertex,
    sort_key,
    to_text,
)
from .linalg import SparseRationalMatrix, homology, matrix_of


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


@dataclass(frozen=True)
class SliceParams:
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

@dataclass(frozen=True)
class BasisSlice:
    params: SliceParams
    basis: tuple
    degree: int

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


def check_bounds(v, e, k, force=False):
    if force:
        return
    if v > DEFAULT_BOUNDS["v"] or e > DEFAULT_BOUNDS["e"] or k > DEFAULT_BOUNDS["k"]:
        raise ValueError(
            f"slice (v={v}, e={e}, k={k}) exceeds the default bounds "
            f"{DEFAULT_BOUNDS}; pass force=True to override"
        )


# ---------------------------------------------------------------------------
# underlying multigraphs, orbit representatives and acyclic orientations


@dataclass(frozen=True)
class _Multigraph:
    pairs: tuple          # sorted (t, h) pairs with t < h
    degrees: tuple
    connected: bool
    stab: tuple           # vertex perms fixing the sorted pair multiset


@lru_cache(maxsize=None)
def _multigraph_reps(v: int, e: int):
    """Orbit representatives of e-edge multigraphs on v labeled vertices,
    each with its stabilizer: the degree-sorted labelings built first by
    the orbit generator ``_orbit_reps``, disconnected ones included."""
    return tuple(
        _Multigraph(pairs, _pair_degrees(v, pairs), _pairs_connected(v, pairs), stab)
        for (pairs,), stab in _orbit_reps(v, ((e, False, False),))
    )


def _admits_degrees(M, cons):
    """The constraints that a multigraph's connectivity and degrees decide
    before any coloring."""
    if Constraint.CONNECTED in cons and not M.connected:
        return False
    if Constraint.MIN_VALENCE_2 in cons and any(d < 2 for d in M.degrees):
        return False
    if Constraint.ONLY_2_VALENT in cons and any(d != 2 for d in M.degrees):
        return False
    return Constraint.MIN_VALENCE_3_SOMEWHERE not in cons or any(d >= 3 for d in M.degrees)


def enumerate_basis(params: SliceParams, force=False) -> BasisSlice:
    """All canonical classes of the slice, sorted, duplicates and Zero
    classes removed.

    Works in two levels: orbit representatives of the underlying
    multigraph that pass the degree constraints first, then the colored
    classes on each (``graphs._colored_classes``), dropping colorings with
    a passing vertex under the no-passing constraint.
    """
    check_constraints(params.constraints)
    check_bounds(params.v, params.e, params.k, force)
    if params.v < 1 or params.e < 0:
        raise ValueError("need v >= 1 and e >= 0")
    v, k, cons = params.v, params.k, params.constraints
    structures = [((M.pairs,), M.stab) for M in _multigraph_reps(v, params.e) if _admits_degrees(M, cons)]

    def admit(edges):
        return Constraint.NO_PASSING not in cons or not has_passing_vertex(ColoredGraph(v, k, edges[0]))

    reps = _colored_classes(v, k, structures, GRAPH_KINDS, params.parity, admit)
    basis = sorted((ColoredGraph(v, k, records) for (records,) in reps), key=sort_key)
    return BasisSlice(params, tuple(basis), params.degree)


# ---------------------------------------------------------------------------
# the differential


def contract_edge(g: ColoredGraph, t: int, parity: Parity) -> TermVector:
    """Contract the edge labeled t (1-based); empty vector when the
    contraction forms a tadpole or a colored cycle or a Zero class."""
    if not (1 <= t <= g.e):
        raise ValueError(f"edge label {t} out of range 1..{g.e}")
    rec = g.records[t - 1]
    u, w = rec[0], rec[1]
    out = TermVector()
    # a second edge between u and w would close into a tadpole
    for i, other in enumerate(g.records):
        if i != t - 1 and {other[0], other[1]} == {u, w}:
            return out
    sign = 1
    if parity is Parity.ODD:
        if (g.v - 1 - w) & 1:
            sign = -sign
    else:
        if (g.e - t) & 1:
            sign = -sign
    merged = u if u < w else u - 1

    def relabel(x):
        if x == w:
            return merged
        return x if x < w else x - 1

    new_records = tuple(
        (relabel(r[0]), relabel(r[1])) + r[2:] for i, r in enumerate(g.records) if i != t - 1
    )
    for c in range(1, g.k + 1):
        if not _color_acyclic(g.v - 1, new_records, c):
            return out
    out.add_class(canonicalize(ColoredGraph(g.v - 1, g.k, new_records), parity), sign)
    return out


def delete_one_valent(g: ColoredGraph, x: int, parity: Parity) -> TermVector:
    """Remove the 1-valent vertex x together with its edge."""
    incident = [i for i, r in enumerate(g.records) if x in r[:2]]
    if len(incident) != 1:
        raise ValueError(f"vertex {x} is not 1-valent")
    a = incident[0]
    sign = 1
    if parity is Parity.ODD:
        if (g.v - 1 - x) & 1:
            sign = -sign
        if g.records[a][1] != x:
            # reverse the edge to point at x before removing it
            sign = -sign
    else:
        if (g.e - 1 - a) & 1:
            sign = -sign

    def relabel(y):
        return y if y < x else y - 1

    new_records = tuple(
        (relabel(r[0]), relabel(r[1])) + r[2:] for i, r in enumerate(g.records) if i != a
    )
    out = TermVector()
    out.add_class(canonicalize(ColoredGraph(g.v - 1, g.k, new_records), parity), sign)
    return out


def differential(g: ColoredGraph, parity: Parity) -> TermVector:
    """Sum of all edge contractions minus all 1-valent deletions."""
    out = TermVector()
    for t in range(1, g.e + 1):
        out.add_vector(contract_edge(g, t, parity))
    for x, d in enumerate(_pair_degrees(g.v, g.edges)):
        if d == 1:
            out.add_vector(delete_one_valent(g, x, parity), -1)
    return out


def differential_in_slice(g: ColoredGraph, parity: Parity, constraints) -> TermVector:
    """Differential followed by the quotient projection of the slice:
    with the no-passing constraint, terms with a passing vertex drop."""
    vec = differential(g, parity)
    if Constraint.NO_PASSING not in constraints:
        return vec
    out = TermVector()
    for rep, coeff in vec.terms.items():
        if not has_passing_vertex(rep):
            out.add(rep, coeff)
    return out


class BasisClosureError(RuntimeError):
    pass


def differential_matrix(src: BasisSlice, dst: BasisSlice) -> SparseRationalMatrix:
    """Matrix of the differential from src to dst (column j = image of
    basis element j).  A term missing from dst is a basis-closure bug and
    raises instead of being dropped."""
    sp, dp = src.params, dst.params
    if (dp.v, dp.e, dp.k, dp.n, dp.constraints) != (sp.v - 1, sp.e - 1, sp.k, sp.n, sp.constraints):
        raise ValueError("dst params must equal src params shifted by (v-1, e-1)")
    return matrix_of(
        lambda g: differential_in_slice(g, sp.parity, sp.constraints),
        src.basis,
        dst.basis,
        lambda rep: BasisClosureError("differential term missing from the target slice:\n" + to_text(rep)),
    )


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
    _, dims = homology({sl.params.v: sl for sl in chain}, differential_matrix)
    return [(sl.params.v, sl.degree, dims[sl.params.v]) for sl in chain]
