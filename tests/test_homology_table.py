"""``complexes.homology_table`` against the full chain it shortens.

The routine ranks the differential out of the slice one vertex above the
table only until that rank meets the kernel below (d^2 = 0 bounds it), so
its rows must equal ``homology_dims`` of the chain that builds that slice
in full.  The grid covers the three ways the top slice can go: nothing
built when the kernel below is 0, a search stopped once the rank meets
the kernel, and a search that never meets it and builds every class.
"""

import pytest

from ogc import complexes, graphs
from ogc.complexes import (
    Constraint,
    REDUCED_CONSTRAINTS,
    SliceParams,
    enumerate_basis,
    homology_dims,
    homology_table,
    slice_chain,
)
from ogc.graphs import ColoredGraph, Parity, _orbit_reps, canonicalize
from ogc.linalg import ClosureError, column_map

CONNECTED = frozenset({Constraint.CONNECTED})
MIN2 = CONNECTED | {Constraint.MIN_VALENCE_2}
FAMILIES = {"reduced": REDUCED_CONSTRAINTS, "connected": CONNECTED, "connected-min2": MIN2}


def full_rows(b, k, n, constraints, v_top):
    rows = homology_dims(slice_chain(b, k, n, constraints, v_max=v_top + 1))
    return [row for row in rows if row[0] <= v_top]


@pytest.fixture
def top_search(monkeypatch):
    """Records how far the top slice's orbit search ran: ``calls`` is 0
    when nothing above the table was built, and ``done`` is set once the
    search ran to its end, so every class was built."""
    state = {"calls": 0, "done": False}
    real = complexes._orbit_search

    def counted(*args):
        state["calls"] += 1
        real(*args)
        state["done"] = True

    monkeypatch.setattr(complexes, "_orbit_search", counted)
    return state


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("n", [0, 1])
def test_rows_equal_the_full_chain(family, k, n, top_search):
    constraints = FAMILIES[family]
    modes = set()
    for b in range(-1, 4):
        for v_top in range(1, 6):
            # at k = 1 the full top slices past 6 edges take seconds each
            if k == 1 and v_top + 1 + b > 6:
                continue
            top_search.update(calls=0, done=False)
            assert homology_table(b, k, n, constraints, v_top) == full_rows(b, k, n, constraints, v_top), (b, v_top)
            modes.add("skip" if not top_search["calls"] else "full" if top_search["done"] else "stopped")
    assert "skip" in modes


@pytest.mark.parametrize(
    "b, k, n, constraints, v_top, mode, dim",
    [
        (3, 0, 0, REDUCED_CONSTRAINTS, 5, "skip", 0),
        (3, 0, 1, REDUCED_CONSTRAINTS, 5, "stopped", 0),
        (0, 1, 1, CONNECTED, 2, "full", 1),
    ],
    ids=["kernel-0-skip", "saturating", "never-saturating"],
)
def test_top_slice_is_built_only_as_far_as_its_rank_needs(b, k, n, constraints, v_top, mode, dim, top_search):
    rows = homology_table(b, k, n, constraints, v_top)
    assert rows == full_rows(b, k, n, constraints, v_top)
    assert rows[0][0] == v_top and rows[0][2] == dim
    assert top_search["calls"] == (mode != "skip")
    assert top_search["done"] == (mode == "full")


def test_top_slice_bounds_are_checked_before_any_work(monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("a slice was built")

    monkeypatch.setattr(complexes, "slice_chain", no_chain)
    with pytest.raises(ValueError, match=r"slice \(v=9, e=10, k=1\) exceeds the default bounds"):
        homology_table(1, 1, 0, REDUCED_CONSTRAINTS, 8)


def test_searched_columns_are_closure_checked(monkeypatch):
    # the saturating case ranks the top slice's columns over the v = 5
    # basis; emptied of its classes, every nonzero column misses it
    real = complexes.slice_chain

    def emptied_top(*args, **kwargs):
        chain = real(*args, **kwargs)
        top = chain[0]
        chain[0] = type(top)(top.params, (), top.degree)
        return chain

    monkeypatch.setattr(complexes, "slice_chain", emptied_top)
    monkeypatch.setattr(complexes, "homology_dims", lambda chain: [(5, 4, 3)] + homology_dims(chain[1:]))
    with pytest.raises(ClosureError, match="differential term missing from the target slice: "):
        homology_table(3, 0, 1, REDUCED_CONSTRAINTS, 5)


def test_top_search_ranks_labeled_columns(monkeypatch, top_search):
    """The top search ranks each class's column as its first admitted
    labeled coloring gives it, never canonicalizing that coloring: the
    column is the representative's up to sign, so the rank is the same.
    On the k = 1 ``connected`` slices at b = 0, n = 1."""
    n, k = 1, 1
    parity = Parity.from_n(n)
    moved = nonzero = 0
    for v_top in range(2, 6):
        top = SliceParams(v_top + 1, v_top + 1, k, n, CONNECTED)
        below = enumerate_basis(SliceParams(v_top, v_top, k, n, CONNECTED))
        column = column_map(complexes._image(top), below.basis, "")
        for (records,) in complexes._classes(top.v, k, parity, CONNECTED, _orbit_reps(*complexes._orbit_args(top))):
            g = ColoredGraph(top.v, k, records)
            cls = canonicalize(g, parity)
            assert column(g) == {i: cls.sign * c for i, c in column(cls.rep).items()}
            moved += cls.rep != g
            nonzero += bool(column(g))
    assert moved and nonzero

    v_top = 2  # the top search builds every class of the (3, 3) slice
    expected = full_rows(0, k, n, CONNECTED, v_top)
    vertex_counts = []
    real = graphs._canonical_form

    def counted(v, *args):
        vertex_counts.append(v)
        return real(v, *args)

    # the differential canonicalizes through graphs, the bases through complexes
    monkeypatch.setattr(graphs, "_canonical_form", counted)
    monkeypatch.setattr(complexes, "_canonical_form", counted)
    assert homology_table(0, k, n, CONNECTED, v_top) == expected
    assert top_search["done"]
    assert v_top in vertex_counts and v_top + 1 not in vertex_counts
