"""Canonical representatives pinned against a recorded golden file.

The other suites check classes, signs and Zero verdicts, which any
consistent choice of representative passes.  Every basis order, and so
every matrix, depends on which representative is chosen, so
``data/golden_reps.json`` pins them: outputs of ``canonicalize`` and
``canonicalize_skeleton`` on fixed scrambled inputs, and a few small
bases of ``enumerate_basis`` and ``enumerate_skeleton_shape``.

File layout, one case per line (graphs as lists of flat records):

* ``canonicalize``: ``[parity, v, k, records, rep or null, sign]``
* ``canonicalize_skeleton``: ``[parity, v, k, solid, dotted, rep solid
  or null, rep dotted or null, sign]``
* ``enumerate_basis``: ``[v, e, k, n, constraint values, basis]``
* ``enumerate_skeleton_shape``: ``[v, solids, dotteds, k, n, family,
  [[solid, dotted], ...]]``
"""

import json
from pathlib import Path

import pytest

from ogc.complexes import Constraint, SliceParams, enumerate_basis
from ogc.graphs import ColoredGraph, Parity, canonicalize
from ogc.skeleton import (
    SkeletonFamily,
    SkeletonGraph,
    SkeletonSliceParams,
    canonicalize_skeleton,
    enumerate_skeleton_shape,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reps.json").read_text())


def records(rows):
    return tuple(tuple(r) for r in rows)


def test_canonicalize_matches_golden():
    for parity, v, k, recs, rep, sign in GOLDEN["canonicalize"]:
        cls = canonicalize(ColoredGraph(v, k, records(recs)), Parity(parity))
        got = (None, 0) if cls.is_zero else (cls.rep.records, cls.sign)
        expected = (None if rep is None else records(rep), sign)
        assert got == expected, (parity, recs)


def test_canonicalize_skeleton_matches_golden():
    for parity, v, k, solid, dotted, rep_solid, rep_dotted, sign in GOLDEN["canonicalize_skeleton"]:
        sg = SkeletonGraph(v, k, records(solid), records(dotted))
        cls = canonicalize_skeleton(sg, Parity(parity))
        got = (None, None, 0) if cls.is_zero else (cls.rep.solid, cls.rep.dotted, cls.sign)
        if rep_solid is None:
            expected = (None, None, sign)
        else:
            expected = (records(rep_solid), records(rep_dotted), sign)
        assert got == expected, (parity, solid, dotted)


@pytest.mark.parametrize(
    "case", GOLDEN["enumerate_basis"], ids=lambda c: "v{}e{}k{}n{}-".format(*c) + "+".join(c[4])
)
def test_enumerate_basis_matches_golden(case):
    v, e, k, n, cons, basis = case
    params = SliceParams(v, e, k, n, frozenset(Constraint(c) for c in cons))
    got = [g.records for g in enumerate_basis(params).basis]
    assert got == [records(b) for b in basis]


@pytest.mark.parametrize(
    "case", GOLDEN["enumerate_skeleton_shape"], ids=lambda c: "v{}s{}d{}k{}n{}-{}".format(*c)
)
def test_enumerate_skeleton_shape_matches_golden(case):
    v, solids, dotteds, k, n, family, basis = case
    params = SkeletonSliceParams(v, solids, dotteds, k, n, SkeletonFamily(family))
    got = [(sg.solid, sg.dotted) for sg in enumerate_skeleton_shape(params)]
    assert got == [(records(s), records(d)) for s, d in basis]
