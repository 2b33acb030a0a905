"""Both bases are sorted by ``graphs.form_key`` and hold canonical forms.

``complexes._basis`` finishes the bases of both complexes: each entry is
the canonical form of its class, with sign +1, and the entries rise
strictly in the one order of forms, the order the canonical-form engine
minimizes in.  Checked on every graph slice with v <= 5, e <= 7, k <= 1
under ``connected`` and the reduced constraints, and on every skeleton
shape with v <= 4, s + d <= 6, k <= 1 in all four families, for both
parities.
"""

import pytest

from ogc.complexes import Constraint, REDUCED_CONSTRAINTS, SliceParams, enumerate_basis
from ogc.graphs import Parity, canonicalize, form_key
from ogc.skeleton import SkeletonFamily, SkeletonSliceParams, canonicalize_skeleton, enumerate_skeleton_shape

FAMILIES = {"connected": frozenset({Constraint.CONNECTED}), "reduced": REDUCED_CONSTRAINTS}


def assert_sorted_canonical(basis, form, canon, parity):
    """Check one basis; ``form`` gives an entry's record tuples per kind."""
    keys = [form_key(form(rep)) for rep in basis]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for rep in basis:
        cls = canon(rep, parity)
        assert (cls.rep, cls.sign) == (rep, 1)
    return len(basis)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("family", FAMILIES)
def test_graph_bases(family, k, n):
    parity = Parity.from_n(n)
    total = 0
    for v in range(1, 6):
        for e in range(8):
            basis = enumerate_basis(SliceParams(v, e, k, n, FAMILIES[family])).basis
            total += assert_sorted_canonical(basis, lambda g: (g.records,), canonicalize, parity)
    assert total


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("family", list(SkeletonFamily), ids=lambda f: f.value)
def test_skeleton_bases(family, k, n):
    parity = Parity.from_n(n)
    total = 0
    for v in range(1, 5):
        for s in range(7):
            for d in range(7 - s):
                basis = enumerate_skeleton_shape(SkeletonSliceParams(v, s, d, k, n, family))
                total += assert_sorted_canonical(basis, lambda sg: (sg.solid, sg.dotted), canonicalize_skeleton, parity)
    # a dotted tadpole is Zero at even parity and takes no color
    assert total or (family is SkeletonFamily.TADPOLE_SUB and (n == 0 or k))
