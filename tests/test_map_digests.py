"""The three maps pinned against a recorded file.

``data/map_digests.txt`` holds one line per map family, ``name count
digest``: the number of basis elements mapped and the SHA-256 of the
``repr`` of the list of (element, sorted image terms) pairs, in basis
order.  The families:

* ``differential``: ``differential_in_slice`` of every basis element of
  the connected and the reduced slices with v <= 5, e <= 7, k <= 1, at
  both parities;
* ``skeleton``: ``skeleton_differential`` of every basis element of the
  shapes ``tests/test_skeleton_bases.py`` pins, in all four families;
* ``treemap``: ``spanning_tree_map(..., project=False)`` of every basis
  element of the reduced k = 0 slices with v <= 6, e <= 9, at both
  parities.

d^2 = 0 and the expansion check constrain the skeleton differential only
up to what they cancel, and the expansion check is exact only at k = 0,
so every term and coefficient of the three maps is pinned here.
"""

import hashlib
from pathlib import Path

import pytest

from ogc.complexes import REDUCED_CONSTRAINTS, Constraint, SliceParams, differential_in_slice, enumerate_basis
from ogc.skeleton import SkeletonFamily, SkeletonSliceParams, enumerate_skeleton_shape, skeleton_differential
from ogc.treemap import spanning_tree_map

PINNED = Path(__file__).parent / "data" / "map_digests.txt"
CONNECTED = frozenset({Constraint.CONNECTED})


def slices(v_max, e_max, ks, constraint_sets):
    for cons in constraint_sets:
        for k in ks:
            for n in (0, 1):
                for v in range(1, v_max + 1):
                    for e in range(e_max + 1):
                        yield enumerate_basis(SliceParams(v, e, k, n, cons), force=True)


def differential_pairs():
    for sl in slices(5, 7, (0, 1), (CONNECTED, REDUCED_CONSTRAINTS)):
        for g in sl.basis:
            yield g, differential_in_slice(g, sl.params.parity, sl.params.constraints)


def skeleton_pairs():
    # the ranges of tests/test_skeleton_bases.py: k, largest v, largest s + d
    for k, v_max, sd_max in ((0, 5, 7), (1, 4, 5)):
        for n in (0, 1):
            for family in SkeletonFamily:
                for v in range(1, v_max + 1):
                    for s in range(sd_max + 1):
                        for d in range(sd_max + 1 - s):
                            params = SkeletonSliceParams(v, s, d, k, n, family)
                            for sg in enumerate_skeleton_shape(params, force=True):
                                yield sg, skeleton_differential(sg, params.parity)


def treemap_pairs():
    for sl in slices(6, 9, (0,), (REDUCED_CONSTRAINTS,)):
        for g in sl.basis:
            yield g, spanning_tree_map(g, sl.params.parity, project=False)


FAMILIES = {"differential": differential_pairs, "skeleton": skeleton_pairs, "treemap": treemap_pairs}


def digest(pairs):
    rows = [(element, sorted(image.terms.items())) for element, image in pairs]
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_map_matches_the_pinned_digest(name):
    pinned = {line.split()[0]: line for line in PINNED.read_text().splitlines()}
    count, sha = digest(FAMILIES[name]())
    assert f"{name} {count} {sha}" == pinned[name]


if __name__ == "__main__":
    # records the file: PYTHONPATH=src python tests/test_map_digests.py
    for name, pairs in FAMILIES.items():
        print(name, *digest(pairs()))
