"""Skeleton shape bases pinned against a recorded file.

``data/skeleton_bases.txt`` holds, for every shape with k = 0, v <= 5
and s + d <= 7, and with k = 1, v <= 4 and s + d <= 5, at both parities
and in all four families, the SHA-256 of its basis: the ``repr`` of the
list of (solid, dotted) record tuples, in basis order.  One line per
non-empty shape, ``k n family v s d size digest``; a shape missing from
the file has an empty basis.  This reaches well past the brute-force
shape check of ``tests/test_skeleton.py`` (v <= 3), so a change in how
the structures are generated must leave every basis and its order as
recorded.
"""

import hashlib
from pathlib import Path

import pytest

from ogc.skeleton import SkeletonFamily, SkeletonSliceParams, enumerate_skeleton_shape

PINNED = (Path(__file__).parent / "data" / "skeleton_bases.txt").read_text().splitlines()
# k, largest v, largest s + d
RANGES = ((0, 5, 7), (1, 4, 5))


def basis_lines(k, n, family, v_max, sd_max):
    for v in range(1, v_max + 1):
        for s in range(sd_max + 1):
            for d in range(sd_max + 1 - s):
                basis = enumerate_skeleton_shape(SkeletonSliceParams(v, s, d, k, n, family), force=True)
                if basis:
                    digest = hashlib.sha256(repr([(g.solid, g.dotted) for g in basis]).encode()).hexdigest()
                    yield f"{k} {n} {family.value} {v} {s} {d} {len(basis)} {digest}"


@pytest.mark.parametrize("family", list(SkeletonFamily), ids=lambda f: f.value)
@pytest.mark.parametrize("n", (0, 1))
@pytest.mark.parametrize("k, v_max, sd_max", RANGES)
def test_shape_bases_match_the_pinned_digests(k, v_max, sd_max, n, family):
    pinned = [line for line in PINNED if line.split()[:3] == [str(k), str(n), family.value]]
    assert list(basis_lines(k, n, family, v_max, sd_max)) == pinned
