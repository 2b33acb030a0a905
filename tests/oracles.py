"""Independent checks that only the tests use: the matrix-tree count of
spanning trees, weak passing and the collapse of an expanded graph back
into its skeleton, membership in the solid/dotted complex, and a
modular rank through the package's elimination loop."""

from fractions import Fraction

from ogc.graphs import (
    ColoredGraph,
    _arcs_acyclic,
    _color_acyclic,
    _pair_degrees,
    _pairs_connected,
    _passing_in_color,
    valence,
)
from ogc.linalg import SparseRationalMatrix, _eliminate
from ogc.skeleton import SkeletonGraph

CHECK_PRIME = (1 << 61) - 1


def tree_count_oracle(g: ColoredGraph) -> int:
    """Matrix-tree count: determinant of the reduced Laplacian."""
    n = g.v
    lap = [[Fraction(0)] * n for _ in range(n)]
    for rec in g.records:
        t, h = rec[0], rec[1]
        lap[t][t] += 1
        lap[h][h] += 1
        lap[t][h] -= 1
        lap[h][t] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    size = n - 1
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            for cc in range(c, size):
                m[r][cc] -= f * m[c][cc]
    return int(det)


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
    if not _arcs_acyclic(sg.v, [(r[0], r[1]) for r in sg.solid]):
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


def rank_mod_p(m: SparseRationalMatrix, p: int = CHECK_PRIME) -> int:
    """Rank of the matrix reduced modulo a large prime, by the package's
    one elimination loop (``linalg._eliminate``) over GF(p).

    Underestimates the true rank with probability ~|entries|/p; used
    only as a cross-check against the exact path.
    """
    rows = {}
    for (r, c), v in m.data.items():
        val = v.numerator * pow(v.denominator % p, p - 2, p) % p
        if val:
            rows.setdefault(r, {})[c] = val
    return sum(map(_eliminate({}, lambda x: pow(x, p - 2, p), lambda x: x % p), rows.values()))
