"""Independent checks that only the tests use: the matrix-tree count of
spanning trees, acyclicity and connectivity by search, weak passing and
the collapse of an expanded graph back into its skeleton, membership in
the solid/dotted complex, and a modular rank.

Acyclicity, connectivity and passing are tested here by their own
depth-first searches and per-vertex scans, and the rank by its own dense
elimination, sharing no code with the package's predicates
(``graphs._reach``, ``graphs._passing``), its elimination loop
(``linalg._eliminate``) or the orbit generator that they check."""

from fractions import Fraction

from ogc.graphs import ColoredGraph
from ogc.linalg import SparseRationalMatrix
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


def acyclic(v, arcs):
    """No directed cycle along the (tail, head) arcs, by depth-first search."""
    succ = [[h for t, h in arcs if t == x] for x in range(v)]
    state = [0] * v  # 0 new, 1 on the stack, 2 finished

    def visit(x):
        state[x] = 1
        for y in succ[x]:
            if state[y] == 1 or (state[y] == 0 and not visit(y)):
                return False
        state[x] = 2
        return True

    return all(state[x] or visit(x) for x in range(v))


def color_arcs(records, c):
    """The flat records as their color-c (tail, head) arcs."""
    return [(r[0], r[1]) if r[1 + c] > 0 else (r[1], r[0]) for r in records]


def connected(v, pairs):
    """The pairs join 0..v-1 into one component, by search from vertex 0."""
    reached, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for t, h in pairs:
            for a, b in ((t, h), (h, t)):
                if a == x and b not in reached:
                    reached.add(b)
                    frontier.append(b)
    return len(reached) == v


def degree(records, x):
    return sum((r[0] == x) + (r[1] == x) for r in records)


def passes_in_color(records, x, c):
    """x ends exactly two of the flat records, neither a tadpole, and is
    the color-c head of exactly one of them."""
    incident = [r for r in records if x in r[:2]]
    if len(incident) != 2 or any(r[0] == r[1] for r in incident):
        return False
    return sum(h == x for _, h in color_arcs(incident, c)) == 1


def is_weakly_passing(g: ColoredGraph, x: int) -> bool:
    """Passing in every color but the last one, where it is not passing.

    The graph's last color plays the distinguished role; the remaining
    k - 1 colors are the base ones.
    """
    if g.k < 1:
        raise ValueError("weak passing needs at least one color")
    if not (0 <= x < g.v):
        raise ValueError(f"vertex {x} out of range")
    if degree(g.records, x) != 2:
        return False
    if passes_in_color(g.records, x, g.k):
        return False
    return all(passes_in_color(g.records, x, c) for c in range(1, g.k))


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
    records = sg.solid + sg.dotted
    if sg.v < 1:
        return False
    if any(r[0] == r[1] for r in sg.solid):
        return False
    if not connected(sg.v, [r[:2] for r in records]):
        return False
    for c in range(1, sg.k + 1):
        if not acyclic(sg.v, color_arcs(records, c)):
            return False
    if not acyclic(sg.v, [(r[0], r[1]) for r in sg.solid]):
        return False
    some_big = False
    for x in range(sg.v):
        val = degree(records, x)
        if val >= 3:
            some_big = True
            continue
        if val < 2:
            return False
        if all(passes_in_color(records, x, c) for c in range(1, sg.k + 1)):
            # passing in every base color: either fully passing or an
            # unreduced string interior; excluded either way
            return False
    return some_big


def rank_mod_p(m: SparseRationalMatrix, p: int = CHECK_PRIME) -> int:
    """Rank of the matrix reduced modulo a large prime, by dense Gaussian
    elimination over GF(p).

    Underestimates the true rank with probability ~|entries|/p; used
    only as a cross-check against the exact path.
    """
    rows = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.data.items():
        rows[r][c] = v.numerator * pow(v.denominator, -1, p) % p
    found = 0
    for c in range(m.cols):
        piv = next((i for i in range(found, m.rows) if rows[i][c]), None)
        if piv is None:
            continue
        top = rows[piv]
        rows[piv], rows[found] = rows[found], top
        inv = pow(top[c], -1, p)
        for i in range(found + 1, m.rows):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        found += 1
    return found
