"""Exact sparse rational matrices: rank, homology, induced ranks, kernels,
products.

All arithmetic is over ``fractions.Fraction``; no floating point enters
any rank or homology computation.  One elimination loop, ``_eliminate``,
serves the exact rank, the rank up to a bound and the kernel basis; it
takes the field's reciprocal and normalization as arguments, so the test
suite's modular rank cross-check runs the same loop, and the exact
elimination is always the authoritative answer.  The loop takes rows
one at a time, so ``rank_until`` can stop the search that builds a map's
columns once their rank meets a known bound, such as the d^2 = 0 bound
of ``complexes.homology_table``.
"""

from __future__ import annotations

from fractions import Fraction


class SparseRationalMatrix:
    """A rows x cols matrix holding its nonzero entries in ``data``, a
    dict {(row, col): Fraction}."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: dict | None = None):
        self.rows, self.cols = rows, cols
        self.data = {} if data is None else data

    def set(self, r, c, value):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) outside {self.rows}x{self.cols}")
        if not isinstance(value, Fraction):
            value = Fraction(value)
        if value:
            self.data[(r, c)] = value
        else:
            self.data.pop((r, c), None)

    def get(self, r, c) -> Fraction:
        return self.data.get((r, c), Fraction(0))

    def is_zero(self) -> bool:
        return not self.data

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        rows_of_self = {}
        for (r, c), v in self.data.items():
            rows_of_self.setdefault(c, []).append((r, v))
        out = SparseRationalMatrix(self.rows, other.cols)
        acc = {}
        for (r, c), v in other.data.items():
            for (i, w) in rows_of_self.get(r, ()):
                key = (i, c)
                acc[key] = acc.get(key, Fraction(0)) + v * w
        for key, v in acc.items():
            if v:
                out.data[key] = v
        return out


class ClosureError(RuntimeError):
    """A term of a map's image fell outside the target basis: a bug in
    the package, not a verdict on its input."""


def column_map(image, dst_basis, what):
    """The function giving a linear map's column of a source element g:
    the coefficients of ``image(g)``, a vector with a ``terms`` dict, as
    a {row: coefficient} dict over ``dst_basis``.  A term outside
    ``dst_basis`` is a closure bug: ``ClosureError("<what>: <term>")`` is
    raised instead of dropping it."""
    index = {g: i for i, g in enumerate(dst_basis)}

    def column(g):
        col = {}
        for rep, coeff in image(g).terms.items():
            i = index.get(rep)
            if i is None:
                raise ClosureError(f"{what}: {rep}")
            col[i] = coeff
        return col

    return column


def matrix_of(image, src_basis, dst_basis, what) -> SparseRationalMatrix:
    """Matrix of a linear map between two bases: column j is
    ``column_map``'s column of ``src_basis[j]``."""
    column = column_map(image, dst_basis, what)
    m = SparseRationalMatrix(len(dst_basis), len(src_basis))
    for j, g in enumerate(src_basis):
        m.data.update(((i, j), coeff) for i, coeff in column(g).items())
    return m


def _eliminate(pivots, inverse, reduce):
    """Gaussian elimination of sparse rows ({col: value} dicts) given one
    at a time: returns ``add(row)``, which reduces the row in place by the
    rows kept in ``pivots`` ({least column: (row, reciprocal of its entry
    there)}), always at its least column, until that column has none.
    There the row is kept and ``add`` returns True; a row reduced to
    nothing returns False.  When the row meets a longer pivot row at its
    least column, the two trade places: the shorter is kept, and the
    longer is reduced on in its stead, which limits fill as choosing the
    shortest pivot does.  Kept rows have distinct least columns, so they
    are independent, span the rows added, and their number is the rank.
    A caller holding all rows adds the shortest first.  ``inverse`` and
    ``reduce`` are the field's reciprocal and the normalization applied
    to every computed entry."""

    def add(row):
        while row:
            pc = min(row)
            pivot = pivots.get(pc)
            if pivot is None:
                pivots[pc] = row, inverse(row[pc])
                return True
            pivot_row, inv = pivot
            if len(row) < len(pivot_row):
                pivots[pc] = pivot = row, inverse(row[pc])
                row, (pivot_row, inv) = pivot_row, pivot
            factor = reduce(row[pc] * inv)
            for c, v in pivot_row.items():
                nv = reduce(row.get(c, 0) - factor * v)
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        return False

    return add


# the rationals' reciprocal and entry normalization, for _eliminate
_EXACT = (lambda x: 1 / x, lambda x: x)


def rank(m: SparseRationalMatrix) -> int:
    """Exact rank over the rationals by sparse Gaussian elimination of the
    rows, shortest first."""
    rows = {}
    for (r, c), v in m.data.items():
        rows.setdefault(r, {})[c] = v
    return sum(map(_eliminate({}, *_EXACT), sorted(rows.values(), key=len)))


class _BoundMet(Exception):
    pass


def rank_until(search, bound) -> int:
    """min(rank, bound) of the sparse rows that ``search(emit)`` passes to
    ``emit`` one at a time.  Each row is eliminated as it comes, and once
    the rank meets ``bound`` ``emit`` raises to stop the search, so no
    row after that one is built."""
    add, found = _eliminate({}, *_EXACT), 0

    def emit(row):
        nonlocal found
        found += add(row)
        if found >= bound:
            raise _BoundMet

    if bound > 0:
        try:
            search(emit)
        except _BoundMet:
            pass
    return found


def homology(slices, matrix):
    """Homology dimensions of a chain complex from the ranks of its maps.

    ``slices`` maps each index i to a basis (anything with a length); the
    differential from slice i to slice i - 1 is ``matrix(slices[i],
    slices[i - 1])``, built when both are non-empty, and zero otherwise.
    Each map is ranked once.  Returns the maps and their ranks by i, and
    {i: dim}.
    """
    maps = {
        i: matrix(sl, slices[i - 1]) for i, sl in slices.items() if len(sl) and len(slices.get(i - 1, ()))
    }
    ranks = {i: rank(m) for i, m in maps.items()}
    return maps, ranks, {i: len(sl) - ranks.get(i, 0) - ranks.get(i + 1, 0) for i, sl in slices.items()}


def induced_rank(d_a, f, d_b, rank_a, rank_b) -> int:
    """Rank of the map that ``f`` induces from the kernel of ``d_a`` to the
    cokernel of ``d_b``, given the ranks of ``d_a`` and ``d_b``.

    With d_a: A_v -> A_{v-1}, f: A_v -> B_u and d_b: B_{u+1} -> B_u (an
    absent side is an empty matrix, 0 x |A_v| or |B_u| x 0), the block
    matrix [[d_a, 0], [f, d_b]] has rank rank d_a + rank d_b + this rank
    (the mapping cone; Weibel 1994, section 1.5), so it is ranked once.
    The identity needs no chain-map condition.
    """
    if d_a.cols != f.cols or d_b.rows != f.rows:
        raise ValueError(f"blocks {d_a.rows}x{d_a.cols}, {f.rows}x{f.cols}, {d_b.rows}x{d_b.cols} do not fit")
    cone = SparseRationalMatrix(d_a.rows + f.rows, f.cols + d_b.cols, dict(d_a.data))
    cone.data.update(((d_a.rows + r, c), x) for (r, c), x in f.data.items())
    cone.data.update(((d_a.rows + r, f.cols + c), x) for (r, c), x in d_b.data.items())
    return rank(cone) - rank_a - rank_b


def kernel_basis(m: SparseRationalMatrix) -> SparseRationalMatrix:
    """Basis of the right kernel, as the columns of an m.cols x d matrix.

    Column j of ``m``, extended by a unit entry at m.rows + j, is
    eliminated as a row; the extension records which combination of
    columns each pivot row is.  A pivot row whose pivot lies in the
    extension has no entry of ``m`` left, so its extension is a kernel
    vector.  Pivots are distinct, so these d = m.cols - rank(m) vectors
    are independent.
    """
    cols = [{m.rows + j: Fraction(1)} for j in range(m.cols)]
    for (r, c), v in m.data.items():
        cols[c][r] = v
    pivots = {}
    add = _eliminate(pivots, *_EXACT)
    for col in sorted(cols, key=len):
        add(col)
    kernel = [row for pc, (row, _) in pivots.items() if pc >= m.rows]
    data = {(c - m.rows, j): v for j, row in enumerate(kernel) for c, v in row.items()}
    return SparseRationalMatrix(m.cols, len(kernel), data)
