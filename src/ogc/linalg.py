"""Exact sparse rational matrices: rank, kernels, products.

All arithmetic is over ``fractions.Fraction``; no floating point enters
any rank or homology computation.  A Mersenne-prime modular rank is
provided as a fast cross-check, but the exact elimination is always the
authoritative answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

CHECK_PRIME = (1 << 61) - 1


@dataclass
class SparseRationalMatrix:
    rows: int
    cols: int
    data: dict = field(default_factory=dict)

    def set(self, r, c, value):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) outside {self.rows}x{self.cols}")
        value = Fraction(value)
        if value:
            self.data[(r, c)] = value
        else:
            self.data.pop((r, c), None)

    def get(self, r, c) -> Fraction:
        return self.data.get((r, c), Fraction(0))

    def entries(self):
        """Entries as a sorted list of (row, col, value)."""
        return [(r, c, v) for (r, c), v in sorted(self.data.items())]

    def columns(self):
        """Column-major view: list of {row: value} dicts."""
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.data.items():
            cols[c][r] = v
        return cols

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


def matrix_from_columns(rows, columns) -> SparseRationalMatrix:
    m = SparseRationalMatrix(rows, len(columns))
    for c, col in enumerate(columns):
        for r, v in col.items():
            m.set(r, c, v)
    return m


def _eliminate(rows, inverse, reduce) -> int:
    """Rank of a list of sparse rows ({col: value} dicts, none empty) by
    Gaussian elimination, pivots chosen to limit fill.  ``inverse`` and
    ``reduce`` are the field's reciprocal and the normalization applied
    to every computed entry."""
    rk = 0
    while rows:
        pivot_row = min(rows, key=len)
        rows.remove(pivot_row)
        rk += 1
        pc = min(pivot_row)
        inv = inverse(pivot_row[pc])
        reduced = []
        for row in rows:
            x = row.get(pc)
            if x is not None:
                factor = reduce(x * inv)
                for c, v in pivot_row.items():
                    nv = reduce(row.get(c, 0) - factor * v)
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
            if row:
                reduced.append(row)
        rows = reduced
    return rk


def rank(m: SparseRationalMatrix) -> int:
    """Exact rank over the rationals by sparse Gaussian elimination."""
    rows = {}
    for (r, c), v in m.data.items():
        rows.setdefault(r, {})[c] = v
    return _eliminate(list(rows.values()), lambda x: 1 / x, lambda x: x)


def rank_mod_p(m: SparseRationalMatrix, p: int = CHECK_PRIME) -> int:
    """Rank of the matrix reduced modulo a large prime.

    Underestimates the true rank with probability ~|entries|/p; used
    only as a cross-check against the exact path.
    """
    rows = {}
    for (r, c), v in m.data.items():
        val = v.numerator * pow(v.denominator % p, p - 2, p) % p
        if val:
            rows.setdefault(r, {})[c] = val
    return _eliminate(list(rows.values()), lambda x: pow(x, p - 2, p), lambda x: x % p)


def homology(dims, maps):
    """Homology dimensions of a chain complex from the ranks of its maps.

    ``dims`` maps each slice index i to the slice's dimension, ``maps``
    maps i to the matrix of the differential from slice i to slice i - 1;
    a missing map is zero.  Each map is ranked once.  Returns {i: dim}.
    """
    ranks = {i: rank(m) for i, m in maps.items()}
    return {i: d - ranks.get(i, 0) - ranks.get(i + 1, 0) for i, d in dims.items()}


def kernel_basis(m: SparseRationalMatrix):
    """Basis of the right kernel as a list of {col index: Fraction} dicts.

    Straightforward column-echelon reduction; intended for the moderate
    slice sizes of the homology comparisons.
    """
    cols = m.columns()
    n = m.cols
    # combos[j] tracks the expression of working column j in original columns
    combos = [{j: Fraction(1)} for j in range(n)]
    pivots = {}  # row -> column index holding the pivot
    out = []
    for j in range(n):
        col = cols[j]
        combo = combos[j]
        while col:
            r = min(col)
            if r not in pivots:
                break
            pj = pivots[r]
            factor = col[r] / cols[pj][r]
            for rr, vv in cols[pj].items():
                nv = col.get(rr, Fraction(0)) - factor * vv
                if nv:
                    col[rr] = nv
                else:
                    col.pop(rr, None)
            for cc, vv in combos[pj].items():
                nv = combo.get(cc, Fraction(0)) - factor * vv
                if nv:
                    combo[cc] = nv
                else:
                    combo.pop(cc, None)
        if col:
            pivots[min(col)] = j
        else:
            out.append(dict(combo))
    return out

