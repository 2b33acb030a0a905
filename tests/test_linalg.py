"""Exact sparse linear algebra against a dense textbook oracle."""

import random
from fractions import Fraction

import pytest

from ogc.linalg import (
    SparseRationalMatrix,
    induced_rank,
    kernel_basis,
    rank,
    rank_until,
)
from oracles import rank_mod_p


def dense_rank(rows):
    """Independent oracle: plain dense Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                for j in range(c, n_cols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == n_rows:
            break
    return r


def to_sparse(rows):
    m = SparseRationalMatrix(len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                m.set(i, j, x)
    return m


def test_zero_matrix():
    assert rank(SparseRationalMatrix(4, 5)) == 0


def test_identity():
    m = SparseRationalMatrix(3, 3)
    for i in range(3):
        m.set(i, i, 1)
    assert rank(m) == 3


def test_rank_matches_dense_oracle_on_random_matrices():
    rng = random.Random(99)
    for _ in range(60):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [
            [rng.choice([0, 0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(nc)]
            for _ in range(nr)
        ]
        m = to_sparse(rows)
        expected = dense_rank(rows)
        assert rank(m) == expected
        assert rank_mod_p(m) == expected


def test_kernel_vectors_are_killed():
    rng = random.Random(5)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice([0, 0, 1, -1, 3]) for _ in range(nc)] for _ in range(nr)]
        m = to_sparse(rows)
        basis = kernel_basis(m)
        assert basis.rows == nc
        assert basis.cols == nc - rank(m)
        # the vectors are independent, not one vector repeated
        assert rank(basis) == basis.cols
        for col in range(basis.cols):
            for i in range(nr):
                s = sum(rows[i][j] * basis.get(j, col) for j in range(nc))
                assert s == 0


def test_matmul():
    a = to_sparse([[1, 2], [0, 1]])
    b = to_sparse([[1, 0], [3, 1]])
    p = a @ b
    assert p.get(0, 0) == 7 and p.get(0, 1) == 2
    assert p.get(1, 0) == 3 and p.get(1, 1) == 1


@pytest.mark.parametrize(
    "d_a, f, d_b, expected",
    [
        # the one element is no cycle, so it has no class to map
        (to_sparse([[1]]), to_sparse([[0]]), SparseRationalMatrix(1, 0), 0),
        # f lands in the image of d_b, a map of larger rank than f
        (SparseRationalMatrix(0, 1), to_sparse([[1], [0]]), to_sparse([[1, 0], [0, 1]]), 0),
        # a cycle mapped onto a nonzero class
        (SparseRationalMatrix(0, 1), to_sparse([[1]]), SparseRationalMatrix(1, 0), 1),
    ],
)
def test_induced_rank_hand_built(d_a, f, d_b, expected):
    assert induced_rank(d_a, f, d_b, rank(d_a), rank(d_b)) == expected


def test_induced_rank_rejects_blocks_that_do_not_fit():
    with pytest.raises(ValueError):
        induced_rank(SparseRationalMatrix(0, 2), to_sparse([[1]]), SparseRationalMatrix(1, 0), 0, 0)


def test_rank_until_matches_the_oracle_and_stops_the_search_at_the_bound():
    rng = random.Random(17)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(nc)] for _ in range(nr)]
        full = dense_rank(rows)
        for bound in range(nr + 2):
            built = []

            def search(emit):
                for i, row in enumerate(rows):
                    built.append(i)
                    emit({j: Fraction(x) for j, x in enumerate(row) if x})

            assert rank_until(search, bound) == min(full, bound)
            if bound > full:
                assert len(built) == nr
            else:
                # the shortest prefix of that rank is built, and not a row more
                assert len(built) == min(i for i in range(nr + 1) if dense_rank(rows[:i]) == bound)
