"""Exact linear algebra on integer rows.

Nothing here leaves the integers. Determinants use fraction-free Bareiss
elimination. Ranks, independence tests (IncrementalBasis) and kernel
bases eliminate fraction-free too: a vector is reduced by
v <- row[piv] * v - v[piv] * row, and each stored row is divided by its
content (_primitive). Matrices here are small (a few dozen rows at most),
so clarity wins over asymptotics.
"""
from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence


def det_bareiss(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _primitive(v: Sequence[int]) -> list[int]:
    """A nonzero integer vector divided by its content (gcd 1, same signs)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return [x // g for x in v]


class IncrementalBasis:
    """Row space basis kept as primitive integer rows in echelon form.

    Row i is zero at the pivots of rows 0..i-1, so reducing a vector by the
    rows in insertion order clears every pivot, and what is left is zero
    exactly when the vector lies in the span."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec if independent of the current rows; report whether it was."""
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        v = vec
        for row, piv in zip(self.rows, self.pivots):
            b = v[piv]
            if b:
                a = row[piv]
                v = [a * x - b * y for x, y in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        self.rows.append(_primitive(v))
        self.pivots.append(piv)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank_of_rows(rows: Iterable[Sequence[int]], width: int) -> int:
    basis = IncrementalBasis(width)
    for row in rows:
        basis.add(row)
    return basis.rank


def kernel_basis(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of {v : matrix @ v = 0}, rows of `matrix` read as equations.

    Gauss-Jordan without fractions: the echelon rows of an
    IncrementalBasis, each pivot then cleared from the rows above it
    by the same step, each row kept primitive.  One vector per
    free column f, in column order: the primitive integer vector positive
    at f and 0 at the other free columns.
    """
    if not matrix:
        return []
    width = len(matrix[0])
    basis = IncrementalBasis(width)
    for row in matrix:
        basis.add(row)
    rows, pivots = basis.rows, basis.pivots
    for j, piv in enumerate(pivots):
        a = rows[j][piv]
        for i in range(j):
            b = rows[i][piv]
            if b:
                rows[i] = _primitive([a * x - b * y
                                      for x, y in zip(rows[i], rows[j])])
    scale = lcm(*(row[piv] for row, piv in zip(rows, pivots)))
    kernel = []
    for f in range(width):
        if f in pivots:
            continue
        v = [0] * width
        v[f] = scale
        for row, piv in zip(rows, pivots):
            v[piv] = -row[f] * scale // row[piv]
        kernel.append(_primitive(v))
    return kernel
