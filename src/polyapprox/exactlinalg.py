"""Exact linear algebra over the integers and rationals.

Determinants use fraction-free Bareiss elimination on Python ints; ranks and
kernels use straightforward Gauss-Jordan over Fraction. Matrices here are
small (a few dozen rows at most), so clarity wins over asymptotics.
"""
from __future__ import annotations

from fractions import Fraction
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


class IncrementalBasis:
    """Row space basis maintained in reduced echelon form over Fraction."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def _reduce(self, vec: Sequence) -> list[Fraction]:
        v = [Fraction(x) for x in vec]
        if len(v) != self.width:
            raise ValueError("vector width mismatch")
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                coef = v[piv]
                for j in range(piv, self.width):
                    v[j] -= coef * row[j]
        return v

    def add(self, vec: Sequence) -> bool:
        """Insert vec if independent of the current rows; report whether it was."""
        v = self._reduce(vec)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        lead = v[piv]
        v = [x / lead for x in v]
        for row in self.rows:
            if row[piv]:
                coef = row[piv]
                for j in range(piv, self.width):
                    row[j] -= coef * v[j]
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank_of_rows(rows: Iterable[Sequence], width: int) -> int:
    basis = IncrementalBasis(width)
    for row in rows:
        basis.add(row)
    return basis.rank


def kernel_basis(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of {v : matrix @ v = 0}, rows of `matrix` read as equations."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    m = [[Fraction(x) for x in row] for row in matrix]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                coef = m[i][c]
                m[i] = [a - coef * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -m[row_idx][fc]
        basis.append(v)
    return basis


def clear_denominators(vec: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    from math import gcd, lcm

    denoms = [Fraction(x).denominator for x in vec]
    scale = lcm(*denoms) if denoms else 1
    ints = [int(Fraction(x) * scale) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints
