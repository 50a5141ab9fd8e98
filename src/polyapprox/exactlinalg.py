"""Exact linear algebra over the integers and rationals.

Determinants use fraction-free Bareiss elimination on Python ints. Ranks and
independence tests (IncrementalBasis) eliminate fraction-free too: a vector
is reduced by v <- row[piv] * v - v[piv] * row, and each stored row is
divided by its content, so no Fraction is built. Kernel bases use
straightforward Gauss-Jordan over Fraction. Matrices here are small (a few
dozen rows at most), so clarity wins over asymptotics.
"""
from __future__ import annotations

from fractions import Fraction
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


class IncrementalBasis:
    """Row space basis kept as primitive integer rows in echelon form.

    Row i is zero at the pivots of rows 0..i-1, so reducing a vector by the
    rows in insertion order clears every pivot, and what is left is zero
    exactly when the vector lies in the span.  A rational vector is scaled
    to integers first; scaling never changes the span."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def add(self, vec: Sequence) -> bool:
        """Insert vec if independent of the current rows; report whether it was."""
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        if all(type(x) is int for x in vec):
            v = list(vec)
        else:
            v = clear_denominators(vec)
        for row, piv in zip(self.rows, self.pivots):
            b = v[piv]
            if b:
                a = row[piv]
                v = [a * x - b * y for x, y in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        g = 0
        for x in v:
            g = gcd(g, x)
        self.rows.append([x // g for x in v])
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
    denoms = [Fraction(x).denominator for x in vec]
    scale = lcm(*denoms) if denoms else 1
    ints = [int(Fraction(x) * scale) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints
