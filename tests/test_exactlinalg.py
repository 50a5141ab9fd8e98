from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyapprox.exactlinalg import IncrementalBasis, kernel_basis, rank_of_rows


def _reference_decisions(vectors):
    """add() decisions of a Gauss-Jordan basis over Fraction, in reduced
    echelon form: the vector is independent iff it does not reduce to 0."""
    rows, pivots, out = [], [], []
    for vec in vectors:
        v = [Fraction(x) for x in vec]
        for row, piv in zip(rows, pivots):
            coef = v[piv]
            v = [a - coef * b for a, b in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if x), None)
        out.append(piv is not None)
        if piv is None:
            continue
        v = [x / v[piv] for x in v]
        rows = [[a - row[piv] * b for a, b in zip(row, v)] for row in rows]
        rows.append(v)
        pivots.append(piv)
    return out


@st.composite
def vector_lists(draw, entries):
    """Vectors of one width, some of them integer combinations of earlier
    ones, so that dependent vectors are common."""
    width = draw(st.integers(1, 6))
    vecs = []
    for _ in range(draw(st.integers(0, 9))):
        if vecs and draw(st.booleans()):
            coefs = draw(st.lists(st.integers(-3, 3), min_size=len(vecs),
                                  max_size=len(vecs)))
            vecs.append([sum(c * v[j] for c, v in zip(coefs, vecs))
                         for j in range(width)])
        else:
            vecs.append(draw(st.lists(entries, min_size=width,
                                      max_size=width)))
    return width, vecs


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=st.one_of(vector_lists(st.integers(-40, 40)),
                      vector_lists(st.integers(-2, 2))))
def test_basis_add_matches_fraction_reference(case):
    width, vecs = case
    basis = IncrementalBasis(width)
    got = [basis.add(v) for v in vecs]
    assert got == _reference_decisions(vecs)
    assert basis.rank == sum(got) == rank_of_rows(vecs, width)


def test_basis_mixed_inputs_and_width_check():
    # rows may be lists or tuples of ints
    basis = IncrementalBasis(3)
    assert basis.add((3, 2, 0))
    assert not basis.add([6, 4, 0])
    assert basis.add([7, 0, 1])
    assert not basis.add((10, 2, 1))
    assert basis.rank == 2
    with pytest.raises(ValueError):
        basis.add([1, 2])


def _clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints]


def _reference_kernel(matrix):
    """Gauss-Jordan over Fraction: one vector per free column, 1 there,
    0 at the other free columns, each then cleared of denominators."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    m = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
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
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -m[row_idx][fc]
        basis.append(_clear_denominators(v))
    return basis


@st.composite
def matrices(draw):
    """Integer matrices, some rows zero or combinations of earlier rows."""
    width, rows = draw(vector_lists(st.integers(-9, 9)))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * width)
    return rows


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(matrix=matrices())
def test_kernel_basis_matches_fraction_reference(matrix):
    got = kernel_basis(matrix)
    assert got == _reference_kernel(matrix)
    assert all(type(x) is int for v in got for x in v)
    for v in got:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in matrix)
    assert kernel_basis([]) == []
