from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyapprox.exactlinalg import IncrementalBasis, rank_of_rows


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


_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=st.one_of(vector_lists(st.integers(-40, 40)),
                      vector_lists(st.integers(-2, 2)),
                      vector_lists(_fractions)))
def test_basis_add_matches_fraction_reference(case):
    width, vecs = case
    basis = IncrementalBasis(width)
    got = [basis.add(v) for v in vecs]
    assert got == _reference_decisions(vecs)
    assert basis.rank == sum(got) == rank_of_rows(vecs, width)


def test_basis_mixed_inputs_and_width_check():
    basis = IncrementalBasis(3)
    assert basis.add([Fraction(1, 2), Fraction(1, 3), 0])
    assert not basis.add([3, 2, 0])
    assert basis.add(["1/7", 0, 1])
    assert not basis.add([Fraction(3, 2), 1, 0])
    assert basis.rank == 2
    with pytest.raises(ValueError):
        basis.add([1, 2])
