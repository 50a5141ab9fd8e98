"""Span conditions on consecutive approximation records.

The central object is the square matrix built from three consecutive
record polynomials glued into one integer vector: its determinant is
nonzero exactly when the shifted family spans the full space, which in
turn controls the conditional exponent bounds.  Everything here is
exact integer or rational linear algebra.
"""

from typing import NamedTuple, Optional, Sequence

from .bestapprox import BestApproxSequence
from .errors import EmptyWindow, IndexOutOfRange, OddN
from .exactlinalg import (
    clear_denominators,
    det_bareiss,
    kernel_basis,
    rank_of_rows,
)
from .polynomials import IntegerPolynomial, poly_gcd, shift_family


class GluedTriple:
    """Coefficients of three consecutive records as one vector.

    h has length exactly 3n+3: the degree-n coefficient blocks of
    P_{k-1}, P_k, P_{k+1} in that order, each padded to n+1 entries.
    """

    __slots__ = ("n", "k", "h")

    def __init__(self, n: int, k: int, h: tuple):
        if n < 1:
            raise ValueError("n must be >= 1")
        if len(h) != 3 * n + 3:
            raise ValueError(
                f"glued vector must have length {3 * n + 3}, got {len(h)}"
            )
        self.n, self.k, self.h = n, k, h

    @staticmethod
    def from_polys(
        n: int,
        k: int,
        prev: IntegerPolynomial,
        cur: IntegerPolynomial,
        nxt: IntegerPolynomial,
    ) -> "GluedTriple":
        parts = []
        for p in (prev, cur, nxt):
            if p.degree > n:
                raise ValueError("block polynomial exceeds degree bound")
            parts.extend(p.coeff_vector(n + 1))
        return GluedTriple(n=n, k=k, h=tuple(parts))

    def blocks(self) -> tuple:
        step = self.n + 1
        return tuple(
            IntegerPolynomial(self.h[i * step : (i + 1) * step])
            for i in range(3)
        )


def _neighbors(seq: BestApproxSequence, k: int) -> tuple:
    """The polynomials of records k-1, k, k+1; IndexOutOfRange unless
    record k has neighbors on both sides."""
    if not 2 <= k <= len(seq) - 1:
        raise IndexOutOfRange(
            f"k = {k} has no neighbors in a sequence of {len(seq)} records"
        )
    return tuple(seq.record(i).poly for i in (k - 1, k, k + 1))


def triple_from_records(seq: BestApproxSequence, k: int) -> GluedTriple:
    """Glued triple centered at record k (needs neighbors on both sides)."""
    return GluedTriple.from_polys(seq.n, k, *_neighbors(seq, k))


class LambdaMatrix(NamedTuple):
    rows: tuple

    @property
    def size(self) -> int:
        return len(self.rows)

    def det(self) -> int:
        return det_bareiss([list(r) for r in self.rows])


def build_lambda(triple: GluedTriple) -> LambdaMatrix:
    """Square matrix of size 3n/2 whose columns are the cyclic
    down-shifts of the three block vectors.

    Block b (= 0, 1, 2) occupies the contiguous columns b*(n/2) ..
    b*(n/2) + n/2 - 1; the first column of each block is the padded
    coefficient vector, each following column is the previous one
    shifted down by one position modulo 3n/2.
    """
    n = triple.n
    if n % 2 != 0:
        raise OddN(f"the block matrix needs even n, got {n}")
    size = 3 * n // 2
    half = n // 2
    blocks = triple.blocks()
    base = [p.coeff_vector(size) for p in blocks]
    rows = [
        tuple(
            base[c // half][(r - (c % half)) % size] for c in range(size)
        )
        for r in range(size)
    ]
    return LambdaMatrix(rows=tuple(rows))


def phi(triple: GluedTriple) -> int:
    """Exact determinant of the block matrix (fraction-free)."""
    return build_lambda(triple).det()


def _kernel_witness(triple: GluedTriple, vec: Sequence) -> tuple:
    half = triple.n // 2
    ints = clear_denominators(vec)
    return tuple(
        IntegerPolynomial(ints[b * half : (b + 1) * half]) for b in range(3)
    )


def triple_span_check(triple: GluedTriple) -> dict:
    """The three equivalent full-span conditions, each evaluated on its
    own route, from one block matrix (build_lambda: OddN for odd n).

    phi_nonzero: determinant test.  span_full: exact rank of the shifted
    family {T^j P_i : 0 <= j <= n/2-1}, built apart from the matrix,
    inside the space of polynomials of degree < 3n/2.  kernel_trivial:
    the homogeneous system for multipliers (A, B, C) of degree <= n/2-1
    has only the zero solution; when it does not, a nonzero integer
    witness triple is returned.
    """
    matrix = build_lambda(triple)
    size = matrix.size
    half = triple.n // 2
    blocks = triple.blocks()
    phi_value = matrix.det()

    vectors = [
        p.shift(j).coeff_vector(size)
        for j in range(half)
        for p in blocks
    ]
    span_full = rank_of_rows(vectors, size) == size

    kernel = kernel_basis([list(r) for r in matrix.rows])
    witness: Optional[tuple] = None
    if kernel:
        witness = _kernel_witness(triple, kernel[0])

    return {
        "phi": phi_value,
        "phi_nonzero": phi_value != 0,
        "span_full": span_full,
        "kernel_trivial": not kernel,
        "witness": witness,
    }


def span_rank(seq: BestApproxSequence, k: int, m: int) -> int:
    """Exact rank of the union of shift families of records k-1, k, k+1
    inside the space of polynomials of degree <= m."""
    n = seq.n
    if not n <= m <= 2 * n - 1:
        raise ValueError(f"m = {m} outside [{n}, {2 * n - 1}]")
    rows = [row for p in _neighbors(seq, k)
            for row in shift_family(p, m).vectors()]
    return rank_of_rows(rows, m + 1)


def span_dims(n: int) -> range:
    """The dimensions m in [ceil(3n/2) - 1, 2n - 1] that psi ranges over."""
    return range(-(-3 * n // 2) - 1, 2 * n)


class PsiEstimate(NamedTuple):
    """Finite-window estimates of the least full-span dimension.

    psi_hat: least m whose witness list reaches the threshold;
    psi_tilde_hat additionally requires the first two records of each
    witness triple to be coprime.  Both are window statistics, not the
    defining infinitely-often quantities.  rows holds one
    (k, coprime, ranks) entry per window index, ranks taken over
    span_dims(n); it is not part of to_dict().
    """

    n: int
    window: tuple
    threshold: int
    per_m: dict
    per_m_coprime: dict
    psi_hat: Optional[int]
    psi_tilde_hat: Optional[int]
    rows: tuple

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "window": list(self.window),
            "threshold": self.threshold,
            "per_m": {str(m): list(ks) for m, ks in self.per_m.items()},
            "per_m_coprime": {
                str(m): list(ks) for m, ks in self.per_m_coprime.items()
            },
            "psi_hat": self.psi_hat,
            "psi_tilde_hat": self.psi_tilde_hat,
            "finite_window": True,
        }


def psi_estimate(
    seq: BestApproxSequence,
    k_window: Optional[tuple] = None,
    threshold: int = 3,
) -> PsiEstimate:
    """Scan a window of record indices for full-span witnesses per m."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    lo, hi = k_window if k_window is not None else (2, len(seq) - 1)
    lo = max(lo, 2)
    hi = min(hi, len(seq) - 1)
    if lo > hi:
        raise EmptyWindow(
            f"window [{lo}, {hi}] is empty: it contains no index with both"
            " neighbors"
        )
    dims = span_dims(seq.n)
    per_m = {m: [] for m in dims}
    per_m_coprime = {m: [] for m in dims}
    rows = []
    for k in range(lo, hi + 1):
        coprime = (
            poly_gcd(seq.record(k - 1).poly, seq.record(k).poly).degree == 0
        )
        ranks = tuple(span_rank(seq, k, m) for m in dims)
        rows.append((k, coprime, ranks))
        for m, rank in zip(dims, ranks):
            if rank == m + 1:
                per_m[m].append(k)
                if coprime:
                    per_m_coprime[m].append(k)

    def least(counts: dict) -> Optional[int]:
        return next((m for m in dims if len(counts[m]) >= threshold), None)

    return PsiEstimate(
        n=seq.n,
        window=(lo, hi),
        threshold=threshold,
        per_m={m: tuple(ks) for m, ks in per_m.items()},
        per_m_coprime={m: tuple(ks) for m, ks in per_m_coprime.items()},
        psi_hat=least(per_m),
        psi_tilde_hat=least(per_m_coprime),
        rows=tuple(rows),
    )


def pair_span_check(seq: BestApproxSequence, k: int, m: int) -> dict:
    """Rank of the union of shift families of records k-1 and k, with
    the two provable lower bounds.

    bound_generic: rank >= m-n+2 always.  bound_coprime: rank >=
    2(m-n+1) whenever the two records are coprime (vacuously true
    otherwise).
    """
    n = seq.n
    if not n <= m <= 2 * n - 1:
        raise ValueError(f"m = {m} outside [{n}, {2 * n - 1}]")
    if not 2 <= k <= len(seq):
        raise IndexOutOfRange(
            f"k = {k} has no predecessor in a sequence of {len(seq)} records"
        )
    prev = seq.record(k - 1).poly
    cur = seq.record(k).poly
    rows = shift_family(prev, m).vectors() + shift_family(cur, m).vectors()
    rank = rank_of_rows(rows, m + 1)
    coprime = poly_gcd(prev, cur).degree == 0
    return {
        "rank": rank,
        "coprime": coprime,
        "bound_generic": rank >= m - n + 2,
        "bound_coprime": (not coprime) or rank >= 2 * (m - n + 1),
    }
