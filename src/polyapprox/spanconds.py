"""Span conditions on consecutive approximation records.

The central object is the square block matrix built from three
consecutive record polynomials: its determinant is nonzero exactly when
their shift family spans the full space, which in turn controls the
conditional exponent bounds.  Everything here is exact integer linear
algebra on row tuples.
"""

from typing import NamedTuple, Optional

from .bestapprox import BestApproxSequence
from .errors import EmptyWindow, IndexOutOfRange, OddN
from .exactlinalg import det_bareiss, kernel_basis, rank_of_rows
from .polynomials import IntegerPolynomial, poly_gcd, shift_rank


class GluedTriple:
    """The polynomials P_{k-1}, P_k, P_{k+1} of three consecutive records
    of a degree-n chain, in that order, each of degree <= n."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple):
        if n < 1:
            raise ValueError("n must be >= 1")
        if len(blocks) != 3:
            raise ValueError(f"a glued triple has 3 blocks, got {len(blocks)}")
        if any(p.degree > n for p in blocks):
            raise ValueError("block polynomial exceeds degree bound")
        self.n, self.blocks = n, tuple(blocks)


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
    return GluedTriple(seq.n, _neighbors(seq, k))


def build_lambda(triple: GluedTriple) -> tuple:
    """Rows of the square matrix of size 3n/2 whose columns are the
    cyclic down-shifts of the three block vectors.

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
    base = [p.coeff_vector(size) for p in triple.blocks]
    return tuple(
        tuple(base[c // half][(r - (c % half)) % size] for c in range(size))
        for r in range(size)
    )


def phi(triple: GluedTriple) -> int:
    """Exact determinant of the block matrix (fraction-free)."""
    return det_bareiss(build_lambda(triple))


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
    rows = build_lambda(triple)
    size = len(rows)
    half = triple.n // 2
    phi_value = det_bareiss(rows)

    vectors = [
        p.shift(j).coeff_vector(size)
        for j in range(half)
        for p in triple.blocks
    ]
    span_full = rank_of_rows(vectors, size) == size

    kernel = kernel_basis(rows)
    witness: Optional[tuple] = None
    if kernel:
        witness = tuple(
            IntegerPolynomial(kernel[0][b * half : (b + 1) * half])
            for b in range(3)
        )

    return {
        "phi": phi_value,
        "phi_nonzero": phi_value != 0,
        "span_full": span_full,
        "kernel_trivial": not kernel,
        "witness": witness,
    }


def _check_dim(n: int, m: int) -> None:
    if not n <= m <= 2 * n - 1:
        raise ValueError(f"m = {m} outside [{n}, {2 * n - 1}]")


def span_rank(seq: BestApproxSequence, k: int, m: int) -> int:
    """Exact rank of the union of shift families of records k-1, k, k+1
    inside the space of polynomials of degree <= m."""
    _check_dim(seq.n, m)
    return shift_rank(_neighbors(seq, k), m)


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
    _check_dim(n, m)
    if not 2 <= k <= len(seq):
        raise IndexOutOfRange(
            f"k = {k} has no predecessor in a sequence of {len(seq)} records"
        )
    prev = seq.record(k - 1).poly
    cur = seq.record(k).poly
    rank = shift_rank((prev, cur), m)
    coprime = poly_gcd(prev, cur).degree == 0
    return {
        "rank": rank,
        "coprime": coprime,
        "bound_generic": rank >= m - n + 2,
        "bound_coprime": (not coprime) or rank >= 2 * (m - n + 1),
    }
