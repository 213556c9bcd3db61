"""Quotient matrices of the zero-count partition and their walk matrices.

Two (n-1) x (n-1) integer matrices are built for field size m and tuple
length n: the P kind records, for a vertex with i zero coordinates, how
many neighbors it has with j zero coordinates in the full graph; the
Q kind does the same inside the two-sided induced subgraph.  Their walk
matrices [e, Be, B**2 e, ...] admit closed forms in the weighted
Fibonacci family, a Vandermonde-diagonal-unitriangular factorization,
and a product formula for the determinant.  All arithmetic in this
module is exact, in Python integers and fractions; floats never appear.
Matrix products run on object-dtype numpy arrays of Python ints, which
keeps the arbitrary-precision arithmetic and moves the loops into C.
`QuotientMatrix` (kind P or Q) is the one labelled type; walk matrices
are integer rows, nested tuples of Python ints.  The iterative walk,
exact rank, determinant and serializers take any integer matrix as
nested rows or an ndarray, under one entry check (`_integer_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .fib import check_params, fib_values

__all__ = [
    "QuotientKind",
    "QuotientMatrix",
    "WalkFactorization",
    "build_p",
    "build_q",
    "walk_matrix_iterative",
    "h_coefficients",
    "walk_matrix_closed_p",
    "walk_matrix_closed_q",
    "factorize_walk",
    "det_walk_formula",
    "exact_rank",
    "exact_det",
    "matrix_to_csv",
    "matrix_json_entries",
    "json_safe_int",
]

IntMatrix = tuple[tuple[int, ...], ...]


class QuotientKind(Enum):
    P = "P"  # full-graph partition quotient
    Q = "Q"  # bipartite-subgraph partition quotient


@dataclass(frozen=True)
class QuotientMatrix:
    """Integer quotient matrix; rows and columns are indexed 1..n-1."""

    kind: QuotientKind
    m: int
    n: int
    entries: IntMatrix

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)


def build_p(m: int, n: int) -> QuotientMatrix:
    """Full-graph quotient: entry (i, j) is C(i, n-j) * (m-1)**(n-j) when
    i + j >= n and 0 otherwise.  Row i sums to m**i - 1."""
    check_params(m, n)
    entries = tuple(
        tuple(
            math.comb(i, n - j) * (m - 1) ** (n - j) if i + j >= n else 0
            for j in range(1, n)
        )
        for i in range(1, n)
    )
    return QuotientMatrix(QuotientKind.P, m, n, entries)


def build_q(m: int, n: int) -> QuotientMatrix:
    """Two-sided-subgraph quotient: entry (i, j) is
    C(i-1, n-j-1) * (m-1)**(n-j) when i + j >= n and 0 otherwise.
    Row i sums to (m-1) * m**(i-1)."""
    check_params(m, n)
    entries = tuple(
        tuple(
            math.comb(i - 1, n - j - 1) * (m - 1) ** (n - j) if i + j >= n else 0
            for j in range(1, n)
        )
        for i in range(1, n)
    )
    return QuotientMatrix(QuotientKind.Q, m, n, entries)


def walk_matrix_iterative(matrix: object) -> IntMatrix:
    """Walk matrix [1, B1, ..., B**(r-1) 1] of a square integer matrix B
    of order r, by repeated exact matrix-vector products on an
    object-dtype array of Python ints."""
    matrix = np.array(_integer_rows(matrix, square=True), dtype=object)
    r = len(matrix)
    walk = np.empty((r, r), dtype=object)
    walk[:, 0] = 1
    for k in range(1, r):
        walk[:, k] = matrix.dot(walk[:, k - 1])
    return tuple(map(tuple, walk.tolist()))


def h_coefficients(m: int, n: int) -> tuple[int, ...]:
    """Correction coefficients h_0..h_{n-3} of the P-kind closed form.

    h_0 = 1 and h_j = F[j+1]**n - sum(h_r * F[j-r]**n for r < j).  The
    result always contains h_0, so its length is max(1, n-2).
    """
    check_params(m, n)
    powers = [x**n for x in fib_values(m, n)]
    hs = [1]
    for j in range(1, max(1, n - 2)):
        hs.append(powers[j + 1] - sum(hs[r] * powers[j - r] for r in range(j)))
    return tuple(hs)


def walk_matrix_closed_p(m: int, n: int) -> IntMatrix:
    """P-kind walk matrix from the closed form

        entry(i, k) = F[k]**n * g[k]**i - sum_j h_j * F[k-j-1]**n * g[k-j-1]**i

    with g[k] = F[k+1]/F[k].  Since i < n, each term F[k]**n * g[k]**i is
    the integer F[k]**(n-i) * F[k+1]**i, so the form is evaluated in that
    integer shape, like walk_matrix_closed_q; row i needs only n-1 of
    them, so each is computed once per row.
    """
    check_params(m, n)
    fs = fib_values(m, n)
    hs = h_coefficients(m, n)
    rows = []
    for i in range(1, n):
        terms = [fs[k] ** (n - i) * fs[k + 1] ** i for k in range(n - 1)]
        rows.append(
            tuple(
                terms[k] - sum(hs[j] * terms[k - j - 1] for j in range(k))
                for k in range(n - 1)
            )
        )
    return tuple(rows)


def walk_matrix_closed_q(m: int, n: int) -> IntMatrix:
    """Q-kind walk matrix from the closed form, in its integer shape:

        entry(i, k) = (m-1)**k * F[k]**(n-i-1) * F[k+1]**(i-1)
    """
    check_params(m, n)
    fs = fib_values(m, n)
    return tuple(
        tuple(
            (m - 1) ** k * fs[k] ** (n - i - 1) * fs[k + 1] ** (i - 1)
            for k in range(n - 1)
        )
        for i in range(1, n)
    )


@dataclass(frozen=True)
class WalkFactorization:
    """Exact factorization W = V * diag(D) * U of a walk matrix.

    V is the Vandermonde matrix of the ratio nodes g[0]..g[n-2] (row i
    holds the i-th powers), D scales each column, and U is upper
    unitriangular (the identity for the Q kind).
    """

    kind: QuotientKind
    m: int
    n: int
    ratios: tuple[Fraction, ...]
    vandermonde: tuple[tuple[Fraction, ...], ...]
    diagonal: tuple[Fraction, ...]
    unitriangular: IntMatrix

    def product(self) -> tuple[tuple[Fraction, ...], ...]:
        """V * diag(D) * U, exactly."""
        r = self.n - 1
        scaled = [
            [self.vandermonde[i][k] * self.diagonal[k] for k in range(r)]
            for i in range(r)
        ]
        return tuple(
            tuple(
                sum(
                    (scaled[i][k] * self.unitriangular[k][j] for k in range(r)),
                    Fraction(0),
                )
                for j in range(r)
            )
            for i in range(r)
        )


def factorize_walk(m: int, n: int, kind: QuotientKind) -> WalkFactorization:
    """Factor the walk matrix of the chosen kind as V * diag(D) * U.

    For the P kind, D[k] = F[k]**n * g[k] and column k+1 of U is
    (-h_{k-1}, ..., -h_0, 1, 0, ...); for the Q kind,
    D[k] = (m-1)**k * F[k]**(n-2) and U is the identity.
    """
    check_params(m, n)
    if not isinstance(kind, QuotientKind):
        raise ValueError(f"kind must be a QuotientKind, got {kind!r}")
    fs = fib_values(m, n)
    r = n - 1
    ratios = tuple(Fraction(fs[k + 1], fs[k]) for k in range(r))
    vandermonde = tuple(tuple(g**i for g in ratios) for i in range(r))
    if kind is QuotientKind.P:
        diagonal = tuple(Fraction(fs[k]) ** n * ratios[k] for k in range(r))
        hs = h_coefficients(m, n)
        unitriangular = tuple(
            tuple(
                1 if i == j else (-hs[j - 1 - i] if i < j else 0) for j in range(r)
            )
            for i in range(r)
        )
    else:
        diagonal = tuple(
            Fraction((m - 1) ** k * fs[k] ** (n - 2)) for k in range(r)
        )
        unitriangular = tuple(
            tuple(1 if i == j else 0 for j in range(r)) for i in range(r)
        )
    return WalkFactorization(
        kind, m, n, ratios, vandermonde, diagonal, unitriangular
    )


def det_walk_formula(m: int, n: int, kind: QuotientKind) -> int:
    """Walk-matrix determinant from the factorization:

        det = prod_{r<l} (g[l] - g[r]) * prod_k D[k]

    evaluated in integers.  With g[k] = F[k+1]/F[k], each node difference
    is (F[l+1]*F[r] - F[r+1]*F[l]) / (F[l]*F[r]); every F[k], k < n-1,
    appears in n-2 of those denominators.  The diagonal is the integer
    F[k]**(n-1) * F[k+1] for the P kind and (m-1)**k * F[k]**(n-2) for
    the Q kind.  The denominator always divides the numerator; a
    remainder raises ArithmeticError.  factorize_walk reaches the same
    value through the factors themselves.
    """
    check_params(m, n)
    if not isinstance(kind, QuotientKind):
        raise ValueError(f"kind must be a QuotientKind, got {kind!r}")
    fs = fib_values(m, n)
    r = n - 1
    num = 1
    for right in range(r):
        for left in range(right + 1, r):
            num *= fs[left + 1] * fs[right] - fs[right + 1] * fs[left]
    den = math.prod(fs[:r]) ** (r - 1)
    for k in range(r):
        if kind is QuotientKind.P:
            num *= fs[k] ** (n - 1) * fs[k + 1]
        else:
            num *= (m - 1) ** k * fs[k] ** (n - 2)
    det, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("walk determinant formula is not an integer")
    return det


# -- exact linear algebra -------------------------------------------------


def _integer_rows(matrix: object, *, square: bool = False) -> list[list[int]]:
    """Fresh row lists of a non-empty rectangular (with `square`, square)
    matrix given as nested sequences or an integer ndarray.  Any entry
    that is not a Python int raises ValueError."""
    if isinstance(matrix, np.ndarray):
        matrix = matrix.tolist()
    rows = [list(row) for row in matrix]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix must be non-empty and rectangular")
    if square and len(rows) != len(rows[0]):
        raise ValueError("matrix must be square")
    if not all(type(x) is int for row in rows for x in row):
        raise ValueError("matrix entries must be integers")
    return rows


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination in place.  Entries below a pivot are left
    uncleared, since no later step reads a pivot's column.

    Returns (rank, signed last pivot); for a square matrix of full rank
    the signed last pivot is its determinant.  Pivoting is the first
    nonzero entry in column order, so the procedure is deterministic.
    """
    n_rows = len(rows)
    n_cols = len(rows[0])
    prev = 1
    sign = 1
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row >= n_rows:
            break
        pivot = next(
            (r for r in range(pivot_row, n_rows) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        if pivot != pivot_row:
            rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
            sign = -sign
        p = rows[pivot_row][col]
        for r in range(pivot_row + 1, n_rows):
            factor = rows[r][col]
            row_r = rows[r]
            row_p = rows[pivot_row]
            for c in range(col + 1, n_cols):
                num = p * row_r[c] - factor * row_p[c]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row_r[c] = q
        prev = p
        pivot_row += 1
    return pivot_row, sign * prev


def exact_rank(matrix: object) -> int:
    """Rank over the rationals of a rectangular integer matrix, by
    fraction-free elimination in Python integers.  Non-integer entries
    raise ValueError."""
    rank, _ = _bareiss(_integer_rows(matrix))
    return rank


def exact_det(matrix: object) -> int:
    """Exact determinant of a square integer matrix, as an int.
    Non-integer entries raise ValueError."""
    rows = _integer_rows(matrix, square=True)
    rank, signed_pivot = _bareiss(rows)
    return signed_pivot if rank == len(rows) else 0


# -- serialization ----------------------------------------------------------


def matrix_to_csv(matrix: object) -> str:
    """Comma-separated decimal integers, one row per line."""
    rows = _integer_rows(matrix)
    return "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"


def matrix_json_entries(matrix: object) -> list[list[str]]:
    """Array-of-arrays of decimal strings (safe for arbitrary precision)."""
    rows = _integer_rows(matrix)
    return [[str(x) for x in row] for row in rows]


def json_safe_int(value: int) -> int | str:
    """Ints beyond the exact-float range serialize as decimal strings."""
    return value if abs(value) <= 2**53 else str(value)
