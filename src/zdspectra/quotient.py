"""Quotient matrices of the zero-count partition and their walk matrices.

Two (n-1) x (n-1) integer matrices are built for field size m and tuple
length n: the P kind records, for a vertex with i zero coordinates, how
many neighbors it has with j zero coordinates in the full graph; the
Q kind does the same inside the two-sided induced subgraph.  Their walk
matrices [e, Be, B**2 e, ...] share one factor law (`_walk_factor`): a
Vandermonde matrix T in the weighted Fibonacci nodes with scaled
columns, times a unitriangular U (the identity for Q).  The closed
forms, the factorization and the determinant all read it, and the
determinant is a division-free integer product.  All arithmetic in this
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
from collections.abc import Iterator
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


def _walk_factor(
    m: int, n: int, kind: QuotientKind
) -> tuple[list[int], list[int], Iterator[tuple[int, ...]]]:
    """F[0..n], the column weights w_k and the rows of the walk factor

        T[i][k] = w_k * F[k]**(n-1-i) * F[k+1]**(i-1),   i = 1..n-1,

    with w_k = F[k] * F[k+1] for the P kind and (m-1)**k for the Q kind.
    T is the Vandermonde matrix of the homogeneous nodes (F[k+1] : F[k])
    with scaled columns; the walk matrix is T for the Q kind and T * U
    for the P kind (see walk_matrix_closed_p).  The rows are built only
    when read.
    """
    check_params(m, n)
    if not isinstance(kind, QuotientKind):
        raise ValueError(f"kind must be a QuotientKind, got {kind!r}")
    fs = fib_values(m, n)
    if kind is QuotientKind.P:
        weights = [fs[k] * fs[k + 1] for k in range(n - 1)]
    else:
        weights = [(m - 1) ** k for k in range(n - 1)]
    rows = (
        tuple(
            w * fs[k] ** (n - 1 - i) * fs[k + 1] ** (i - 1)
            for k, w in enumerate(weights)
        )
        for i in range(1, n)
    )
    return fs, weights, rows


def walk_matrix_closed_p(m: int, n: int) -> IntMatrix:
    """P-kind walk matrix from the closed form

        entry(i, k) = F[k]**n * g[k]**i - sum_j h_j * F[k-j-1]**n * g[k-j-1]**i

    with g[k] = F[k+1]/F[k]: each term F[k]**n * g[k]**i is the integer
    T[i][k] = F[k]**(n-i) * F[k+1]**i of the walk factor, so the walk
    matrix is T * U, with U unitriangular from the h coefficients.
    """
    _, _, rows = _walk_factor(m, n, QuotientKind.P)
    hs = h_coefficients(m, n)
    return tuple(
        tuple(
            terms[k] - sum(hs[j] * terms[k - j - 1] for j in range(k))
            for k in range(n - 1)
        )
        for terms in rows
    )


def walk_matrix_closed_q(m: int, n: int) -> IntMatrix:
    """Q-kind walk matrix from the closed form: the walk factor itself,

        entry(i, k) = (m-1)**k * F[k]**(n-i-1) * F[k+1]**(i-1)
    """
    return tuple(_walk_factor(m, n, QuotientKind.Q)[2])


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

    The walk factor T is V * diag(D) with D[k] = w_k * F[k]**(n-2), its
    column weight times the powers its node takes out.  Column k+1 of U
    is (-h_{k-1}, ..., -h_0, 1, 0, ...) for the P kind; the Q kind has
    no correction, so its U is the identity.
    """
    fs, weights, _ = _walk_factor(m, n, kind)
    r = n - 1
    ratios = tuple(Fraction(fs[k + 1], fs[k]) for k in range(r))
    vandermonde = tuple(tuple(g**i for g in ratios) for i in range(r))
    diagonal = tuple(Fraction(w * fs[k] ** (n - 2)) for k, w in enumerate(weights))
    hs = h_coefficients(m, n) if kind is QuotientKind.P else (0,) * (n - 2)
    unitriangular = tuple(
        tuple(1 if i == j else (-hs[j - 1 - i] if i < j else 0) for j in range(r))
        for i in range(r)
    )
    return WalkFactorization(
        kind, m, n, ratios, vandermonde, diagonal, unitriangular
    )


def det_walk_formula(m: int, n: int, kind: QuotientKind) -> int:
    """Walk-matrix determinant as a product of integers:

        det = prod_k w_k * prod_{k<l} (F[l+1]*F[k] - F[k+1]*F[l])

    This is det T (U is unitriangular): the homogeneous Vandermonde
    determinant of the nodes (F[k+1] : F[k]) times the column weights,
    so no division is needed.  By d'Ocagne's identity each node factor
    is +-(m-1)**(k+1) * F[l-k-1], never zero.  factorize_walk reaches
    the same value through the factors themselves.
    """
    fs, weights, _ = _walk_factor(m, n, kind)
    det = math.prod(weights)
    for k in range(n - 1):
        for l in range(k + 1, n - 1):
            det *= fs[l + 1] * fs[k] - fs[k + 1] * fs[l]
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
