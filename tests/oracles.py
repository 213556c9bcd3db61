"""Independent brute-force references for the test suite.

Everything here is deliberately naive: direct enumeration, cofactor
expansion, textbook Gaussian elimination, Faddeev-LeVerrier.  Nothing
imports the package under test, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def fib_loop(m: int, k: int) -> int:
    """Plain loop for the weighted recurrence with both seeds equal to 1."""
    prev, cur = 1, 1
    for _ in range(k):
        prev, cur = cur, cur + (m - 1) * prev
    return prev


def brute_vertices(m: int, n: int) -> list[tuple[int, ...]]:
    """All length-n tuples over 0..m-1 with at least one zero and one nonzero."""
    out = []
    for coords in itertools.product(range(m), repeat=n):
        if any(c == 0 for c in coords) and any(c != 0 for c in coords):
            out.append(coords)
    return out


def brute_sides(m: int, n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Tuples with exactly one zero among the last two coordinates, split
    by whether it is the last one (first list) or the one before it."""
    tuples = list(itertools.product(range(m), repeat=n))
    return (
        [c for c in tuples if c[-2] != 0 and c[-1] == 0],
        [c for c in tuples if c[-2] == 0 and c[-1] != 0],
    )


def annihilating(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Coordinatewise product is the zero tuple."""
    return all(a * b == 0 for a, b in zip(u, v))


def brute_adjacency(vertices: list[tuple[int, ...]]) -> list[list[int]]:
    size = len(vertices)
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if annihilating(vertices[i], vertices[j]):
                rows[i][j] = rows[j][i] = 1
    return rows


def brute_edges(vertices: list[tuple[int, ...]]) -> set[tuple[int, int]]:
    return {
        (i, j)
        for i in range(len(vertices))
        for j in range(i + 1, len(vertices))
        if annihilating(vertices[i], vertices[j])
    }


def det_cofactor(rows):
    """Recursive first-row cofactor expansion; fine up to 7x7 or so."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = 0
    for col in range(size):
        if rows[0][col] == 0:
            continue
        minor = [
            [row[c] for c in range(size) if c != col]
            for row in rows[1:]
        ]
        sign = -1 if col % 2 else 1
        total += sign * rows[0][col] * det_cofactor(minor)
    return total


def char_poly_faddeev(rows) -> list[int]:
    """Coefficients c[0..r] of det(x I - M) = sum c[k] x**k for a square
    integer matrix M of order r, by Faddeev-LeVerrier.

    With N_1 = I, c[r-k] = -trace(M N_k) / k and N_{k+1} = M N_k + c[r-k] I;
    each division is exact, and a remainder raises ArithmeticError.  The
    products run on object-dtype arrays of Python ints.
    """
    order = len(rows)
    matrix = np.array(rows, dtype=object)
    coeffs = [0] * (order + 1)
    coeffs[order] = 1
    product = np.zeros((order, order), dtype=object)  # M N_k, with N_0 = 0
    diagonal = np.arange(order)
    for k in range(1, order + 1):
        product[diagonal, diagonal] += coeffs[order - k + 1]  # now N_k
        product = matrix.dot(product)
        coeff, rem = divmod(-product.trace(), k)
        if rem:
            raise ArithmeticError(f"Faddeev-LeVerrier step {k} left remainder {rem}")
        coeffs[order - k] = coeff
    return coeffs


def rank_gauss(rows) -> int:
    """Row-reduction rank over exact rationals."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    n_rows, n_cols = len(work), len(work[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(n_rows):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def krylov_rank_rows(rows) -> int:
    """Rank of [e, Ae, A**2 e, ...] for a square integer matrix given as
    rows, stopping when two consecutive ranks agree or after order + 1
    vectors.  The Krylov vectors themselves are row-reduced at every
    step, in Python ints and rank_gauss."""
    order = len(rows)
    nonzero = [[(j, a) for j, a in enumerate(row) if a] for row in rows]
    vec = [1] * order
    krylov = [vec]
    rank = 1
    while len(krylov) < order + 1:
        vec = [sum(a * vec[j] for j, a in terms) for terms in nonzero]
        krylov.append(vec)
        new_rank = rank_gauss(krylov)
        if new_rank == rank:
            return rank
        rank = new_rank
    return rank


def neighbor_counts(
    vertices: list[tuple[int, ...]],
    cells: list[list[int]],
) -> list[list[int]]:
    """counts[v][j] = number of neighbors of vertex v inside cells[j]."""
    adjacency = brute_adjacency(vertices)
    return [
        [sum(adjacency[v][u] for u in other) for other in cells]
        for v in range(len(vertices))
    ]


def quotient_by_counting(
    vertices: list[tuple[int, ...]],
    cells: list[list[int]],
) -> list[list[int]]:
    """Neighbor counts per cell pair, insisting on constancy within each cell."""
    counts = neighbor_counts(vertices, cells)
    rows = []
    for cell in cells:
        row = []
        for j in range(len(cells)):
            seen = {counts[v][j] for v in cell}
            if len(seen) != 1:
                raise ValueError("partition is not equitable")
            row.append(seen.pop())
        rows.append(row)
    return rows
