"""Zero-divisor graphs of n-fold products of a field with m elements.

Vertices are the nonzero tuples that have at least one zero coordinate;
two vertices are adjacent exactly when their supports (sets of nonzero
positions) are disjoint, which is coordinatewise annihilation.  Since
adjacency depends only on zero patterns, m need not be a prime power
here.  The module also builds the induced two-sided subgraph on the
tuples whose last two coordinates have exactly one zero, the partition
of either graph by zero-coordinate count, and empirical quotients of
that partition.  Supports are stored as single machine words, so n is
capped at 63.

Vertices with the same support have the same neighbours, so sums over
neighbourhoods run on the lattice of the 2**n supports instead of the
vertex set: `disjoint_sums` adds up a per-support table over every
support disjoint from each support with a subset-sum transform, in
O(n * 2**n) time.  Both graphs have at least 2**(n-1) vertices, so this
never builds anything larger than O(vertex count).  Only the dense
adjacency matrix (for the eigensolver) and the exports compare vertex
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .fib import check_params

__all__ = [
    "DEFAULT_SIZE_CAP",
    "MAX_TUPLE_LENGTH",
    "SizeCapExceeded",
    "NotEquitableError",
    "VertexTuple",
    "ZeroDivisorGraph",
    "BipartiteSubgraph",
    "build_graph",
    "build_bipartite",
    "vertex_count",
    "disjoint_sums",
    "empirical_quotient",
    "adjacency_matrix",
    "adjacency_to_csv",
    "to_dot",
    "to_json_descriptor",
    "expected_cell_sizes",
]

DEFAULT_SIZE_CAP = 20_000
MAX_TUPLE_LENGTH = 63


class SizeCapExceeded(Exception):
    """A requested graph is larger than the configured vertex cap."""

    def __init__(self, what: str, count: int, cap: int) -> None:
        super().__init__(
            f"{what} has {count} vertices, above the configured cap of {cap}"
        )
        self.what = what
        self.count = count
        self.cap = cap


class NotEquitableError(Exception):
    """A partition cell has vertices with unequal neighbor counts."""

    def __init__(
        self,
        cell_i: int,
        cell_j: int,
        witness_a: str,
        count_a: int,
        witness_b: str,
        count_b: int,
    ) -> None:
        super().__init__(
            f"cell {cell_i} is not equitable toward cell {cell_j}: "
            f"vertex {witness_a} has {count_a} neighbors there, "
            f"vertex {witness_b} has {count_b}"
        )
        self.cell_i = cell_i
        self.cell_j = cell_j
        self.witnesses = ((witness_a, count_a), (witness_b, count_b))


def vertex_count(m: int, n: int, role: str = "full") -> int:
    """Closed-form vertex count of the full graph or the two-sided subgraph."""
    if role == "full":
        return m**n - (m - 1) ** n - 1
    if role == "bipartite":
        return 2 * (m - 1) * m ** (n - 2)
    raise ValueError(f"role must be 'full' or 'bipartite', got {role!r}")


@dataclass(frozen=True)
class VertexTuple:
    """A coordinate tuple plus its support bitmask (bit i <=> coords[i] != 0)."""

    coords: tuple[int, ...]
    support: int

    @property
    def zero_count(self) -> int:
        return len(self.coords) - self.support.bit_count()

    def label(self, m: int) -> str:
        sep = "" if m <= 10 else ","
        return sep.join(str(c) for c in self.coords)


def _make_vertex(coords: tuple[int, ...]) -> VertexTuple:
    support = 0
    for i, c in enumerate(coords):
        if c != 0:
            support |= 1 << i
    return VertexTuple(coords, support)


@dataclass(frozen=True)
class _SupportGraph:
    """Shared structure: lexicographic vertices plus the zero-count cells."""

    m: int
    n: int
    vertices: tuple[VertexTuple, ...]
    # cells[i-1] holds indices of vertices with exactly i zero coordinates
    cells: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @cached_property
    def support_array(self) -> np.ndarray:
        return np.array([v.support for v in self.vertices], dtype=np.uint64)

    def labels(self) -> tuple[str, ...]:
        return tuple(v.label(self.m) for v in self.vertices)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Index pairs (i, j) with i < j and disjoint supports, ascending."""
        sup = self.support_array
        for i in range(len(sup) - 1):
            hits = np.flatnonzero((sup[i] & sup[i + 1 :]) == 0)
            for off in hits:
                yield i, i + 1 + int(off)

    def edge_count(self) -> int:
        sup = self.support_array
        total = 0
        for i in range(len(sup) - 1):
            total += int(((sup[i] & sup[i + 1 :]) == 0).sum())
        return total


@dataclass(frozen=True)
class ZeroDivisorGraph(_SupportGraph):
    role = "full"


@dataclass(frozen=True)
class BipartiteSubgraph(_SupportGraph):
    """Induced subgraph on tuples with exactly one zero among the last two
    coordinates; `sides` splits the vertex indices by which one it is."""

    sides: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
    role = "bipartite"


def _group_cells(vertices: Sequence[VertexTuple], n: int) -> tuple[tuple[int, ...], ...]:
    cells: list[list[int]] = [[] for _ in range(n - 1)]
    for idx, v in enumerate(vertices):
        cells[v.zero_count - 1].append(idx)
    return tuple(tuple(cell) for cell in cells)


def build_graph(m: int, n: int, *, size_cap: int = DEFAULT_SIZE_CAP) -> ZeroDivisorGraph:
    """Enumerate the zero-divisor graph for (m, n), refusing above size_cap."""
    check_params(m, n, MAX_TUPLE_LENGTH)
    count = vertex_count(m, n, "full")
    if count > size_cap:
        raise SizeCapExceeded(f"zero-divisor graph for m={m}, n={n}", count, size_cap)
    vertices = tuple(
        _make_vertex(coords)
        for coords in product(range(m), repeat=n)
        if 0 < sum(1 for c in coords if c != 0) < n
    )
    if len(vertices) != count:
        raise ArithmeticError("vertex enumeration disagrees with the count law")
    return ZeroDivisorGraph(m, n, vertices, _group_cells(vertices, n))


def build_bipartite(m: int, n: int, *, size_cap: int = DEFAULT_SIZE_CAP) -> BipartiteSubgraph:
    """Induced subgraph on the vertices whose last two coordinates contain
    exactly one zero; the side with the zero in the last coordinate comes
    first, each side in lexicographic order."""
    check_params(m, n, MAX_TUPLE_LENGTH)
    count = vertex_count(m, n, "bipartite")
    if count > size_cap:
        raise SizeCapExceeded(f"two-sided subgraph for m={m}, n={n}", count, size_cap)
    side_a = []
    side_b = []
    for coords in product(range(m), repeat=n):
        if coords[n - 2] != 0 and coords[n - 1] == 0:
            side_a.append(_make_vertex(coords))
        elif coords[n - 2] == 0 and coords[n - 1] != 0:
            side_b.append(_make_vertex(coords))
    vertices = tuple(side_a + side_b)
    if len(vertices) != count:
        raise ArithmeticError("side enumeration disagrees with the count law")
    sides = (
        tuple(range(len(side_a))),
        tuple(range(len(side_a), len(vertices))),
    )
    return BipartiteSubgraph(m, n, vertices, _group_cells(vertices, n), sides)


def disjoint_sums(table: np.ndarray, n: int) -> np.ndarray:
    """out[s] = sum of table[t] over all supports t disjoint from s.

    `table` has one row per support bitmask (2**n rows, any trailing
    shape).  A subset-sum transform along each of the n bit axes gives
    the sum over t contained in r; the complement of s is 2**n - 1 - s,
    so reversing the rows reads it at ~s.  Integer tables of dtype object
    stay in exact Python integers.
    """
    table = np.asarray(table)
    if table.shape[0] != 1 << n:
        raise ValueError(f"table must have 2**{n} rows, got {table.shape[0]}")
    work = table.reshape((2,) * n + table.shape[1:])
    for axis in range(n):
        work = np.cumsum(work, axis=axis, dtype=table.dtype)
    return work.reshape(table.shape)[::-1]


def empirical_quotient(
    graph: _SupportGraph, cells: Sequence[Sequence[int]] | None = None
) -> tuple[tuple[int, ...], ...]:
    """Count neighbors per cell and insist the count is constant on each cell.

    Neighbour counts come from a support-by-cell histogram summed over
    disjoint supports, so any partition works, including one that splits
    the vertices of a support.  Returns the quotient matrix as nested
    tuples; raises NotEquitableError with two witness vertices when a
    cell is not equitable.  The default partition is by zero-coordinate
    count.
    """
    if cells is None:
        cells = graph.cells
    cells = [tuple(int(i) for i in cell) for cell in cells]
    flat = sorted(i for cell in cells for i in cell)
    if flat != list(range(graph.vertex_count)) or any(not cell for cell in cells):
        raise ValueError("cells must be non-empty and partition the vertex set")
    cell_of = np.empty(graph.vertex_count, dtype=np.int64)
    for j, cell in enumerate(cells):
        cell_of[list(cell)] = j
    sup = graph.support_array.astype(np.int64)
    lattice = 1 << graph.n
    per_support = np.bincount(
        sup * len(cells) + cell_of, minlength=lattice * len(cells)
    ).reshape(lattice, len(cells))
    # counts[v, j] = number of neighbours of vertex v inside cells[j]
    counts = disjoint_sums(per_support, graph.n)[sup]
    quotient = []
    for i, cell in enumerate(cells):
        sub = counts[np.asarray(cell, dtype=np.int64)]
        first = sub[0]
        mismatch = np.flatnonzero((sub != first).any(axis=1))
        if mismatch.size:
            row = int(mismatch[0])
            col = int(np.flatnonzero(sub[row] != first)[0])
            raise NotEquitableError(
                i + 1,
                col + 1,
                graph.vertices[cell[0]].label(graph.m),
                int(first[col]),
                graph.vertices[cell[row]].label(graph.m),
                int(sub[row][col]),
            )
        quotient.append(tuple(int(x) for x in first))
    return tuple(quotient)


def adjacency_matrix(graph: _SupportGraph) -> np.ndarray:
    """Dense symmetric 0/1 matrix in vertex order (int8, zero diagonal)."""
    sup = graph.support_array
    n_vertices = len(sup)
    adj = np.zeros((n_vertices, n_vertices), dtype=np.int8)
    chunk = max(256, 4_000_000 // max(1, n_vertices))
    for start in range(0, n_vertices, chunk):
        stop = min(n_vertices, start + chunk)
        adj[start:stop] = (sup[start:stop, None] & sup[None, :]) == 0
    return adj


def adjacency_to_csv(graph: _SupportGraph) -> str:
    """Adjacency rows as comma-separated 0/1 lines, streamed row by row."""
    sup = graph.support_array
    lines = []
    for i in range(len(sup)):
        row = ((sup[i] & sup) == 0).astype(np.int8)
        lines.append(",".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def to_dot(graph: _SupportGraph, name: str | None = None) -> str:
    """DOT text: labeled vertices, cells as same-rank groups, then edges."""
    if name is None:
        name = f"{graph.role}_m{graph.m}_n{graph.n}"
    labels = graph.labels()
    lines = [f"graph {name} {{"]
    for cell in graph.cells:
        members = " ".join(f'"{labels[i]}";' for i in cell)
        lines.append(f"  {{ rank=same; {members} }}")
    for i, j in graph.edges():
        lines.append(f'  "{labels[i]}" -- "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_descriptor(graph: _SupportGraph) -> dict:
    """JSON-ready descriptor: {m, n, graph, vertices, edges}."""
    return {
        "m": graph.m,
        "n": graph.n,
        "graph": graph.role,
        "vertices": list(graph.labels()),
        "edges": [[i, j] for i, j in graph.edges()],
    }


def expected_cell_sizes(m: int, n: int, role: str = "full") -> tuple[int, ...]:
    """Closed-form cell sizes of the zero-count partition, cells 1..n-1."""
    check_params(m, n, MAX_TUPLE_LENGTH)
    if role == "full":
        return tuple(comb(n, i) * (m - 1) ** (n - i) for i in range(1, n))
    if role == "bipartite":
        return tuple(2 * comb(n - 2, i - 1) * (m - 1) ** (n - i) for i in range(1, n))
    raise ValueError(f"role must be 'full' or 'bipartite', got {role!r}")
