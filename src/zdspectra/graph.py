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

A graph is its (N, n) coordinate array in vertex order, held in the
narrowest unsigned dtype that holds the digits 0..m-1 (uint8 up to
m = 256, uint16 up to 65,536): the constructor takes only (m, n, coords)
and derives, once, the uint64 support bitmask of each row.  Labels,
witnesses, cell members and the subgraph's two sides are read from the
coordinates and supports.  The builders write the tuples already in
lexicographic order and in that dtype, from a leading-digit recursion
(full graph) or product grids (two-sided subgraph), so nothing is sorted
or copied and the m**n tuples that are not vertices are never visited.

Vertices with the same support have the same neighbours, so every
graph-level sum runs on the lattice of the 2**n supports instead of the
vertex set.  Each graph counts its rows per support once, on first read
(`class_sizes`, which also give the cell sizes); `disjoint_sums` adds up
a per-support table over every support disjoint from each support with
an in-place subset-sum transform, in O(n * 2**n) time, and each graph
decides once, on first read, whether its zero-count partition is
equitable (`equitable_quotient`, one row of neighbour counts per
support), for both `empirical_quotient` and the Krylov rank.  A
built graph has at least 2**(n-1) vertices, so for it this work is
O(vertex count); a hand-made graph of few rows pays for the whole
lattice, 2**n * (n-1) entries in the quotient, since the lattice is
sized by n by design.  Only the dense adjacency matrix (for the
eigensolver) and the exports compare vertex pairs.
"""

from __future__ import annotations

import codecs
from collections.abc import Iterator, Sequence
from functools import cached_property
from math import comb, prod

import numpy as np

from .fib import check_params

__all__ = [
    "DEFAULT_SIZE_CAP",
    "MAX_TUPLE_LENGTH",
    "SizeCapExceeded",
    "NotEquitableError",
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


def vertex_count(m: int, n: int, role: str) -> int:
    """Closed-form vertex count of the full graph or the two-sided subgraph."""
    if role == "full":
        return m**n - (m - 1) ** n - 1
    if role == "bipartite":
        return 2 * (m - 1) * m ** (n - 2)
    raise ValueError(f"role must be 'full' or 'bipartite', got {role!r}")


def _digit_dtype(m: int) -> np.dtype:
    """Narrowest unsigned dtype that holds the digits 0..m-1 (at most uint64)."""
    return np.min_scalar_type(min(m - 1, 2**64 - 1))


def _support_bits(coords: np.ndarray) -> np.ndarray:
    """Support bitmask of each row of an (N, n) coordinate array, as uint64.

    The weights 2**j are held in the narrowest unsigned dtype that holds
    2**n - 1, and each row sums distinct powers of two, so the product of
    the 0/1 rows with them is exact in that dtype.  The product casts the
    0/1 rows to that dtype: 1, 2, 4 or 8 bytes an entry as n passes 8, 16
    and 32, and 8 only where a built graph has over 2**32 vertices."""
    n = coords.shape[1]
    weights = (1 << np.arange(n)).astype(np.min_scalar_type((1 << n) - 1))
    return ((coords != 0) @ weights).astype(np.uint64)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _labels(m: int, coords: np.ndarray) -> tuple[str, ...]:
    sep = "" if m <= 10 else ","
    return tuple(sep.join(map(str, row)) for row in coords.tolist())


class _SupportGraph:
    """A graph fixed by its (N, n) coordinate array, in vertex order.

    The coordinates must be an integer array with n columns and entries
    in 0..m-1; they are checked as given, then stored in the narrowest
    unsigned dtype that holds 0..m-1, so an array already in that dtype
    (as the builders write it) is not copied.  The constructor derives
    only each row's support bitmask, so its cost follows the rows, not
    2**n.  `class_sizes` and `equitable_quotient` are built on first
    read, and `cell_sizes` sums the class sizes by zero count (cell i
    holds the rows with i zero coordinates, 1..n-1);
    a cell's rows are found from the supports only for a DOT export or a
    witness of `empirical_quotient`, named by the rule stated there.
    """

    def __init__(self, m: int, n: int, coords: np.ndarray) -> None:
        check_params(m, n, MAX_TUPLE_LENGTH)
        coords = np.asarray(coords)
        if (
            coords.dtype.kind not in "iu"
            or coords.ndim != 2
            or coords.shape[1] != n
            or (coords.size and (coords.min() < 0 or coords.max() >= m))
        ):
            raise ValueError(
                f"coordinates must be an integer array of shape (N, {n}) "
                f"with entries in 0..{m - 1}"
            )
        self.m = m
        self.n = n
        self.coords = _frozen(coords.astype(_digit_dtype(m), copy=False))
        self.support_array = _frozen(_support_bits(self.coords))

    @property
    def vertex_count(self) -> int:
        return len(self.coords)

    @cached_property
    def class_sizes(self) -> np.ndarray:
        """Vertex count of each of the 2**n supports (int64), indexed by
        support bitmask: the one input of the lattice checks."""
        supports = self.support_array.astype(np.int64)
        return _frozen(np.bincount(supports, minlength=1 << self.n))

    def cell_sizes(self) -> tuple[int, ...]:
        """Row count of each zero-count cell 1..n-1, summed from `class_sizes`."""
        present = np.flatnonzero(self.class_sizes)
        counts = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(counts, self.n - np.bitwise_count(present), self.class_sizes[present])
        return tuple(counts[1:-1].tolist())

    @cached_property
    def equitable_quotient(self) -> tuple[tuple[int, ...], ...] | None:
        """The quotient matrix of the zero-count partition when that
        partition is equitable with every row in a cell 1..n-1 and no
        cell empty, else None; decided once, on first read, and shared by
        `empirical_quotient` and `spectra.krylov_rank`."""
        if not _fills_cells(self):
            return None
        _, firsts, failing = _cell_counts(self)
        return None if failing else tuple(firsts)

    def labels(self) -> tuple[str, ...]:
        """Each row's coordinates as text, comma-separated when m > 10."""
        return _labels(self.m, self.coords)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Index pairs (i, j) with i < j and disjoint supports, ascending."""
        sup = self.support_array
        for i in range(len(sup) - 1):
            hits = np.flatnonzero((sup[i] & sup[i + 1 :]) == 0)
            for off in hits:
                yield i, i + 1 + int(off)


class ZeroDivisorGraph(_SupportGraph):
    role = "full"


class BipartiteSubgraph(_SupportGraph):
    """Induced subgraph on tuples with exactly one zero among the last two
    coordinates; its two sides are read off `coords[:, -2:]`."""

    role = "bipartite"


def _grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Lexicographic product of the digit arrays in `axes`, one row per
    tuple, in the dtype of the first axis."""
    total = prod(len(axis) for axis in axes)
    out = np.empty((total, len(axes)), dtype=axes[0].dtype)
    inner = total
    for j, axis in enumerate(axes):
        inner //= len(axis)
        out[:, j] = np.tile(np.repeat(axis, inner), total // (inner * len(axis)))
    return out


def _with_zero(m: int, n: int) -> np.ndarray:
    """Every length-n tuple over 0..m-1 with a zero, in lexicographic order
    (row 0 is the zero tuple).  Z(1) = [(0)], and Z(k) is [0 | every
    (k-1)-tuple], the first m**(k-1) rows of the (n-1)-tuple grid, then
    [d | Z(k-1)] for d = 1..m-1; no level outgrows Z(n)."""
    digits = np.arange(m, dtype=_digit_dtype(m))
    every = _grid([digits] * (n - 1))
    zeroed = np.zeros((1, 1), dtype=digits.dtype)
    for k in range(2, n + 1):
        head, tail = m ** (k - 1), len(zeroed)
        level = np.zeros((head + (m - 1) * tail, k), dtype=digits.dtype)
        level[:head, 1:] = every[:head, n - k :]
        level[head:, 0] = np.repeat(digits[1:], tail)
        level[head:, 1:].reshape(m - 1, tail, k - 1)[...] = zeroed
        zeroed = level
    return zeroed


def build_graph(m: int, n: int, *, size_cap: int = DEFAULT_SIZE_CAP) -> ZeroDivisorGraph:
    """Enumerate the zero-divisor graph for (m, n), refusing above size_cap."""
    check_params(m, n, MAX_TUPLE_LENGTH)
    count = vertex_count(m, n, "full")
    if count > size_cap:
        raise SizeCapExceeded(f"zero-divisor graph for m={m}, n={n}", count, size_cap)
    coords = _with_zero(m, n)[1:]
    if len(coords) != count:
        raise ArithmeticError("vertex enumeration disagrees with the count law")
    return ZeroDivisorGraph(m, n, coords)


def build_bipartite(m: int, n: int, *, size_cap: int = DEFAULT_SIZE_CAP) -> BipartiteSubgraph:
    """Induced subgraph on the vertices whose last two coordinates contain
    exactly one zero.  Each side is a product grid in lexicographic order:
    every (n-2)-prefix times (nonzero digit, 0) on the first side, times
    (0, nonzero digit) on the second."""
    check_params(m, n, MAX_TUPLE_LENGTH)
    count = vertex_count(m, n, "bipartite")
    if count > size_cap:
        raise SizeCapExceeded(f"two-sided subgraph for m={m}, n={n}", count, size_cap)
    digits = np.arange(m, dtype=_digit_dtype(m))
    prefix, digit, zero = [digits] * (n - 2), digits[1:], digits[:1]
    coords = np.concatenate((_grid(prefix + [digit, zero]), _grid(prefix + [zero, digit])))
    if len(coords) != count:
        raise ArithmeticError("vertex enumeration disagrees with the count law")
    return BipartiteSubgraph(m, n, coords)


def disjoint_sums(table: np.ndarray, n: int) -> np.ndarray:
    """out[s] = sum of table[t] over all supports t disjoint from s.

    `table` has one row per support bitmask (2**n rows, any trailing
    shape).  A subset-sum transform gives the sum over t contained in r:
    for each bit a, one in-place `view[:, 1] += view[:, 0]` on the
    (2**(n-1-a), 2, 2**a, ...) view of a single copy adds each row
    without bit a into the row with it.  The complement of s is
    2**n - 1 - s, so reversing the rows reads it at ~s.  Each output is a
    sum of at most 2**n entries of the table, in the table's dtype, so
    integer tables of dtype object stay in exact Python integers.  The
    int64 tables of the equitability check hold class sizes, whose sums
    are at most the vertex count.
    """
    table = np.asarray(table)
    if table.shape[0] != 1 << n:
        raise ValueError(f"table must have 2**{n} rows, got {table.shape[0]}")
    work = table.copy()
    for a in range(n):
        view = work.reshape((1 << (n - 1 - a), 2, 1 << a) + table.shape[1:])
        view[:, 1] += view[:, 0]
    return work[::-1]


def _cell_rows(graph: _SupportGraph, zeros: int) -> np.ndarray:
    """Indices of the rows with `zeros` zero coordinates, ascending."""
    return np.flatnonzero(graph.n - np.bitwise_count(graph.support_array) == zeros)


def _fills_cells(graph: _SupportGraph) -> bool:
    """Every row has a zero and a nonzero coordinate, and every zero
    count 1..n-1 has a row."""
    sizes = graph.class_sizes
    return not (sizes[0] or sizes[-1]) and all(graph.cell_sizes())


def _cell_counts(graph: _SupportGraph) -> tuple[np.ndarray, list[tuple[int, ...]], list[int]]:
    """(sums, firsts, failing): sums[s, j] is the number of neighbours a
    vertex of support s has in cell j + 1, for every support s; firsts[i]
    is the row of the first support present in cell i + 1, as ints;
    failing lists, ascending, each 0-based cell where some support's row
    differs from that first row.  The table is dropped once summed and
    each cell compared on its own, so at most two 2**n x (n-1) tables
    are held at once."""
    n, sizes = graph.n, graph.class_sizes
    present = np.flatnonzero(sizes)
    cell_of = n - 1 - np.bitwise_count(present)
    table = np.zeros((1 << n, n - 1), dtype=np.int64)
    table[present, cell_of] = sizes[present]
    sums = disjoint_sums(table, n)
    del table
    firsts, failing = [], []
    for i in range(n - 1):
        rows = sums[present[cell_of == i]]
        firsts.append(tuple(rows[0].tolist()))
        if (rows != rows[0]).any():
            failing.append(i)
    return sums, firsts, failing


def empirical_quotient(graph: _SupportGraph) -> tuple[tuple[int, ...], ...]:
    """Count neighbours per zero-count cell and insist the count is
    constant on each cell.

    Vertices with the same support have the same neighbours, and a
    support's cell is fixed by its zero count, so equitability is decided
    on the lattice alone, once per graph (`equitable_quotient`): the
    class sizes, placed in the column of each support's cell and summed
    over disjoint supports, give one row of neighbour counts per support,
    and each support present is compared with the first support present
    in its cell (any would do).  Rows are read, and two labelled, only to
    name the witnesses of a mismatch: the first cell that fails, its
    first row, its first row whose support row differs from that row's,
    and the first column where they differ.

    Returns the quotient matrix as nested tuples; raises
    NotEquitableError with those two witness vertices when a cell is not
    equitable, and ValueError when a row has no zero or no nonzero
    coordinate or a cell is empty (only hand-made coordinates can).
    """
    quotient = graph.equitable_quotient
    if quotient is not None:
        return quotient
    if not _fills_cells(graph):
        raise ValueError(
            "every row needs a zero and a nonzero coordinate, "
            "and every zero count 1..n-1 a row"
        )
    sums, _, failing = _cell_counts(graph)
    i = failing[0]
    rows = _cell_rows(graph, i + 1)
    row_sums = sums[graph.support_array[rows]]
    first = row_sums[0]
    k = int(np.flatnonzero((row_sums != first).any(axis=1))[0])
    col = int(np.flatnonzero(row_sums[k] != first)[0])
    a, b = _labels(graph.m, graph.coords[rows[[0, k]]])
    raise NotEquitableError(i + 1, col + 1, a, int(first[col]), b, int(row_sums[k, col]))


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
    """Adjacency rows as comma-separated 0/1 lines, written row by row
    into one ASCII buffer that is decoded once: the peak is the buffer
    and the text, each 2 * N**2 bytes."""
    sup = graph.support_array
    # each ASCII row: a digit at every even offset, commas between, newline last
    buf = np.full((len(sup), 2 * len(sup)), ord(","), dtype=np.uint8)
    buf[:, -1:] = ord("\n")
    for row, support in zip(buf, sup):
        row[0::2] = ord("0") + ((support & sup) == 0)
    return codecs.decode(buf, "ascii")


def to_dot(graph: _SupportGraph) -> str:
    """DOT text named role_mM_nN: labeled vertices, cells as same-rank
    groups, then edges."""
    labels = graph.labels()
    lines = [f"graph {graph.role}_m{graph.m}_n{graph.n} {{"]
    for zeros in range(1, graph.n):
        members = " ".join(f'"{labels[i]}";' for i in _cell_rows(graph, zeros))
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


def expected_cell_sizes(m: int, n: int, role: str) -> tuple[int, ...]:
    """Closed-form cell sizes of the zero-count partition, cells 1..n-1."""
    check_params(m, n, MAX_TUPLE_LENGTH)
    if role == "full":
        return tuple(comb(n, i) * (m - 1) ** (n - i) for i in range(1, n))
    if role == "bipartite":
        return tuple(2 * comb(n - 2, i - 1) * (m - 1) ** (n - i) for i in range(1, n))
    raise ValueError(f"role must be 'full' or 'bipartite', got {role!r}")
