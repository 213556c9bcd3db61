"""Explicit graph construction, partitions, adjacency, exports."""

import tracemalloc

import numpy as np
import pytest

from zdspectra import graph as graph_module
from zdspectra.graph import (
    DEFAULT_SIZE_CAP,
    BipartiteSubgraph,
    NotEquitableError,
    SizeCapExceeded,
    ZeroDivisorGraph,
    adjacency_matrix,
    adjacency_to_csv,
    build_bipartite,
    build_graph,
    disjoint_sums,
    empirical_quotient,
    expected_cell_sizes,
    to_dot,
    to_json_descriptor,
    vertex_count,
)
from zdspectra.quotient import build_p, build_q

from oracles import (
    brute_adjacency,
    brute_edges,
    brute_sides,
    brute_vertices,
    neighbor_counts,
    quotient_by_counting,
)


# === vertex enumeration ===

def test_vertex_count_closed_form(graphs):
    for m in (2, 3, 4):
        for n in (2, 3, 4, 5):
            g = graphs(m, n)
            assert g.vertex_count == m**n - (m - 1) ** n - 1
            assert vertex_count(m, n, "full") == g.vertex_count


def test_full_graph_outnumbers_its_subgraph():
    # A full graph within a cap has its subgraph within it too, so the
    # battery never checks the full graph's spectrum without its subgraph's.
    for m in range(2, 61):
        for n in range(2, 64):
            full, bip = vertex_count(m, n, "full"), vertex_count(m, n, "bipartite")
            assert full >= bip, (m, n)
            assert (full == bip) == (n == 2), (m, n)


def _sides(b):
    """Row indices of the subgraph's two sides, read off the last two
    coordinates: first the rows whose last coordinate is the zero, then
    those whose second-to-last is."""
    nonzero = b.coords[:, -2:] != 0
    return tuple(
        np.flatnonzero((nonzero == pattern).all(axis=1))
        for pattern in ([True, False], [False, True])
    )


def _zero_count_cells(tuples, n):
    return [
        [i for i, c in enumerate(tuples) if c.count(0) == zeros]
        for zeros in range(1, n)
    ]


ENUMERATION_CELLS = [
    *((m, n) for m in range(2, 6) for n in range(2, 7)), (7, 3), (9, 3), (11, 2), (2, 12)
]


def test_vertices_match_brute_enumeration():
    for m, n in ENUMERATION_CELLS:
        side_a, side_b = brute_sides(m, n)
        b = build_bipartite(m, n)
        for g, tuples in [(build_graph(m, n), brute_vertices(m, n)), (b, side_a + side_b)]:
            assert g.coords.tolist() == [list(c) for c in tuples]
            supports = [sum(1 << i for i, c in enumerate(t) if c) for t in tuples]
            assert g.support_array.tolist() == supports
            assert [c.tolist() for c in g.cells] == _zero_count_cells(tuples, n)
        first, second = _sides(b)
        assert b.coords[first].tolist() == [list(c) for c in side_a]
        assert b.coords[second].tolist() == [list(c) for c in side_b]


def test_large_field_enumeration_is_linear_in_vertices():
    # m=3000, n=2: 5,998 vertices among 9,000,000 tuples; the enumeration
    # must follow the vertices, not the tuples.
    tracemalloc.start()
    try:
        sizes = (build_graph(3000, 2).vertex_count, build_bipartite(3000, 2).vertex_count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sizes == (vertex_count(3000, 2, "full"), vertex_count(3000, 2, "bipartite"))
    assert peak < 16 * 2**20


@pytest.mark.parametrize("m, n", [(4, 7), (5, 6), (2, 14)])
def test_build_peak_memory_is_a_few_vertex_arrays(m, n):
    # The ordered builders hold at most a few arrays of <= N rows at once,
    # in one-byte digits at these m, and the graph keeps the builder's
    # coordinate array without a copy.  A vertex costs the graph n bytes
    # of digits and 16 more (an 8-byte support and an 8-byte cell index);
    # the peak stays within three times that, about 24-58 bytes a vertex.
    for builder in (build_graph, build_bipartite):
        tracemalloc.start()
        try:
            g = builder(m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (n + 16) * g.vertex_count, (builder.__name__, peak / g.vertex_count)


def test_built_count_is_checked_against_the_count_law(monkeypatch):
    true_count = graph_module.vertex_count
    monkeypatch.setattr(
        graph_module, "vertex_count", lambda m, n, role: true_count(m, n, role) + 1
    )
    for builder in (build_graph, build_bipartite):
        with pytest.raises(ArithmeticError, match="count law"):
            builder(3, 4)


def test_graph_from_coordinates_matches_build():
    for m, n in [(256, 2), (257, 2), (3, 4), (11, 2)]:
        g = build_graph(m, n)
        b = build_bipartite(m, n)
        for built in (g, b):
            copy = type(built)(m, n, built.coords)
            assert np.shares_memory(copy.coords, built.coords)
            # hand-made int64 rows are narrowed to the same graph
            wide = type(built)(m, n, built.coords.astype(np.int64))
            for other in (copy, wide):
                assert other.coords.dtype == built.coords.dtype
                assert np.array_equal(other.support_array, built.support_array)
                assert other.support_array.dtype == np.uint64
                assert [c.tolist() for c in other.cells] == [c.tolist() for c in built.cells]
                assert other.labels() == built.labels()
                assert empirical_quotient(other) == empirical_quotient(built)
        assert [s.tolist() for s in _sides(type(b)(m, n, b.coords))] == [
            s.tolist() for s in _sides(b)
        ]
    assert g.labels()[-1] == "10,0"
    assert not g.coords.flags.writeable


@pytest.mark.parametrize("m, n, role", [(3, 4, "full"), (2, 6, "full"), (3, 4, "bipartite")])
def test_cells_and_sides_of_permuted_coordinates(graphs, m, n, role):
    # Rows in any order: cells and sides follow the rows, classified here
    # by their zero coordinates alone.
    built = graphs(m, n, role)
    coords = np.random.default_rng(11).permutation(built.coords)
    g = type(built)(m, n, coords)
    rows = coords.tolist()
    zeros = [row.count(0) for row in rows]
    assert [c.tolist() for c in g.cells] == [
        [v for v in range(len(rows)) if zeros[v] == i] for i in range(1, n)
    ]
    if role == "bipartite":
        assert [s.tolist() for s in _sides(g)] == [
            [v for v, row in enumerate(rows) if row[-2] != 0 and row[-1] == 0],
            [v for v, row in enumerate(rows) if row[-2] == 0 and row[-1] != 0],
        ]
    assert g.labels() == tuple("".join(map(str, row)) for row in rows)
    assert empirical_quotient(g) == empirical_quotient(built)


@pytest.mark.parametrize(
    "m, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16), (3000, np.uint16)]
)
def test_coordinates_take_the_narrowest_digit_dtype(m, dtype):
    for builder in (build_graph, build_bipartite):
        assert builder(m, 2).coords.dtype == dtype
    assert ZeroDivisorGraph(m, 2, np.array([[m - 1, 0]])).coords.dtype == dtype


def test_constructor_validates_its_input():
    # A (7, 4) array is not silently reshaped to (4, 7), entries outside
    # 0..m-1 are not labelled (256 would wrap to 0 in uint8, so the rows
    # are checked before they are narrowed), floats are not truncated,
    # and (m, n) get the package's parameter check.
    with pytest.raises(ValueError, match="shape"):
        ZeroDivisorGraph(2, 7, build_graph(2, 4).coords[:7])
    with pytest.raises(ValueError, match="entries in 0..2"):
        ZeroDivisorGraph(3, 3, np.array([[7, 0, -2], [0, 1, 0]]))
    for rows in ([[256, 0], [0, 1]], np.array([[0, 256]], dtype=np.uint16)):
        with pytest.raises(ValueError, match="entries in 0..255"):
            ZeroDivisorGraph(256, 2, np.array(rows))
    with pytest.raises(ValueError, match="integer array"):
        ZeroDivisorGraph(3, 3, np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]))
    rows = np.array([[1, 0], [0, 1]])
    for m, n in [(1, 2), (True, 2), (2, 1), (2, 64)]:
        with pytest.raises(ValueError):
            ZeroDivisorGraph(m, n, rows)
    with pytest.raises(ValueError):
        BipartiteSubgraph(2, 3, rows)
    assert ZeroDivisorGraph(2, 2, rows).coords.tolist() == [[1, 0], [0, 1]]


def test_few_rows_at_large_n_cost_what_the_rows_cost():
    # Zero counts come from the bit count of each support, so three rows
    # at n = 24 need no table of the 2**24 supports.
    rows = [[1] + [0] * 23, [1] * 12 + [0] * 12, [1] * 23 + [0]]
    tracemalloc.start()
    try:
        g = ZeroDivisorGraph(2, 24, np.array(rows))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    zeros = [row.count(0) for row in rows]
    assert [c.tolist() for c in g.cells] == [
        [v for v in range(3) if zeros[v] == i] for i in range(1, 24)
    ]
    assert peak < 2**20


def test_vertex_labels():
    g = build_graph(2, 3)
    assert g.labels() == ("001", "010", "011", "100", "101", "110")
    wide = build_graph(11, 2)
    assert "," in wide.labels()[0]


@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 63])
def test_support_bitmask_at_the_weight_dtype_boundaries(n):
    # The weights change dtype past n = 8, 16 and 32; the all-ones row
    # reaches the largest sum, 2**n - 1, and one row sets only bit n - 1
    # (bit 62 at n = 63).
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 2, size=(20, n)).tolist()
    rows += [[1] * n, [0] * n, [0] * (n - 1) + [1], [1] + [0] * (n - 1)]
    g = ZeroDivisorGraph(2, n, np.array(rows))
    assert g.support_array.dtype == np.uint64
    assert g.support_array.tolist() == [
        sum(1 << j for j, c in enumerate(row) if c) for row in rows
    ]


def test_support_bitmask_tracks_nonzeros(graphs):
    g = graphs(3, 3)
    for coords, support in zip(g.coords.tolist(), g.support_array.tolist()):
        for i, c in enumerate(coords):
            assert bool(support & (1 << i)) == (c != 0)


def test_build_validation():
    with pytest.raises(ValueError):
        build_graph(1, 3)
    with pytest.raises(ValueError):
        build_graph(2, 1)
    with pytest.raises(ValueError):
        build_graph(2, 64)
    with pytest.raises(ValueError):
        build_bipartite(2, 0)
    with pytest.raises(ValueError):
        build_graph(True, 3)


def test_size_cap_raises_before_enumeration():
    with pytest.raises(SizeCapExceeded) as info:
        build_graph(3, 4, size_cap=5)
    assert info.value.count == 3**4 - 2**4 - 1
    assert info.value.cap == 5
    with pytest.raises(SizeCapExceeded):
        build_bipartite(4, 6, size_cap=100)
    assert DEFAULT_SIZE_CAP == 20_000


# === adjacency ===

def test_adjacency_matches_brute_force(graphs):
    for m, n in [(2, 4), (3, 3), (2, 5)]:
        g = graphs(m, n)
        expected = np.array(brute_adjacency(g.coords.tolist()))
        assert np.array_equal(adjacency_matrix(g), expected)


def test_adjacency_shape_and_symmetry(graphs):
    a = adjacency_matrix(graphs(3, 4))
    assert a.dtype == np.int8
    assert np.array_equal(a, a.T)
    assert not a.diagonal().any()


def test_edges_match_brute_force(graphs):
    g = graphs(2, 4)
    assert set(g.edges()) == brute_edges(g.coords.tolist())


def test_degree_law(graphs):
    # Every vertex with i zero coordinates has m^i - 1 neighbors.
    for m, n in [(2, 4), (3, 4), (4, 3)]:
        g = graphs(m, n)
        degrees = adjacency_matrix(g).sum(axis=1)
        for coords, d in zip(g.coords.tolist(), degrees):
            assert d == m ** coords.count(0) - 1


def test_degree_multiset_for_the_illustration(graphs):
    degrees = adjacency_matrix(graphs(2, 4)).sum(axis=1).tolist()
    multiset = {d: degrees.count(d) for d in set(degrees)}
    assert multiset == {1: 4, 3: 6, 7: 4}


# === the zero-count partition ===

def test_cell_sizes_closed_form(graphs):
    for m in (2, 3, 4):
        for n in (2, 3, 4, 5, 6):
            g = graphs(m, n)
            sizes = tuple(len(cell) for cell in g.cells)
            assert sizes == expected_cell_sizes(m, n, "full")
            b = graphs(m, n, "bipartite")
            bsizes = tuple(len(cell) for cell in b.cells)
            assert bsizes == expected_cell_sizes(m, n, "bipartite")


def test_cells_group_by_zero_count(graphs):
    g = graphs(3, 4)
    for i, cell in enumerate(g.cells, start=1):
        assert ((g.coords[cell] == 0).sum(axis=1) == i).all()


def test_expected_cell_sizes_role_validation():
    with pytest.raises(ValueError):
        expected_cell_sizes(2, 4, "directed")
    with pytest.raises(ValueError):
        vertex_count(2, 4, "directed")


def test_empirical_quotient_equals_closed_form(graphs):
    for m in (2, 3):
        for n in (2, 3, 4, 5):
            assert empirical_quotient(graphs(m, n)) == build_p(m, n).entries
            assert (
                empirical_quotient(graphs(m, n, "bipartite"))
                == build_q(m, n).entries
            )


def test_empirical_quotient_partition_validation():
    # Hand-made coordinates can hold a row outside every cell or leave a
    # cell empty; built graphs cannot.
    for rows in (
        [[0, 0, 1], [0, 1, 1], [0, 0, 0]],  # an all-zero row
        [[0, 0, 1], [0, 1, 1], [1, 1, 1]],  # a row with no zero
        [[0, 1, 1], [1, 0, 1]],  # no row with two zeros
    ):
        with pytest.raises(ValueError):
            empirical_quotient(ZeroDivisorGraph(2, 3, np.array(rows)))


def _whole_classes(g, keep):
    """Rows of g whose support passes `keep`, as a hand-made full graph."""
    rows = [row for row in g.coords.tolist() if keep({i for i, c in enumerate(row) if c})]
    return ZeroDivisorGraph(g.m, g.n, np.array(rows))


@pytest.mark.parametrize("m, n", [(2, 4), (3, 4), (4, 3), (2, 6)])
def test_empirical_quotient_on_unions_of_support_classes(graphs, m, n):
    # Unions of whole support classes that the coordinate permutations
    # fixing a bit map to themselves: the zero-count cells are then
    # orbits, so the partition is equitable.  Supports avoiding bit 0
    # (an (m, n-1) graph plus its isolated full-support tuples), supports
    # holding bit 0 (no edges at all), and the two-sided subgraph's rows
    # read as a full graph.
    g = graphs(m, n)
    cases = [
        _whole_classes(g, lambda s: 0 not in s),
        _whole_classes(g, lambda s: 0 in s),
        ZeroDivisorGraph(m, n, graphs(m, n, "bipartite").coords),
    ]
    rng = np.random.default_rng(m * n)
    for sub in cases + [ZeroDivisorGraph(m, n, rng.permutation(c.coords)) for c in cases]:
        rows = sub.coords.tolist()
        expected = quotient_by_counting(rows, [c.tolist() for c in sub.cells])
        assert empirical_quotient(sub) == tuple(tuple(row) for row in expected)
    assert empirical_quotient(cases[2]) == build_q(m, n).entries


@pytest.mark.parametrize("m, n", [(4, 7), (5, 6), (3, 9)])
def test_empirical_quotient_peak_memory_per_vertex(graphs, m, n):
    # The class-size count copies the supports to int64 once (8 bytes a
    # vertex); every other table is sized by the support lattice, not by
    # the vertex set.  A fresh graph, so that its first read of the class
    # sizes is counted, after one warm-up call.
    for role in ("full", "bipartite"):
        built = graphs(m, n, role)
        empirical_quotient(type(built)(m, n, built.coords))
        g = type(built)(m, n, built.coords)
        tracemalloc.start()
        try:
            empirical_quotient(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * g.vertex_count, (role, peak / g.vertex_count)


def test_disjoint_sums_against_direct_sum():
    n = 4
    rng = np.random.default_rng(7)
    table = rng.integers(-50, 50, size=(1 << n, 3))
    expected = np.array(
        [
            sum(table[t] for t in range(1 << n) if s & t == 0)
            for s in range(1 << n)
        ]
    )
    assert np.array_equal(disjoint_sums(table, n), expected)
    big = np.array([10**30, 1, 2, 3], dtype=object)
    assert disjoint_sums(big, 2).tolist() == [10**30 + 6, 10**30 + 2, 10**30 + 1, 10**30]
    with pytest.raises(ValueError):
        disjoint_sums(np.zeros(8), 2)


def _brute_witnesses(g, cells):
    """NotEquitableError arguments by direct counting: the first cell with
    a mismatch, its first vertex that disagrees with the cell's first
    vertex, and the first cell where they disagree."""
    counts = neighbor_counts(g.coords.tolist(), cells)
    sep = "" if g.m <= 10 else ","
    label = [sep.join(map(str, row)) for row in g.coords.tolist()]
    for i, cell in enumerate(cells):
        first = counts[cell[0]]
        for v in cell:
            for j, (want, got) in enumerate(zip(first, counts[v])):
                if want != got:
                    return (i + 1, j + 1, ((label[cell[0]], want), (label[v], got)))
    return None


@pytest.mark.parametrize(
    "m, n, role",
    [(3, 3, "full"), (3, 4, "full"), (3, 4, "bipartite"), (4, 3, "full"), (4, 3, "bipartite")],
)
def test_non_equitable_witnesses_match_brute_force(graphs, m, n, role):
    # Half the rows, in random order: support classes lose members
    # unevenly, so cells stop being equitable, and the witnesses must be
    # the ones direct counting names on the zero-count cells.
    built = graphs(m, n, role)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        keep = rng.choice(built.vertex_count, size=built.vertex_count // 2, replace=False)
        g = type(built)(m, n, built.coords[keep])
        cells = [cell.tolist() for cell in g.cells]
        assert all(cells), seed
        expected = _brute_witnesses(g, cells)
        assert expected is not None, seed
        with pytest.raises(NotEquitableError) as info:
            empirical_quotient(g)
        err = info.value
        assert (err.cell_i, err.cell_j, err.witnesses) == expected, seed


def test_non_equitable_partition_reports_witnesses():
    # 001 and 100 share the two-zero cell; 001 has no neighbour in the
    # one-zero cell {011}, 100 has one.
    g = ZeroDivisorGraph(2, 3, np.array([[0, 0, 1], [0, 1, 1], [1, 0, 0]]))
    with pytest.raises(NotEquitableError) as info:
        empirical_quotient(g)
    assert (info.value.cell_i, info.value.cell_j) == (2, 1)
    assert info.value.witnesses == (("001", 0), ("100", 1))


# === the two-sided subgraph ===

def test_bipartite_vertices_and_sides(graphs):
    b = graphs(2, 4, "bipartite")
    assert b.labels() == (
        "0010", "0110", "1010", "1110",
        "0001", "0101", "1001", "1101",
    )
    side_a, side_b = _sides(b)
    for i in side_a:
        coords = b.coords[i]
        assert coords[-2] != 0 and coords[-1] == 0
    for i in side_b:
        coords = b.coords[i]
        assert coords[-2] == 0 and coords[-1] != 0


def test_bipartite_count_closed_form(graphs):
    for m in (2, 3, 4):
        for n in (2, 3, 4, 5):
            b = graphs(m, n, "bipartite")
            assert b.vertex_count == 2 * (m - 1) * m ** (n - 2)
            assert vertex_count(m, n, "bipartite") == b.vertex_count
            first, second = _sides(b)
            assert len(first) == len(second) == b.vertex_count // 2


def test_bipartite_edges_cross_sides_only(graphs):
    for m, n in [(2, 4), (3, 3), (3, 4)]:
        b = graphs(m, n, "bipartite")
        side_of = {}
        for s, side in enumerate(_sides(b)):
            for i in side:
                side_of[i] = s
        assert len(side_of) == b.vertex_count
        edges = list(b.edges())
        assert edges
        assert all(side_of[i] != side_of[j] for i, j in edges)


def test_bipartite_adjacency_agrees_with_support_rule(graphs):
    b = graphs(2, 4, "bipartite")
    expected = np.array(brute_adjacency(b.coords.tolist()))
    assert np.array_equal(adjacency_matrix(b), expected)


def test_bipartite_is_induced_from_the_full_graph(graphs):
    g = graphs(3, 3)
    b = graphs(3, 3, "bipartite")
    full_edges = set(g.edges())
    index_of = {tuple(row): i for i, row in enumerate(g.coords.tolist())}
    for i, j in b.edges():
        a = index_of[tuple(b.coords[i].tolist())]
        c = index_of[tuple(b.coords[j].tolist())]
        assert (min(a, c), max(a, c)) in full_edges


# === exports ===

def test_dot_output_shape(graphs):
    text = to_dot(graphs(2, 3))
    assert text.startswith("graph full_m2_n3 {")
    assert text.rstrip().endswith("}")
    assert text.count("rank=same") == 2
    assert '"001" -- "010";' in text
    assert text.count(" -- ") == len(brute_edges(graphs(2, 3).coords.tolist()))


def test_dot_name_follows_role(graphs):
    assert to_dot(graphs(2, 4, "bipartite")).startswith("graph bipartite_m2_n4 {")


def test_adjacency_csv_round_trip(graphs):
    g = graphs(2, 3)
    text = adjacency_to_csv(g)
    rows = [line.split(",") for line in text.strip().split("\n")]
    parsed = np.array([[int(x) for x in row] for row in rows])
    assert np.array_equal(parsed, adjacency_matrix(g))
    assert text.endswith("\n")


def test_adjacency_csv_peak_is_the_buffer_and_the_text():
    # One (N, 2N) ASCII buffer, decoded once: the peak is the buffer and
    # the text, about twice the text.
    g = build_graph(3, 7)
    adjacency_to_csv(g)
    tracemalloc.start()
    try:
        text = adjacency_to_csv(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == 2 * g.vertex_count**2
    assert peak < 2.2 * len(text), peak / len(text)


def test_json_descriptor(graphs):
    desc = to_json_descriptor(graphs(2, 3))
    assert desc["m"] == 2 and desc["n"] == 3
    assert desc["graph"] == "full"
    assert len(desc["vertices"]) == 6
    assert len(desc["edges"]) == 6
    assert all(i < j for i, j in desc["edges"])
