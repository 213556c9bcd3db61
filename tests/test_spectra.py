"""Dense eigensolver, main classification, predictions, verification."""

import math
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from zdspectra.fib import (
    QuadraticNumber,
    golden_pair,
    zphi_is_zero,
    zphi_to_quadratic,
)
from zdspectra import graph as graph_module
from zdspectra import spectra
from zdspectra.cli import DEFAULT_DENSE_CAP
from zdspectra.graph import (
    DEFAULT_SIZE_CAP,
    ZeroDivisorGraph,
    adjacency_matrix,
    build_bipartite,
    build_graph,
    empirical_quotient,
    expected_cell_sizes,
    vertex_count,
)
from zdspectra.quotient import (
    build_p,
    build_q,
    exact_rank,
    walk_matrix_closed_p,
    walk_matrix_closed_q,
    walk_matrix_iterative,
)
from zdspectra.spectra import (
    AmbiguousClassification,
    CheckResult,
    VerificationReport,
    classify_main,
    eigen_bundle,
    krylov_rank,
    predicted_spectrum,
    q_eigen_exact_check,
    quotient_eigenvalues,
    symmetric_eigen,
    verify_main_correspondences,
    verify_spectrum_theorem,
)
from zdspectra.spectra import _char_poly, _det_shifted

from conftest import dense_grid
from oracles import (
    brute_adjacency,
    char_poly_faddeev,
    classify_full_order,
    det_cofactor,
    krylov_rank_rows,
    pair_power,
)

K2 = np.array([[0.0, 1.0], [1.0, 0.0]])
PATH3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def random_symmetric(size, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(size, size))
    return (raw + raw.T) / 2


# === eigensolver ===

def test_tolerance_defaults_are_pinned():
    assert spectra.MATCH == 1e-8
    assert spectra.GROUPING_GAP == 1e-8
    assert spectra.GROUPING_GAP_REL == 1e-9
    assert spectra.PROJECTION_THRESHOLD == 1e-7
    assert spectra.DEAD_BAND_FACTOR == 0.1
    assert DEFAULT_DENSE_CAP == 3_000


def test_two_vertex_spectrum():
    w, v = symmetric_eigen(K2)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(v @ np.diag(w) @ v.T, K2, atol=1e-12)


def test_diagonal_and_single_entry():
    w, v = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    w1, v1 = symmetric_eigen(np.array([[5.0]]))
    assert w1[0] == 5.0 and v1[0, 0] == 1.0


@pytest.mark.parametrize("size,seed", [(2, 1), (5, 2), (17, 3), (40, 4)])
def test_matches_library_solver(size, seed):
    a = random_symmetric(size, seed)
    w, v = symmetric_eigen(a)
    reference = np.linalg.eigvalsh(a)
    assert np.allclose(w, reference, atol=1e-10)
    fro = np.linalg.norm(a)
    assert np.linalg.norm(v @ np.diag(w) @ v.T - a) <= 1e-10 * fro
    assert np.linalg.norm(v.T @ v - np.eye(size)) <= 1e-10


def test_eigenvalues_ascending_and_deterministic():
    a = random_symmetric(12, 99)
    w1, v1 = symmetric_eigen(a)
    w2, v2 = symmetric_eigen(a)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)
    assert all(x <= y for x, y in zip(w1, w1[1:]))


def test_graph_adjacency_reconstruction(graphs):
    a = adjacency_matrix(graphs(2, 4)).astype(float)
    w, v = symmetric_eigen(a)
    fro = np.linalg.norm(a)
    assert np.linalg.norm(v @ np.diag(w) @ v.T - a) <= 1e-10 * fro
    assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-10)


def _repeat_rows(base):
    # rows and columns 0 and 1 are copies of base's first, so k < N
    labels = [0, 0, *range(1, len(base))]
    return np.asarray(base)[np.ix_(labels, labels)]


def test_input_validation():
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[0.0, 1.0], [0.9, 0.0]]))
    with pytest.raises(ValueError):
        symmetric_eigen(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigen(np.zeros((0, 0)))
    # The twin reduction needs symmetry, so classification checks it on
    # the input, exactly: the mirror entries 2**53 and 2**53 + 1 round to
    # one float.  After the two matrices of distinct rows, rows 0 and 1
    # are equal in each: first columns 0 and 1 are not; then only the
    # class block is asymmetric.
    huge = np.array([[0, 2**53], [2**53 + 1, 0]], dtype=np.int64)
    for bad in (
        np.array([[0.0, 1.0], [0.9, 0.0]]),
        huge,
        np.array([[0, 1, 1], [0, 1, 1], [1, 0, 0]]),
        _repeat_rows([[0, 1], [2, 0]]),
        _repeat_rows(huge),
    ):
        with pytest.raises(ValueError, match="symmetric"):
            classify_main(bad)
    with pytest.raises(ValueError, match="square"):
        classify_main(np.zeros((0, 0)))


# === main classification ===

def test_two_vertex_classification():
    report = classify_main(K2)
    mains = report.main_values()
    assert mains == (1.0,) or np.allclose(mains, [1.0])
    assert [g.is_main for g in report.groups].count(False) == 1
    assert report.total_multiplicity == 2


def test_path_graph_has_two_main_values():
    # The middle eigenvector of the 3-path is odd, so only +-sqrt(2)
    # survive the all-ones projection.
    report = classify_main(PATH3)
    assert np.allclose(sorted(report.main_values()), [-math.sqrt(2), math.sqrt(2)])
    assert np.allclose([g.value for g in report.groups if not g.is_main], [0.0], atol=1e-12)
    # the same path on coordinates: 011 -- 100 -- 010
    path = ZeroDivisorGraph(2, 3, np.array([[0, 1, 1], [1, 0, 0], [0, 1, 0]]))
    assert np.array_equal(adjacency_matrix(path), PATH3)
    assert len(classify_main(adjacency_matrix(path).astype(float)).main_values()) == 2
    # 100 and 010 share a cell, but only 100 is adjacent to 011: the
    # partition is not equitable, so there is no quotient to rank
    assert path.equitable_quotient is None
    assert krylov_rank(path) is None


def test_groups_carry_source_and_flags(graphs):
    report = classify_main(adjacency_matrix(graphs(2, 4)).astype(float))
    assert sum(g.multiplicity for g in report.groups) == 14
    values = [g.value for g in report.groups]
    assert values == sorted(values)
    entries = report.eigenvalue_json_entries()
    assert {"value", "multiplicity", "main"} <= set(entries[0])


@pytest.mark.parametrize("m,n", [(3, 3), (2, 5)])
def test_classification_is_invariant_under_relabelling(graphs, m, n):
    # Relabelling the vertices hands the solver a different basis inside
    # every repeated eigenspace; main flags depend only on the all-ones
    # projection onto the whole eigenspace, so nothing may change.
    a = adjacency_matrix(graphs(m, n)).astype(float)
    perm = np.random.default_rng(2024).permutation(a.shape[0])
    base = classify_main(a)
    relabelled = classify_main(a[np.ix_(perm, perm)])
    assert any(g.multiplicity > 1 for g in base.groups)
    assert len(relabelled.groups) == len(base.groups)
    for g, h in zip(base.groups, relabelled.groups):
        assert h.multiplicity == g.multiplicity
        assert h.is_main == g.is_main
        assert abs(h.value - g.value) <= 1e-10


def test_illustration_main_sets(reports):
    # Full graph mains: -1 and (5 +- sqrt(21))/2; subgraph mains: -1 and
    # (3 +- sqrt(5))/2.
    full = reports(2, 4).main_values()
    expected_full = sorted([-1.0, (5 - 21**0.5) / 2, (5 + 21**0.5) / 2])
    assert np.allclose(sorted(full), expected_full, atol=1e-8)
    bip = reports(2, 4, "bipartite").main_values()
    expected_bip = sorted([-1.0, (3 - 5**0.5) / 2, (3 + 5**0.5) / 2])
    assert np.allclose(sorted(bip), expected_bip, atol=1e-8)


def _group_bounds_loop(w, gap):
    """Reference grouping: one subtraction per neighbouring pair."""
    bounds = []
    start = 0
    for i in range(1, len(w)):
        if float(w[i] - w[i - 1]) >= gap:
            bounds.append((start, i))
            start = i
    bounds.append((start, len(w)))
    return bounds


def test_group_bounds_cut_where_the_loop_cuts(graphs):
    # A step of exactly `gap` starts a new group; a step one ulp below it
    # does not.
    gap = spectra.GROUPING_GAP
    below = np.nextafter(gap, 0.0)
    for w in (
        np.array([0.0]),
        np.array([-below, 0.0, gap]),
        np.array([-gap, 0.0, below, 1.0, 1.0 + gap]),
    ):
        assert spectra._group_bounds(w, gap) == _group_bounds_loop(w, gap), w
    assert spectra._group_bounds(np.array([-below, 0.0, gap]), gap) == [(0, 2), (2, 3)]
    # Every spectrum the default verify decomposes, at classify_main's gap.
    for m in range(2, 5):
        for n in range(2, 7):
            for role in ("full", "bipartite"):
                if vertex_count(m, n, role) > DEFAULT_DENSE_CAP:
                    continue
                A = adjacency_matrix(graphs(m, n, role)).astype(np.float64)
                w = np.linalg.eigvalsh(A)
                scale = spectra.GROUPING_GAP_REL * float(np.linalg.norm(A))
                gap = max(spectra.GROUPING_GAP, scale)
                bounds = spectra._group_bounds(w, gap)
                assert bounds == _group_bounds_loop(w, gap), (m, n, role)


def test_dead_band_raises(monkeypatch):
    monkeypatch.setattr(spectra, "PROJECTION_THRESHOLD", 2.0)
    with pytest.raises(AmbiguousClassification) as info:
        classify_main(K2)
    low, high = info.value.band
    assert low == pytest.approx(0.2)
    assert high == pytest.approx(2.0)
    assert low <= info.value.projection <= high


def _assert_full_order_classification(A, report):
    # Same groups, multiplicities and main flags as one eigh of the whole
    # matrix; values within 1e-10 * max(1, ||A||_F), projection norms
    # within 1e-10.
    expected = classify_full_order(
        A, spectra.GROUPING_GAP, spectra.GROUPING_GAP_REL, spectra.PROJECTION_THRESHOLD
    )
    assert [(g.multiplicity, g.is_main) for g in report.groups] == [
        (mult, main) for _, mult, _, main in expected
    ]
    tolerance = 1e-10 * max(1.0, float(np.linalg.norm(A)))
    for group, (value, _, projection, _) in zip(report.groups, expected):
        assert abs(group.value - value) <= tolerance, (group, value)
        assert abs(group.projection - projection) <= 1e-10, (group, projection)


@pytest.mark.parametrize("role", ["full", "bipartite"])
@pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 5) for n in range(2, 7)])
def test_twin_reduced_classification_matches_the_full_order_oracle(graphs, reports, m, n, role):
    # Every graph of the default grid, (4,6)'s 3,366-vertex full graph
    # included, against the unreduced decomposition.
    A = adjacency_matrix(graphs(m, n, role)).astype(np.float64)
    _assert_full_order_classification(A, reports(m, n, role))


@pytest.mark.parametrize("seed", range(8))
def test_twin_reduction_holds_for_any_symmetric_matrix(seed):
    # Random symmetric float matrices with nonzero diagonals and negative
    # entries, expanded by a random class map so that rows repeat in
    # scattered positions (equal rows i and j then also have A[i,i] ==
    # A[i,j]); the first seed repeats no row.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 12))
    extra = 0 if seed == 0 else int(rng.integers(1, 30))
    base = rng.normal(size=(k, k))
    base = base + base.T
    labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, extra)]))
    A = base[np.ix_(labels, labels)]
    assert len(np.unique(A, axis=0)) == k
    report = classify_main(A)
    _assert_full_order_classification(A, report)
    if extra:
        zero = [g for g in report.groups if g.value == 0.0]
        assert [(g.multiplicity, g.projection, g.is_main) for g in zero] == [(extra, 0.0, False)]


def test_twin_branch_accepts_signed_zeros_in_mirrored_cells():
    # symmetry is decided on values, so 0.0 against -0.0 is symmetric
    base = random_symmetric(5, 7)
    base[1, 3], base[3, 1] = 0.0, -0.0
    A = _repeat_rows(base)
    assert np.signbit(A[4, 2]) != np.signbit(A[2, 4])
    _assert_full_order_classification(A, classify_main(A))


@pytest.mark.parametrize("m,n,orders", [(3, 5, [30, 16]), (2, 7, [126, 64])])
def test_eigensolve_runs_at_the_twin_class_count(monkeypatch, graphs, m, n, orders):
    # The full graph has one class of equal rows per proper support, the
    # subgraph one per support of a side; at m = 2 no two rows are equal.
    solved = []

    def spy(matrix):
        solved.append(len(matrix))
        return symmetric_eigen(matrix)

    monkeypatch.setattr(spectra, "symmetric_eigen", spy)
    for role in ("full", "bipartite"):
        eigen_bundle(graphs(m, n, role))
    assert solved == orders


# === krylov rank ===

def test_krylov_rank_small_cases():
    cases = [  # (m, n, rows of hand-made coordinates, Krylov rank)
        (2, 2, [[1, 0], [0, 1]], 1),  # K2
        (3, 2, [[1, 0], [2, 0], [0, 1], [0, 2]], 1),  # two twin pairs: the 4-cycle
        (2, 3, [[1, 1, 0], [0, 1, 1], [0, 1, 0]], 1),  # every row holds bit 1: no edges
        # equitable, quotient ((0,0,0),(0,0,1),(0,1,0)): a nonzero quotient
        # whose walk matrix [1, B1, B**2 1] is singular
        (3, 4, [[0, 0, 2, 1], [1, 0, 0, 0], [1, 1, 0, 2], [2, 0, 1, 1], [2, 1, 0, 2]], 2),
    ]
    for m, n, rows, rank in cases:
        g = ZeroDivisorGraph(m, n, np.array(rows))
        assert krylov_rank(g) == krylov_rank_rows(brute_adjacency(rows)) == rank, rows
    # a star: 100 and 010 share a cell, and only 100 is adjacent to 011
    star = ZeroDivisorGraph(2, 3, np.array([[1, 0, 0], [0, 1, 1], [0, 1, 0]]))
    assert star.equitable_quotient is None
    assert krylov_rank(star) is None


def test_krylov_rank_of_built_graphs_is_the_quotient_rank():
    # Both graphs have Krylov rank n - 1, the rank the reference finds
    # for their quotients.
    for m, n in [(2, 6), (3, 5), (5, 6)]:
        for build, quotient in ((build_graph, build_p), (build_bipartite, build_q)):
            rank = krylov_rank(build(m, n))
            assert rank == krylov_rank_rows(quotient(m, n).entries) == n - 1, (m, n)


def test_krylov_rank_validation():
    # Only a graph has class sizes; an adjacency matrix is not an operand.
    for matrix in (np.array([[0, 1], [1, 0]]), [[0, 1], [1, 0]], build_p(2, 4)):
        with pytest.raises(AttributeError):
            krylov_rank(matrix)


@pytest.mark.parametrize("role", ["full", "bipartite"])
def test_krylov_rank_of_graph_matches_its_adjacency(graphs, role):
    # The reference row-reduces the vertex-space Krylov vectors of the
    # brute-force adjacency at every step; the package ranks the walk
    # matrix of the graph's equitable quotient.
    for m, n in dense_grid():
        g = graphs(m, n, role)
        rows = brute_adjacency(g.coords.tolist())
        assert krylov_rank(g) == krylov_rank_rows(rows)


@pytest.mark.parametrize("seed", range(4))
def test_krylov_rank_on_irregular_vertex_subsets(graphs, seed):
    # Induced subgraphs on random vertex subsets have uneven support
    # classes and a zero-count partition that is not equitable, so they
    # have no quotient whose walk rank is their Krylov rank.
    g = graphs(3, 4)
    rng = np.random.default_rng(seed)
    keep = sorted(rng.choice(g.vertex_count, size=25, replace=False).tolist())
    sub = ZeroDivisorGraph(g.m, g.n, g.coords[keep])
    assert sub.equitable_quotient is None
    assert krylov_rank(sub) is None


def _spy_ranks(monkeypatch):
    """Record the shape of each matrix whose rank spectra takes."""
    shapes = []

    def recording_rank(matrix):
        rows = getattr(matrix, "entries", matrix)
        shapes.append((len(rows), len(rows[0])))
        return exact_rank(matrix)

    monkeypatch.setattr(spectra, "exact_rank", recording_rank)
    return shapes


def test_krylov_rank_ranks_gram_matrices_not_krylov_rows(monkeypatch):
    # 1022 vertices with one support each: the rank takes one exact_rank,
    # of the (n-1) x (n-1) walk matrix of the graph's equitable quotient
    # (no Gram matrix either, despite the name), never of rows of 1022.
    shapes = _spy_ranks(monkeypatch)
    assert krylov_rank(build_graph(2, 10)) == 9
    assert shapes == [(9, 9)]


def test_krylov_main_check_needs_no_column_cap(monkeypatch, graphs, reports):
    # The Krylov check once capped its Krylov vectors at (groups + 1); the
    # rank now reads n-1 walk columns, no more than the n-1 main values.
    # Every graph of the default verify grid gets rank n-1, its dense
    # main count, from one exact_rank of its quotient's walk matrix, of
    # order n-1; 29 of the 30 are within the dense cap.  So does (2,10).
    shapes = _spy_ranks(monkeypatch)
    dense = 0
    for m in range(2, 5):
        for n in range(2, 7):
            for role in ("full", "bipartite"):
                report = reports(m, n, role)
                shapes.clear()
                rank = krylov_rank(graphs(m, n, role))
                assert rank == len(report.main_values()) == n - 1, (m, n, role)
                assert shapes == [(n - 1, n - 1)], (m, n, role)
                dense += vertex_count(m, n, role) <= DEFAULT_DENSE_CAP
    assert dense == 29
    shapes.clear()
    assert krylov_rank(graphs(2, 10)) == 9
    assert shapes == [(9, 9)]


def test_krylov_rank_reads_the_graphs_equitability_once(monkeypatch, graphs):
    # empirical_quotient and krylov_rank share one lattice decision.
    calls = []
    cell_counts = graph_module._cell_counts

    def recording_counts(graph):
        calls.append(graph)
        return cell_counts(graph)

    monkeypatch.setattr(graph_module, "_cell_counts", recording_counts)
    built = graphs(3, 5)
    g = type(built)(built.m, built.n, built.coords)
    assert empirical_quotient(g) == build_p(3, 5).entries
    # with the quotient cached, the rank makes no lattice sum at all
    sums = []
    transform = graph_module.disjoint_sums

    def recording_sums(table, n):
        sums.append(n)
        return transform(table, n)

    monkeypatch.setattr(graph_module, "disjoint_sums", recording_sums)
    assert krylov_rank(g) == 4
    assert sums == []
    assert empirical_quotient(g) == build_p(3, 5).entries
    assert calls == [g]


def test_krylov_rank_matches_walk_rank(graphs):
    # The walk matrix of a graph's own quotient rows equals the closed
    # form of its kind, and the graph's Krylov rank is that walk's rank.
    closed = {"full": walk_matrix_closed_p, "bipartite": walk_matrix_closed_q}
    for role, closed_walk in closed.items():
        for m in range(2, 6):
            for n in range(2, 8):
                if vertex_count(m, n, role) > DEFAULT_SIZE_CAP:
                    continue
                g = graphs(m, n, role)
                walk = walk_matrix_iterative(g.equitable_quotient)
                assert walk == closed_walk(m, n), (role, m, n)
                assert krylov_rank(g) == exact_rank(walk) == n - 1, (role, m, n)


# === predictions ===

def test_quotient_eigenvalues_known_case():
    values = quotient_eigenvalues(build_p(2, 4))
    expected = sorted([-1.0, (5 - 21**0.5) / 2, (5 + 21**0.5) / 2])
    assert np.allclose(values, expected, atol=1e-12)
    assert list(values) == sorted(values)


@pytest.mark.parametrize("role,build", [("full", build_p), ("bipartite", build_q)])
def test_quotient_eigenvalues_are_the_balanced_spectrum(role, build):
    # Equitable quotients are balanced by their cell sizes, which makes
    # them similar to a symmetric matrix; its spectrum is the general one.
    for m in range(2, 10):
        for n in range(2, 13):
            entries = build(m, n).entries
            sizes = expected_cell_sizes(m, n, role)
            order = len(entries)
            assert all(
                sizes[i] * entries[i][j] == sizes[j] * entries[j][i]
                for i in range(order)
                for j in range(order)
            ), (m, n)
            general = np.sort(
                np.linalg.eigvals(np.array(entries, dtype=np.float64)).real
            )
            values = np.array(quotient_eigenvalues(build(m, n)))
            scale = np.maximum(1.0, np.abs(general))
            assert np.all(np.abs(values - general) <= 1e-12 * scale), (m, n)


def test_predicted_spectrum_structure():
    pred = predicted_spectrum(3, 4)
    assert [zphi_to_quadratic(3, pair) for pair in pred.pairs] == [-2, 4, -8]
    full, bip = pred.groups("full"), pred.groups("bipartite")
    assert sum(mult for _, mult, _, _ in full) == 3**4 - 2**4 - 1
    assert [(v, mult, exact) for v, mult, main, exact in full if main] == [
        (v, 1, None) for v in pred.p_eigenvalues
    ]
    # the pair powers x (C(4, i) - 1), and zero x (3**4 - 2**4 - 2**4 + 1)
    assert [g for g in full if not g[2]] == [
        (-8.0, 3, False, "phi^3*xi^1"), (-2.0, 3, False, "phi^1*xi^3"),
        (0.0, 50, False, "0"), (4.0, 5, False, "phi^2*xi^2"),
    ]
    # the subgraph: -/+ each pair power x C(2, i-1), the negations main,
    # and zero x (2 * 2 * 3**2 - 2**3)
    assert bip == (
        (-8.0, 1, False, "phi^3*xi^1"), (-4.0, 2, True, "-phi^2*xi^2"),
        (-2.0, 1, False, "phi^1*xi^3"), (0.0, 28, False, "0"),
        (2.0, 1, True, "-phi^1*xi^3"), (4.0, 2, False, "phi^2*xi^2"),
        (8.0, 1, True, "-phi^3*xi^1"),
    )
    assert pred.q_eigenvalues == (-4.0, 2.0, 8.0)
    assert pred.groups("full") is full  # stored once, not rebuilt per call
    with pytest.raises(ValueError, match="role"):
        pred.groups("subgraph")


def test_predicted_exact_forms_match_floats():
    phi, xi = golden_pair(2)
    pred = predicted_spectrum(2, 5)
    values = {exact: value for value, _, _, exact in pred.groups("full")}
    for i, pair in enumerate(pred.pairs, start=1):
        exact = phi**i * xi ** (5 - i)
        assert zphi_to_quadratic(2, pair) == exact
        assert abs(float(exact) - values[f"phi^{i}*xi^{5 - i}"]) < 1e-12


def test_predicted_floats_are_those_of_the_exact_forms():
    # Each value is read off the Z[phi] pair, bit-identical to converting
    # the quadratic-field number, in both graphs' groups.
    cells = [(m, n) for m in range(2, 14) for n in range(2, 41)]
    for m, n in cells + [(2, 50), (2, 63), (10**6, 50), (10**6, 52)]:
        pred = predicted_spectrum(m, n)
        full = {exact: value for value, _, _, exact in pred.groups("full")}
        bip = {exact: value for value, _, _, exact in pred.groups("bipartite")}
        for i, pair in enumerate(pred.pairs, start=1):
            exact = zphi_to_quadratic(m, pair_power(m, i, n - i))
            power = f"phi^{i}*xi^{n - i}"
            assert full[power] == bip[power] == float(exact), (m, n, i)
            assert bip["-" + power] == -float(exact), (m, n, i)
            assert zphi_to_quadratic(m, pair) == exact


def _zero_blocks(m, n, role):
    return [mult for _, mult, _, exact in predicted_spectrum(m, n).groups(role)
            if exact == "0"]


def test_zero_multiplicity_vanishes_only_for_binary_fields():
    for n in range(2, 9):
        assert _zero_blocks(2, n, "full") == _zero_blocks(2, n, "bipartite") == []
    assert _zero_blocks(3, 2, "full") == [2]
    assert _zero_blocks(4, 3, "full") == [30]
    assert _zero_blocks(4, 3, "bipartite") == [2 * 3 * 4 - 2**2]


def test_predicted_exact_strings_evaluate_to_the_group_values():
    # Each "exact" reads +-phi^i*xi^j with i + j = n, and its exact value
    # is the group's float; P's eigenvalues have no closed form.
    form = re.compile(r"(-?)phi\^(\d+)\*xi\^(\d+)")
    for m in range(2, 10):
        phi, xi = golden_pair(m)
        for n in range(2, 13):
            pred = predicted_spectrum(m, n)
            for role in ("full", "bipartite"):
                for value, _, main, exact in pred.groups(role):
                    if exact is None:
                        assert role == "full" and main and value in pred.p_eigenvalues
                        continue
                    if exact == "0":
                        assert value == 0.0 and not main
                        continue
                    sign, i, j = form.fullmatch(exact).groups()
                    assert int(i) + int(j) == n, (m, n, exact)
                    want = float(phi ** int(i) * xi ** int(j)) * (-1 if sign else 1)
                    assert abs(value - want) <= 1e-12 * abs(want), (m, n, exact)
            assert sum(exact is None for *_, exact in pred.groups("full")) == n - 1


def test_prediction_carries_the_bipartite_quotient_spectrum():
    # Q's spectrum is read off the pair powers; a symmetric eigensolve of
    # Q is the second route.
    for m in range(2, 10):
        for n in range(2, 11):
            prediction = predicted_spectrum(m, n)
            values = np.array(prediction.q_eigenvalues)
            solved = np.array(quotient_eigenvalues(build_q(m, n)))
            assert values.shape == solved.shape == (n - 1,), (m, n)
            assert np.all(np.abs(values - solved) <= 1e-12 * np.abs(solved)), (m, n)
            assert prediction.p == build_p(m, n) and prediction.q == build_q(m, n)


def test_predicted_sum_matches_quotient_traces():
    # Spectrum sum must equal trace(adjacency) = 0, on both graphs.
    for m, n in [(2, 4), (3, 4), (4, 3)]:
        pred = predicted_spectrum(m, n)
        for role in ("full", "bipartite"):
            total = sum(v * mult for v, mult, _, _ in pred.groups(role))
            assert abs(total) < 1e-8, (m, n, role)


def test_predicted_json_uses_exact_strings():
    full = predicted_spectrum(2, 4).groups("full")
    assert [mult for _, mult, _, exact in full if exact == "0"] == []
    assert [exact for *_, exact in full if exact is None] == [None] * 3
    assert all(isinstance(exact, str) for _, _, main, exact in full if not main)


# === verification drivers ===

def _theorem(m, n, reports):
    return verify_spectrum_theorem(predicted_spectrum(m, n), reports(m, n))


def _correspondences(m, n, reports):
    return verify_main_correspondences(
        predicted_spectrum(m, n), reports(m, n, "bipartite")
    )


def test_spectrum_theorem_small_cases(reports):
    for m, n in [(2, 2), (2, 4), (3, 2), (3, 3)]:
        for report, tag in (
            (_theorem(m, n, reports), "full graph"),
            (_correspondences(m, n, reports), "bipartite subgraph"),
        ):
            assert report.passed
            names = [c.name for c in report.checks]
            assert names[0] == f"distinct eigenvalue count ({tag})"
            assert all(name.startswith("eigenvalue ") for name in names[1:-1])
            assert all(name.endswith(f" ({tag})") for name in names)
            assert names[-1] == f"main count equals n-1 ({tag})"


def test_spectrum_theorem_residuals_are_small(reports):
    report = _theorem(2, 4, reports)
    residuals = [c.residual for c in report.checks if c.residual is not None]
    assert residuals and max(residuals) < 1e-10


def test_spectrum_theorem_unreachable_tolerance_fails(monkeypatch, reports):
    monkeypatch.setattr(spectra, "MATCH", 1e-300)
    report = _theorem(3, 3, reports)
    assert not report.passed


@pytest.mark.parametrize("spacing, raises", [(1.5, True), (2.5, False)])
def test_spectrum_theorem_refuses_predictions_closer_than_twice_match(spacing, raises):
    # Two predicted values within 2 * MATCH of each other could both match
    # one computed value, so the theorem refuses to compare them.
    values = (0.0, spacing * spectra.MATCH, 5.0)
    groups = tuple((value, 1, True, None) for value in values)
    prediction = spectra.PredictedSpectrum(
        2, 3, build_p(2, 3), build_q(2, 3), values, (), groups, ()
    )
    computed = classify_main(np.diag(values))
    if raises:
        with pytest.raises(ArithmeticError, match="apart"):
            verify_spectrum_theorem(prediction, computed)
    else:
        assert verify_spectrum_theorem(prediction, computed).checks


def test_correspondence_check_names_are_stable(reports):
    # The names and their order are the contract of each graph's report,
    # which the command line files check by check under that graph.
    full = _theorem(2, 4, reports)
    assert full.passed
    assert [c.name for c in full.checks] == [
        "distinct eigenvalue count (full graph)",
        "eigenvalue -2.61803398875 x3 non-main (full graph)",
        "eigenvalue -1 x1 main (full graph)",
        "eigenvalue -0.38196601125 x3 non-main (full graph)",
        "eigenvalue 0.208712152522 x1 main (full graph)",
        "eigenvalue 1 x5 non-main (full graph)",
        "eigenvalue 4.79128784748 x1 main (full graph)",
        "main count equals n-1 (full graph)",
    ]
    report = _correspondences(2, 4, reports)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "distinct eigenvalue count (bipartite subgraph)",
        "eigenvalue -2.61803398875 x1 non-main (bipartite subgraph)",
        "eigenvalue -1 x2 main (bipartite subgraph)",
        "eigenvalue -0.38196601125 x1 non-main (bipartite subgraph)",
        "eigenvalue 0.38196601125 x1 main (bipartite subgraph)",
        "eigenvalue 1 x2 non-main (bipartite subgraph)",
        "eigenvalue 2.61803398875 x1 main (bipartite subgraph)",
        "main count equals n-1 (bipartite subgraph)",
    ]


def test_correspondences_with_zero_block(reports):
    # m = 3: the subgraph's zero block, 2(m-1)m**(n-2) - 2**(n-1) = 28, is
    # one predicted group among the others, checked like each of them.
    report = _correspondences(3, 4, reports)
    assert report.passed
    assert "eigenvalue 0 x28 non-main (bipartite subgraph)" in [
        c.name for c in report.checks
    ]


def _subgraph_fault(reports, m, n, fault):
    """The subgraph's computed report with its groups rewritten by
    `fault`; every main group, and so Q's spectrum, is kept."""
    computed = reports(m, n, "bipartite")
    groups = list(computed.groups)
    fault(groups)
    assert [g for g in groups if g.is_main] == [g for g in computed.groups if g.is_main]
    return verify_main_correspondences(
        predicted_spectrum(m, n), spectra.SpectralReport(tuple(groups))
    )


def test_subgraph_fault_moving_one_non_main_group_fails(reports):
    def moved(groups):
        k = next(i for i, g in enumerate(groups) if not g.is_main)
        groups[k] = replace(groups[k], value=groups[k].value + 1e-3)

    report = _subgraph_fault(reports, 2, 5, moved)
    assert [c.name for c in report.failures] == [
        "eigenvalue -4.2360679775 x1 non-main (bipartite subgraph)"
    ]
    assert report.failures[0].residual == pytest.approx(1e-3)


def test_subgraph_fault_swapping_two_non_main_multiplicities_fails(reports):
    # (3,5): the non-main groups are +phi**i * xi**(5-i) x C(3, i-1) and
    # zero x 92; the first two of unequal multiplicity trade them, which
    # keeps the total.
    def swapped(groups):
        nonmain = [i for i, g in enumerate(groups) if not g.is_main]
        a = nonmain[0]
        b = next(i for i in nonmain if groups[i].multiplicity != groups[a].multiplicity)
        ma, mb = groups[a].multiplicity, groups[b].multiplicity
        groups[a] = replace(groups[a], multiplicity=mb)
        groups[b] = replace(groups[b], multiplicity=ma)

    report = _subgraph_fault(reports, 3, 5, swapped)
    assert len(report.failures) == 2
    assert all("non-main" in c.name for c in report.failures)
    assert not any("count" in c.name for c in report.failures)


def test_correspondences_fail_at_unreachable_match_tolerance(monkeypatch, reports):
    # Rounding keeps almost every computed value off its prediction by
    # more than 1e-300, and each such value match fails on both graphs;
    # only a value computed exactly still matches.  The counts do not
    # depend on the tolerance and still pass.
    monkeypatch.setattr(spectra, "MATCH", 1e-300)
    for report in (_theorem(3, 4, reports), _correspondences(3, 4, reports)):
        values = [c for c in report.checks if c.name.startswith("eigenvalue ")]
        assert [c.passed for c in values] == [c.residual == 0.0 for c in values]
        assert report.failures
        assert [c.passed for c in report.checks if "count" in c.name] == [True, True]


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"


def test_verification_report_mechanics():
    failing = VerificationReport(
        (CheckResult("ok", True), CheckResult("broken", False, 0.5, "off by 0.5")),
    )
    assert not failing.passed
    assert [c.name for c in failing.failures] == ["broken"]
    assert failing.checks[0].json_entry() == {
        "name": "ok", "pass": True, "residual": None,
    }


# === exact annihilation ===

def test_annihilation_rational_case():
    # m = 3 collapses to plain rational arithmetic.
    report = q_eigen_exact_check(predicted_spectrum(3, 4))
    assert report.passed
    assert [c.name for c in report.checks] == [
        f"pair power i={i} annihilates the bipartite quotient" for i in (1, 2, 3)
    ]


def test_annihilation_irrational_case():
    assert q_eigen_exact_check(predicted_spectrum(2, 5)).passed
    assert q_eigen_exact_check(predicted_spectrum(5, 3)).passed


@pytest.mark.parametrize("m,n", [(2, 24), (3, 20), (7, 16), (9, 24)])
def test_annihilation_at_large_n(m, n):
    # m = 3 and m = 7 have perfect-square radicands 4m - 3.
    report = q_eigen_exact_check(predicted_spectrum(m, n))
    assert report.passed
    assert len(report.checks) == n - 1


def _det_quadratic(rows):
    """Reference route: determinant over the quadratic field by Gaussian
    elimination in QuadraticNumber arithmetic."""
    order = len(rows)
    rows = [list(row) for row in rows]
    det = QuadraticNumber(Fraction(1))
    negate = False
    for col in range(order):
        pivot_row = next(
            (r for r in range(col, order) if not rows[r][col].is_zero), None
        )
        if pivot_row is None:
            return QuadraticNumber(Fraction(0))
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            negate = not negate
        pivot = rows[col][col]
        det = det * pivot
        inv = pivot.inverse()
        for r in range(col + 1, order):
            factor = rows[r][col] * inv
            if factor.is_zero:
                continue
            for c in range(col, order):
                rows[r][c] = rows[r][c] - factor * rows[col][c]
    return -det if negate else det


def _reference_annihilation(entries, m, n):
    """The checks q_eigen_exact_check makes, by elimination per pair power."""
    phi, xi = golden_pair(m)
    checks = []
    for i in range(1, n):
        value = phi**i * xi ** (n - i)
        shifted = [
            [
                QuadraticNumber(Fraction(entries[r][c])) + (value if r == c else 0)
                for c in range(n - 1)
            ]
            for r in range(n - 1)
        ]
        det = _det_quadratic(shifted)
        checks.append(
            CheckResult(
                f"pair power i={i} annihilates the bipartite quotient",
                det.is_zero,
                abs(float(det)),
                "" if det.is_zero else f"det(Q + ({value}) I) = {det}",
            )
        )
    return tuple(checks)


def test_annihilation_matches_quadratic_elimination():
    # Name, pass flag, residual and detail, on the whole exact-sweep grid;
    # a vanishing determinant carries no detail.
    for m in range(2, 10):
        for n in range(2, 11):
            prediction = predicted_spectrum(m, n)
            assert q_eigen_exact_check(prediction).checks == _reference_annihilation(
                build_q(m, n).entries, m, n
            ), (m, n)


@pytest.mark.parametrize("m,n", [(2, 4), (2, 5), (3, 6)])
def test_annihilation_failure_carries_exact_determinant(m, n):
    prediction = predicted_spectrum(m, n)
    entries = [list(row) for row in prediction.q.entries]
    entries[0][0] += 1
    doctored = replace(prediction.q, entries=tuple(tuple(row) for row in entries))
    report = q_eigen_exact_check(replace(prediction, q=doctored))
    assert not report.passed
    assert len(report.failures) == n - 1
    assert report.checks == _reference_annihilation(doctored.entries, m, n)
    for check in report.checks:
        assert check.residual > 0
        assert not check.detail.endswith("= 0")


@pytest.mark.parametrize("m", [3, 7, 13])
def test_integer_zero_test_where_phi_is_an_integer(m):
    # 4m - 3 = r**2 makes phi = (1 + r)/2 an integer, so (-phi, 1) names
    # zero without being (0, 0); (-2, 1) at m = 3.
    r = math.isqrt(4 * m - 3)
    assert r * r == 4 * m - 3
    phi = (1 + r) // 2
    for pair in ((-phi, 1), (-2 * phi, 2), (3 * phi, -3)):
        assert zphi_is_zero(m, pair), pair
        assert zphi_to_quadratic(m, pair).is_zero
    for pair in ((1, 0), (0, 1), (-phi, 2), (1 - phi, 1)):
        assert not zphi_is_zero(m, pair), pair
        assert not zphi_to_quadratic(m, pair).is_zero
    assert zphi_is_zero(m, (0, 0))


def test_integer_zero_test_where_phi_is_irrational():
    for m in (2, 4, 5, 8, 10**6):
        assert zphi_is_zero(m, (0, 0))
        for pair in ((1, 0), (0, 1), (-2, 1), (m - 1, -1), (-(m - 1), 1)):
            assert not zphi_is_zero(m, pair), (m, pair)


def test_characteristic_polynomial_against_determinants():
    rng = np.random.default_rng(7)
    for order in range(1, 6):
        rows = tuple(
            tuple(int(x) for x in row)
            for row in rng.integers(-9, 10, size=(order, order))
        )
        coeffs = _char_poly(rows)
        for x in range(-3, 4):
            shifted = [
                [(x if r == c else 0) - rows[r][c] for c in range(order)]
                for r in range(order)
            ]
            assert sum(c * x**k for k, c in enumerate(coeffs)) == det_cofactor(shifted)


def test_characteristic_polynomial_of_big_integer_matrices():
    # Entries near +-2**70 overflow int64 and lose digits in float64, so
    # this holds only if the recurrence stays in Python ints.
    rng = np.random.default_rng(70)
    for order in range(1, 7):
        rows = tuple(
            tuple((1 if x >= 0 else -1) * 2**70 + int(x) for x in row)
            for row in rng.integers(-1000, 1000, size=(order, order))
        )
        coeffs = _char_poly(rows)
        assert all(type(c) is int for c in coeffs)
        for x in (-2, 0, 1, 3):
            shifted = [
                [(x if r == c else 0) - rows[r][c] for c in range(order)]
                for r in range(order)
            ]
            assert sum(c * x**k for k, c in enumerate(coeffs)) == det_cofactor(shifted)


def test_characteristic_polynomial_matches_faddeev_leverrier():
    # Every P and Q of the exact-sweep grid, then Q at n = 24 and 32.
    quotients = [
        build(m, n) for m in range(2, 10) for n in range(2, 11)
        for build in (build_p, build_q)
    ]
    quotients += [build_q(m, n) for m in (2, 9) for n in (24, 32)]
    for quotient in quotients:
        rows = quotient.entries
        assert _char_poly(rows) == char_poly_faddeev(rows), (
            quotient.kind, quotient.m, quotient.n
        )
    assert _char_poly(((7,),)) == char_poly_faddeev(((7,),)) == [-7, 1]
    assert _char_poly(((-2**70,),)) == [2**70, 1]


def test_annihilation_is_exact_not_numeric():
    # The shifted quotient is singular in exact Z[phi] arithmetic, while
    # moving the shift by 1e-6 (scaled to integers: det(10**6 Q +
    # (10**6 v + 1) I)) must leave a nonzero determinant.
    m, n, scale = 2, 4, 10**6
    q = build_q(m, n).entries
    value = pair_power(m, 2, 2)
    assert zphi_to_quadratic(m, _det_shifted(m, _char_poly(q), value)).is_zero
    scaled = tuple(tuple(scale * x for x in row) for row in q)
    nudged = (scale * value[0] + 1, scale * value[1])
    det = zphi_to_quadratic(m, _det_shifted(m, _char_poly(scaled), nudged))
    assert not det.is_zero


# === spectral reports ===

def test_bundle_reuse_is_equivalent(graphs, reports):
    cached = reports(3, 3)
    fresh = eigen_bundle(graphs(3, 3))
    assert cached == fresh
    report_a = verify_spectrum_theorem(predicted_spectrum(3, 3), cached)
    report_b = verify_spectrum_theorem(predicted_spectrum(3, 3), fresh)
    assert report_a.passed and report_b.passed
    assert [c.name for c in report_a.checks] == [c.name for c in report_b.checks]
