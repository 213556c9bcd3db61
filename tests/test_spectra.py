"""Dense eigensolver, main classification, predictions, verification."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from zdspectra.fib import (
    QuadraticNumber,
    golden_pair,
    pair_power,
    zphi_is_zero,
    zphi_to_quadratic,
)
from zdspectra import spectra
from zdspectra.cli import DEFAULT_DENSE_CAP
from zdspectra.graph import (
    ZeroDivisorGraph,
    adjacency_matrix,
    build_bipartite,
    build_graph,
    expected_cell_sizes,
    vertex_count,
)
from zdspectra.quotient import build_p, build_q, exact_rank, walk_matrix_iterative
from zdspectra.spectra import (
    AmbiguousClassification,
    CheckResult,
    NonzeroDeterminant,
    SpectrumMismatch,
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
from zdspectra.spectra import _char_poly, _det_shifted, _krylov_main_check

from conftest import dense_grid
from oracles import brute_adjacency, char_poly_faddeev, det_cofactor, krylov_rank_rows

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


def test_input_validation():
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[0.0, 1.0], [0.9, 0.0]]))
    with pytest.raises(ValueError):
        symmetric_eigen(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigen(np.zeros((0, 0)))


# === main classification ===

def test_two_vertex_classification():
    report = classify_main(K2)
    mains = report.main_values()
    assert mains == (1.0,) or np.allclose(mains, [1.0])
    assert len(report.nonmain_values()) == 1
    assert report.total_multiplicity == 2


def test_path_graph_has_two_main_values():
    # The middle eigenvector of the 3-path is odd, so only +-sqrt(2)
    # survive the all-ones projection.
    report = classify_main(PATH3)
    assert np.allclose(sorted(report.main_values()), [-math.sqrt(2), math.sqrt(2)])
    assert np.allclose(report.nonmain_values(), [0.0], atol=1e-12)
    # the same path on coordinates: 011 -- 100 -- 010
    path = ZeroDivisorGraph(2, 3, np.array([[0, 1, 1], [1, 0, 0], [0, 1, 0]]))
    assert np.array_equal(adjacency_matrix(path), PATH3)
    assert krylov_rank(path) == 2


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


def test_illustration_main_sets(bundles):
    # Full graph mains: -1 and (5 +- sqrt(21))/2; subgraph mains: -1 and
    # (3 +- sqrt(5))/2.
    full = bundles(2, 4).report.main_values()
    expected_full = sorted([-1.0, (5 - 21**0.5) / 2, (5 + 21**0.5) / 2])
    assert np.allclose(sorted(full), expected_full, atol=1e-8)
    bip = bundles(2, 4, "bipartite").report.main_values()
    expected_bip = sorted([-1.0, (3 - 5**0.5) / 2, (3 + 5**0.5) / 2])
    assert np.allclose(sorted(bip), expected_bip, atol=1e-8)


def test_dead_band_raises(monkeypatch):
    monkeypatch.setattr(spectra, "PROJECTION_THRESHOLD", 2.0)
    with pytest.raises(AmbiguousClassification) as info:
        classify_main(K2)
    low, high = info.value.band
    assert low == pytest.approx(0.2)
    assert high == pytest.approx(2.0)
    assert low <= info.value.projection <= high


# === krylov rank ===

def test_krylov_rank_small_cases():
    cases = [  # (m, n, rows of hand-made coordinates, Krylov rank)
        (2, 2, [[1, 0], [0, 1]], 1),  # K2
        (3, 2, [[1, 0], [2, 0], [0, 1], [0, 2]], 1),  # two twin pairs: the 4-cycle
        (2, 3, [[1, 0, 0], [0, 1, 1], [0, 1, 0]], 2),  # a star: 011 and 010 share a bit
        (2, 3, [[1, 1, 0], [0, 1, 1], [0, 1, 0]], 1),  # every row holds bit 1: no edges
    ]
    for m, n, rows, rank in cases:
        g = ZeroDivisorGraph(m, n, np.array(rows))
        assert krylov_rank(g) == krylov_rank_rows(brute_adjacency(rows)) == rank, rows


def test_krylov_rank_of_built_graphs_is_the_quotient_rank():
    # Class sizes up to (m-1)**(n-1) weigh the lattice vectors; both
    # graphs have Krylov rank n - 1, the rank the reference finds for
    # their quotients.
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
    # brute-force adjacency at every step; the package ranks Gram
    # matrices, of support-lattice vectors when given the graph.
    for m, n in dense_grid():
        g = graphs(m, n, role)
        rows = brute_adjacency(g.coords.tolist())
        assert krylov_rank(g) == krylov_rank_rows(rows)


@pytest.mark.parametrize("seed", range(4))
def test_krylov_rank_on_irregular_vertex_subsets(graphs, seed):
    # Induced subgraphs on random vertex subsets have uneven support
    # classes, so the lattice route must weight each class by its size.
    g = graphs(3, 4)
    rng = np.random.default_rng(seed)
    keep = sorted(rng.choice(g.vertex_count, size=25, replace=False).tolist())
    sub = ZeroDivisorGraph(g.m, g.n, g.coords[keep])
    rows = brute_adjacency(sub.coords.tolist())
    assert krylov_rank(sub) == krylov_rank_rows(rows)


def test_krylov_rank_ranks_gram_matrices_not_krylov_rows(monkeypatch):
    # 1022 vertices with one support each: the exact ranks must see at
    # most (n-1)+1 = 10 Krylov vectors' Gram matrix, never rows of 1022.
    shapes = []

    def recording_rank(matrix):
        shapes.append((len(matrix), len(matrix[0])))
        return exact_rank(matrix)

    monkeypatch.setattr(spectra, "exact_rank", recording_rank)
    assert krylov_rank(build_graph(2, 10)) == 9
    assert shapes and all(r <= 10 and c <= 10 for r, c in shapes)


def test_krylov_main_check_needs_no_column_cap(monkeypatch, bundles):
    # The main check once capped its Krylov vectors at (groups + 1).  On
    # every dense graph of the default verify grid the Gram matrices it
    # ranks have order at most (main count + 1) <= (groups + 1), so that
    # cap never bound and removing it changes no work.
    orders = []

    def recording_rank(matrix):
        orders.append(len(matrix))
        return exact_rank(matrix)

    monkeypatch.setattr(spectra, "exact_rank", recording_rank)
    cells = 0
    for m in range(2, 5):
        for n in range(2, 7):
            for role in ("full", "bipartite"):
                if vertex_count(m, n, role) > DEFAULT_DENSE_CAP:
                    continue
                bundle = bundles(m, n, role)
                main = len(bundle.report.main_values())
                orders.clear()
                assert _krylov_main_check(bundle, role).passed, (m, n, role)
                assert orders and max(orders) <= main + 1, (m, n, role, orders)
                cells += 1
    assert cells == 29


def test_krylov_rank_matches_walk_rank(graphs):
    # Hidden redundancy check: graph-side Krylov rank equals the exact
    # rank of the quotient walk matrix.
    for m, n in [(2, 4), (3, 3), (3, 4)]:
        walk = walk_matrix_iterative(build_p(m, n))
        assert krylov_rank(graphs(m, n)) == exact_rank(walk)


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
    assert [q.value for q in pred.q_derived] == [-2.0, 4.0, -8.0]
    assert [q.multiplicity for q in pred.q_derived] == [3, 5, 3]
    assert pred.zero_multiplicity == 3**4 - 2**4 - 2**4 + 1
    assert pred.total_multiplicity == 3**4 - 2**4 - 1


def test_predicted_exact_forms_match_floats():
    phi, xi = golden_pair(2)
    pred = predicted_spectrum(2, 5)
    for q in pred.q_derived:
        exact = phi**q.index * xi ** (5 - q.index)
        assert q.exact == exact
        assert abs(float(exact) - q.value) < 1e-12


def test_predicted_floats_are_those_of_the_exact_forms():
    # Each value is read off the Z[phi] pair, bit-identical to converting
    # the quadratic-field number; the exact strings are unchanged.
    cells = [(m, n) for m in range(2, 14) for n in range(2, 41)]
    for m, n in cells + [(10**6, 50)]:
        pred = predicted_spectrum(m, n)
        entries = pred.json_entries()["q_derived"]
        for q, entry in zip(pred.q_derived, entries, strict=True):
            exact = zphi_to_quadratic(m, pair_power(m, q.index, n - q.index))
            assert q.value == float(exact), (m, n, q.index)
            assert q.exact == exact
            assert entry["exact"] == str(exact)
            assert entry["value"] == q.value


def test_zero_multiplicity_vanishes_only_for_binary_fields():
    for n in range(2, 9):
        assert predicted_spectrum(2, n).zero_multiplicity == 0
    assert predicted_spectrum(3, 2).zero_multiplicity == 2
    assert predicted_spectrum(4, 3).zero_multiplicity == 30


def test_predicted_sum_matches_quotient_traces():
    # Spectrum sum must equal trace(adjacency) = 0.
    for m, n in [(2, 4), (3, 4), (4, 3)]:
        pred = predicted_spectrum(m, n)
        total = sum(v * mult for v, mult in pred.multiset())
        assert abs(total) < 1e-8


def test_predicted_json_uses_exact_strings():
    entries = predicted_spectrum(2, 4).json_entries()
    assert entries["zero_multiplicity"] == 0
    assert entries["zero_multiplicity_derived"] is True
    assert len(entries["p_eigenvalues"]) == 3
    assert all(isinstance(q["exact"], str) for q in entries["q_derived"])


# === verification drivers ===

def test_spectrum_theorem_small_cases(bundles):
    for m, n in [(2, 2), (2, 4), (3, 2), (3, 3)]:
        report = verify_spectrum_theorem(m, n, bundle=bundles(m, n))
        assert report.passed
        report.raise_if_failed()
        names = [c.name for c in report.checks]
        assert names[0] == "distinct eigenvalue count"
        assert all(name.startswith("eigenvalue ") for name in names[1:])


def test_spectrum_theorem_residuals_are_small(bundles):
    report = verify_spectrum_theorem(2, 4, bundle=bundles(2, 4))
    residuals = [c.residual for c in report.checks if c.residual is not None]
    assert residuals and max(residuals) < 1e-10


def test_spectrum_theorem_unreachable_tolerance_fails(monkeypatch, bundles):
    monkeypatch.setattr(spectra, "MATCH", 1e-300)
    report = verify_spectrum_theorem(3, 3, bundles(3, 3))
    assert not report.passed
    with pytest.raises(SpectrumMismatch):
        report.raise_if_failed()


def test_correspondence_check_names_are_stable(bundles):
    # The names and their order are the contract of this report, which
    # callers read check by check.
    report = verify_main_correspondences(
        2, 4,
        full_bundle=bundles(2, 4),
        bipartite_bundle=bundles(2, 4, "bipartite"),
    )
    assert report.passed
    assert [c.name for c in report.checks] == [
        "main eigenvalues equal the full quotient spectrum",
        "subgraph main eigenvalues equal the bipartite quotient spectrum",
        "nonzero non-main values equal the negated subgraph mains",
        "main counts equal n-1 on both graphs",
        "exact Krylov rank of the graph equals its main count",
        "exact Krylov rank of the subgraph equals its main count",
    ]


def test_correspondences_with_zero_block(bundles):
    # m = 3 exercises the branch that discards the zero eigenvalue group
    # before negation matching.
    report = verify_main_correspondences(
        3, 4,
        full_bundle=bundles(3, 4),
        bipartite_bundle=bundles(3, 4, "bipartite"),
    )
    assert report.passed


def test_correspondences_fail_at_unreachable_match_tolerance(monkeypatch, bundles):
    # Rounding keeps every computed value off its prediction by more than
    # 1e-300, so each value match fails; the counts and the exact Krylov
    # ranks do not depend on the tolerance and still pass.
    monkeypatch.setattr(spectra, "MATCH", 1e-300)
    report = verify_main_correspondences(
        3, 4,
        full_bundle=bundles(3, 4),
        bipartite_bundle=bundles(3, 4, "bipartite"),
    )
    verdicts = {c.name: c.passed for c in report.checks}
    assert verdicts == {
        "main eigenvalues equal the full quotient spectrum": False,
        "subgraph main eigenvalues equal the bipartite quotient spectrum": False,
        "nonzero non-main values equal the negated subgraph mains": False,
        "main counts equal n-1 on both graphs": True,
        "exact Krylov rank of the graph equals its main count": True,
        "exact Krylov rank of the subgraph equals its main count": True,
    }
    for check in report.failures:
        assert check.residual is not None and check.residual > 1e-300
    with pytest.raises(SpectrumMismatch):
        report.raise_if_failed()


def test_verification_report_mechanics():
    failing = VerificationReport(
        "demo",
        (CheckResult("ok", True), CheckResult("broken", False, 0.5, "off by 0.5")),
        NonzeroDeterminant,
    )
    assert not failing.passed
    assert [c.name for c in failing.failures] == ["broken"]
    with pytest.raises(NonzeroDeterminant) as info:
        failing.raise_if_failed()
    assert "broken" in str(info.value)
    assert failing.checks[0].json_entry() == {
        "name": "ok", "pass": True, "residual": None,
    }


# === exact annihilation ===

def test_annihilation_rational_case():
    # m = 3 collapses to plain rational arithmetic.
    report = q_eigen_exact_check(3, 4)
    assert report.passed
    assert [c.name for c in report.checks] == [
        f"pair power i={i} annihilates the bipartite quotient" for i in (1, 2, 3)
    ]


def test_annihilation_irrational_case():
    assert q_eigen_exact_check(2, 5).passed
    assert q_eigen_exact_check(5, 3).passed


@pytest.mark.parametrize("m,n", [(2, 24), (3, 20), (7, 16), (9, 24)])
def test_annihilation_at_large_n(m, n):
    # m = 3 and m = 7 have perfect-square radicands 4m - 3.
    report = q_eigen_exact_check(m, n)
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
            assert q_eigen_exact_check(m, n).checks == _reference_annihilation(
                build_q(m, n).entries, m, n
            ), (m, n)


@pytest.mark.parametrize("m,n", [(2, 4), (2, 5), (3, 6)])
def test_annihilation_failure_carries_exact_determinant(monkeypatch, m, n):
    genuine = build_q(m, n)
    entries = [list(row) for row in genuine.entries]
    entries[0][0] += 1
    doctored = replace(genuine, entries=tuple(tuple(row) for row in entries))
    monkeypatch.setattr("zdspectra.spectra.build_q", lambda *_: doctored)
    report = q_eigen_exact_check(m, n)
    assert not report.passed
    assert len(report.failures) == n - 1
    assert report.checks == _reference_annihilation(doctored.entries, m, n)
    for check in report.checks:
        assert check.residual > 0
        assert not check.detail.endswith("= 0")
    with pytest.raises(NonzeroDeterminant) as info:
        report.raise_if_failed()
    assert report.checks[0].detail in str(info.value)


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


# === bundles ===

def test_bundle_reuse_is_equivalent(graphs, bundles):
    bundle = bundles(3, 3)
    fresh = eigen_bundle(graphs(3, 3))
    assert np.array_equal(bundle.eigenvalues, fresh.eigenvalues)
    report_a = verify_spectrum_theorem(3, 3, bundle)
    report_b = verify_spectrum_theorem(3, 3, fresh)
    assert report_a.passed and report_b.passed
    assert [c.name for c in report_a.checks] == [c.name for c in report_b.checks]
