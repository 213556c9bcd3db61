"""Acceptance gate: ten numbered criteria, one verdict line each.

Run with `pytest -rA` to see the verdict lines for passing criteria too.
Grids follow the stated bounds; dense eigenwork is shared through the
session-scoped spectral-report cache, so the whole gate stays fast.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from zdspectra.fib import docagne_residual, fib_values, golden_pair
from zdspectra.graph import adjacency_matrix, empirical_quotient, expected_cell_sizes
from zdspectra.quotient import (
    QuotientKind,
    build_p,
    build_q,
    det_walk_formula,
    exact_det,
    exact_rank,
    walk_matrix_closed_p,
    walk_matrix_closed_q,
    walk_matrix_iterative,
)
from zdspectra.spectra import (
    krylov_rank,
    predicted_spectrum,
    q_eigen_exact_check,
    verify_main_correspondences,
    verify_spectrum_theorem,
)

from conftest import dense_grid
from oracles import det_cofactor

KINDS = (QuotientKind.P, QuotientKind.Q)
WALK_GRID = [(m, n) for m in range(2, 6) for n in range(2, 10)]
GRAPH_GRID = [(m, n) for m in range(2, 5) for n in range(2, 7)]


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number} pass: {label}")


def build(kind, m, n):
    return build_p(m, n) if kind is QuotientKind.P else build_q(m, n)


def test_criterion_01_quotient_matrix_fidelity():
    with criterion(1, "displayed quotient matrices reproduced exactly"):
        assert build_p(2, 4).entries == ((0, 0, 1), (0, 1, 2), (1, 3, 3))
        assert build_p(3, 4).entries == ((0, 0, 2), (0, 4, 4), (8, 12, 6))
        assert build_q(2, 4).entries == ((0, 0, 1), (0, 1, 1), (1, 2, 1))
        assert build_q(3, 4).entries == ((0, 0, 2), (0, 4, 2), (8, 8, 2))


def test_criterion_02_walk_matrix_fidelity():
    with criterion(2, "walk matrices exact; closed form equals iteration"):
        assert walk_matrix_iterative(build_p(2, 4).entries) == (
            (1, 1, 7), (1, 3, 17), (1, 7, 31),
        )
        assert walk_matrix_iterative(build_q(2, 4).entries) == (
            (1, 1, 4), (1, 2, 6), (1, 4, 9),
        )
        for m, n in WALK_GRID:
            assert walk_matrix_closed_p(m, n) == (
                walk_matrix_iterative(build_p(m, n).entries)
            )
            assert walk_matrix_closed_q(m, n) == (
                walk_matrix_iterative(build_q(m, n).entries)
            )


def test_criterion_03_walk_rank_theorem():
    with criterion(3, "walk-matrix ranks equal n-1 across the grid"):
        for m, n in WALK_GRID:
            for kind in KINDS:
                walk = walk_matrix_iterative(build(kind, m, n).entries)
                assert exact_rank(walk) == n - 1, (m, n, kind)


def test_criterion_04_determinant_corollaries():
    with criterion(4, "determinant formula matches exact elimination"):
        for m, n in WALK_GRID:
            for kind in KINDS:
                walk = walk_matrix_iterative(build(kind, m, n).entries)
                assert det_walk_formula(m, n, kind) == exact_det(walk), (m, n, kind)
        assert det_walk_formula(2, 4, QuotientKind.P) == -12
        assert det_walk_formula(2, 4, QuotientKind.Q) == -1
        assert det_cofactor([[1, 1, 7], [1, 3, 17], [1, 7, 31]]) == -12
        assert det_cofactor([[1, 1, 4], [1, 2, 6], [1, 4, 9]]) == -1


def test_criterion_05_equitable_quotients(graphs):
    with criterion(5, "empirical quotients equal closed forms to 20000 vertices"):
        cells = [
            (m, n) for m, n in GRAPH_GRID
            if m**n - (m - 1) ** n - 1 <= 20_000
        ]
        assert cells == GRAPH_GRID  # the whole grid fits under the cap
        for m, n in cells:
            assert empirical_quotient(graphs(m, n)) == build_p(m, n).entries
            assert (
                empirical_quotient(graphs(m, n, "bipartite"))
                == build_q(m, n).entries
            )


def test_criterion_06_spectrum_theorem(reports):
    with criterion(6, "full spectra match predictions; zero block counted"):
        for m, n in dense_grid():
            report = verify_spectrum_theorem(predicted_spectrum(m, n), reports(m, n))
            assert report.passed, (m, n, report.failures)
        for m, n in GRAPH_GRID:
            full = predicted_spectrum(m, n).groups("full")
            zero = sum(mult for _, mult, _, exact in full if exact == "0")
            assert zero == m**n - (m - 1) ** n - 2**n + 1
            if m == 2:
                assert zero == 0


def test_criterion_07_main_spectrum_illustration(reports):
    with criterion(7, "illustration main sets and walk ranks reproduced"):
        full_mains = sorted(reports(2, 4).main_values())
        expected = sorted([-1.0, (5 - 21**0.5) / 2, (5 + 21**0.5) / 2])
        assert np.allclose(full_mains, expected, atol=1e-8)
        bip_mains = sorted(reports(2, 4, "bipartite").main_values())
        expected_bip = sorted([-1.0, (3 - 5**0.5) / 2, (3 + 5**0.5) / 2])
        assert np.allclose(bip_mains, expected_bip, atol=1e-8)
        assert exact_rank(walk_matrix_iterative(build_p(2, 4).entries)) == 3
        assert exact_rank(walk_matrix_iterative(build_q(2, 4).entries)) == 3


def test_criterion_08_correspondence_corollaries(graphs, reports):
    with criterion(8, "main sets equal quotient spectra; Krylov counts agree"):
        for m, n in dense_grid():
            report = verify_main_correspondences(
                predicted_spectrum(m, n), reports(m, n, "bipartite")
            )
            assert report.passed, (m, n, report.failures)
            for role in ("full", "bipartite"):
                main = len(reports(m, n, role).main_values())
                assert krylov_rank(graphs(m, n, role)) == main, (m, n, role)


def test_criterion_09_exact_annihilation():
    with criterion(9, "shifted bipartite quotients singular in exact arithmetic"):
        for m in range(2, 7):
            for n in range(2, 9):
                report = q_eigen_exact_check(predicted_spectrum(m, n))
                assert report.passed, (m, n, report.failures)


def test_criterion_10_property_suites(graphs):
    with criterion(10, "identity, distinctness, degree and cell-size laws"):
        rng = random.Random(0xD0CA)
        for _ in range(500):
            m = rng.randint(2, 10)
            l = rng.randint(1, 40)
            r = rng.randint(0, l - 1)
            assert docagne_residual(m, l, r) == 0, (m, l, r)
        for m in range(2, 11):
            f = fib_values(m, 41)
            ratios = [Fraction(f[k + 1], f[k]) for k in range(41)]
            assert len(set(ratios)) == len(ratios), m
        # Make sure the sweep covers the whole graph grid even when this
        # module runs alone, then test every graph the session built.
        for m, n in GRAPH_GRID:
            graphs(m, n)
            graphs(m, n, "bipartite")
        assert graphs.cache
        for (m, n, role), graph_obj in sorted(graphs.cache.items()):
            degrees = adjacency_matrix(graph_obj).sum(axis=1)
            zero_counts = (graph_obj.coords == 0).sum(axis=1)
            for zeros, d in zip(zero_counts.tolist(), degrees):
                if role == "full":
                    assert d == m**zeros - 1, (m, n, role)
                else:
                    # Induced two-sided subgraph: only cross-side
                    # neighbors survive, (m-1) * m**(i-1) of them.
                    assert d == (m - 1) * m ** (zeros - 1), (m, n, role)
            assert graph_obj.cell_sizes() == expected_cell_sizes(m, n, role), (m, n, role)


def test_closed_forms_cross_check():
    # Belt and braces: the golden pair reproduces the illustration's
    # closed forms used in criterion 7.
    phi, xi = golden_pair(2)
    assert abs(float(phi * phi) - (3 + 5**0.5) / 2) < 1e-12
    assert abs(float(phi) - (1 + 5**0.5) / 2) < 1e-12
    assert abs(float(xi * xi) - (3 - 5**0.5) / 2) < 1e-12
