"""Quotient matrices, walk matrices, factorization, exact linear algebra."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from zdspectra.quotient import (
    QuotientKind,
    build_p,
    build_q,
    det_walk_formula,
    exact_det,
    exact_rank,
    factorize_walk,
    h_coefficients,
    json_safe_int,
    matrix_json_entries,
    matrix_to_csv,
    walk_matrix_closed_p,
    walk_matrix_closed_q,
    walk_matrix_iterative,
)

from zdspectra.fib import fib_values

from oracles import det_cofactor, factored_det, fib_loop, rank_gauss, walk_factors

KINDS = (QuotientKind.P, QuotientKind.Q)


def build(kind, m, n):
    return build_p(m, n) if kind is QuotientKind.P else build_q(m, n)


def closed_walk(kind, m, n):
    fn = walk_matrix_closed_p if kind is QuotientKind.P else walk_matrix_closed_q
    return fn(m, n)


# === quotient construction ===

def test_known_small_matrices():
    assert build_p(2, 4).entries == ((0, 0, 1), (0, 1, 2), (1, 3, 3))
    assert build_q(2, 4).entries == ((0, 0, 1), (0, 1, 1), (1, 2, 1))
    assert build_p(3, 4).entries == ((0, 0, 2), (0, 4, 4), (8, 12, 6))
    assert build_q(3, 4).entries == ((0, 0, 2), (0, 4, 2), (8, 8, 2))


def test_smallest_orders():
    assert build_p(3, 2).entries == ((2,),)
    assert build_q(2, 2).entries == ((1,),)
    assert build_p(2, 3).entries == ((0, 1), (1, 2))


def test_entry_accessor_is_one_based():
    # Entry (i, j) of the 1-based statement sits at entries[i - 1][j - 1].
    p = build_p(2, 4)
    assert p.entries[1 - 1][3 - 1] == 1
    assert p.entries[3 - 1][1 - 1] == 1
    assert p.entries[3 - 1][3 - 1] == 3
    assert len(p.entries) == 3


def test_zero_pattern_above_the_antidiagonal():
    for kind in KINDS:
        for m in (2, 4):
            for n in range(2, 8):
                q = build(kind, m, n)
                for i in range(1, n):
                    for j in range(1, n):
                        if i + j < n:
                            assert q.entries[i - 1][j - 1] == 0
                        else:
                            assert q.entries[i - 1][j - 1] > 0


def test_row_sums_follow_degree_laws():
    # Full quotient rows sum to m^i - 1, bipartite rows to (m-1)m^(i-1).
    for m in range(2, 6):
        for n in range(2, 10):
            p_sums = build_p(m, n).row_sums()
            q_sums = build_q(m, n).row_sums()
            assert p_sums == tuple(m**i - 1 for i in range(1, n))
            assert q_sums == tuple((m - 1) * m ** (i - 1) for i in range(1, n))


def test_entries_match_binomial_closed_form():
    for m in (2, 3, 5):
        for n in (2, 4, 7):
            p = build_p(m, n)
            q = build_q(m, n)
            for i in range(1, n):
                for j in range(1, n):
                    if i + j >= n:
                        scale = (m - 1) ** (n - j)
                        assert p.entries[i - 1][j - 1] == comb(i, n - j) * scale
                        assert q.entries[i - 1][j - 1] == comb(i - 1, n - j - 1) * scale


def test_build_validation():
    for bad in ((1, 4), (2, 1), (0, 3)):
        with pytest.raises(ValueError):
            build_p(*bad)
        with pytest.raises(ValueError):
            build_q(*bad)
    with pytest.raises(ValueError):
        build_p(2.0, 4)
    with pytest.raises(ValueError):
        build_q(2, True)


# === walk matrices ===

def test_walk_columns_are_iterated_row_sums():
    for kind in KINDS:
        q = build(kind, 3, 5)
        w = walk_matrix_iterative(q.entries)
        size = len(q.entries)

        def column(k):
            return tuple(row[k] for row in w)

        assert column(0) == (1,) * size
        assert column(1) == q.row_sums()
        # Column k+1 is the quotient applied to column k.
        for k in range(size - 1):
            prev = column(k)
            nxt = tuple(
                sum(q.entries[i - 1][j - 1] * prev[j - 1] for j in range(1, size + 1))
                for i in range(1, size + 1)
            )
            assert column(k + 1) == nxt


def test_walk_fixed_values():
    assert walk_matrix_iterative(build_p(2, 4).entries) == (
        (1, 1, 7),
        (1, 3, 17),
        (1, 7, 31),
    )
    assert walk_matrix_iterative(build_q(2, 4).entries) == (
        (1, 1, 4),
        (1, 2, 6),
        (1, 4, 9),
    )
    assert walk_matrix_iterative(build_q(3, 5).entries) == (
        (1, 2, 108, 1000),
        (1, 6, 180, 2200),
        (1, 18, 300, 4840),
        (1, 54, 500, 10648),
    )
    assert walk_matrix_iterative(build_p(3, 5).entries) == (
        (1, 2, 160, 3104),
        (1, 8, 424, 9632),
        (1, 26, 856, 22976),
        (1, 80, 1552, 49088),
    )


def test_closed_forms_agree_with_iteration():
    for kind in KINDS:
        for m in range(2, 6):
            for n in range(2, 10):
                iterative = walk_matrix_iterative(build(kind, m, n).entries)
                assert closed_walk(kind, m, n) == iterative


def test_h_coefficient_values():
    assert h_coefficients(2, 4) == (1, 15)
    assert h_coefficients(3, 4) == (1, 80)
    assert h_coefficients(2, 2) == (1,)
    assert h_coefficients(2, 3) == (1,)


def test_h_coefficients_satisfy_their_recursion():
    # h[0] = 1 and h[j] = F[j+1]^n - sum_r h[r] * F[j-r]^n.
    for m in (2, 3, 4):
        for n in (5, 8):
            h = h_coefficients(m, n)
            f = fib_values(m, n)
            assert h[0] == 1
            for j in range(1, len(h)):
                total = f[j + 1] ** n - sum(h[r] * f[j - r] ** n for r in range(j))
                assert h[j] == total


# === factorization ===

def test_factorization_reassembles_the_walk():
    for kind in KINDS:
        for m in (2, 3, 4):
            for n in range(2, 8):
                fact = factorize_walk(m, n, kind)
                walk = walk_matrix_iterative(build(kind, m, n).entries)
                produced = fact.product()
                for prow, wrow in zip(produced, walk):
                    assert tuple(prow) == wrow


def test_factorization_shapes():
    fact = factorize_walk(2, 5, QuotientKind.P)
    size = 4
    assert len(fact.ratios) == size
    assert len(fact.vandermonde) == size
    assert len(fact.diagonal) == size
    # Vandermonde rows are successive powers of the ratio sequence.
    for r, row in enumerate(fact.vandermonde):
        for c, entry in enumerate(row):
            assert entry == fact.ratios[c] ** r


def test_factorization_unitriangular_parts():
    h = h_coefficients(2, 6)
    fact_p = factorize_walk(2, 6, QuotientKind.P)
    for t, row in enumerate(fact_p.unitriangular):
        for c, entry in enumerate(row):
            if c == t:
                assert entry == 1
            elif c > t:
                assert entry == -h[c - 1 - t]
            else:
                assert entry == 0
    fact_q = factorize_walk(2, 6, QuotientKind.Q)
    identity = tuple(
        tuple(1 if r == c else 0 for c in range(5)) for r in range(5)
    )
    assert fact_q.unitriangular == identity


def test_determinant_formula_and_spot_values():
    assert det_walk_formula(2, 4, QuotientKind.P) == -12
    assert det_walk_formula(2, 4, QuotientKind.Q) == -1
    for kind in KINDS:
        for m in (2, 3, 4):
            for n in range(2, 8):
                walk = walk_matrix_iterative(build(kind, m, n).entries)
                formula = det_walk_formula(m, n, kind)
                assert formula == exact_det(walk)
                assert formula == det_cofactor([list(r) for r in walk])


def test_determinant_splits_into_named_factors():
    # factorize_walk's nodes and diagonal are the oracle's, which reads
    # the Fibonacci values alone, not the package's column weights.
    for kind in KINDS:
        fact = factorize_walk(3, 6, kind)
        nodes, diagonal = walk_factors(3, 6, kind.value)
        assert (list(fact.ratios), list(fact.diagonal)) == (nodes, diagonal)
        assert det_walk_formula(3, 6, kind) == factored_det(nodes, diagonal)


def test_integer_determinant_formula_against_elimination_and_factors():
    # det_walk_formula multiplies integers only; elimination and the
    # oracle's Fraction-valued factors are two independent routes to the
    # same value.
    for kind in KINDS:
        for m in range(2, 10):
            for n in range(2, 13):
                formula = det_walk_formula(m, n, kind)
                assert type(formula) is int
                assert formula == exact_det(
                    walk_matrix_iterative(build(kind, m, n).entries)
                )
                assert formula == factored_det(*walk_factors(m, n, kind.value))


def test_division_free_determinant_against_the_rational_factors_at_scale():
    # The product of the column weights and the homogeneous node
    # differences equals the rational Vandermonde form over a wide grid
    # and at large m and n; at two larger cells the elimination and the
    # closed walk agree with it too.
    cells = [(m, n) for m in range(2, 14) for n in range(2, 25)]
    cells += [(2, 40), (9, 32), (10**6, 20), (2, 63)]
    for kind in KINDS:
        for m, n in cells:
            formula = det_walk_formula(m, n, kind)
            assert formula == factored_det(*walk_factors(m, n, kind.value)), (m, n)
        for m, n in ((9, 24), (2, 32)):
            walk = walk_matrix_iterative(build(kind, m, n).entries)
            assert closed_walk(kind, m, n) == walk
            assert exact_det(walk) == det_walk_formula(m, n, kind)


def test_iterative_walk_entries_are_python_ints():
    # The matvec runs on object arrays; its entries must come back as
    # plain ints, because walk routes compare tuples and JSON str()s them.
    for kind in KINDS:
        for m, n in ((2, 2), (3, 5), (9, 12)):
            walk = walk_matrix_iterative(build(kind, m, n).entries)
            assert all(type(x) is int for row in walk for x in row)
            assert walk == closed_walk(kind, m, n)


# === exact rank and determinant ===

def test_walk_rank_is_order_minus_one_tick():
    for kind in KINDS:
        for m in range(2, 6):
            for n in range(2, 10):
                walk = walk_matrix_iterative(build(kind, m, n).entries)
                assert exact_rank(walk) == n - 1


def test_rank_against_gauss_oracle():
    import random

    rng = random.Random(20240817)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        mat = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        assert exact_rank(mat) == rank_gauss(mat)


def test_rank_handles_degenerate_shapes():
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert exact_rank([[1, 2, 3]]) == 1
    assert exact_rank(np.array([[1, 0], [0, 1]])) == 2
    # Integer matrices only: a Fraction (even an integral one), a float, a
    # bool or a numpy scalar inside an object array is refused.
    for entry in (Fraction(1, 2), Fraction(4, 2), 1.0, True, np.int64(1)):
        for route in (exact_rank, exact_det):
            with pytest.raises(ValueError):
                route([[entry, 0], [0, 1]])
            with pytest.raises(ValueError):
                route(np.array([[entry, 0], [0, 1]], dtype=object))
    for typed in (np.eye(2), np.eye(2, dtype=bool)):
        for route in (exact_rank, exact_det):
            with pytest.raises(ValueError):
                route(typed)


def test_det_against_cofactor_oracle():
    import random

    rng = random.Random(918273)
    for _ in range(20):
        size = rng.randrange(1, 6)
        mat = [[rng.randrange(-5, 6) for _ in range(size)] for _ in range(size)]
        det = exact_det(mat)
        assert type(det) is int
        assert det == det_cofactor(mat)


def test_det_of_singular_and_invalid():
    assert exact_det([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        exact_det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        exact_det([])
    with pytest.raises(ValueError):
        exact_rank([[1, 2], [3]])


def test_det_big_integers_stay_exact():
    big = 10**30
    mat = [[big, 1], [1, big]]
    assert exact_det(mat) == big * big - 1


# === serialization helpers ===

def test_csv_rendering():
    assert matrix_to_csv(build_p(2, 4).entries) == "0,0,1\n0,1,2\n1,3,3\n"
    assert matrix_to_csv([[1, 2], [3, 4]]) == "1,2\n3,4\n"


def test_json_entries_are_strings():
    entries = matrix_json_entries(walk_matrix_iterative(build_q(3, 5).entries))
    assert entries[3][3] == "10648"
    assert matrix_json_entries(build_p(2, 4).entries) == [
        ["0", "0", "1"], ["0", "1", "2"], ["1", "3", "3"]
    ]


def test_json_safe_int_threshold():
    assert json_safe_int(2**53) == 2**53
    assert json_safe_int(-(2**53)) == -(2**53)
    assert json_safe_int(2**53 + 1) == str(2**53 + 1)
    assert json_safe_int(-(2**53) - 1) == str(-(2**53) - 1)
    assert json_safe_int(7) == 7


def test_fib_values_follow_the_recurrence():
    for m in range(2, 10):
        for n in range(2, 33):
            assert fib_values(m, n) == [fib_loop(m, k) for k in range(n + 1)]
