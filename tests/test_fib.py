"""Weighted Fibonacci sequence, ratios, identities, quadratic arithmetic."""

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from zdspectra.fib import (
    QuadraticNumber,
    docagne_residual,
    fib_values,
    golden_pair,
    pair_powers,
    zphi_mul,
    zphi_to_float,
    zphi_to_quadratic,
)

from oracles import fib_loop, pair_power


def ratios(m, count):
    """gamma[0..count-1], gamma[k] = F[k+1]/F[k], as exact fractions."""
    f = fib_values(m, count)
    return [Fraction(f[k + 1], f[k]) for k in range(count)]


# === sequence values ===

def test_seeds_and_classical_case():
    assert fib_values(2, 6) == [1, 1, 2, 3, 5, 8, 13]


def test_weight_three_values():
    assert fib_values(3, 6) == [1, 1, 3, 5, 11, 21, 43]


@pytest.mark.parametrize("m", range(2, 13))
def test_matches_loop_oracle(m):
    values = fib_values(m, 60)
    for k in range(61):
        assert values[k] == fib_loop(m, k)


def test_recurrence_holds_directly():
    for m in (2, 5, 10):
        values = fib_values(m, 49)
        for k in range(2, 50):
            assert values[k] == values[k - 1] + (m - 1) * values[k - 2]


def test_values_positive_and_eventually_increasing():
    for m in range(2, 8):
        values = fib_values(m, 39)
        assert all(v > 0 for v in values)
        assert all(b >= a for a, b in zip(values[1:], values[2:]))


def test_shorter_runs_are_prefixes():
    high = fib_values(4, 30)
    assert len(high) == 31
    for k in range(31):
        assert fib_values(4, k) == high[: k + 1]
    assert high[5] == fib_loop(4, 5)


def test_input_validation():
    with pytest.raises(ValueError, match="weight m must be an integer >= 2, got 1"):
        fib_values(1, 3)
    with pytest.raises(ValueError):
        fib_values(2.0, 3)
    with pytest.raises(ValueError):
        fib_values(True, 3)
    with pytest.raises(ValueError):
        fib_values(3, -1)
    with pytest.raises(ValueError):
        fib_values(3, 1.5)


# === ratios ===

def test_ratio_values():
    assert ratios(2, 3)[0] == 1
    assert ratios(2, 3)[2] == Fraction(3, 2)
    assert ratios(3, 4)[2] == Fraction(5, 3)
    assert ratios(3, 4)[3] == Fraction(11, 5)


def test_ratio_is_exact_quotient():
    for m in (2, 4, 7):
        for k, ratio in enumerate(ratios(m, 30)):
            assert ratio == Fraction(fib_loop(m, k + 1), fib_loop(m, k))


@pytest.mark.parametrize("m", range(2, 11))
def test_ratios_pairwise_distinct(m):
    values = ratios(m, 41)
    assert len(set(values)) == len(values)


# === cross-product identity ===

def test_residual_vanishes_on_small_grid():
    for m in range(2, 8):
        for l in range(1, 15):
            for r in range(l):
                assert docagne_residual(m, l, r) == 0


def test_residual_spot_check_by_hand():
    # m=3, l=3, r=1: F3*F2 - F4*F1 = 5*3 - 11*1 = 4 and (1-3)^2 * F1 = 4.
    f = fib_values(3, 4)
    lhs = f[3] * f[2] - f[4] * f[1]
    assert lhs == (1 - 3) ** 2 * f[1]
    assert docagne_residual(3, 3, 1) == 0


def test_residual_rejects_bad_indices():
    with pytest.raises(ValueError):
        docagne_residual(3, 2, 2)
    with pytest.raises(ValueError):
        docagne_residual(3, 1, -1)
    with pytest.raises(ValueError):
        docagne_residual(3, 0, 0)
    with pytest.raises(ValueError):
        docagne_residual(3, 2.0, 1)
    # bools are ints to isinstance, but not indices
    with pytest.raises(ValueError):
        docagne_residual(3, True, 0)
    with pytest.raises(ValueError):
        docagne_residual(3, 2, False)


# === quadratic numbers ===

def test_perfect_square_radicand_collapses():
    q = QuadraticNumber(Fraction(1), Fraction(2), 9)
    assert q.is_rational
    assert q == 7
    assert QuadraticNumber(Fraction(1, 2), Fraction(0), 5).is_rational


def test_rejects_bad_radicand():
    with pytest.raises(ValueError):
        QuadraticNumber(Fraction(1), Fraction(1), -2)
    with pytest.raises(ValueError):
        QuadraticNumber(Fraction(1), Fraction(1), True)


def test_mixed_radicands_rejected():
    a = QuadraticNumber(Fraction(0), Fraction(1), 5)
    b = QuadraticNumber(Fraction(0), Fraction(1), 21)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_rational_operand_mixes_with_any_radicand():
    root5 = QuadraticNumber(Fraction(0), Fraction(1), 5)
    assert (root5 + 2) - 2 == root5
    assert 3 * root5 == QuadraticNumber(Fraction(0), Fraction(3), 5)
    assert root5 * root5 == 5


def test_field_identities():
    x = QuadraticNumber(Fraction(3, 2), Fraction(-1, 3), 7)
    y = QuadraticNumber(Fraction(-2), Fraction(5), 7)
    z = QuadraticNumber(Fraction(1, 4), Fraction(1), 7)
    assert (x + y) * z == x * z + y * z
    assert x * x.inverse() == 1
    assert (x / y) * y == x
    assert x - x == 0
    assert -x + x == 0


def test_conjugate_norm_is_rational():
    x = QuadraticNumber(Fraction(3), Fraction(2), 5)
    norm = x * x.conjugate()
    assert norm.is_rational
    assert norm == 9 - 4 * 5


def test_powers():
    x = QuadraticNumber(Fraction(1), Fraction(1), 2)
    assert x**0 == 1
    assert x**1 == x
    assert x**2 == x * x
    assert x**5 == x * x * x * x * x
    with pytest.raises(ValueError):
        x**-1
    with pytest.raises(ValueError):
        x**0.5


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        QuadraticNumber(Fraction(0)).inverse()


def test_float_and_str_forms():
    x = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)
    assert abs(float(x) - (1 + 5**0.5) / 2) < 1e-15
    assert "sqrt(5)" in str(x)
    assert str(QuadraticNumber(Fraction(7, 3))) == "7/3"


def test_equality_and_hash_against_rationals():
    assert QuadraticNumber(Fraction(2)) == 2
    assert QuadraticNumber(Fraction(1, 3)) == Fraction(1, 3)
    assert hash(QuadraticNumber(Fraction(2))) == hash(
        QuadraticNumber(Fraction(2), Fraction(0), 11)
    )
    assert QuadraticNumber(Fraction(0), Fraction(1), 5) != QuadraticNumber(
        Fraction(0), Fraction(1), 6
    )


# === golden pair ===

@pytest.mark.parametrize("m", range(2, 13))
def test_pair_solves_the_quadratic(m):
    phi, xi = golden_pair(m)
    assert phi * phi - phi - (m - 1) == 0
    assert xi * xi - xi - (m - 1) == 0
    assert phi + xi == 1
    assert phi * xi == -(m - 1)


def test_pair_classical_value():
    phi, xi = golden_pair(2)
    assert abs(float(phi) - (1 + 5**0.5) / 2) < 1e-15
    assert abs(float(xi) - (1 - 5**0.5) / 2) < 1e-15
    assert not phi.is_rational


def test_pair_rational_collapse():
    phi, xi = golden_pair(3)
    assert phi.is_rational and xi.is_rational
    assert phi == 2
    assert xi == -1


@pytest.mark.parametrize("m", range(2, 10))
def test_pair_power_matches_quadratic_powers(m):
    # m = 3 and m = 7 have perfect-square radicands (9 and 25), where phi
    # is an integer and the pair (a, b) is not unique.
    phi, xi = golden_pair(m)
    for i in range(8):
        for j in range(8):
            assert zphi_to_quadratic(m, pair_power(m, i, j)) == phi**i * xi**j, (i, j)


@pytest.mark.parametrize("m", [*range(2, 14), 10**6])
def test_pair_powers_table_matches_pair_power(m):
    for n in range(2, 41) if m < 14 else (50,):
        assert pair_powers(m, n) == tuple(pair_power(m, i, n - i) for i in range(1, n)), n
    assert pair_powers(m, 1) == pair_powers(m, 0) == ()
    with pytest.raises(ValueError):
        pair_powers(m, -1)


def test_zphi_arithmetic():
    assert zphi_mul(2, (0, 1), (0, 1)) == (1, 1)  # phi**2 = 1 + phi
    assert zphi_mul(4, (0, 1), (1, -1)) == (-3, 0)  # phi * xi = -(m-1)
    assert pair_power(5, 0, 0) == (1, 0)
    assert zphi_to_quadratic(3, (2, -1)).is_zero  # 2 - phi, phi = 2
    assert not zphi_to_quadratic(2, (2, -1)).is_zero


@pytest.mark.parametrize("m", [*range(2, 14), 10**6])
def test_pair_power_floats_against_a_decimal_reference(m):
    # a + b*phi = (2a + b + b*sqrt(4m-3)) / 2 at 400 digits.  At m = 2 the
    # small pair powers are differences of two terms some 10**26 times
    # larger, and at m = 10**6, n = 52 the norm (1 - m)**n is past the
    # float range while the value is not.
    with localcontext() as ctx:
        ctx.prec = 400
        root = Decimal(4 * m - 3).sqrt()
        for n in range(2, 64) if m < 14 else (50, 52, 63):
            for i, (a, b) in enumerate(pair_powers(m, n), start=1):
                exact = (2 * a + b + b * root) / 2
                got = zphi_to_float(m, (a, b))
                assert abs(Decimal(got) - exact) <= Decimal("1e-15") * abs(exact), (
                    n, i, got, exact)


def test_ratio_limit_approaches_phi():
    # gamma[k] converges to the positive root; check the gap shrinks.
    phi = float(golden_pair(5)[0])
    gamma = ratios(5, 61)
    gaps = [abs(float(gamma[k]) - phi) for k in (5, 15, 30, 60)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-10
