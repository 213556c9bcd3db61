"""Exact arithmetic for a weighted Fibonacci family and its quadratic pair.

The family is F[0] = F[1] = 1 and F[k] = F[k-1] + (m-1)*F[k-2] for an
integer weight m >= 2 (m = 2 gives the classical Fibonacci numbers).
Consecutive-term ratios are exact rationals, and the two roots of
x**2 - x - (m-1) form the pair (phi, xi) with phi + xi = 1 and
phi*xi = -(m-1).  Products of phi and xi are kept as integer pairs
(a, b) meaning a + b*phi.  Everything here is integer or rational
arithmetic; no floats are produced except on explicit conversion.  The
module also holds the package's parameter checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "QuadraticNumber",
    "docagne_residual",
    "fib_values",
    "golden_pair",
    "pair_power",
    "pair_powers",
    "zphi_is_zero",
    "zphi_mul",
    "zphi_to_float",
    "zphi_to_quadratic",
]


def check_integer(value: object, name: str, minimum: int) -> None:
    """Raise ValueError unless value is an int (not a bool) >= minimum."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_params(m: int, n: int, max_n: int | None = None) -> None:
    """The package's one check of a parameter cell: field size m >= 2 and
    tuple length n >= 2, and n <= max_n where graphs store supports as
    machine words."""
    check_integer(m, "field size m", 2)
    check_integer(n, "tuple length n", 2)
    if max_n is not None and n > max_n:
        raise ValueError(
            f"tuple length n must be at most {max_n} "
            f"(supports are machine words), got {n}"
        )


def fib_values(m: int, k: int) -> list[int]:
    """F[0..k] for weight m, by the recurrence F[k] = F[k-1] + (m-1)*F[k-2]."""
    check_integer(m, "weight m", 2)
    check_integer(k, "index k", 0)
    values = [1, 1]
    for _ in range(k - 1):
        values.append(values[-1] + (m - 1) * values[-2])
    return values[: k + 1]


def docagne_residual(m: int, l: int, r: int) -> int:
    """F[l]*F[r+1] - F[l+1]*F[r] - (1-m)**(r+1) * F[l-r-1].

    Zero exactly when the cross-product identity holds.  Requires
    l > r >= 0; the degenerate l == r case is rejected rather than
    silently reported as zero.
    """
    if not isinstance(l, int) or not isinstance(r, int):
        raise ValueError(f"indices must be integers, got l={l!r}, r={r!r}")
    if r < 0 or l <= r:
        raise ValueError(f"need l > r >= 0, got l={l}, r={r}")
    f = fib_values(m, l + 1)
    return f[l] * f[r + 1] - f[l + 1] * f[r] - (1 - m) ** (r + 1) * f[l - r - 1]


@dataclass(frozen=True, eq=False)
class QuadraticNumber:
    """Exact a + b*sqrt(d) with rational a, b and integer d >= 0.

    Values are canonical: when d is a perfect square (or b == 0) the
    number collapses to a plain rational stored as (a, 0, 0), so field
    equality is value equality.  Binary operations require matching d
    unless one operand is rational.
    """

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 0

    def __post_init__(self) -> None:
        a = Fraction(self.a)
        b = Fraction(self.b)
        d = self.d
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise ValueError(f"radicand d must be an integer >= 0, got {d!r}")
        if b == 0:
            d = 0
        else:
            root = math.isqrt(d)
            if root * root == d:
                a += b * root
                b = Fraction(0)
                d = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    # -- predicates and conversions --------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conjugate(self) -> QuadraticNumber:
        return QuadraticNumber(self.a, -self.b, self.d)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(value: object) -> "QuadraticNumber | None":
        if isinstance(value, QuadraticNumber):
            return value
        if isinstance(value, bool):
            return None
        if isinstance(value, (int, Fraction)):
            return QuadraticNumber(Fraction(value))
        return None

    def _common_d(self, other: QuadraticNumber) -> int:
        if self.d == other.d or other.d == 0:
            return self.d
        if self.d == 0:
            return other.d
        raise ValueError(f"mixed radicands: sqrt({self.d}) vs sqrt({other.d})")

    def __add__(self, other: object) -> QuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return QuadraticNumber(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self) -> QuadraticNumber:
        return QuadraticNumber(-self.a, -self.b, self.d)

    def __sub__(self, other: object) -> QuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> QuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> QuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return QuadraticNumber(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadraticNumber:
        # (a + b*sqrt(d))**-1 = (a - b*sqrt(d)) / (a**2 - b**2 * d); the
        # norm only vanishes for the zero value because d is canonical.
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("inverse of zero quadratic number")
        return QuadraticNumber(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other: object) -> QuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> QuadraticNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> QuadraticNumber:
        check_integer(exponent, "exponent", 0)
        result = QuadraticNumber(Fraction(1))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.d) == (o.a, o.b, o.d)

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        root = f"sqrt({self.d})" if self.b.numerator in (1, -1) and self.b.denominator == 1 \
            else f"{abs(self.b)}*sqrt({self.d})"
        sign = "-" if self.b < 0 else "+"
        if self.a == 0:
            return root if self.b > 0 else f"-{root}"
        return f"{self.a} {sign} {root}"

    def __repr__(self) -> str:
        return f"QuadraticNumber(a={self.a!r}, b={self.b!r}, d={self.d})"


def golden_pair(m: int) -> tuple[QuadraticNumber, QuadraticNumber]:
    """The roots (phi, xi) of x**2 - x - (m-1), exactly.

    phi = (1 + sqrt(4m-3))/2 and xi = (1 - sqrt(4m-3))/2 = -(m-1)/phi, so
    phi + xi == 1 and phi*xi == -(m-1).  Both collapse to plain rationals
    whenever 4m-3 is a perfect square (for example m = 3 gives (2, -1)).
    """
    check_integer(m, "weight m", 2)
    d = 4 * m - 3
    half = Fraction(1, 2)
    return QuadraticNumber(half, half, d), QuadraticNumber(half, -half, d)


# -- integers of Z[phi] -------------------------------------------------------
#
# phi and xi are algebraic integers: phi**2 = phi + (m-1) and xi = 1 - phi.
# So every product of them is a + b*phi with integers a, b, held as the
# pair (a, b); sums are componentwise and only products need the rule
# below.  When 4m-3 is a perfect square phi is an integer and distinct
# pairs can name the same number, so test values with zphi_is_zero (or
# compare them through zphi_to_quadratic), never pairs.


def zphi_mul(m: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a + b*phi)(c + d*phi) = (ac + (m-1)bd) + (ad + bc + bd)*phi."""
    a, b = x
    c, d = y
    bd = b * d
    return a * c + (m - 1) * bd, a * d + b * c + bd


def pair_power(m: int, i: int, j: int) -> tuple[int, int]:
    """phi**i * xi**j as the integer pair (a, b) meaning a + b*phi."""
    check_integer(m, "weight m", 2)
    check_integer(i, "exponent", 0)
    check_integer(j, "exponent", 0)
    value = (1, 0)
    for _ in range(i):
        value = zphi_mul(m, value, (0, 1))
    for _ in range(j):
        value = zphi_mul(m, value, (1, -1))
    return value


def pair_powers(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """pair_power(m, i, n - i) for i = 1..n-1, from the powers of phi and
    xi up to n - 1: 3(n - 1) products in all instead of n per index."""
    check_integer(m, "weight m", 2)
    check_integer(n, "exponent", 0)
    phi, xi = [(1, 0)], [(1, 0)]
    for _ in range(n - 1):
        phi.append(zphi_mul(m, phi[-1], (0, 1)))
        xi.append(zphi_mul(m, xi[-1], (1, -1)))
    return tuple(zphi_mul(m, phi[i], xi[n - i]) for i in range(1, n))


def zphi_is_zero(m: int, x: tuple[int, int]) -> bool:
    """Whether a + b*phi is zero, in integers.

    2(a + b*phi) = 2a + b + b*sqrt(4m-3); when 4m-3 = r**2 that is the
    integer 2a + b + b*r, otherwise sqrt(4m-3) is irrational and the
    value vanishes only for a = b = 0.
    """
    a, b = x
    d = 4 * m - 3
    r = math.isqrt(d)
    if r * r == d:
        return 2 * a + b + b * r == 0
    return a == 0 and b == 0


def zphi_to_float(m: int, x: tuple[int, int]) -> float:
    """float(zphi_to_quadratic(m, x)), bit for bit, without building it.

    Both take the canonical a' + b'*sqrt(4m-3) with a' = (2a + b)/2 and
    b' = b/2 (folded into a' when 4m-3 = r**2) and make the same
    correctly rounded operations: int/int true division, one sqrt, one
    product and one sum.
    """
    a, b = x
    d = 4 * m - 3
    r = math.isqrt(d)
    if b == 0 or r * r == d:
        return (2 * a + b + b * r) / 2
    return (2 * a + b) / 2 + (b / 2) * math.sqrt(d)


def zphi_to_quadratic(m: int, x: tuple[int, int]) -> QuadraticNumber:
    """a + b*phi in canonical a' + b'*sqrt(4m-3) form, phi = (1 + sqrt(4m-3))/2."""
    a, b = x
    return QuadraticNumber(Fraction(2 * a + b, 2), Fraction(b, 2), 4 * m - 3)
