"""Spectral checks: dense eigensolving, main-eigenvalue classification,
Krylov ranks, and comparison of graph spectra against their predictions.

Dense symmetric matrices are decomposed by LAPACK through
numpy.linalg.eigh, and an equitable quotient through the symmetric
matrix it is similar to.  A dense matrix is first reduced by exact row
equality: twin vertices have equal adjacency rows, each class of c equal
rows adds c - 1 exact zero eigenvalues with no main component, and the
rest of the spectrum is that of a symmetric matrix of the order of the
number of distinct rows (see classify_main for why this is exact).  The
classes come from the matrix's bytes, never from the graph's supports,
so the dense route stays independent of the lattice route.  Computed
eigenvalues are merged into groups by a
gap rule, each group is flagged as main or not by projecting the
normalized all-ones vector onto its eigenspace (a quantity that does
not depend on the basis chosen inside the eigenspace), and a dead band
around the decision threshold is reported as ambiguous rather than
silently resolved.  Exact routes run beside the floating ones: Krylov
ranks over the integers and annihilation of the quadratic pair powers.
The pair powers are algebraic integers a + b*phi, so annihilation runs
in integer Z[phi] arithmetic on the quotient's integer characteristic
polynomial (Berkowitz's division-free algorithm), and each determinant
is tested for zero in integers.  Values become QuadraticNumbers only
for a failing check's detail; predicted floats are read straight off
the integer pairs, once per cell.  A graph's Krylov rank never forms
the adjacency matrix; only the dense eigensolve does.  It is the exact
rank of the (n - 1) x (n - 1) walk matrix of the graph's equitable
quotient (see krylov_rank for why), and None for a graph whose
zero-count partition is not equitable.

A cell's exact data is built once, by predicted_spectrum: the quotients
P and Q of the full graph and of the two-sided subgraph, P's spectrum,
the pair powers, whose negations are Q's spectrum, and each graph's
whole predicted spectrum as one tuple of (value, multiplicity, main,
exact) groups.  PredictedSpectrum.groups returns that tuple; each
graph's dense spectrum is decided alone against it, so no verdict on
one graph reads the other's report, and the command line prints the
same tuple as that graph's predicted spectrum.  Each spectral claim has
one path, a public function that returns one graph's checks in report
order: verify_spectrum_theorem the full graph's,
verify_main_correspondences the two-sided subgraph's (both one call of
the same group check) and q_eigen_exact_check the exact annihilation of
Q.  The command-line battery calls these same functions, and decides
each graph's Krylov check itself.  Only eigen_bundle and krylov_rank
read a graph; this module never builds one, so the size caps live with
the builders and the command line.  Every threshold of a floating-point
verdict (value matching, grouping, main classification) is one module
constant below, read when a check runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fib import (
    pair_powers,
    zphi_is_zero,
    zphi_mul,
    zphi_to_float,
    zphi_to_quadratic,
)
from .graph import adjacency_matrix, vertex_count
from .quotient import (
    QuotientMatrix,
    build_p,
    build_q,
    exact_rank,
    walk_matrix_iterative,
)

__all__ = [
    "MATCH",
    "GROUPING_GAP",
    "GROUPING_GAP_REL",
    "PROJECTION_THRESHOLD",
    "DEAD_BAND_FACTOR",
    "ROLE_TAGS",
    "AmbiguousClassification",
    "EigenvalueGroup",
    "SpectralReport",
    "CheckResult",
    "VerificationReport",
    "PredictedSpectrum",
    "symmetric_eigen",
    "classify_main",
    "krylov_rank",
    "quotient_eigenvalues",
    "predicted_spectrum",
    "eigen_bundle",
    "verify_spectrum_theorem",
    "verify_main_correspondences",
    "q_eigen_exact_check",
]

# Numeric policy for the floating-point spectral pipeline: the one place
# each threshold of a floating-point verdict is set.

# A computed eigenvalue matches its prediction when they differ by at
# most MATCH.
MATCH = 1e-8
# Computed eigenvalues closer than max(GROUPING_GAP,
# GROUPING_GAP_REL * ||A||_F) are merged into one group.
GROUPING_GAP = 1e-8
GROUPING_GAP_REL = 1e-9
# A group is main when the all-ones projection norm exceeds
# PROJECTION_THRESHOLD; norms inside
# [DEAD_BAND_FACTOR * threshold, threshold] raise.
PROJECTION_THRESHOLD = 1e-7
DEAD_BAND_FACTOR = 0.1

# The tag that names each graph in its check names.
ROLE_TAGS = {"full": "full graph", "bipartite": "bipartite subgraph"}


class AmbiguousClassification(Exception):
    """A projection norm landed inside the main/non-main dead band."""

    def __init__(self, value: float, projection: float, low: float, high: float) -> None:
        super().__init__(
            f"projection norm {projection:.3e} for eigenvalue {value:.12g} "
            f"lies inside the dead band [{low:.3e}, {high:.3e}]"
        )
        self.value = value
        self.projection = projection
        self.band = (low, high)


# -- eigensolver ------------------------------------------------------------


def _square(matrix: object, dtype: type | None = None) -> np.ndarray:
    """The matrix as a C-contiguous array, checked square and non-empty."""
    A = np.ascontiguousarray(matrix, dtype=dtype)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
    return A


def symmetric_eigen(matrix: object) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of an exactly symmetric matrix.

    Returns (w, V) with eigenvalues w ascending and orthonormal
    eigenvectors in the columns of V, from LAPACK's symmetric solver
    through numpy.linalg.eigh, which already sorts w ascending.
    Deterministic for fixed input.  classify_main calls it once, on the
    matrix reduced to its distinct rows, so for a graph the order solved
    is the number of twin classes, not the vertex count.
    """
    A = _square(matrix, np.float64)
    if not np.array_equal(A, A.T):
        raise ValueError("matrix must be exactly symmetric")
    return np.linalg.eigh(A)


# -- classification ---------------------------------------------------------


@dataclass(frozen=True)
class EigenvalueGroup:
    value: float
    multiplicity: int
    projection: float
    is_main: bool


@dataclass(frozen=True)
class SpectralReport:
    """Grouped eigenvalues of one graph with main flags."""

    groups: tuple[EigenvalueGroup, ...]

    def main_values(self) -> tuple[float, ...]:
        return tuple(g.value for g in self.groups if g.is_main)

    @property
    def total_multiplicity(self) -> int:
        return sum(g.multiplicity for g in self.groups)

    def eigenvalue_json_entries(self) -> list[dict]:
        return [
            {"value": g.value, "multiplicity": g.multiplicity, "main": g.is_main}
            for g in self.groups
        ]


def _group_bounds(w: np.ndarray, gap: float) -> list[tuple[int, int]]:
    """[start, stop) of each run of ascending w with steps below `gap`."""
    cuts = [0, *(np.flatnonzero(np.diff(w) >= gap) + 1).tolist(), len(w)]
    return list(zip(cuts, cuts[1:]))


def _row_classes(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first row index and the size of each class of byte-identical
    rows of a C-contiguous matrix, classes numbered in first-row order,
    and each row's class.  Each row is one np.void item, so np.unique
    compares whole rows as bytes."""
    rows = A.view(np.dtype((np.void, A.itemsize * A.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        rows, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    return first[order], counts[order], np.argsort(order)[inverse]


def classify_main(matrix: object) -> SpectralReport:
    """Group the spectrum of a symmetric matrix and flag main eigenvalues.

    The matrix A of order N is reduced by exact row equality before it is
    eigensolved.  Let the k classes of byte-identical rows have sizes c,
    representatives r and indicator matrix E.  Rows i and j in one class
    are equal, so by symmetry their columns are too: A(e_i - e_j) = 0,
    and e_i - e_j is orthogonal to the all-ones vector.  These vectors
    span the orthogonal complement of range(E), so A is zero there: N - k
    eigenvalues are exactly 0 with exactly zero main projection.  On the
    orthonormal basis U = E D^-1/2 of range(E), D = diag(c), A acts as
    S = A[r, r] * sqrt(c c^T), so A = U S U^T.  S is solved instead of A,
    with the square root taken of the integer outer product so that S is
    exactly symmetric, and its eigenvectors Y give main projections
    |Y^T sqrt(c)| / sqrt(N).  Its Frobenius norm is A's.  When every row
    is distinct, S is A.  The classes come from A's bytes alone, so the
    reduction holds for any real symmetric matrix and assumes nothing of
    where A came from; equal values with different bytes (0.0 and -0.0)
    only leave two classes that could have been one.

    Symmetry is decided exactly, in A's own dtype so that no integer is
    rounded.  With every row distinct A is compared with its transpose.
    Else, in O(kN), each representative row R = A[r] must be constant on
    every class of columns and B = A[r, r] must be symmetric; then, with
    c(i) the class of row i, A[i, j] = R[c(i), j] = B[c(i), c(j)] =
    B[c(j), c(i)] = R[c(j), i] = A[j, i].

    Computed eigenvalues closer than max(GROUPING_GAP, GROUPING_GAP_REL *
    ||A||_F) merge into one group.  A group is main when the normalized
    all-ones vector has projection norm above the threshold on its
    eigenspace; norms inside the dead band raise AmbiguousClassification.
    """
    A = _square(matrix)
    n = len(A)
    first, counts, row_class = _row_classes(A)
    if len(first) == n:
        symmetric = np.array_equal(A, A.T)
        S = A.astype(np.float64)
    else:
        R = A[first]
        B = R[:, first]
        symmetric = np.array_equal(R, R[:, first[row_class]]) and np.array_equal(B, B.T)
        S = B.astype(np.float64) * np.sqrt(np.outer(counts, counts))
    if not symmetric:
        raise ValueError("matrix must be exactly symmetric")
    w, Y = symmetric_eigen(S)
    coeff = Y.T @ (np.sqrt(counts) / math.sqrt(n))
    zero = np.searchsorted(w, 0.0)
    w = np.insert(w, zero, np.zeros(n - len(w)))
    coeff = np.insert(coeff, zero, np.zeros(n - len(coeff)))
    gap = max(GROUPING_GAP, GROUPING_GAP_REL * float(np.linalg.norm(S)))
    high = PROJECTION_THRESHOLD
    low = DEAD_BAND_FACTOR * high
    groups = []
    for a, b in _group_bounds(w, gap):
        projection = float(math.sqrt(float(np.sum(coeff[a:b] ** 2))))
        value = float(np.mean(w[a:b]))
        if low <= projection <= high:
            raise AmbiguousClassification(value, projection, low, high)
        groups.append(EigenvalueGroup(value, b - a, projection, projection > high))
    report = SpectralReport(tuple(groups))
    if report.total_multiplicity != n:
        raise ArithmeticError(
            f"group multiplicities total {report.total_multiplicity}, order is {n}"
        )
    if not any(g.is_main for g in groups):
        raise RuntimeError("every graph has a main eigenvalue")
    return report


# -- exact Krylov rank ------------------------------------------------------


def krylov_rank(graph: object) -> int | None:
    """Rank of [e, Ae, A**2 e, ...] over the rationals, exactly, for the
    adjacency matrix A of a graph: its number of main eigenvalues.  A is
    never formed.

    The rank is the exact rank of the walk matrix [1, B1, ..., B**(n-2) 1]
    of the graph's equitable quotient B (`graph.equitable_quotient`,
    decided once per graph).  Let E be the vertex-by-cell indicator
    matrix.  The equitability check establishes A E = E B, and e = E 1, so
    A**k e = E B**k 1 for every k.  No cell is empty, so E has full
    column rank and the Krylov matrix of A has the rank of the walk
    matrix of B.  By Cayley-Hamilton, B**k 1 for k >= n - 1 lies in the
    span of the first n - 1 columns, so those n - 1 columns suffice.

    Returns None when the zero-count partition is not equitable with its
    n - 1 cells filled.  Every built graph's partition is; only hand-made
    or faulty coordinates reach None, which fails any comparison with
    n - 1.
    """
    quotient = graph.equitable_quotient
    return None if quotient is None else exact_rank(walk_matrix_iterative(quotient))


# -- predictions ------------------------------------------------------------


def quotient_eigenvalues(quotient: QuotientMatrix) -> tuple[float, ...]:
    """Ascending eigenvalues of an equitable quotient B.

    Precondition: B is balanced, c_i * B[i][j] == c_j * B[j][i] for the
    cell sizes c, as every equitable quotient is.  Then D^1/2 B D^-1/2,
    with D = diag(c), is symmetric with entries sqrt(B[i][j] * B[j][i])
    and has B's spectrum, so one symmetric eigensolve gives it.  The
    product of the entrywise roots is exactly symmetric (floating-point
    multiplication commutes) and cannot overflow where B[i][j] * B[j][i]
    would.  Entries beyond the float range raise ValueError.
    """
    try:
        entries = np.array(quotient.entries, dtype=np.float64)
    except OverflowError:
        raise ValueError(
            f"quotient {quotient.kind.value} for m={quotient.m}, n={quotient.n} "
            f"has entries beyond the float range (max {np.finfo(np.float64).max:.3e})"
        ) from None
    r = np.sqrt(entries)
    return tuple(np.linalg.eigvalsh(r * r.T).tolist())


# (value, multiplicity, main, exact): one group of a predicted spectrum.
PredictedGroup = tuple[float, int, bool, str | None]


@dataclass(frozen=True)
class PredictedSpectrum:
    """The exact data of one (m, n) cell and the spectra predicted from it.

    `p` is the full graph's equitable quotient and `q` the two-sided
    subgraph's; `p_eigenvalues` is P's ascending spectrum and `pairs` the
    pair powers phi**i * xi**(n-i), i = 1..n-1, as Z[phi] pairs (a, b)
    meaning a + b*phi.  `full` and `bipartite` are each graph's predicted
    spectrum as (value, multiplicity, main, exact) groups sorted by value:
    `exact` is "phi^i*xi^j" or "-phi^i*xi^j" (j = n - i) for a signed pair
    power, "0" for the zero block, and None for an eigenvalue of P, which
    has no closed form.  The full graph's is P's eigenvalues once each and
    main, the pair powers with multiplicity C(n, i) - 1 and not main, and
    zero for the remainder: its multiplicity is derived from the counting
    identity (vertex count minus everything else), which simplifies to
    m**n - (m-1)**n - 2**n + 1 and vanishes exactly when m = 2.  The
    subgraph's is -phi**i * xi**(n-i), main, and +phi**i * xi**(n-i), not
    main, each with multiplicity C(n-2, i-1), and zero with multiplicity
    2(m-1)m**(n-2) - 2**(n-1), none when m = 2.  Q's spectrum, the
    subgraph's main values, is the n - 1 negated pair powers, pairwise
    distinct, each proved a root of Q's characteristic polynomial by
    q_eigen_exact_check.  Each graph's groups are compared with its own
    dense spectrum alone, and the report prints them as its `predicted`.
    """

    m: int
    n: int
    p: QuotientMatrix
    q: QuotientMatrix
    p_eigenvalues: tuple[float, ...]
    pairs: tuple[tuple[int, int], ...]
    full: tuple[PredictedGroup, ...]
    bipartite: tuple[PredictedGroup, ...]

    @property
    def q_eigenvalues(self) -> tuple[float, ...]:
        """Q's ascending spectrum, the subgraph's main values."""
        return tuple(value for value, _, main, _ in self.bipartite if main)

    def groups(self, role: str) -> tuple[PredictedGroup, ...]:
        """The predicted spectrum of the full graph ("full") or the
        two-sided subgraph ("bipartite")."""
        if role not in ROLE_TAGS:
            raise ValueError(f"role must be 'full' or 'bipartite', got {role!r}")
        return self.full if role == "full" else self.bipartite


def predicted_spectrum(m: int, n: int) -> PredictedSpectrum:
    """Build P, Q, P's spectrum and the pair powers for (m, n), once each,
    and assemble the predicted groups of both graphs; each graph's
    predicted multiplicities must total its vertex count."""
    p = build_p(m, n)
    p_values = quotient_eigenvalues(p)
    pairs = pair_powers(m, n)
    full: list[PredictedGroup] = [(value, 1, True, None) for value in p_values]
    bipartite: list[PredictedGroup] = []
    for i, pair in enumerate(pairs, start=1):
        value, power = zphi_to_float(m, pair), f"phi^{i}*xi^{n - i}"
        full.append((value, math.comb(n, i) - 1, False, power))
        mult = math.comb(n - 2, i - 1)
        bipartite += [(-value, mult, True, "-" + power), (value, mult, False, power)]
    for role, groups, zero in (
        ("full", full, m**n - (m - 1) ** n - 2**n + 1),
        ("bipartite", bipartite, 2 * (m - 1) * m ** (n - 2) - 2 ** (n - 1)),
    ):
        if zero:
            groups.append((0.0, zero, False, "0"))
        groups.sort(key=lambda group: group[0])
        total, count = sum(g[1] for g in groups), vertex_count(m, n, role)
        if total != count:
            raise ArithmeticError(
                f"predicted {ROLE_TAGS[role]} multiplicities total {total}, "
                f"vertex count is {count}"
            )
    return PredictedSpectrum(
        m, n, p, build_q(m, n), p_values, pairs, tuple(full), tuple(bipartite)
    )


# -- verification reports ---------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float | None = None
    detail: str = ""

    def json_entry(self) -> dict:
        return {"name": self.name, "pass": self.passed, "residual": self.residual}


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def eigen_bundle(graph: object) -> SpectralReport:
    """Classify a graph's dense spectrum: its int8 adjacency matrix goes
    to classify_main as it is, which eigensolves it on its distinct rows
    only (twin vertices have equal rows), and the report is reused across
    checks."""
    return classify_main(adjacency_matrix(graph))


def _verify_groups(
    prediction: PredictedSpectrum, role: str, report: SpectralReport
) -> VerificationReport:
    """One graph's dense spectrum against its predicted groups, in report
    order: the distinct eigenvalue count; when it matches, one check per
    predicted group (value within MATCH, exactly the predicted
    multiplicity and main flag); then the main count against n-1.  Check
    names carry the graph's tag from ROLE_TAGS.
    """
    tag, tolerance = ROLE_TAGS[role], MATCH
    predicted = prediction.groups(role)
    spacing = min(
        (b[0] - a[0] for a, b in zip(predicted, predicted[1:])), default=math.inf
    )
    if spacing <= 2 * tolerance:
        raise ArithmeticError(
            f"predicted eigenvalues only {spacing:.3e} apart; "
            f"cannot match at tolerance {tolerance:.3e}"
        )
    computed = report.groups
    checks = [
        CheckResult(
            f"distinct eigenvalue count ({tag})",
            len(computed) == len(predicted),
            None,
            f"computed {len(computed)}, predicted {len(predicted)}",
        )
    ]
    if len(computed) == len(predicted):
        for (value, mult, main, _), group in zip(predicted, computed):
            residual = abs(group.value - value)
            want = "main" if main else "non-main"
            got = "main" if group.is_main else "non-main"
            checks.append(
                CheckResult(
                    f"eigenvalue {value:.12g} x{mult} {want} ({tag})",
                    residual <= tolerance
                    and group.multiplicity == mult
                    and group.is_main == main,
                    residual,
                    f"computed {group.value:.12g} x{group.multiplicity} {got}",
                )
            )
    mains, n = len(report.main_values()), prediction.n
    checks.append(
        CheckResult(
            f"main count equals n-1 ({tag})",
            mains == n - 1,
            None,
            f"{mains} main vs {n - 1}",
        )
    )
    return VerificationReport(tuple(checks))


def verify_spectrum_theorem(
    prediction: PredictedSpectrum, full: SpectralReport
) -> VerificationReport:
    """The full graph's dense spectral checks (see _verify_groups)."""
    return _verify_groups(prediction, "full", full)


def verify_main_correspondences(
    prediction: PredictedSpectrum, bipartite: SpectralReport
) -> VerificationReport:
    """The two-sided subgraph's dense spectral checks (see _verify_groups):
    its main values against Q's spectrum, its non-main values against the
    pair powers, its multiplicities and its zero block."""
    return _verify_groups(prediction, "bipartite", bipartite)


# -- exact annihilation -----------------------------------------------------


def _char_poly(rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """Coefficients c[0..r] of det(x I - M) = sum c[k] x**k for a square
    integer matrix M of order r, by Berkowitz's division-free algorithm
    (S. J. Berkowitz, Inf. Process. Lett. 18 (1984)).

    The polynomial grows one leading principal block at a time.  Bordering
    the block B of order k by the row R, the column C and the corner a
    multiplies its coefficient vector (highest degree first) by the lower
    triangular Toeplitz matrix whose first column is
    [1, -a, -R C, -R B C, ..., -R B**(k-1) C].  Only ring operations
    occur, and each product is one dot on object-dtype arrays of Python
    ints, so the result is exact at any size; a fixed-width dtype would
    overflow silently.
    """
    matrix = np.array(rows, dtype=object)
    poly = np.ones(1, dtype=object)
    for k in range(len(matrix)):
        block, row, col = matrix[:k, :k], matrix[k, :k], matrix[:k, k]
        toeplitz = [1, -matrix[k, k]]
        for _ in range(k):
            toeplitz.append(-row.dot(col))
            col = block.dot(col)
        poly = np.convolve(np.array(toeplitz, dtype=object), poly)[: k + 2]
    return poly[::-1].tolist()


def _det_shifted(m: int, coeffs: list[int], value: tuple[int, int]) -> tuple[int, int]:
    """det(M + value I) for value in Z[phi], from the characteristic
    polynomial coefficients of M: it is (-1)**r * chi_M(-value), evaluated
    by Horner in Z[phi]."""
    order = len(coeffs) - 1
    x = (-value[0], -value[1])
    acc = (coeffs[order], 0)
    for c in reversed(coeffs[:order]):
        a, b = zphi_mul(m, acc, x)
        acc = (a + c, b)
    return acc if order % 2 == 0 else (-acc[0], -acc[1])


def q_eigen_exact_check(prediction: PredictedSpectrum) -> VerificationReport:
    """Exactly verify that every pair power phi**i * xi**(n-i) annihilates
    the bipartite quotient: det(Q + value * I) == 0, for the quotient
    `prediction.q` and the pairs in `prediction.pairs`, i = position + 1.

    The pair powers are algebraic integers a + b*phi, so the check runs in
    integer Z[phi] arithmetic: the integer characteristic polynomial of Q
    is computed once, then evaluated at each negated pair power, and each
    determinant is tested for zero in integers (fib.zphi_is_zero).  A
    passing check carries residual 0.0 and no detail; values become
    QuadraticNumbers only for the report of a failing one.  Returns one
    check per index i; a failing check carries the exact determinant in
    its detail.
    """
    m = prediction.m
    coeffs = _char_poly(prediction.q.entries)
    checks = []
    for i, pair in enumerate(prediction.pairs, start=1):
        name = f"pair power i={i} annihilates the bipartite quotient"
        det = _det_shifted(m, coeffs, pair)
        if zphi_is_zero(m, det):
            checks.append(CheckResult(name, True, 0.0))
            continue
        exact = zphi_to_quadratic(m, det)
        checks.append(
            CheckResult(
                name,
                False,
                abs(float(exact)),
                f"det(Q + ({zphi_to_quadratic(m, pair)}) I) = {exact}",
            )
        )
    return VerificationReport(tuple(checks))
