"""Spectral checks: dense eigensolving, main-eigenvalue classification,
Krylov ranks, and comparison of graph spectra against their predictions.

Dense symmetric matrices are decomposed by LAPACK through
numpy.linalg.eigh, and an equitable quotient through the symmetric
matrix it is similar to.  Computed eigenvalues are merged into groups by a
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
for the report: a failing check's detail or a printed exact eigenvalue;
predicted floats are read straight off the integer pairs.  A graph's
Krylov rank is computed on its support lattice, from the graph's class
sizes alone (one entry per support present, see graph.disjoint_sums),
so it never forms the adjacency matrix; only the dense eigensolve does.
The rank is taken of the small Gram matrix of the Krylov vectors, not
of the vectors themselves.

The spectrum-theorem and correspondence checks each live in one helper
that takes precomputed predictions and bundles (the command-line battery
calls them directly); the verify_* functions wrap them in reports for
callers that hold the bundles.  This module never builds a graph, so the
size caps live with the builders and the command line.  Every threshold
of a floating-point verdict (value matching, grouping, main
classification) is one module constant below, read when a check runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fib import (
    QuadraticNumber,
    pair_powers,
    zphi_is_zero,
    zphi_mul,
    zphi_to_float,
    zphi_to_quadratic,
)
from .graph import adjacency_matrix, disjoint_sums, vertex_count
from .quotient import (
    QuotientMatrix,
    build_p,
    build_q,
    exact_rank,
    json_safe_int,
)

__all__ = [
    "MATCH",
    "GROUPING_GAP",
    "GROUPING_GAP_REL",
    "PROJECTION_THRESHOLD",
    "DEAD_BAND_FACTOR",
    "AmbiguousClassification",
    "SpectrumMismatch",
    "NonzeroDeterminant",
    "EigenvalueGroup",
    "SpectralReport",
    "CheckResult",
    "VerificationReport",
    "QEigenvalue",
    "PredictedSpectrum",
    "EigenBundle",
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


class SpectrumMismatch(Exception):
    """A computed spectrum disagrees with its prediction."""


class NonzeroDeterminant(Exception):
    """An exact annihilation determinant failed to vanish."""


# -- eigensolver ------------------------------------------------------------


def symmetric_eigen(matrix: object) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of an exactly symmetric matrix.

    Returns (w, V) with eigenvalues w ascending and orthonormal
    eigenvectors in the columns of V, from LAPACK's symmetric solver
    through numpy.linalg.eigh, which already sorts w ascending.
    Deterministic for fixed input.
    """
    A = np.asarray(matrix, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
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

    def nonmain_values(self) -> tuple[float, ...]:
        return tuple(g.value for g in self.groups if not g.is_main)

    @property
    def total_multiplicity(self) -> int:
        return sum(g.multiplicity for g in self.groups)

    def eigenvalue_json_entries(self) -> list[dict]:
        return [
            {"value": g.value, "multiplicity": g.multiplicity, "main": g.is_main}
            for g in self.groups
        ]


def _group_bounds(w: np.ndarray, gap: float) -> list[tuple[int, int]]:
    bounds = []
    start = 0
    for i in range(1, len(w)):
        if float(w[i] - w[i - 1]) >= gap:
            bounds.append((start, i))
            start = i
    bounds.append((start, len(w)))
    return bounds


def _classify(w: np.ndarray, V: np.ndarray, frobenius: float) -> SpectralReport:
    n = len(w)
    gap = max(GROUPING_GAP, GROUPING_GAP_REL * frobenius)
    ones = np.full(n, 1.0 / math.sqrt(n))
    coeff = V.T @ ones
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


def classify_main(matrix: object) -> SpectralReport:
    """Group the spectrum of a symmetric matrix and flag main eigenvalues.

    A group is main when the normalized all-ones vector has projection
    norm above the threshold on its eigenspace; norms inside the dead
    band raise AmbiguousClassification.
    """
    w, V = symmetric_eigen(matrix)
    frobenius = float(np.linalg.norm(np.asarray(matrix, dtype=np.float64)))
    return _classify(w, V, frobenius)


# -- exact Krylov rank ------------------------------------------------------


def krylov_rank(graph: object) -> int:
    """Rank of [e, Ae, A**2 e, ...] over the rationals, in exact
    arithmetic, for the adjacency matrix A of a graph.

    A is applied on the graph's support lattice (its class sizes) without
    being formed.  Columns extend until two consecutive ranks agree (the
    rank can never grow again after that).  The rank starts at 1, grows
    by at most 1 per column and never exceeds the number of supports
    present, so that happens by that number + 1.

    Each step ranks the Gram matrix G[i][j] = v_i . v_j of the Krylov
    vectors v_0..v_k built so far, one (k+1) x (k+1) exact_rank call,
    instead of the k+1 vectors themselves.  A real matrix V has the rank
    of V V^T.  A lattice vector x stands for the vertex vector E x, where
    E maps each support to its vertices; every support present has a
    vertex, so E has full column rank and E X has the rank of X.  The
    plain dot products of the lattice vectors therefore suffice, without
    class-size weights.
    """
    sizes = graph.class_sizes
    present = np.flatnonzero(sizes)
    weights = sizes[present].astype(object)
    table = np.zeros(len(sizes), dtype=object)
    vec = np.ones(len(present), dtype=object)
    vectors = [vec]
    gram = [[len(present)]]
    rank = 1
    while True:
        # (A x)[u] sums size(t) * x[t] over the supports t disjoint from u's
        table[present] = weights * vec
        vec = disjoint_sums(table, graph.n)[present]
        vectors.append(vec)
        dots = [v.dot(vec) for v in vectors]
        for row, dot in zip(gram, dots):
            row.append(dot)
        gram.append(dots)
        new_rank = exact_rank(gram)
        if new_rank == rank:
            return rank
        rank = new_rank


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


@dataclass(frozen=True)
class QEigenvalue:
    """One sign-flipped eigenvalue contributed by the bipartite quotient:
    the pair power phi**index * xi**(n-index), held as its Z[phi] pair
    (a, b) meaning a + b*phi for weight m."""

    index: int
    pair: tuple[int, int]
    m: int
    value: float
    multiplicity: int

    @cached_property
    def exact(self) -> QuadraticNumber:
        """The pair power in the quadratic field, built when first read."""
        return zphi_to_quadratic(self.m, self.pair)


@dataclass(frozen=True)
class PredictedSpectrum:
    """Predicted spectrum of the full graph.

    The quotient eigenvalues appear once each, the pair powers
    phi**i * xi**(n-i) appear with multiplicity C(n, i) - 1, and zero
    fills the remainder: its multiplicity is derived from the counting
    identity (vertex count minus everything else), which simplifies to
    m**n - (m-1)**n - 2**n + 1 and vanishes exactly when m = 2.
    """

    m: int
    n: int
    p_eigenvalues: tuple[float, ...]
    q_derived: tuple[QEigenvalue, ...]
    zero_multiplicity: int

    @property
    def total_multiplicity(self) -> int:
        return (
            len(self.p_eigenvalues)
            + sum(q.multiplicity for q in self.q_derived)
            + self.zero_multiplicity
        )

    def multiset(self) -> list[tuple[float, int]]:
        """Sorted (value, multiplicity) pairs including the zero block."""
        items = [(v, 1) for v in self.p_eigenvalues]
        items.extend((q.value, q.multiplicity) for q in self.q_derived)
        if self.zero_multiplicity:
            items.append((0.0, self.zero_multiplicity))
        return sorted(items)

    def json_entries(self) -> dict:
        return {
            "p_eigenvalues": list(self.p_eigenvalues),
            "q_derived": [
                {
                    "index": q.index,
                    "exact": str(q.exact),
                    "value": q.value,
                    "multiplicity": json_safe_int(q.multiplicity),
                }
                for q in self.q_derived
            ],
            "zero_multiplicity": json_safe_int(self.zero_multiplicity),
            "zero_multiplicity_derived": True,
        }


def predicted_spectrum(m: int, n: int) -> PredictedSpectrum:
    """Assemble the predicted full-graph spectrum for (m, n)."""
    p_values = quotient_eigenvalues(build_p(m, n))
    q_values = [
        QEigenvalue(i, pair, m, zphi_to_float(m, pair), math.comb(n, i) - 1)
        for i, pair in enumerate(pair_powers(m, n), start=1)
    ]
    zero = m**n - (m - 1) ** n - 2**n + 1
    prediction = PredictedSpectrum(m, n, p_values, tuple(q_values), zero)
    count = vertex_count(m, n, "full")
    if prediction.total_multiplicity != count:
        raise ArithmeticError(
            f"predicted multiplicities total {prediction.total_multiplicity}, "
            f"vertex count is {count}"
        )
    return prediction


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
    title: str
    checks: tuple[CheckResult, ...]
    failure_exception: type

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def raise_if_failed(self) -> None:
        if not self.passed:
            lines = [self.title] + [
                f"  {c.name}: {c.detail or 'failed'}"
                + (f" (residual {c.residual:.3e})" if c.residual is not None else "")
                for c in self.failures
            ]
            raise self.failure_exception("\n".join(lines))


@dataclass
class EigenBundle:
    """One graph with its dense eigenvalues and classification."""

    graph: object
    eigenvalues: np.ndarray
    report: SpectralReport


def eigen_bundle(graph: object) -> EigenBundle:
    """Decompose a graph's adjacency matrix once, for reuse across checks."""
    dense = adjacency_matrix(graph).astype(np.float64)
    w, V = symmetric_eigen(dense)
    return EigenBundle(graph, w, _classify(w, V, float(np.linalg.norm(dense))))


def _theorem_checks(
    prediction: PredictedSpectrum, bundle: EigenBundle
) -> list[CheckResult]:
    """One check on the distinct count, then one per predicted eigenvalue,
    matched within MATCH."""
    tolerance = MATCH
    predicted_items = prediction.multiset()
    spacing = min(
        (b - a for (a, _), (b, _) in zip(predicted_items, predicted_items[1:])),
        default=math.inf,
    )
    if spacing <= 2 * tolerance:
        raise ArithmeticError(
            f"predicted eigenvalues only {spacing:.3e} apart; "
            f"cannot match at tolerance {tolerance:.3e}"
        )
    computed_items = [(g.value, g.multiplicity) for g in bundle.report.groups]
    checks = [
        CheckResult(
            "distinct eigenvalue count",
            len(computed_items) == len(predicted_items),
            None,
            f"computed {len(computed_items)}, predicted {len(predicted_items)}",
        )
    ]
    if len(computed_items) == len(predicted_items):
        for (pv, pm), (cv, cm) in zip(predicted_items, computed_items):
            residual = abs(cv - pv)
            checks.append(
                CheckResult(
                    f"eigenvalue {pv:.12g} x{pm}",
                    residual <= tolerance and cm == pm,
                    residual,
                    f"computed {cv:.12g} x{cm}",
                )
            )
    return checks


def verify_spectrum_theorem(m: int, n: int, bundle: EigenBundle) -> VerificationReport:
    """Compare the computed spectrum of the full graph (m, n), held in
    `bundle`, with its prediction.

    Every predicted eigenvalue must match a computed group within MATCH,
    with exactly the predicted multiplicity.  Returns a report with one
    check per eigenvalue; `raise_if_failed` raises SpectrumMismatch.
    """
    return VerificationReport(
        f"spectrum of the full graph (m={m}, n={n})",
        tuple(_theorem_checks(predicted_spectrum(m, n), bundle)),
        SpectrumMismatch,
    )


def _match_sorted(
    predicted: list[float], computed: list[float], tolerance: float
) -> tuple[bool, float | None]:
    """Match two value lists after sorting; the residual is the largest
    difference, or None when the lengths differ."""
    if len(predicted) != len(computed):
        return False, None
    residual = max(
        (abs(a - b) for a, b in zip(sorted(predicted), sorted(computed))),
        default=0.0,
    )
    return residual <= tolerance, residual


def _krylov_main_check(bundle: EigenBundle, what: str) -> CheckResult:
    main = len(bundle.report.main_values())
    rank = krylov_rank(bundle.graph)
    return CheckResult(
        f"exact Krylov rank of the {what} equals its main count",
        rank == main,
        None,
        f"rank {rank} vs {main} main",
    )


def _correspondence_checks(
    prediction: PredictedSpectrum,
    q_spectrum: tuple[float, ...],
    full_bundle: EigenBundle | None,
    bipartite_bundle: EigenBundle,
) -> list[tuple[str, CheckResult]]:
    """The main-eigenvalue correspondences, each tagged with the graph
    ("full" or "bipartite") whose report carries it; values match within
    MATCH.

    With both bundles: P match (full), Q match, negation, main counts
    (bipartite), then the Krylov ranks of the graph (full) and of the
    subgraph (bipartite).  Without the full-graph bundle only the
    subgraph's three checks remain: Q match, its main count, its rank.
    """
    n, tolerance = prediction.n, MATCH
    main_bip = list(bipartite_bundle.report.main_values())
    ok, res = _match_sorted(list(q_spectrum), main_bip, tolerance)
    q_match = CheckResult(
        "subgraph main eigenvalues equal the bipartite quotient spectrum",
        ok,
        res,
        f"{len(main_bip)} main vs {len(q_spectrum)} predicted",
    )
    rank_bip = _krylov_main_check(bipartite_bundle, "subgraph")
    if full_bundle is None:
        count_bip = CheckResult(
            "subgraph main count equals n-1",
            len(main_bip) == n - 1,
            None,
            f"{len(main_bip)} vs {n - 1}",
        )
        return [("bipartite", q_match), ("bipartite", count_bip), ("bipartite", rank_bip)]

    main_full = list(full_bundle.report.main_values())
    p_spectrum = list(prediction.p_eigenvalues)
    ok, res = _match_sorted(p_spectrum, main_full, tolerance)
    p_match = CheckResult(
        "main eigenvalues equal the full quotient spectrum",
        ok,
        res,
        f"{len(main_full)} main vs {len(p_spectrum)} predicted",
    )
    nonmain = [g for g in full_bundle.report.groups if not g.is_main]
    if prediction.zero_multiplicity and nonmain:
        zero_group = min(nonmain, key=lambda g: abs(g.value))
        nonmain = [g for g in nonmain if g is not zero_group]
    ok, res = _match_sorted(
        [-v for v in main_bip], [g.value for g in nonmain], tolerance
    )
    negation = CheckResult(
        "nonzero non-main values equal the negated subgraph mains",
        ok,
        res,
        f"{len(nonmain)} non-main vs {len(main_bip)} negated mains",
    )
    counts = CheckResult(
        "main counts equal n-1 on both graphs",
        len(main_full) == n - 1 == len(main_bip),
        None,
        f"full {len(main_full)}, subgraph {len(main_bip)}, n-1 = {n - 1}",
    )
    return [
        ("full", p_match),
        ("bipartite", q_match),
        ("bipartite", negation),
        ("bipartite", counts),
        ("full", _krylov_main_check(full_bundle, "graph")),
        ("bipartite", rank_bip),
    ]


def verify_main_correspondences(
    m: int, n: int, full_bundle: EigenBundle, bipartite_bundle: EigenBundle
) -> VerificationReport:
    """Check the three main-eigenvalue correspondences for (m, n) on the
    graph and the two-sided subgraph, held in the two bundles:

    the full graph's main values are the full quotient's spectrum, the
    subgraph's main values are the bipartite quotient's spectrum, the
    full graph's nonzero non-main values are the negated subgraph mains,
    and both main counts equal n-1 and the exact Krylov ranks.  Values
    match within MATCH.
    """
    checks = _correspondence_checks(
        predicted_spectrum(m, n),
        quotient_eigenvalues(build_q(m, n)),
        full_bundle,
        bipartite_bundle,
    )
    return VerificationReport(
        f"main-eigenvalue correspondences (m={m}, n={n})",
        tuple(check for _, check in checks),
        SpectrumMismatch,
    )


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


def q_eigen_exact_check(m: int, n: int) -> VerificationReport:
    """Exactly verify that every pair power phi**i * xi**(n-i) annihilates
    the bipartite quotient: det(Q + value * I) == 0.

    The pair powers are algebraic integers a + b*phi, so the check runs in
    integer Z[phi] arithmetic: the integer characteristic polynomial of Q
    is computed once, then evaluated at each negated pair power, and each
    determinant is tested for zero in integers (fib.zphi_is_zero).  A
    passing check carries residual 0.0 and no detail; values become
    QuadraticNumbers only for the report of a failing one.  Returns one
    check per index i; `raise_if_failed` raises NonzeroDeterminant with
    the exact determinant in the detail.
    """
    coeffs = _char_poly(build_q(m, n).entries)
    checks = []
    for i, value in enumerate(pair_powers(m, n), start=1):
        name = f"pair power i={i} annihilates the bipartite quotient"
        det = _det_shifted(m, coeffs, value)
        if zphi_is_zero(m, det):
            checks.append(CheckResult(name, True, 0.0))
            continue
        exact = zphi_to_quadratic(m, det)
        checks.append(
            CheckResult(
                name,
                False,
                abs(float(exact)),
                f"det(Q + ({zphi_to_quadratic(m, value)}) I) = {exact}",
            )
        )
    return VerificationReport(
        f"exact annihilation by pair powers (m={m}, n={n})",
        tuple(checks),
        NonzeroDeterminant,
    )
