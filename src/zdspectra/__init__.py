"""Spectra of zero-divisor graphs over products of equal-size fields.

Exact quotient matrices and walk-matrix identities, explicit graph
construction, dense eigensolving with main-eigenvalue classification,
and machine verification that computed spectra match their predictions.
"""

from .fib import QuadraticNumber, docagne_residual, fib_values, golden_pair
from .graph import (
    BipartiteSubgraph,
    NotEquitableError,
    SizeCapExceeded,
    ZeroDivisorGraph,
    adjacency_matrix,
    build_bipartite,
    build_graph,
    empirical_quotient,
    vertex_count,
)
from .quotient import (
    QuotientKind,
    QuotientMatrix,
    WalkFactorization,
    build_p,
    build_q,
    det_walk_formula,
    exact_det,
    exact_rank,
    factorize_walk,
    h_coefficients,
    walk_matrix_closed_p,
    walk_matrix_closed_q,
    walk_matrix_iterative,
)
from .spectra import (
    AmbiguousClassification,
    PredictedSpectrum,
    SpectralReport,
    classify_main,
    krylov_rank,
    predicted_spectrum,
    q_eigen_exact_check,
    quotient_eigenvalues,
    symmetric_eigen,
    verify_main_correspondences,
    verify_spectrum_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "QuadraticNumber",
    "fib_values",
    "docagne_residual",
    "golden_pair",
    "QuotientKind",
    "QuotientMatrix",
    "WalkFactorization",
    "build_p",
    "build_q",
    "walk_matrix_iterative",
    "walk_matrix_closed_p",
    "walk_matrix_closed_q",
    "h_coefficients",
    "factorize_walk",
    "det_walk_formula",
    "exact_rank",
    "exact_det",
    "ZeroDivisorGraph",
    "BipartiteSubgraph",
    "SizeCapExceeded",
    "NotEquitableError",
    "build_graph",
    "build_bipartite",
    "empirical_quotient",
    "vertex_count",
    "adjacency_matrix",
    "SpectralReport",
    "PredictedSpectrum",
    "AmbiguousClassification",
    "symmetric_eigen",
    "classify_main",
    "krylov_rank",
    "quotient_eigenvalues",
    "predicted_spectrum",
    "verify_spectrum_theorem",
    "verify_main_correspondences",
    "q_eigen_exact_check",
]
