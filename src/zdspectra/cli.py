"""Command line: quotient rendering, spectral reports, verification
sweeps, and graph exports.

`report` and `verify` run one check battery per (m, n) cell: each
quotient is built and its spectrum taken once, and every check is filed
under the graph it describes ("full" or "bipartite"), the correspondence
checks by the tag they carry.

Each cap is decided once per graph, here: a graph above the size cap is
never built (the builders refuse it too), and one above the dense cap
gets its exact Krylov rank instead of a dense eigen bundle.  The spectra
module only receives bundles ready-made.

Exit statuses: 0 success, 1 check failure, 2 usage error, 3 resource cap
exceeded.  Identical invocations produce byte-identical output.  The
caps are set only by --size-cap and --dense-cap.  Each (m, n) is
checked once, by fib.check_params inside the quotient and graph
builders, which every subcommand calls before it writes anything.  The
numeric policy is the set of constants in spectra (MATCH, GROUPING_GAP
and the rest), read when each check runs; no flag or variable sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import spectra
from .fib import docagne_residual
from .graph import (
    DEFAULT_SIZE_CAP,
    NotEquitableError,
    SizeCapExceeded,
    adjacency_to_csv,
    build_bipartite,
    build_graph,
    empirical_quotient,
    expected_cell_sizes,
    to_dot,
    to_json_descriptor,
    vertex_count,
)
from .quotient import (
    QuotientKind,
    QuotientMatrix,
    WalkMatrix,
    build_p,
    build_q,
    det_walk_formula,
    exact_det,
    exact_rank,
    h_coefficients,
    json_safe_int,
    matrix_json_entries,
    matrix_to_csv,
    walk_matrix_closed_p,
    walk_matrix_closed_q,
    walk_matrix_iterative,
)
from .spectra import (
    AmbiguousClassification,
    CheckResult,
    EigenBundle,
    PredictedSpectrum,
    _correspondence_checks,
    _theorem_checks,
    eigen_bundle,
    krylov_rank,
    predicted_spectrum,
    q_eigen_exact_check,
    quotient_eigenvalues,
)

DEFAULT_DENSE_CAP = 3_000


# -- argument plumbing ------------------------------------------------------


def _range_arg(text: str) -> tuple[int, int]:
    """Inclusive integer interval: '4' or '2..6', both bounds written."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected INT or LO..HI, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _cap_arg(text: str) -> int:
    """A vertex-count cap: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"caps must be positive, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, dense: bool) -> None:
    parser.add_argument(
        "--size-cap",
        type=_cap_arg,
        default=DEFAULT_SIZE_CAP,
        help="refuse to enumerate graphs above this vertex count (default %(default)s)",
    )
    if dense:
        parser.add_argument(
            "--dense-cap",
            type=_cap_arg,
            default=DEFAULT_DENSE_CAP,
            help="skip dense spectrum checks above this vertex count "
            "(default %(default)s)",
        )
    parser.add_argument(
        "--output", metavar="PATH", default=None, help="write to PATH instead of stdout"
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


# -- check batteries --------------------------------------------------------

# The two graphs of a cell, in report order.
ROLES = ("full", "bipartite")
# Per role: the check-name tag and the subject of the size-cap skip note.
_ROLE_NAMES = {
    "full": ("full graph", "all graph-level checks"),
    "bipartite": ("bipartite subgraph", "all subgraph-level checks"),
}


@dataclass(frozen=True)
class WalkRoutes:
    """A quotient's walk matrix by iteration and by closed form, its exact
    rank, and its determinant by elimination and by factorization."""

    walk: WalkMatrix
    closed: WalkMatrix
    rank: int
    det_elimination: int
    det_factorization: Fraction

    @property
    def walk_match(self) -> bool:
        return self.closed.entries == self.walk.entries

    @property
    def det_match(self) -> bool:
        return self.det_elimination == self.det_factorization


def _walk_routes(quotient: QuotientMatrix) -> WalkRoutes:
    m, n, kind = quotient.m, quotient.n, quotient.kind
    walk = walk_matrix_iterative(quotient)
    closed_of = walk_matrix_closed_p if kind is QuotientKind.P else walk_matrix_closed_q
    det = exact_det(walk)
    # A square matrix with a nonzero determinant has full rank, so the
    # rank needs its own elimination only when the determinant is 0.
    rank = walk.order if det != 0 else exact_rank(walk)
    return WalkRoutes(walk, closed_of(m, n), rank, det, det_walk_formula(m, n, kind))


def _quotient_checks(
    quotient: QuotientMatrix, values: tuple[float, ...]
) -> list[CheckResult]:
    """Exact-arithmetic checks for one quotient, given its eigenvalues;
    the eigenvalues must lie further apart than spectra.GROUPING_GAP."""
    m, n, tag = quotient.m, quotient.n, quotient.kind.value
    gap = spectra.GROUPING_GAP
    if quotient.kind is QuotientKind.P:
        law = tuple(m**i - 1 for i in range(1, n))
    else:
        law = tuple((m - 1) * m ** (i - 1) for i in range(1, n))
    sums = quotient.row_sums()
    routes = _walk_routes(quotient)
    spacing = min(
        (b - a for a, b in zip(values, values[1:])),
        default=math.inf,
    )
    return [
        CheckResult(
            f"row sums follow the degree law ({tag})",
            sums == law,
            None,
            f"row sums {sums}",
        ),
        CheckResult(
            f"walk routes agree ({tag})",
            routes.walk_match,
            None,
            "" if routes.walk_match else "closed and iterative walk matrices differ",
        ),
        CheckResult(
            f"walk rank equals n-1 ({tag})",
            routes.rank == n - 1,
            None,
            f"rank {routes.rank}",
        ),
        CheckResult(
            f"determinant routes agree ({tag})",
            routes.det_match,
            None,
            "" if routes.det_match else (
                f"elimination {routes.det_elimination}, "
                f"factorization {routes.det_factorization}"
            ),
        ),
        CheckResult(
            f"quotient eigenvalues pairwise separated ({tag})",
            spacing > gap,
            None,
            f"min spacing {spacing:.6g} vs grouping gap {gap:.6g}",
        ),
    ]


def _recurrence_checks(m: int) -> list[CheckResult]:
    checks = []
    for l, r in ((5, 0), (9, 2), (14, 6)):
        residual = docagne_residual(m, l, r)
        checks.append(
            CheckResult(
                f"cross-product identity (l={l}, r={r})",
                residual == 0,
                float(abs(residual)),
            )
        )
    return checks


def _structure_checks(graph_obj, quotient, tag: str) -> list[CheckResult]:
    """Cell sizes and the equitable quotient against the closed form."""
    checks = []
    sizes = tuple(len(cell) for cell in graph_obj.cells)
    law = expected_cell_sizes(graph_obj.m, graph_obj.n, graph_obj.role)
    checks.append(
        CheckResult(
            f"cell sizes follow the closed form ({tag})",
            sizes == law,
            None,
            f"sizes {sizes}",
        )
    )
    try:
        empirical = empirical_quotient(graph_obj)
        equal = empirical == quotient.entries
        detail = "" if equal else "empirical quotient differs from the closed form"
    except NotEquitableError as exc:
        equal, detail = False, str(exc)
    checks.append(
        CheckResult(
            f"empirical quotient equals the closed form ({tag})", equal, None, detail
        )
    )
    return checks


def _graph_checks(
    role: str,
    quotient: QuotientMatrix,
    size_cap: int,
    dense_cap: int,
    checks: list[CheckResult],
    skipped: list[str],
) -> EigenBundle | None:
    """Graph-level work for one role, appended to `checks` and `skipped`:
    nothing above the size cap; else the structure checks, then the dense
    eigen bundle (returned), or the exact Krylov rank above the dense cap.
    """
    m, n = quotient.m, quotient.n
    tag, everything = _ROLE_NAMES[role]
    # looked up at call time, so a rebinding of the module name takes effect
    build = build_graph if role == "full" else build_bipartite
    count = vertex_count(m, n, role)
    if count > size_cap:
        skipped.append(f"{everything}: vertex count {count} exceeds size cap {size_cap}")
        return None
    graph_obj = build(m, n, size_cap=size_cap)
    checks += _structure_checks(graph_obj, quotient, tag)
    if count <= dense_cap:
        return eigen_bundle(graph_obj)
    skipped.append(
        f"dense spectrum checks: vertex count {count} exceeds dense cap {dense_cap}"
    )
    rank = krylov_rank(graph_obj)
    checks.append(
        CheckResult(
            f"exact Krylov rank equals n-1 ({tag})",
            rank == n - 1,
            None,
            f"rank {rank} vs {n - 1}",
        )
    )
    return None


@dataclass
class Battery:
    """All checks for one (m, n), keyed by the role of the graph they
    describe ("full" or "bipartite")."""

    m: int
    n: int
    prediction: PredictedSpectrum
    q_spectrum: tuple[float, ...]
    checks: dict[str, list[CheckResult]]
    skipped: dict[str, list[str]]
    bundles: dict[str, EigenBundle | None]
    capped: bool

    @property
    def failures(self) -> list[tuple[str, CheckResult]]:
        return [
            (role, c) for role in ROLES for c in self.checks[role] if not c.passed
        ]


def run_battery(m: int, n: int, size_cap: int, dense_cap: int) -> Battery:
    """Run every check that fits under the caps for one parameter cell.

    P and Q are built here for the quotient and graph checks, and each
    quotient spectrum is computed once (P's is the prediction's).  Two
    checks build their own copy of a quotient: `predicted_spectrum`
    builds P, and `q_eigen_exact_check` builds Q for its characteristic
    polynomial.  The copies are (n-1) x (n-1) integer matrices, and each
    is built inside the step that uses it.
    """
    prediction = predicted_spectrum(m, n)
    quotients = {"full": build_p(m, n), "bipartite": build_q(m, n)}
    q_spectrum = quotient_eigenvalues(quotients["bipartite"])
    values = {"full": prediction.p_eigenvalues, "bipartite": q_spectrum}
    checks = {role: _quotient_checks(quotients[role], values[role]) for role in ROLES}
    skipped: dict[str, list[str]] = {role: [] for role in ROLES}

    checks["bipartite"] += q_eigen_exact_check(m, n).checks

    bundles = {
        role: _graph_checks(
            role, quotients[role], size_cap, dense_cap, checks[role], skipped[role]
        )
        for role in ROLES
    }
    if bundles["full"] is not None:
        checks["full"] += _theorem_checks(prediction, bundles["full"])
    if bundles["bipartite"] is not None:
        for role, check in _correspondence_checks(
            prediction, q_spectrum, bundles["full"], bundles["bipartite"]
        ):
            checks[role].append(check)

    capped = vertex_count(m, n, "full") > size_cap
    return Battery(m, n, prediction, q_spectrum, checks, skipped, bundles, capped)


# -- report assembly --------------------------------------------------------


def _graph_entry(battery: Battery, role: str, predicted: dict) -> dict:
    bundle = battery.bundles[role]
    entry = {
        "m": battery.m,
        "n": battery.n,
        "graph": role,
        "vertices": json_safe_int(vertex_count(battery.m, battery.n, role)),
        "eigenvalues": bundle.report.eigenvalue_json_entries() if bundle else [],
        "predicted": predicted,
        "checks": [c.json_entry() for c in battery.checks[role]],
    }
    if battery.skipped[role]:
        entry["skipped"] = list(battery.skipped[role])
    return entry


def assemble_report(
    m: int, n: int, size_cap: int, dense_cap: int
) -> tuple[list[dict], Battery]:
    battery = run_battery(m, n, size_cap, dense_cap)
    predicted = {
        "full": battery.prediction.json_entries(),
        "bipartite": {"main_eigenvalues": list(battery.q_spectrum), "main_count": n - 1},
    }
    entries = [_graph_entry(battery, role, predicted[role]) for role in ROLES]
    return entries, battery


def _report_text(entries: list[dict]) -> str:
    lines = []
    for entry in entries:
        lines.append(
            f"{entry['graph']} graph, m={entry['m']}, n={entry['n']}: "
            f"{entry['vertices']} vertices"
        )
        if entry["eigenvalues"]:
            lines.append("  eigenvalues (value x multiplicity, * marks main):")
            for ev in entry["eigenvalues"]:
                star = " *" if ev["main"] else ""
                lines.append(f"    {ev['value']:.12g} x{ev['multiplicity']}{star}")
        passed = sum(1 for c in entry["checks"] if c["pass"])
        lines.append(f"  checks passed: {passed}/{len(entry['checks'])}")
        for c in entry["checks"]:
            if not c["pass"]:
                lines.append(f"    FAIL {c['name']}")
        for note in entry.get("skipped", ()):
            lines.append(f"  skipped {note}")
    return "\n".join(lines) + "\n"


# -- subcommand handlers ----------------------------------------------------


@contextlib.contextmanager
def _unlimited_int_str():
    """Lift Python's int-to-str digit limit (4300 by default) for the
    duration, on interpreters that have one, and restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _quotient_text(fmt: str, quotient: QuotientMatrix, routes: WalkRoutes) -> str:
    """The quotient, its walk matrices and determinants, rendered in full.

    Walk determinants have about n**2 digits (over 4300 at m=9, n=32), so
    the caller lifts the int-to-str limit around this.
    """
    kind, m, n = quotient.kind, quotient.m, quotient.n
    if fmt == "csv":
        return matrix_to_csv(quotient)
    if fmt == "json":
        payload = {
            "kind": kind.value,
            "m": m,
            "n": n,
            "matrix": matrix_json_entries(quotient),
            "row_sums": [str(x) for x in quotient.row_sums()],
            "walk_iterative": matrix_json_entries(routes.walk),
            "walk_closed": matrix_json_entries(routes.closed),
            "walk_match": routes.walk_match,
            "rank": routes.rank,
            "det_elimination": str(routes.det_elimination),
            "det_factorization": str(routes.det_factorization),
            "det_match": routes.det_match,
        }
        if kind is QuotientKind.P:
            payload["h_coefficients"] = [str(h) for h in h_coefficients(m, n)]
        return json.dumps(payload, indent=2) + "\n"

    def block(title: str, rows) -> list[str]:
        width = max(len(str(x)) for row in rows for x in row)
        out = [f"{title}:"]
        out += ["  " + " ".join(f"{x:>{width}}" for x in row) for row in rows]
        return out

    lines = [f"quotient {kind.value} (m={m}, n={n})"]
    lines += block("matrix", quotient.entries)
    lines.append(f"row sums: {' '.join(str(x) for x in quotient.row_sums())}")
    lines += block("walk matrix (iterative)", routes.walk.entries)
    if routes.walk_match:
        lines.append("walk matrix (closed form): identical")
    else:
        lines += block("walk matrix (closed form)", routes.closed.entries)
    if kind is QuotientKind.P:
        lines.append(
            "h coefficients: "
            + " ".join(str(h) for h in h_coefficients(m, n))
        )
    lines.append(f"rank: {routes.rank}")
    lines.append(f"determinant (elimination): {routes.det_elimination}")
    lines.append(f"determinant (factorization): {routes.det_factorization}")
    lines.append(
        "cross-checks: "
        + ("walk routes match" if routes.walk_match else "WALK ROUTES DIFFER")
        + ", "
        + ("determinants match" if routes.det_match else "DETERMINANTS DIFFER")
    )
    return "\n".join(lines) + "\n"


def _cmd_quotient(args) -> int:
    m, n = args.m, args.n
    quotient = build_p(m, n) if args.kind == "p" else build_q(m, n)
    routes = _walk_routes(quotient)
    with _unlimited_int_str():
        text = _quotient_text(args.format, quotient, routes)
    _emit(text, args.output)
    return 0 if routes.walk_match and routes.det_match else 1


def _cmd_report(args) -> int:
    entries, battery = assemble_report(args.m, args.n, args.size_cap, args.dense_cap)
    if args.format == "text":
        text = _report_text(entries)
    else:
        text = json.dumps(entries, indent=2) + "\n"
    _emit(text, args.output)
    if battery.capped:
        print(
            f"error: vertex count exceeds size cap {args.size_cap}; "
            "quotient-level report only",
            file=sys.stderr,
        )
        return 3
    if battery.failures:
        print("check failures:", file=sys.stderr)
        for role, check in battery.failures:
            print(f"  {role}: {check.name}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    m_lo, m_hi = args.m
    n_lo, n_hi = args.n
    rows = []
    failures = []
    skip_notes = []
    total = 0
    for m in range(m_lo, m_hi + 1):
        recurrence = _recurrence_checks(m)
        for n in range(n_lo, n_hi + 1):
            battery = run_battery(m, n, args.size_cap, args.dense_cap)
            checks = recurrence + [
                c for role in ROLES for c in battery.checks[role]
            ]
            failed = [c for c in checks if not c.passed]
            skipped = [note for role in ROLES for note in battery.skipped[role]]
            total += len(checks)
            rows.append(
                (m, n, len(checks), len(failed), len(skipped),
                 "pass" if not failed else "FAIL")
            )
            failures += [(m, n, c) for c in failed]
            skip_notes += [(m, n, note) for note in skipped]

    lines = [f"{'m':>3} {'n':>3} {'checks':>7} {'failed':>7} {'skipped':>8}  status"]
    for m, n, n_checks, n_failed, n_skipped, status in rows:
        lines.append(
            f"{m:>3} {n:>3} {n_checks:>7} {n_failed:>7} {n_skipped:>8}  {status}"
        )
    lines.append("")
    lines.append(
        f"{len(rows)} cells, {total} checks, {len(failures)} failures"
    )
    if skip_notes:
        lines.append("skipped:")
        lines += [f"  m={m} n={n}: {note}" for m, n, note in skip_notes]
    if failures:
        lines.append("failures:")
        for m, n, check in failures:
            residual = (
                f" (residual {check.residual:.3e})"
                if check.residual is not None
                else ""
            )
            detail = f" - {check.detail}" if check.detail else ""
            lines.append(f"  m={m} n={n}: {check.name}{residual}{detail}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if not failures else 1


def _cmd_export(args) -> int:
    build = build_graph if args.what == "graph" else build_bipartite
    graph_obj = build(args.m, args.n, size_cap=args.size_cap)
    if args.format == "dot":
        text = to_dot(graph_obj)
    elif args.format == "csv":
        text = adjacency_to_csv(graph_obj)
    else:
        text = json.dumps(to_json_descriptor(graph_obj), indent=2) + "\n"
    _emit(text, args.output)
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdspectra",
        description="Spectra of zero-divisor graphs over products of equal-size "
        "fields: quotient matrices, predicted eigenvalues, and machine checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_quot = sub.add_parser(
        "quotient", help="render a quotient matrix with its walk-matrix checks"
    )
    p_quot.add_argument("--kind", choices=("p", "q"), required=True,
                        help="p: full-graph quotient; q: bipartite quotient")
    p_quot.add_argument("--m", type=int, required=True, help="field size (>= 2)")
    p_quot.add_argument("--n", type=int, required=True, help="tuple length (>= 2)")
    p_quot.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_quot.add_argument("--output", metavar="PATH", default=None)
    p_quot.set_defaults(handler=_cmd_quotient)

    p_rep = sub.add_parser(
        "report", help="full spectral report for one (m, n), both graphs"
    )
    p_rep.add_argument("--m", type=int, required=True)
    p_rep.add_argument("--n", type=int, required=True)
    p_rep.add_argument("--format", choices=("json", "text"), default="json")
    _add_common(p_rep, dense=True)
    p_rep.set_defaults(handler=_cmd_report)

    p_ver = sub.add_parser(
        "verify", help="run the invariant battery over a parameter grid"
    )
    p_ver.add_argument(
        "--m", type=_range_arg, default=(2, 4), help="range LO..HI (default 2..4)"
    )
    p_ver.add_argument(
        "--n", type=_range_arg, default=(2, 6), help="range LO..HI (default 2..6)"
    )
    _add_common(p_ver, dense=True)
    p_ver.set_defaults(handler=_cmd_verify)

    p_exp = sub.add_parser("export", help="emit a graph as DOT, CSV, or JSON")
    p_exp.add_argument("--m", type=int, required=True)
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--what", choices=("graph", "subgraph"), default="graph")
    p_exp.add_argument("--format", choices=("dot", "csv", "json"), default="dot")
    _add_common(p_exp, dense=False)
    p_exp.set_defaults(handler=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AmbiguousClassification, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
