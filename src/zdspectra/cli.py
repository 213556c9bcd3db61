"""Command line: quotient rendering, spectral reports, verification
sweeps, and graph exports.

`report` and `verify` run one check battery per (m, n) cell.  The
cell's quotients are built and P's spectrum taken once; then each graph,
the full graph and then the bipartite subgraph, runs all of its checks
in one pass, in report order: its quotient's four exact checks (and for
the subgraph the annihilation of Q); unless it is above the size cap,
its cell sizes, equitable quotient and exact Krylov rank; unless it is
above the dense cap, its own dense spectrum check.  A graph above the
size cap is never built (the builders refuse it too).  Distinct quotient
eigenvalues are decided by the exact walk rank, never a float spacing.
`verify` adds three samples of d'Ocagne's identity per m, which `report`
does not run; `quotient` fails exactly when one of its four exact
checks fails.

Exit statuses are decided in `main` alone: 1 if a check failed, else 3
if a graph was above the size cap, else 0; 2 for a usage error or an
--output that cannot be written.  Each subcommand handler returns its
stdout text, whether a check failed and the graphs the size cap
skipped; `main` alone writes that text, then names those graphs in one
note on stderr.  Identical invocations produce byte-identical output.
The caps are set only by --size-cap and --dense-cap.  fib.check_params
runs in every builder and closed form that a command reaches, before
anything is written.  The numeric policy is the set of constants in
spectra (MATCH, GROUPING_GAP and the rest), read when each check runs;
no flag or variable sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass

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
    IntMatrix,
    QuotientKind,
    QuotientMatrix,
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
    PredictedSpectrum,
    ROLE_TAGS,
    SpectralReport,
    eigen_bundle,
    krylov_rank,
    predicted_spectrum,
    q_eigen_exact_check,
    verify_main_correspondences,
    verify_spectrum_theorem,
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


# -- check batteries --------------------------------------------------------

# The two graphs of a cell, in report order.
ROLES = ("full", "bipartite")


@dataclass(frozen=True)
class WalkRoutes:
    """A quotient's walk matrix by iteration and by closed form, its exact
    rank, and its determinant by elimination and by factorization."""

    walk: IntMatrix
    closed: IntMatrix
    rank: int
    det_elimination: int
    det_factorization: int

    @property
    def walk_match(self) -> bool:
        return self.closed == self.walk

    @property
    def det_match(self) -> bool:
        return self.det_elimination == self.det_factorization


def _walk_routes(quotient: QuotientMatrix) -> WalkRoutes:
    m, n, kind = quotient.m, quotient.n, quotient.kind
    walk = walk_matrix_iterative(quotient.entries)
    closed_of = walk_matrix_closed_p if kind is QuotientKind.P else walk_matrix_closed_q
    det = exact_det(walk)
    # A square matrix with a nonzero determinant has full rank, so the
    # rank needs its own elimination only when the determinant is 0.
    rank = len(walk) if det != 0 else exact_rank(walk)
    return WalkRoutes(walk, closed_of(m, n), rank, det, det_walk_formula(m, n, kind))


def _quotient_checks(quotient: QuotientMatrix, routes: WalkRoutes) -> list[CheckResult]:
    """Exact-arithmetic checks for one quotient and its walk routes.  Walk
    rank n - 1 also proves its eigenvalues distinct: balanced by its cell
    sizes, it is similar to a symmetric matrix, and a diagonalisable
    matrix with a cyclic vector has only simple eigenvalues."""
    m, n, tag = quotient.m, quotient.n, quotient.kind.value
    if quotient.kind is QuotientKind.P:
        law = tuple(m**i - 1 for i in range(1, n))
    else:
        law = tuple((m - 1) * m ** (i - 1) for i in range(1, n))
    sums = quotient.row_sums()
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


@dataclass
class Battery:
    """All checks for one (m, n), keyed by the role of the graph they
    describe ("full" or "bipartite"); `capped` lists, in report order,
    the roles whose graph the size cap skipped."""

    prediction: PredictedSpectrum
    checks: dict[str, list[CheckResult]]
    skipped: dict[str, list[str]]
    reports: dict[str, SpectralReport | None]
    capped: tuple[str, ...]

    @property
    def failures(self) -> list[tuple[str, CheckResult]]:
        return [
            (role, c) for role in ROLES for c in self.checks[role] if not c.passed
        ]


def _check_graph(battery: Battery, role: str, size_cap: int, dense_cap: int) -> None:
    """Run every check of one graph of the battery's cell, in report order
    (see the module docstring), and file its checks, skip notes and dense
    spectral report under its role; a graph the size cap skips is added
    to `capped`.  A quotient that cannot be formed (a cell not equitable,
    a row outside the cells or a cell empty) fails its check."""
    prediction = battery.prediction
    m, n = prediction.m, prediction.n
    full = role == "full"
    tag = ROLE_TAGS[role]
    quotient = prediction.p if full else prediction.q
    checks = battery.checks[role] = _quotient_checks(quotient, _walk_routes(quotient))
    skipped = battery.skipped[role] = []
    battery.reports[role] = None
    if not full:
        checks += q_eigen_exact_check(prediction).checks
    count = vertex_count(m, n, role)
    if count > size_cap:
        level = "graph" if full else "subgraph"
        skipped.append(
            f"all {level}-level checks: "
            f"vertex count {count} exceeds size cap {size_cap}"
        )
        battery.capped += (role,)
        return
    # looked up at call time, so a rebinding of the module name takes effect
    graph_obj = (build_graph if full else build_bipartite)(m, n, size_cap=size_cap)
    sizes = graph_obj.cell_sizes()
    checks.append(
        CheckResult(
            f"cell sizes follow the closed form ({tag})",
            sizes == expected_cell_sizes(m, n, role),
            None,
            f"sizes {sizes}",
        )
    )
    try:
        equal = empirical_quotient(graph_obj) == quotient.entries
        detail = "" if equal else "empirical quotient differs from the closed form"
    except (NotEquitableError, ValueError) as exc:
        equal, detail = False, str(exc)
    checks.append(
        CheckResult(
            f"empirical quotient equals the closed form ({tag})", equal, None, detail
        )
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
    if count > dense_cap:
        skipped.append(
            f"dense spectrum checks: vertex count {count} exceeds dense cap {dense_cap}"
        )
        return
    report = battery.reports[role] = eigen_bundle(graph_obj)
    verify = verify_spectrum_theorem if full else verify_main_correspondences
    checks += verify(prediction, report).checks


def run_battery(m: int, n: int, size_cap: int, dense_cap: int) -> Battery:
    """Run every check that fits under the caps for one parameter cell,
    one graph at a time.

    `predicted_spectrum` builds the cell's quotients, P's spectrum and
    the pair powers once; every check reads them from the prediction.
    """
    battery = Battery(predicted_spectrum(m, n), {}, {}, {}, ())
    for role in ROLES:
        _check_graph(battery, role, size_cap, dense_cap)
    return battery


# -- report assembly --------------------------------------------------------


def _graph_entry(battery: Battery, role: str) -> dict:
    """One graph's report entry; its `predicted` groups are the tuple its
    dense spectrum was checked against, in the same order."""
    prediction, report = battery.prediction, battery.reports[role]
    m, n = prediction.m, prediction.n
    entry = {
        "m": m,
        "n": n,
        "graph": role,
        "vertices": json_safe_int(vertex_count(m, n, role)),
        "eigenvalues": report.eigenvalue_json_entries() if report else [],
        "predicted": [
            {"value": v, "multiplicity": json_safe_int(k), "main": main, "exact": exact}
            for v, k, main, exact in prediction.groups(role)
        ],
        "checks": [c.json_entry() for c in battery.checks[role]],
    }
    if battery.skipped[role]:
        entry["skipped"] = list(battery.skipped[role])
    return entry


def assemble_report(
    m: int, n: int, size_cap: int, dense_cap: int
) -> tuple[list[dict], Battery]:
    battery = run_battery(m, n, size_cap, dense_cap)
    return [_graph_entry(battery, role) for role in ROLES], battery


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
    duration, on interpreters that have one, and restore it after: walk
    determinants and a failing check's exact detail can be longer."""
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

    Walk determinants have about n**2 digits (over 4300 at m=9, n=32);
    main lifts the int-to-str limit around every subcommand.
    """
    kind, m, n = quotient.kind, quotient.m, quotient.n
    if fmt == "csv":
        return matrix_to_csv(quotient.entries)
    if fmt == "json":
        payload = {
            "kind": kind.value,
            "m": m,
            "n": n,
            "matrix": matrix_json_entries(quotient.entries),
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
    lines += block("walk matrix (iterative)", routes.walk)
    if routes.walk_match:
        lines.append("walk matrix (closed form): identical")
    else:
        lines += block("walk matrix (closed form)", routes.closed)
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


def _cmd_quotient(args) -> tuple[str, bool, tuple[str, ...]]:
    m, n = args.m, args.n
    quotient = build_p(m, n) if args.kind == "p" else build_q(m, n)
    routes = _walk_routes(quotient)
    failed = not all(c.passed for c in _quotient_checks(quotient, routes))
    return _quotient_text(args.format, quotient, routes), failed, ()


def _cmd_report(args) -> tuple[str, bool, tuple[str, ...]]:
    entries, battery = assemble_report(args.m, args.n, args.size_cap, args.dense_cap)
    if args.format == "text":
        text = _report_text(entries)
    else:
        text = json.dumps(entries, indent=2) + "\n"
    if battery.failures:
        print("check failures:", file=sys.stderr)
        for role, check in battery.failures:
            print(f"  {role}: {check.name}", file=sys.stderr)
    return text, bool(battery.failures), battery.capped


def _cmd_verify(args) -> tuple[str, bool, tuple[str, ...]]:
    m_lo, m_hi = args.m
    n_lo, n_hi = args.n
    lines = [f"{'m':>3} {'n':>3} {'checks':>7} {'failed':>7} {'skipped':>8}  status"]
    failures = []
    skip_notes = []
    total = 0
    for m in range(m_lo, m_hi + 1):
        recurrence = _recurrence_checks(m)
        for n in range(n_lo, n_hi + 1):
            battery = run_battery(m, n, args.size_cap, args.dense_cap)
            checks = recurrence + [c for role in ROLES for c in battery.checks[role]]
            failed = [c for c in checks if not c.passed]
            skipped = [note for role in ROLES for note in battery.skipped[role]]
            total += len(checks)
            lines.append(
                f"{m:>3} {n:>3} {len(checks):>7} {len(failed):>7} {len(skipped):>8}  "
                + ("FAIL" if failed else "pass")
            )
            failures += [(m, n, c) for c in failed]
            skip_notes += [(m, n, note) for note in skipped]
    cells = (m_hi - m_lo + 1) * (n_hi - n_lo + 1)
    lines += ["", f"{cells} cells, {total} checks, {len(failures)} failures"]
    if skip_notes:
        lines.append("skipped:")
        lines += [f"  m={m} n={n}: {note}" for m, n, note in skip_notes]
    if failures:
        lines.append("failures:")
        for m, n, check in failures:
            r = check.residual
            residual = "" if r is None else f" (residual {r:.3e})"
            detail = f" - {check.detail}" if check.detail else ""
            lines.append(f"  m={m} n={n}: {check.name}{residual}{detail}")
    return "\n".join(lines) + "\n", bool(failures), ()


def _cmd_export(args) -> tuple[str, bool, tuple[str, ...]]:
    build = build_graph if args.what == "graph" else build_bipartite
    graph_obj = build(args.m, args.n, size_cap=args.size_cap)
    if args.format == "dot":
        text = to_dot(graph_obj)
    elif args.format == "csv":
        text = adjacency_to_csv(graph_obj)
    else:
        text = json.dumps(to_json_descriptor(graph_obj), indent=2) + "\n"
    return text, False, ()


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
        with _unlimited_int_str():
            text, failed, capped = args.handler(args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        if capped:
            print(
                f"note: size cap {args.size_cap} skipped the graph-level checks of "
                + " and ".join(f"the {ROLE_TAGS[role]}" for role in capped),
                file=sys.stderr,
            )
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AmbiguousClassification, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if failed else 3 if capped else 0


if __name__ == "__main__":
    sys.exit(main())
