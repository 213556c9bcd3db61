"""The benchmark's workloads and the correctness gate on each invocation.

A workload is a fixed list of `zdspectra` command lines; one pass runs
each of them once, in an order the seed permutes.  Each workload puts
most of its time in one layer (see README.md in this directory):

- dense-spectral: the dense eigensolve and main/non-main classification,
  on one cell with a zero block (m=3) and one without (m=2).
- structural-large: graph build, adjacency, empirical quotient and exact
  Krylov rank on graphs of 11-14 thousand vertices, dense checks off.
- exact-sweep: the exact-arithmetic routes only, over 72 cells with
  every graph-level check skipped by a size cap of 1.

The gate never compares eigenvalue text: the zero group prints solver
rounding noise, so a correct eigensolver change would read as a failure.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One command line plus what its output must show."""

    argv: tuple[str, ...]
    m: int = 0
    n: int = 0
    dense: bool = False  # report: eigenvalues must be listed
    cells: int = 0  # verify: cells the summary must count

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]
    # same code paths at m=2, n=3: used to warm up and by the self-test
    tiny: tuple[Invocation, ...]


def report(m: int, n: int, *extra: str) -> Invocation:
    argv = ("report", "--m", str(m), "--n", str(n), "--format", "json") + extra
    return Invocation(argv, m=m, n=n, dense="--dense-cap" not in extra)


def verify(m: int, n_lo: int, n_hi: int) -> Invocation:
    argv = ("verify", "--m", str(m), "--n", f"{n_lo}..{n_hi}", "--size-cap", "1")
    return Invocation(argv, m=m, cells=n_hi - n_lo + 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-spectral",
            "dense eigensolve plus classification on both graphs: m=3,n=5 has a "
            "zero block, m=2,n=7 has none; no other workload calls the eigensolver",
            (report(3, 5), report(2, 7)),
            (report(2, 3),),
        ),
        Workload(
            "structural-large",
            "graph build, N^2 adjacency, empirical quotient and exact Krylov rank "
            "at 11-14k vertices with dense checks off; adjacency sets peak memory",
            (report(4, 7, "--dense-cap", "1"), report(5, 6, "--dense-cap", "1")),
            (report(2, 3, "--dense-cap", "1"),),
        ),
        Workload(
            "exact-sweep",
            "72 cells (m 2..9, n 2..10) with graph checks capped off: only exact "
            "quadratic-field annihilation, walk matrices and big-integer ranks run",
            tuple(verify(m, 2, 10) for m in range(2, 10)),
            (verify(2, 3, 3),),
        ),
    )
}


def full_count(m: int, n: int) -> int:
    return m**n - (m - 1) ** n - 1


def bipartite_count(m: int, n: int) -> int:
    return 2 * (m - 1) * m ** (n - 2)


@dataclass
class Verdict:
    problems: list[str]
    checks: int = 0
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def gate(inv: Invocation, code: int, stdout: str) -> Verdict:
    """Check one invocation's exit code and output against the laws."""
    try:
        if inv.argv[0] == "verify":
            verdict = _gate_verify(inv, stdout)
        else:
            verdict = _gate_report(inv, stdout)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        verdict = Verdict([f"malformed output: {exc!r}"])
    if code != 0:
        verdict.problems.insert(0, f"exit code {code}")
    return verdict


def _gate_report(inv: Invocation, stdout: str) -> Verdict:
    verdict = Verdict([])
    problems = verdict.problems
    entries = json.loads(stdout)
    roles = ("full", "bipartite")
    if not isinstance(entries, list) or [e.get("graph") for e in entries] != list(roles):
        problems.append("expected one full and one bipartite entry")
        return verdict
    counts = (full_count(inv.m, inv.n), bipartite_count(inv.m, inv.n))
    for entry, role, count in zip(entries, roles, counts):
        if (entry.get("m"), entry.get("n")) != (inv.m, inv.n):
            problems.append(f"{role}: wrong (m, n)")
        if int(entry.get("vertices", -1)) != count:
            problems.append(f"{role}: {entry.get('vertices')} vertices, law gives {count}")
        checks = entry.get("checks") or []
        if not checks:
            problems.append(f"{role}: no checks")
        problems += [
            f"{role}: check failed: {c.get('name')}"
            for c in checks if c.get("pass") is not True
        ]
        groups = entry.get("eigenvalues") or []
        if groups or inv.dense:
            total = sum(g.get("multiplicity", 0) for g in groups)
            if total != count:
                problems.append(f"{role}: multiplicities sum to {total}, not {count}")
            mains = sum(1 for g in groups if g.get("main") is True)
            if mains != inv.n - 1:
                problems.append(f"{role}: {mains} main groups, not n-1 = {inv.n - 1}")
        verdict.checks += len(checks)
        verdict.skipped += len(entry.get("skipped", ()))
    return verdict


_SUMMARY = re.compile(r"^(\d+) cells, (\d+) checks, (\d+) failures$", re.M)
_ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\S+)$", re.M)


def _gate_verify(inv: Invocation, stdout: str) -> Verdict:
    verdict = Verdict([])
    problems = verdict.problems
    summary = _SUMMARY.search(stdout)
    if summary is None:
        problems.append("no summary line")
        return verdict
    cells, checks, failures = (int(x) for x in summary.groups())
    if cells != inv.cells:
        problems.append(f"{cells} cells, expected {inv.cells}")
    if failures != 0:
        problems.append(f"{failures} failures")
    rows = _ROW.findall(stdout)
    if len(rows) != cells:
        problems.append(f"{len(rows)} table rows for {cells} cells")
    problems += [
        f"m={r[0]} n={r[1]}: status {r[5]}" for r in rows if r[3] != "0" or r[5] != "pass"
    ]
    if checks == 0:
        problems.append("no checks")
    verdict.checks = checks
    verdict.skipped = sum(int(r[4]) for r in rows)
    return verdict
