"""End-to-end command-line behavior, run in process."""

import hashlib
import json
import sys

import pytest

from zdspectra import cli, spectra
from zdspectra.quotient import (
    WalkMatrix,
    build_p,
    build_q,
    exact_det,
    exact_rank,
    walk_matrix_iterative,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# === quotient ===

def test_quotient_csv_matches_contract(capsys):
    code, out, err = run(capsys, "quotient", "--kind", "p", "--m", "2", "--n", "4",
                         "--format", "csv")
    assert code == 0
    assert out == "0,0,1\n0,1,2\n1,3,3\n"
    assert err == ""


def test_quotient_json_payload(capsys):
    code, out, _ = run(capsys, "quotient", "--kind", "p", "--m", "2", "--n", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "P"
    assert payload["matrix"] == [["0", "0", "1"], ["0", "1", "2"], ["1", "3", "3"]]
    assert payload["walk_iterative"][2] == ["1", "7", "31"]
    assert payload["walk_match"] is True
    assert payload["rank"] == 3
    assert payload["det_elimination"] == "-12"
    assert payload["det_factorization"] == "-12"
    assert payload["det_match"] is True
    assert payload["h_coefficients"] == ["1", "15"]


def test_quotient_q_json_has_no_h_block(capsys):
    code, out, _ = run(capsys, "quotient", "--kind", "q", "--m", "3", "--n", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [["0", "0", "2"], ["0", "4", "2"], ["8", "8", "2"]]
    assert payload["det_elimination"] == "-128"
    assert "h_coefficients" not in payload


def test_quotient_text_format(capsys):
    code, out, _ = run(capsys, "quotient", "--kind", "q", "--m", "2", "--n", "4")
    assert code == 0
    assert "quotient Q (m=2, n=4)" in out
    assert "walk matrix (closed form): identical" in out
    assert "rank: 3" in out
    assert "determinant (elimination): -1" in out
    assert "walk routes match, determinants match" in out


def test_quotient_output_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "quotient", "--kind", "p", "--m", "2", "--n", "4",
                       "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "0,0,1\n0,1,2\n1,3,3\n"


def test_quotient_renders_determinants_past_the_int_str_limit(capsys):
    # The walk determinant at (9, 16) has 834 digits.  Rendering lifts
    # Python's int-to-str limit for itself only, and puts it back after.
    det = exact_det(walk_matrix_iterative(build_p(9, 16)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        results = {
            fmt: run(capsys, "quotient", "--kind", "p", "--m", "9", "--n", "16",
                     "--format", fmt)
            for fmt in ("json", "text")
        }
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    digits = str(det)
    assert len(digits) > 640
    for code, _, err in results.values():
        assert code == 0, err
        assert err == ""
    assert json.loads(results["json"][1])["det_elimination"] == digits
    assert f"determinant (elimination): {digits}\n" in results["text"][1]


# === report ===

def test_report_json_schema(capsys):
    code, out, err = run(capsys, "report", "--m", "2", "--n", "4")
    assert code == 0
    assert err == ""
    entries = json.loads(out)
    assert [e["graph"] for e in entries] == ["full", "bipartite"]
    full, bip = entries
    assert full["m"] == 2 and full["n"] == 4
    assert full["vertices"] == 14
    assert {"value", "multiplicity", "main"} <= set(full["eigenvalues"][0])
    assert sum(e["multiplicity"] for e in full["eigenvalues"]) == 14
    assert all(c["pass"] for c in full["checks"] + bip["checks"])
    assert {"name", "pass", "residual"} <= set(full["checks"][0])
    predicted = full["predicted"]
    assert predicted["zero_multiplicity"] == 0
    assert len(predicted["p_eigenvalues"]) == 3
    assert bip["vertices"] == 8
    assert bip["predicted"]["main_count"] == 3
    assert len(bip["predicted"]["main_eigenvalues"]) == 3


def test_report_detects_zero_block(capsys):
    code, out, _ = run(capsys, "report", "--m", "3", "--n", "2")
    assert code == 0
    full = json.loads(out)[0]
    by_value = {round(e["value"], 6): e for e in full["eigenvalues"]}
    assert by_value[0.0]["multiplicity"] == 2
    assert by_value[0.0]["main"] is False
    mains = [e for e in full["eigenvalues"] if e["main"]]
    assert len(mains) == 1
    assert mains[0]["value"] == pytest.approx(2.0)


def test_report_text_format(capsys):
    code, out, _ = run(capsys, "report", "--m", "2", "--n", "3", "--format", "text")
    assert code == 0
    assert "full graph" in out
    assert "bipartite" in out
    assert "pass" in out


def test_report_size_cap_exit(capsys):
    code, out, err = run(capsys, "report", "--m", "2", "--n", "4", "--size-cap", "10")
    assert code == 3
    assert "size cap" in err
    entries = json.loads(out)
    full = entries[0]
    assert full["eigenvalues"] == []
    assert full["skipped"]
    # Quotient-level checks still run.
    assert any("walk" in c["name"] for c in full["checks"])


def test_report_dense_cap_skips_eigen_work(capsys):
    code, out, _ = run(capsys, "report", "--m", "2", "--n", "4",
                       "--dense-cap", "10")
    assert code == 0
    full = json.loads(out)[0]
    assert full["eigenvalues"] == []
    assert any("dense" in note for note in full["skipped"])
    assert any("Krylov" in c["name"] for c in full["checks"])


def test_dense_cap_above_size_cap_changes_nothing(capsys):
    # dense checks run only on graphs that were built, so a dense cap
    # above the size cap acts as if it were the size cap
    base = ["report", "--m", "3", "--n", "4", "--size-cap", "40", "--dense-cap"]
    high = run(capsys, *base, "100000")
    assert high == run(capsys, *base, "40")
    assert high[0] == 3


_QUOTIENT_CHECKS = [
    "row sums follow the degree law ({})",
    "walk routes agree ({})",
    "walk rank equals n-1 ({})",
    "determinant routes agree ({})",
    "quotient eigenvalues pairwise separated ({})",
]
_STRUCTURE_CHECKS = [
    "cell sizes follow the closed form ({})",
    "empirical quotient equals the closed form ({})",
]
_ANNIHILATION_M2_N5 = [
    f"pair power i={i} annihilates the bipartite quotient" for i in (1, 2, 3, 4)
]
_FULL_PREFIX = [s.format("P") for s in _QUOTIENT_CHECKS] + [
    s.format("full graph") for s in _STRUCTURE_CHECKS
]
_BIP_PREFIX = (
    [s.format("Q") for s in _QUOTIENT_CHECKS]
    + _ANNIHILATION_M2_N5
    + [s.format("bipartite subgraph") for s in _STRUCTURE_CHECKS]
)
_FULL_SPECTRUM_M2_N5 = ["distinct eigenvalue count"] + [
    f"eigenvalue {value} x{mult}"
    for value, mult in (
        ("-4.2360679775", 4), ("-2.09972762926", 1), ("-0.61803398875", 9),
        ("-0.114443723705", 1), ("0.2360679775", 4), ("0.476252246276", 1),
        ("1.61803398875", 9), ("8.73791910668", 1),
    )
]


@pytest.mark.parametrize(
    "dense_cap, full_names, bip_names",
    [
        pytest.param(
            None,
            _FULL_PREFIX + _FULL_SPECTRUM_M2_N5 + [
                "main eigenvalues equal the full quotient spectrum",
                "exact Krylov rank of the graph equals its main count",
            ],
            _BIP_PREFIX + [
                "subgraph main eigenvalues equal the bipartite quotient spectrum",
                "nonzero non-main values equal the negated subgraph mains",
                "main counts equal n-1 on both graphs",
                "exact Krylov rank of the subgraph equals its main count",
            ],
            id="both-dense",
        ),
        pytest.param(
            "20",  # 30 full-graph vertices, 16 subgraph vertices
            _FULL_PREFIX + ["exact Krylov rank equals n-1 (full graph)"],
            _BIP_PREFIX + [
                "subgraph main eigenvalues equal the bipartite quotient spectrum",
                "subgraph main count equals n-1",
                "exact Krylov rank of the subgraph equals its main count",
            ],
            id="subgraph-dense",
        ),
        pytest.param(
            "1",
            _FULL_PREFIX + ["exact Krylov rank equals n-1 (full graph)"],
            _BIP_PREFIX + ["exact Krylov rank equals n-1 (bipartite subgraph)"],
            id="neither-dense",
        ),
    ],
)
def test_report_places_each_check_in_its_graph(capsys, dense_cap, full_names, bip_names):
    argv = ["report", "--m", "2", "--n", "5"]
    if dense_cap is not None:
        argv += ["--dense-cap", dense_cap]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    full, bip = json.loads(out)
    assert [c["name"] for c in full["checks"]] == full_names
    assert [c["name"] for c in bip["checks"]] == bip_names


def _walk_with_repeated_column(monkeypatch):
    """Make cli's iterative walk matrix repeat its first column."""
    real = cli.walk_matrix_iterative

    def doctored(quotient):
        walk = real(quotient)
        rows = tuple((row[0], row[0]) + row[2:] for row in walk.entries)
        return WalkMatrix(walk.kind, walk.m, walk.n, rows)

    monkeypatch.setattr(cli, "walk_matrix_iterative", doctored)


def test_rank_falls_back_to_elimination_on_a_singular_walk(capsys, monkeypatch):
    # A zero determinant must send the rank through its own elimination.
    _walk_with_repeated_column(monkeypatch)
    m, n = 3, 5
    for quotient in (build_p(m, n), build_q(m, n)):
        routes = cli._walk_routes(quotient)
        assert routes.det_elimination == 0
        assert routes.rank == exact_rank(routes.walk) == n - 2
    _, out, _ = run(capsys, "report", "--m", str(m), "--n", str(n),
                    "--size-cap", "1")
    checks = {c["name"]: c["pass"] for e in json.loads(out) for c in e["checks"]}
    for tag in ("P", "Q"):
        assert checks[f"walk rank equals n-1 ({tag})"] is False
        assert checks[f"determinant routes agree ({tag})"] is False
    code, out, _ = run(capsys, "verify", "--m", str(m), "--n", str(n),
                       "--size-cap", "1")
    assert code == 1
    assert "FAIL" in out
    assert "determinant routes agree (P) - elimination 0, factorization" in out


# === verify ===

def test_verify_small_grid(capsys):
    code, out, err = run(capsys, "verify", "--m", "2..3", "--n", "2..3")
    assert code == 0
    assert err == ""
    assert "4 cells" in out
    assert "0 failures" in out
    assert out.count("pass") >= 4
    assert "FAIL" not in out


def test_verify_single_point_ranges(capsys):
    code, out, _ = run(capsys, "verify", "--m", "3", "--n", "4")
    assert code == 0
    assert "1 cells" in out


def test_verify_reports_skips_under_tight_caps(capsys):
    code, out, _ = run(capsys, "verify", "--m", "2", "--n", "5..5",
                       "--dense-cap", "10")
    assert code == 0
    assert "skipped:" in out
    assert "dense" in out


def test_verify_formats_no_passing_determinant(capsys):
    # The walk determinant at (9, 16) has 834 digits; a passing check must
    # not turn it into a string, so a lower int-to-str limit cannot fail it.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "verify", "--m", "9", "--n", "16",
                             "--size-cap", "1")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0, err
    assert "0 failures" in out


def test_verify_runs_the_recurrence_checks_once_per_m(capsys, monkeypatch):
    # The cross-product identities depend on m alone; every cell of that m
    # still counts them.
    calls = []
    real = cli._recurrence_checks

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(cli, "_recurrence_checks", counted)
    code, out, _ = run(capsys, "verify", "--m", "2..3", "--n", "2..4",
                       "--size-cap", "1")
    assert code == 0
    assert calls == [2, 3]
    assert "6 cells" in out


def test_battery_annihilates_past_n_ten():
    battery = cli.run_battery(2, 11, 1, 1)
    annihilation = [f"pair power i={i} annihilates the bipartite quotient"
                    for i in range(1, 11)]
    bipartite = [c.name for c in battery.checks["bipartite"]]
    assert [name for name in bipartite if "annihilates" in name] == annihilation
    assert all(c.passed for c in battery.checks["bipartite"])
    assert not any("annihilat" in c.name for c in battery.checks["full"])
    notes = battery.skipped["full"] + battery.skipped["bipartite"]
    assert notes
    assert not any("annihilation" in note for note in notes)


def test_battery_reads_the_match_tolerance_at_call_time(monkeypatch):
    # Rounding keeps every computed value off its prediction by more than
    # 1e-300, so each value match fails; the counts and the exact ranks,
    # which no tolerance enters, still pass.
    monkeypatch.setattr(spectra, "MATCH", 1e-300)
    battery = cli.run_battery(3, 4, 20000, 3000)
    verdicts = {c.name: c.passed for role in cli.ROLES for c in battery.checks[role]}
    value_matches = {name for name in verdicts if name.startswith("eigenvalue ")}
    assert len(value_matches) == len(battery.prediction.multiset())
    value_matches |= {
        "main eigenvalues equal the full quotient spectrum",
        "subgraph main eigenvalues equal the bipartite quotient spectrum",
        "nonzero non-main values equal the negated subgraph mains",
    }
    assert {name for name, ok in verdicts.items() if not ok} == value_matches
    for name in (
        "distinct eigenvalue count",
        "main counts equal n-1 on both graphs",
        "exact Krylov rank of the graph equals its main count",
        "exact Krylov rank of the subgraph equals its main count",
    ):
        assert verdicts[name] is True


def test_verify_range_validation(capsys):
    # a well-formed range below m = 2 reaches the weight check of the
    # recurrence checks, which run before any builder
    code, out, err = run(capsys, "verify", "--m", "1..3", "--n", "2..3")
    assert code == 2
    assert out == ""
    assert err == "error: weight m must be an integer >= 2, got 1\n"
    # a range needs both bounds: "2.." is not "2"
    for text in ("3..x", "2..", "..3", "..", "3..2"):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--m", "2", "--n", text])
        assert info.value.code == 2, text
        assert repr(text) in capsys.readouterr().err


# === export ===

def test_export_adjacency_csv(capsys):
    code, out, _ = run(capsys, "export", "--what", "graph", "--m", "2", "--n", "2",
                       "--format", "csv")
    assert code == 0
    assert out == "0,1\n1,0\n"


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "--what", "subgraph", "--m", "2", "--n", "4")
    assert code == 0
    assert out.startswith("graph bipartite_m2_n4 {")
    assert '"0010" -- "0001";' in out
    assert "rank=same" in out


def test_export_json(capsys):
    code, out, _ = run(capsys, "export", "--what", "graph", "--m", "2", "--n", "3",
                       "--format", "json")
    assert code == 0
    desc = json.loads(out)
    assert desc["graph"] == "full"
    assert len(desc["vertices"]) == 6
    assert len(desc["edges"]) == 6


def test_export_respects_size_cap(capsys):
    code, _, err = run(capsys, "export", "--what", "graph", "--m", "2", "--n", "4",
                       "--size-cap", "5")
    assert code == 3
    assert "cap" in err


# === shared behavior ===

def test_byte_determinism(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "report", "--m", "2", "--n", "4")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    for _ in range(2):
        code, out, _ = run(capsys, "export", "--what", "graph",
                           "--m", "2", "--n", "3")
        assert code == 0
        runs.append(out)
    assert runs[2] == runs[3]


def test_usage_errors_exit_two(capsys):
    for argv in (
        [],
        ["quotient"],
        ["quotient", "--kind", "r", "--m", "2", "--n", "4"],
        ["report", "--m", "2"],
        ["report", "--m", "2", "--n", "4", "--eigen-convergence", "1e-12"],
        ["unknown"],
        # the numeric policy is fixed by the constants in spectra; these
        # flags are gone and argparse refuses them
        ["report", "--m", "2", "--n", "3", "--tolerance", "-1"],
        ["report", "--m", "2", "--n", "3", "--tolerance", "nan"],
        ["verify", "--m", "2", "--n", "3", "--projection-threshold", "0"],
        ["report", "--m", "2", "--n", "3", "--projection-threshold", "-1"],
        ["report", "--m", "2", "--n", "3", "--projection-threshold", "inf"],
        ["verify", "--m", "2", "--n", "3", "--grouping-gap", "-1"],
        # caps are positive integers
        ["report", "--m", "2", "--n", "3", "--size-cap", "0"],
        ["verify", "--dense-cap", "-5"],
        ["export", "--m", "2", "--n", "3", "--size-cap", "x"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2, argv


@pytest.mark.parametrize("m, n", [(1, 4), (3, 1)])
@pytest.mark.parametrize(
    "command",
    [
        ["quotient", "--kind", "p"],
        ["quotient", "--kind", "q"],
        ["report"],
        ["verify"],
        ["export"],
        ["export", "--what", "subgraph"],
    ],
    ids=["quotient-p", "quotient-q", "report", "verify", "export-graph", "export-subgraph"],
)
def test_cells_below_two_exit_two_before_any_output(capsys, command, m, n):
    code, out, err = run(capsys, *command, "--m", str(m), "--n", str(n))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_quotient_entries_beyond_the_float_range_exit_two(capsys):
    # P at m = 10**6, n = 60 has entries near 10**354; the quotient
    # spectrum cannot be taken in floating point.
    for command in (["report"], ["verify", "--size-cap", "1"]):
        code, out, err = run(capsys, *command, "--m", "1000000", "--n", "60")
        assert code == 2, err
        assert out == ""
        assert err.startswith("error:") and "float range" in err
    with pytest.raises(ValueError, match="float range"):
        spectra.quotient_eigenvalues(build_p(10**6, 60))


def test_domain_errors_exit_two(capsys):
    # Valid syntax, impossible arguments: n above the machine-word limit.
    code = cli.main(["export", "--what", "graph", "--m", "2", "--n", "99"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_report_at_fourteen_thousand_vertices_passes(capsys):
    # m=4, n=7: 14,196 vertices; structural checks and exact Krylov ranks
    # run on the support lattice, dense spectra are capped off.
    code, out, err = run(capsys, "report", "--m", "4", "--n", "7", "--dense-cap", "1")
    assert code == 0 and err == ""
    full, bip = json.loads(out)
    assert full["vertices"] == 14196
    for entry in (full, bip):
        assert entry["checks"] and all(c["pass"] for c in entry["checks"])
        assert any("Krylov" in c["name"] for c in entry["checks"])


# === golden stdout ===

# SHA-256 of stdout, recorded before the caps lost their environment
# variables and the command line its own parameter check.  None of these
# commands prints eigenvalue text, so the digests do not depend on the
# BLAS build.
GOLDEN_STDOUT = {
    "verify":
        "d66089657f6324181696ed9247a2c6844b557483071e594f280c79ca9e951969",
    "verify --m 2..9 --n 2..10 --size-cap 1":
        "27564a6334f466d8659697ac30f931facc4a894f2dd2351869cd07e04dbc72b1",
    "verify --m 2..5 --n 2..6 --dense-cap 200":
        "d2384b5d809fad6014916c9a55b17da5d3f4699745fb183e4d013a0fb08b7e77",
    "report --m 3 --n 4 --format text --dense-cap 1":
        "b7bc9a0bd82f3414fe570cb51d24a617db916321470e427dabf21f3fbb8e91ed",
    "quotient --kind p --m 3 --n 6 --format json":
        "4e47cc80aa86562b639b5b0b7d9a3d8c9cef74e9033a0571c8170ee65a661e21",
    "quotient --kind q --m 4 --n 5":
        "f3e9b0f5868c3649dd2228864063d72e8addf681f26545e33039cdc019c15194",
    "export --m 2 --n 4":
        "bb87b00a77af82a81537ddc20f0bc20a27f0d5532146b8431a31f9cb582e9aa0",
    "export --what subgraph --m 3 --n 3 --format json":
        "5dd632fae28529081156a368355c7bcb08aea161166ae25775c947dd4d47b68f",
    # recorded before the vertex sets were built in order without a sort;
    # the exports list vertices and edges in vertex order
    "export --what subgraph --m 4 --n 4 --format dot":
        "074a1d6cb394225688c60d3787ce7efe5161d519894b204e2d10a1ad07b33e25",
    "export --m 3 --n 4 --format csv":
        "ccf4dfeefc4b2a1166a742f4a4583f8a993b72b7966361df95efdcd4dc426685",
    "report --m 4 --n 7 --format text --dense-cap 1":
        "87c14616975f0bdbb65c9134d3e393323716046c872d56cb86e62c1fe174c6f3",
    # comma-separated labels (m > 10), recorded before the graphs were
    # made from their coordinate arrays alone
    "export --m 11 --n 2 --format json":
        "0b615fb6b8c198450f9a24e2e1c6350b90988bf9a123086b881b7a0644c335af",
    "export --what subgraph --m 11 --n 3 --format dot":
        "974f06bcff6e8ee0e08e7ee2d35ca965e659256275d5f127e03d10f3633a97ff",
}


@pytest.mark.parametrize(
    "command", sorted(GOLDEN_STDOUT), ids=lambda command: command.replace(" ", "_")
)
def test_golden_stdout(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT[command]
