"""Self-test of the benchmark harness: the gate, the tiny mode, the contract.

    python3 -m pytest -q perfbench

Runs in seconds: every workload's code paths are exercised at m=2, n=3.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
from spans import Recorder
from workloads import WORKLOADS, gate, report, verify

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _output(inv) -> str:
    cli, _ = run.import_package()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(inv.argv)) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def dense_tiny():
    inv = report(2, 3)
    return inv, json.loads(_output(inv))


@pytest.fixture(scope="module")
def verify_tiny():
    inv = verify(2, 3, 4)
    return inv, _output(inv)


def _doctor(entries, edit):
    doctored = copy.deepcopy(entries)
    edit(doctored)
    return json.dumps(doctored)


def test_gate_accepts_real_output(dense_tiny, verify_tiny):
    inv, entries = dense_tiny
    assert gate(inv, 0, json.dumps(entries)).ok
    inv, text = verify_tiny
    verdict = gate(inv, 0, text)
    assert verdict.ok and verdict.checks > 0


@pytest.mark.parametrize(
    "edit",
    [
        lambda e: e[0]["checks"][0].update({"pass": False}),
        lambda e: e[1]["checks"][-1].update({"pass": False}),
        lambda e: e[0].update({"vertices": e[0]["vertices"] + 1}),
        lambda e: e[1].update({"vertices": str(e[1]["vertices"] - 1)}),
        lambda e: e[0]["eigenvalues"][0].update(
            {"multiplicity": e[0]["eigenvalues"][0]["multiplicity"] + 1}
        ),
        lambda e: e[0]["eigenvalues"][0].update({"main": not e[0]["eigenvalues"][0]["main"]}),
        lambda e: e[1].update({"eigenvalues": []}),
        lambda e: e[0].update({"checks": []}),
        lambda e: e.reverse(),
        lambda e: e[0].update({"eigenvalues": "none"}),
    ],
    ids=[
        "pass-false-full", "pass-false-bipartite", "vertex-count", "vertex-count-string",
        "multiplicity", "main-flag", "eigenvalues-missing", "no-checks", "roles-swapped",
        "malformed",
    ],
)
def test_gate_rejects_doctored_report(dense_tiny, edit):
    inv, entries = dense_tiny
    assert not gate(inv, 0, _doctor(entries, edit)).ok


def test_gate_rejects_bad_exit_code_and_garbage(dense_tiny):
    inv, entries = dense_tiny
    assert not gate(inv, 1, json.dumps(entries)).ok
    assert not gate(inv, 0, "not json").ok


@pytest.mark.parametrize(
    "old, new",
    [
        (" 0 failures", " 1 failures"),
        ("2 cells,", "3 cells,"),
        ("  pass", "  FAIL"),
    ],
)
def test_gate_rejects_doctored_verify(verify_tiny, old, new):
    inv, text = verify_tiny
    assert old in text
    assert not gate(inv, 0, text.replace(old, new, 1)).ok


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_mode_runs_every_workload(workload, trace):
    result, detail, spans = run.run_benchmark(workload, seed=5, seconds=1, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert detail["error_rate"] == 0
    group = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[group]}
    for spec in BENCHMARK[group]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["cli.invocations"] == len(WORKLOADS[workload].tiny)
        assert layers["trace.coverage"] > 0.9
        assert spans["name"] and max(spans["parent"]) < len(spans["name"])
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_trace_reaches_each_workloads_layer():
    def layers(workload):
        result, _, _ = run.run_benchmark(workload, seed=1, seconds=1, trace=True, tiny=True)
        return {k: v["value"] for k, v in result["metrics"].items()}

    dense, structural, exact = (
        layers(w) for w in ("dense-spectral", "structural-large", "exact-sweep")
    )
    assert dense["spectra.eigen_calls"] == 2 and dense["spectra.eigen_order_max"] == 6
    assert structural["spectra.eigen_calls"] == 0 and structural["spectra.krylov_calls"] == 2
    assert structural["graph.adjacency_bytes"] == 6**2 + 4**2
    assert exact["graph.vertices"] == 0 and exact["fib.quadratic_ops"] > 0
    assert exact["spectra.annihilation_dets"] == 2


def test_recorder_restores_every_binding():
    cli, _ = run.import_package()
    import zdspectra.spectra as spectra
    from zdspectra.fib import QuadraticNumber

    before = (cli.krylov_rank, spectra.krylov_rank, cli.main, QuadraticNumber.__mul__)
    recorder = Recorder()
    recorder.install()
    try:
        assert cli.krylov_rank is spectra.krylov_rank is not before[0]
    finally:
        recorder.uninstall()
    assert (cli.krylov_rank, spectra.krylov_rank, cli.main, QuadraticNumber.__mul__) == before


def test_outputs_do_not_depend_on_seed():
    cli, _ = run.import_package()
    digests = []
    for seed in (1, 2):
        harness = run.Harness(cli, seed)
        harness.run_pass(WORKLOADS["exact-sweep"].tiny + WORKLOADS["dense-spectral"].tiny)
        digests.append(dict(harness._digests))
    assert digests[0] == digests[1]


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200


def test_fails_without_package_source():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
