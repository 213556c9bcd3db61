"""zdspectra benchmark: one workload, one process, end to end or traced.

    python3 perfbench/run.py --workload dense-spectral --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  The workload runs in this
process through `zdspectra.cli.main(argv)`, single-threaded, with BLAS
pinned to one thread.  Set-up time is measured in child interpreters.

With `--trace 0` the last stdout line carries the end-to-end metrics
(wall_s, setup_s, peak_rss_mb); with `--trace 1` it carries the
per-layer metrics of a traced run, after an untraced run of the same
length for the overhead.  The line before it is a JSON detail record
(environment, seed, sample counts, error rate), which is also written
with the trace spans to `perfbench/out/`.  Exit status 2 means the
benchmark could not run at all; otherwise it is 0 and `correct` says
whether every invocation passed the gate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Recorder
from workloads import WORKLOADS, Invocation, gate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
SETUP_CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import zdspectra"
TAIL_SAMPLES = 10


class Harness:
    """Runs, times and gates one workload's invocations in this process."""

    def __init__(self, cli, seed: int) -> None:
        self.cli = cli
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failures: list[dict] = []
        self.checks = 0
        self.skipped = 0
        self.invocation_s: dict[str, list[float]] = {}
        self._digests: dict[str, str] = {}

    def invoke(self, inv: Invocation) -> float:
        """Run one invocation, gate it, and return its wall time."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(inv.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is one failed operation, not the end of the run
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.attempted += 1
        text = out.getvalue()
        if code is None:
            problems = ["raised " + err.getvalue().strip().splitlines()[-1]]
        else:
            verdict = gate(inv, code, text)
            problems = verdict.problems
            self.checks += verdict.checks
            self.skipped += verdict.skipped
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self._digests.setdefault(inv.label, digest) != digest:
            problems.append("output differs from an earlier run of the same invocation")
        if problems:
            self.failures.append({"invocation": inv.label, "problems": problems[:5]})
        self.invocation_s.setdefault(inv.label, []).append(elapsed)
        return elapsed

    def run_pass(self, invocations: tuple[Invocation, ...]) -> float:
        order = list(invocations)
        self.rng.shuffle(order)
        return sum(self.invoke(inv) for inv in order)

    def run_for(self, invocations: tuple[Invocation, ...], seconds: float) -> list[float]:
        """Whole passes until the next one would overrun `seconds` (at least one)."""
        passes: list[float] = []
        start = time.perf_counter()
        while not passes or (
            time.perf_counter() - start + statistics.median(passes) <= seconds
        ):
            passes.append(self.run_pass(invocations))
        return passes


def tail(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least TAIL_SAMPLES samples above it,
    reported only when that lies above the median."""
    n = len(samples)
    if n < 2 * TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    return {
        "percentile": (100 * (n - TAIL_SAMPLES)) // n,
        "value": ordered[n - TAIL_SAMPLES - 1],
    }


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter importing zdspectra, several times."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True)
        samples.append(time.perf_counter() - start)
    return samples


def environment(np) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "zdspectra").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import zdspectra from this checkout's src/ or exit with status 2."""
    if not (SRC / "zdspectra" / "__init__.py").is_file():
        _fail(f"no zdspectra source under {SRC}")
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy as np
    import zdspectra.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "zdspectra":
        _fail(f"zdspectra imported from {cli.__file__}, not {SRC}")
    return cli, np


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> tuple[dict, dict, dict | None]:
    """Measure one workload; returns (result line, detail record, spans).

    `tiny` swaps in the m=2, n=3 invocations that exercise the same code
    paths in milliseconds, for the self-test.
    """
    cli, np = import_package()
    spec = WORKLOADS[workload]
    invocations = spec.tiny if tiny else spec.invocations
    setup = [] if trace else measure_setup()
    harness = Harness(cli, seed)
    for inv in spec.tiny:  # warm-up: lazy imports and first-call costs
        harness.invoke(inv)
    spans = None
    if trace:
        plain = harness.run_for(invocations, seconds / 2)
        checks, skipped = harness.checks, harness.skipped
        recorder = Recorder()
        recorder.install()
        try:
            passes = harness.run_for(invocations, seconds / 2)
        finally:
            recorder.uninstall()
        layers = recorder.layer_metrics(len(passes))
        layers["cli.checks"] = (harness.checks - checks) / len(passes)
        layers["cli.checks_skipped"] = (harness.skipped - skipped) / len(passes)
        traced_wall = statistics.median(passes)
        layer_s = sum(v for k, v in layers.items() if k.endswith("_s"))
        layers["trace.coverage"] = layer_s / (sum(passes) / len(passes))
        layers["trace_overhead_s"] = traced_wall - statistics.median(plain)
        metrics = {
            name: {"value": value, "unit": _unit(name)} for name, value in layers.items()
        }
        spans = recorder.spans()
    else:
        passes = harness.run_for(invocations, seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": statistics.median(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {
        "correct": not harness.failures,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "environment": environment(np),
        "wall_s": {
            "median": statistics.median(passes),
            "tail": tail(passes),
            "samples": len(passes),
            "passes": passes,
        },
        "setup_s": setup,
        "error_rate": len(harness.failures) / harness.attempted,
        "failures": harness.failures,
        "checks": harness.checks,
        "checks_skipped": harness.skipped,
        "invocation_s": {
            label: statistics.median(times) for label, times in harness.invocation_s.items()
        },
    }
    if trace:
        detail["untraced_passes"] = plain
    return result, detail, spans


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "graph.adjacency_bytes":
        return "bytes-computed"
    if name == "trace.coverage":
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result, detail, spans = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "detail": detail, "spans": spans}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
