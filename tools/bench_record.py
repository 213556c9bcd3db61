"""Record wall time and peak memory of a fixed list of zdspectra commands.

Usage: python tools/bench_record.py LABEL

Each command of COMMANDS runs RUNS times as a whole process, from this
checkout's src/, with BLAS at one thread and its output discarded.  For
each command the record holds the exit codes, the median and quartiles
of wall time (start-up included) and each child's peak RSS from
os.wait4.  For the run it holds the git commit, the Python and numpy
versions, the BLAS name and version from numpy.show_config,
os.cpu_count() and the thread variables.  It is written to
BENCH_<LABEL>.json at the root of the repository.

Exit codes are recorded, not judged, and nothing is compared with an
earlier record: the script gates nothing.  To compare two commits, run
it on each from the same machine, alternating the two sides.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMANDS = (
    ("verify",),
    ("report", "--m", "4", "--n", "6", "--dense-cap", "4000"),
    ("verify", "--m", "2..9", "--n", "32", "--size-cap", "1"),
    ("report", "--m", "2", "--n", "63"),
    ("verify", "--m", "2", "--n", "40..46", "--size-cap", "1"),
    ("report", "--m", "2", "--n", "13", "--dense-cap", "4096"),
)


def run_once(args: tuple[str, ...], env: dict[str, str]) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one child process."""
    argv = [sys.executable, "-m", "zdspectra", *args]
    discard = [
        (os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=discard)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def record_command(args: tuple[str, ...], env: dict[str, str]) -> dict:
    runs = [run_once(args, env) for _ in range(RUNS)]
    walls = [wall for _, wall, _ in runs]
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return {
        "command": "zdspectra " + " ".join(args),
        "exit_codes": [code for code, _, _ in runs],
        "wall_s": {"median": median, "q1": q1, "q3": q3, "runs": walls},
        "peak_rss_mb": [rss for _, _, rss in runs],
    }


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def main() -> int:
    if len(sys.argv) != 2 or not re.fullmatch(r"[A-Za-z0-9._-]+", sys.argv[1]):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    label = sys.argv[1]
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "label": label,
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "threads": {name: env[name] for name in THREADS},
        "runs_per_command": RUNS,
        "commands": [record_command(args, env) for args in COMMANDS],
    }
    target = ROOT / f"BENCH_{label}.json"
    target.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
