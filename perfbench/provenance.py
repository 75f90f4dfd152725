"""Where and on what a result was measured.

Recorded beside every result so numbers from different machines, days or
source trees can be told apart: the git commit when the tree is a git
checkout, a digest of the program sources either way, the interpreter and
numpy versions, the CPU count, the workload seed, and the wall time of
the fixed-size kernel ``perfbench/calib.py`` times through every run.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from perfbench.calib import kernel

__all__ = ["provenance", "calibrate"]


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def calibrate() -> float:
    """Wall seconds of one host-clock kernel pass (median of 11, after one warm-up)."""
    kernel()
    times = []
    for _ in range(11):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[5]


def provenance(root: Path, seed: int) -> dict:
    return {
        "git_sha": _git_sha(root),
        "source_digest": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "calibration_s": calibrate(),
        "unix_time": time.time(),
    }
