"""Host facts: BLAS threads, host speed and provenance.

Nothing here imports ``hodgeshapley``; these numbers describe the machine
and the inputs, never the code under test.  Only the host-speed probe
enters the metrics, as the scale that turns timings into reference-host
seconds.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

# Symbol names under which the OpenBLAS builds shipped in numpy and scipy
# wheels export their thread-count query.
_THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def loaded_openblas_threads() -> dict[str, int]:
    """Thread count reported by every OpenBLAS library mapped into this process."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and ".so" in path:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


# What the calibration loop takes on the reference host.  Each timing
# sample is multiplied by REFERENCE_CALIBRATION_MS over the loop's time
# just before the sample, so it reads as seconds on a host of reference
# speed, whichever speed phase the actual host is in (RATIONALE.md).
REFERENCE_CALIBRATION_MS = 10.0


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop, a measure of the host's current speed.

    The fastest of three repeats, so that an interrupt or a context switch
    landing in one repeat does not read as a slow host.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for k in range(100_000):
            acc = (acc * 31 + k) & 0xFFFFF
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def input_digest(items) -> str:
    """sha256 over the repr of every generated input, in generation order."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def src_line_count(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


def provenance(root: Path, digest: str, blas_threads: dict) -> dict:
    import numpy
    import scipy
    return {
        "input_digest": digest,
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "src_lines": src_line_count(root / "src"),
    }
