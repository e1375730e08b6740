"""Percentiles, memory readings and host facts for benchmark results."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

TAIL_BEYOND = 10            # a tail percentile needs >= 10 samples beyond it


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)``: p99, or the highest percentile below it that
    still has at least ten samples beyond it (nearest rank)."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    share = min(0.99, max(0.0, 1.0 - TAIL_BEYOND / n))
    rank = max(0, min(n - 1, int(share * n + 0.5) - 1))
    return ordered[rank], round(100.0 * share, 2)


def windowed_rate(batches: Sequence[Tuple[int, float]], size: int) -> float:
    """Completions per second: the median over consecutive windows of at
    least ``size`` completions, each made of whole ``(completed, seconds)``
    batches.  A remainder short of ``size`` is dropped unless it is all
    there is."""
    rates: List[float] = []
    count, seconds = 0, 0.0
    for done, spent in batches:
        count, seconds = count + done, seconds + spent
        if count >= size:
            rates.append(count / seconds)
            count, seconds = 0, 0.0
    if not rates and seconds:
        rates.append(count / seconds)
    return median(rates)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def rss_mb() -> Dict[str, float]:
    """Resident memory of this process and of every live child process.

    ``peak`` sums each process's high-water mark (``VmHWM``); ``client``
    and ``replicas`` are current resident sizes (``VmRSS``).
    """
    children = [p.pid for p in multiprocessing.active_children()]
    me = os.getpid()
    return {
        "peak": (_status_kb(me, "VmHWM") + sum(_status_kb(p, "VmHWM") for p in children)) / 1024,
        "client": _status_kb(me, "VmRSS") / 1024,
        "replicas": sum(_status_kb(p, "VmRSS") for p in children) / 1024,
    }


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (the checkout need not be git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts(root: Path, seed: int) -> Dict[str, object]:
    import numpy

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": source_digest(root),
        "seed": seed,
    }


def summarize(values: List[float]) -> Dict[str, float]:
    """Sample count, median and tail."""
    value, pct = tail(values)
    return {"n": len(values), "p50": median(values), "tail": value, "tail_pct": pct}
