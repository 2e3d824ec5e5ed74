"""Result digests, percentile rules, host timing and provenance."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles considered for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


CLK_TCK = os.sysconf("SC_CLK_TCK")


def descendants(pid: int) -> List[int]:
    """Pids of every live descendant of ``pid``."""
    found, stack = [], [pid]
    while stack:
        for children in Path(f"/proc/{stack.pop()}").glob("task/*/children"):
            try:
                kids = [int(c) for c in children.read_text().split()]
            except (FileNotFoundError, ProcessLookupError):
                continue  # exited between listing and reading
            found.extend(kids)
            stack.extend(kids)
    return found


def tree_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` and every live descendant."""
    total = 0.0
    for member in [pid] + descendants(pid):
        try:
            fields = Path(f"/proc/{member}/stat").read_text().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        total += (int(fields[11]) + int(fields[12])) / CLK_TCK
    return total


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine's CPUs, summed."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / CLK_TCK


#: Loop iterations whose time defines the calibration unit.
CALIBRATION_SIZE = 150_000


def _calibration_work(size: int) -> int:
    # Dict, list, attribute-free integer work: the kind of bytecode the
    # simulator's hot loops run.
    table, lines, acc = {}, [0] * 256, 0
    for i in range(size):
        key = (i * 2654435761) & 4095
        acc = (acc + table.get(key, i)) & 0xFFFFFFFF
        table[key] = acc
        lines[i & 255] = lines[(i + 7) & 255] ^ acc
    return acc


class SpeedSampler:
    """Samples how fast the host runs, for as long as it is open.

    A background thread times a short fixed loop (a few milliseconds of
    CPU) every ``interval`` seconds with its own CPU clock, so time spent
    waiting for a CPU is not counted.  Each virtual CPU of the host this
    benchmark was built on switches between two speeds, 1.5x apart, within
    a second, independently of the other; samples spread over a whole run
    average that out.  ``seconds`` is the median sample, expressed as the
    time of ``CALIBRATION_SIZE`` iterations.
    """

    SLICE = 5_000

    def __init__(self, interval: float = 0.05, cpu: Optional[int] = None) -> None:
        self.interval = interval
        self.cpu = cpu
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.wait(self.interval):
            start = time.thread_time()
            _calibration_work(self.SLICE)
            self.samples.append(time.thread_time() - start)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def seconds(self) -> float:
        return median(self.samples) * CALIBRATION_SIZE / self.SLICE


class HostClock:
    """Wall time, CPU time of this process tree and steal over an interval."""

    def __init__(self) -> None:
        self.wall = time.perf_counter()
        self.cpu = tree_cpu_seconds(os.getpid())
        self.steal = steal_seconds()

    def elapsed(self) -> Dict[str, float]:
        return {
            "wall_s": time.perf_counter() - self.wall,
            "cpu_s": tree_cpu_seconds(os.getpid()) - self.cpu,
            "steal_s": steal_seconds() - self.steal,
        }


def result_digest(result) -> str:
    """SHA-256 over a run's per-core cycles, flat stats and tracking samples.

    ``engine`` is provenance, not semantics, and is left out: every
    engine must produce the same digest.
    """
    payload = {
        "cycles_per_core": list(result.cycles_per_core),
        "stats": sorted(result.stats.items()),
        "effective_tracking_samples": list(result.effective_tracking_samples),
    }
    canonical = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def combined_digest(per_point: Dict[str, str]) -> str:
    """One digest over labelled per-point digests (order independent)."""
    canonical = json.dumps(sorted(per_point.items()), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(n: int, pct: float) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def beyond(n: int, pct: float) -> int:
    """Samples strictly past the nearest-rank ``pct`` percentile of ``n``."""
    return n - _rank(n, pct)


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(pct, value) of the highest percentile with MIN_BEYOND samples past it.

    None when even the median has fewer than MIN_BEYOND samples beyond it.
    """
    n = len(samples)
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct, nearest_rank(samples, pct)
    return None


def percentile_or_median(samples: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile when MIN_BEYOND samples lie past
    it; otherwise, when the tail cannot be estimated, the median."""
    if beyond(len(samples), pct) >= MIN_BEYOND:
        return nearest_rank(samples, pct)
    return median(samples)


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def source_digest(root: Path) -> str:
    """SHA-256 over every file under ``root/src`` (path + bytes)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: Path, seed: int) -> Dict[str, object]:
    """Where and on what a run was measured.

    A checkout that is not a git repository reports commit and dirty flag
    as null; ``src_sha256`` identifies the code either way.
    """
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--", "src") if commit else None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "commit": commit,
        "dirty": (bool(status) if status is not None else None),
        "src_sha256": source_digest(root),
        "cpu_count": os.cpu_count(),
        "nproc": affinity,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "model_note": (
            "modelled caches and directories start empty (cold) in every "
            "point; the model is unvalidated against hardware; its "
            "reference semantics is the interpreter engine"
        ),
    }


def engine_counts(requested_and_ran: Iterable[Tuple[str, str]]) -> Dict[str, object]:
    """Engine tally over (requested, ran) pairs, with fallbacks counted."""
    ran: Dict[str, int] = {}
    fallbacks = 0
    for requested, actual in requested_and_ran:
        ran[actual] = ran.get(actual, 0) + 1
        if requested != actual:
            fallbacks += 1
    return {"ran": ran, "fallbacks": fallbacks}


def model_counts(results: List) -> Dict[str, float]:
    """Modelled-hardware ratios pooled over results (repeat exactly)."""
    accesses = sum(r.total_accesses for r in results)
    if not accesses:
        return {
            "model.l1_hit_frac": 0.0,
            "model.dir_evictions_per_kilo": 0.0,
            "model.discoveries_per_kilo": 0.0,
        }
    misses = sum(r.stats.get("system.protocol.l1_misses", 0.0) for r in results)
    return {
        "model.l1_hit_frac": 1.0 - misses / accesses,
        "model.dir_evictions_per_kilo": 1000.0
        * sum(r.dir_evictions for r in results) / accesses,
        "model.discoveries_per_kilo": 1000.0
        * sum(r.discovery_broadcasts for r in results) / accesses,
    }
