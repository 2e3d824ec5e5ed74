"""Campaign-service throughput: sustained points/s and submit→result latency.

Boots the real asyncio service (:class:`repro.service.ServiceHandle`) on
an ephemeral port twice over one shared cache directory:

* **cold** — a fresh cache: every submitted point simulates, so the run
  measures end-to-end service throughput (HTTP + scheduling + dispatch +
  journal + cache writes) on real work.
* **warm** — a *new* service process over the same store: every point is
  satisfied from the campaign journal, so the run measures the resume /
  cache path alone.

Both runs drive the service through :mod:`repro.service.loadgen` over
actual HTTP and write ``BENCH_service.json`` at the repository root:
sustained points/s, submit→done p50/p99 latency and the warm:cold
throughput ratio.  Warm must beat cold — if replaying a journal is not
faster than simulating, the resume path is broken.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
from pathlib import Path

from repro.analysis import runner
from repro.service import ServiceConfig, ServiceHandle
from repro.service.loadgen import fetch_metrics, run_load

from benchmarks.bench_vector import git_commit, source_digest
from benchmarks.conftest import once

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_service.json"

#: Load shape: campaigns x (2 kinds x 2 ratios) points each.
CAMPAIGNS = 3
OPS = 400

#: Thread-pool dispatch: on the small benchmark grid the measurement
#: target is the service machinery, not process-spawn overhead.
BACKEND = "inproc"
WORKERS = 2


def _boot(cache_dir: str) -> ServiceHandle:
    return ServiceHandle(
        ServiceConfig(
            port=0, backend=BACKEND, workers=WORKERS, cache_dir=cache_dir
        )
    ).start()


def _load_pass(cache_dir: str):
    """One service lifetime + load run over ``cache_dir``."""
    handle = _boot(cache_dir)
    try:
        base = f"http://127.0.0.1:{handle.port}"
        report = run_load(base, campaigns=CAMPAIGNS, ops=OPS)
        metrics = fetch_metrics(base)
    finally:
        handle.stop()
    return report, metrics


def test_service_throughput(benchmark):
    runner.clear_memo()
    cache_dir = tempfile.mkdtemp(prefix="bench_service_")
    try:
        cold, _ = once(benchmark, lambda: _load_pass(cache_dir))
        assert cold.failed == 0, "cold load run had failed points"
        assert cold.computed == cold.points, "cold run should simulate everything"

        # A new process over the same store: the journal satisfies it all.
        runner.clear_memo()
        warm, warm_metrics = _load_pass(cache_dir)
        assert warm.failed == 0, "warm load run had failed points"
        assert warm.computed == 0, "warm run should not re-simulate"
        assert warm.resumed == warm.points, "warm run should resume from journal"
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    payload = {
        "benchmark": "service_throughput",
        "campaigns": CAMPAIGNS,
        "points_per_campaign": cold.points // max(1, cold.campaigns),
        "ops_per_core": OPS,
        "backend": BACKEND,
        "workers": WORKERS,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cold": cold.to_dict(),
        "warm": warm.to_dict(),
        "warm_vs_cold_throughput": (
            round(warm.points_per_second / cold.points_per_second, 3)
            if cold.points_per_second
            else None
        ),
    }
    OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")

    # The acceptance bar: serving from the journal must beat simulating.
    assert warm.points_per_second > cold.points_per_second, (
        f"warm throughput {warm.points_per_second:.2f} pts/s not above cold "
        f"{cold.points_per_second:.2f} pts/s"
    )
    # The metrics endpoint survived the whole run and still parses; the
    # per-kind throughput counters saw every computed point.
    completed = warm_metrics.get("repro_points_completed_total", {})
    assert sum(completed.values()) >= cold.points
