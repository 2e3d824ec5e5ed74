"""Hot-path throughput: accesses/sec per directory kind, before vs. after.

Measures the end-to-end single-access pipeline (build the system, run the
default 16-core ``mix`` workload through ``run_trace``) for every directory
organization and compares against the frozen pre-overhaul numbers in
``benchmarks/data/hotpath_baseline.json``.  The report lands in
``BENCH_hotpath.json`` at the repository root so speedups are trackable
across commits.

The measurement host matters: throughput is reported as the **best of
several repetitions** because a loaded or single-CPU machine easily skews
individual runs by 30-50%.  Speedups are only meaningful in full mode
(same trace length as the baseline); ``--smoke`` exists for CI, where the
point is that the harness runs and the report has the right shape.

Run standalone::

    python benchmarks/bench_hotpath.py            # full measurement
    python benchmarks/bench_hotpath.py --smoke    # CI smoke (short traces)

or through pytest (``make bench-hotpath``)::

    pytest benchmarks/bench_hotpath.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

# Standalone bootstrap: make src/ (and the benchmarks package, for the
# shared report stamps) importable when run as a script without
# PYTHONPATH (the pytest path already has it configured).
_ROOT = Path(__file__).resolve().parents[1]
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.bench_vector import git_commit, source_digest
from repro.analysis.experiments import make_config
from repro.common.config import DirectoryKind
from repro.sim.simulator import run_trace
from repro.workloads.suite import build_workload

#: Directory organizations the report covers (name -> configured kind).
KINDS = {
    "sparse": DirectoryKind.SPARSE,
    "cuckoo": DirectoryKind.CUCKOO,
    "hierarchical": DirectoryKind.SCD,
    "ideal": DirectoryKind.IDEAL,
    "stash": DirectoryKind.STASH,
}

#: Full-mode measurement parameters — must match the frozen baseline file
#: (same workload, trace length, seed and provisioning ratio), or the
#: before/after comparison is meaningless.
FULL_OPS = 3000
FULL_REPS = 7

#: Smoke-mode parameters: enough to exercise every kind's pipeline.
SMOKE_OPS = 400
SMOKE_REPS = 2

RATIO = 0.5
SEED = 1
WORKLOAD = "mix"

BASELINE = Path(__file__).resolve().parent / "data" / "hotpath_baseline.json"
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_hotpath.json"


def measure_kind(kind: DirectoryKind, ops_per_core: int, reps: int) -> float:
    """Best-of-``reps`` accesses/sec for one directory kind.

    Each repetition rebuilds the system (construction is part of the cost a
    sweep pays per point) and replays the same prebuilt trace.
    """
    config = make_config(kind, ratio=RATIO)
    trace = build_workload(
        WORKLOAD, config.num_cores, ops_per_core,
        seed=SEED, block_bytes=config.block_bytes,
    )
    total = trace.total_ops()
    best = 0.0
    for _ in range(reps):
        start = time.perf_counter()
        run_trace(config, trace)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, total / elapsed)
    return best


def run_report(smoke: bool = False, reps: int | None = None) -> dict:
    """Measure every kind and return the BENCH_hotpath payload."""
    ops = SMOKE_OPS if smoke else FULL_OPS
    reps = reps if reps is not None else (SMOKE_REPS if smoke else FULL_REPS)
    baseline = json.loads(BASELINE.read_text())
    base_rates = baseline["accesses_per_sec"]

    kinds = {}
    for name, kind in KINDS.items():
        after = round(measure_kind(kind, ops, reps), 1)
        before = base_rates[name]
        kinds[name] = {
            "baseline_accesses_per_sec": before,
            "accesses_per_sec": after,
            "speedup": round(after / before, 3) if before else None,
        }

    return {
        "benchmark": "hotpath_throughput",
        "mode": "smoke" if smoke else "full",
        "comparable_to_baseline": not smoke,
        "baseline_commit": baseline.get("commit"),
        "workload": WORKLOAD,
        "num_cores": baseline["num_cores"],
        "ops_per_core": ops,
        "ratio": RATIO,
        "seed": SEED,
        "reps": reps,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "kinds": kinds,
    }


def write_report(payload: dict, output: Path = OUTPUT) -> None:
    output.write_text(json.dumps(payload, indent=1) + "\n")


# ---------------------------------------------------------------- pytest entry

def test_hotpath_throughput(benchmark):
    """Measure all kinds, write BENCH_hotpath.json, sanity-check the shape.

    Assertions are host-independent: the measurement ran, every kind has a
    positive rate and a recorded speedup.  The actual >= 1.5x evidence for
    the sparse kind lives in the generated report, where the host and mode
    are recorded alongside the numbers.
    """
    from benchmarks.conftest import once

    payload = once(benchmark, lambda: run_report(smoke=False))
    write_report(payload)
    assert set(payload["kinds"]) == set(KINDS)
    for name, row in payload["kinds"].items():
        assert row["accesses_per_sec"] > 0, name
        assert row["speedup"] is not None and row["speedup"] > 0, name
    assert json.loads(OUTPUT.read_text()) == payload


# ---------------------------------------------------------------- CLI entry

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short traces / few reps; report is not baseline-comparable",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="override the repetition count (best-of-N)",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT,
        help=f"report path (default: {OUTPUT})",
    )
    args = parser.parse_args(argv)

    payload = run_report(smoke=args.smoke, reps=args.reps)
    write_report(payload, args.output)
    print(f"wrote {args.output}")
    width = max(len(name) for name in payload["kinds"])
    for name, row in payload["kinds"].items():
        print(
            f"  {name:<{width}}  {row['accesses_per_sec']:>10,.0f} acc/s"
            f"  ({row['speedup']:.2f}x vs baseline)"
        )
    if payload["mode"] == "smoke":
        print("  (smoke mode: speedups are not baseline-comparable)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
