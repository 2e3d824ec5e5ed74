"""Weak-scaling benchmark: core count as a sweep axis, 16 to 1024 cores.

The paper's scaling argument (§6) is about what happens to a directory as
the machine grows; this benchmark makes the simulator itself answer at
those sizes.  For each core count it runs the ``weakscale-like`` workload
(fixed ops *per core*, so total work grows with the machine) through the
serial vector engine, through the bank-parallel run-length batching
engine (:mod:`repro.sim.parallel`, conservative and with the optimistic
warp + replay speculation layer) and through the native kernel
(:mod:`repro.sim.native`, when the host can build it),
asserts the results are **bit-identical** — per-core cycles, the full
statistics tree and the effective-tracking samples — and records:

* ``accesses_per_sec`` for each engine (simulator throughput), with the
  native kernel's rate against the speculative engine
  (``native_vs_speculative``: the measurement that decides whether the
  parallel engine still earns its place), and
* directory ``bytes_per_core`` from the storage model
  (:func:`repro.energy.area.storage_of`) for the full-bit-vector and the
  SCD-style hierarchical sharer formats — the O(N) vs O(sqrt(N) * log N)
  storage story that motivates the scaling work.

The report lands in ``BENCH_scaling.json`` at the repository root.  As
with the other throughput benchmarks, full mode is the comparable one;
``--smoke`` shrinks traces for CI shape-checking.

Run standalone::

    python benchmarks/bench_scaling.py           # full measurement
    python benchmarks/bench_scaling.py --smoke   # CI smoke (short traces)

or through pytest (``make bench-scaling``)::

    pytest benchmarks/bench_scaling.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.bench_vector import git_commit, source_digest
from repro.analysis.experiments import make_config
from repro.common.config import DirectoryKind, SharerFormat
from repro.energy.area import storage_of
from repro.sim.native import native_supports
from repro.sim.simulator import run_trace
from repro.sim.vector import vector_supports
from repro.workloads.suite import build_workload

#: The weak-scaling sweep: 16 cores (the paper's evaluation size) up to
#: 1024 (its scaling-argument regime).
SIZES = (16, 64, 256, 1024)

#: Fixed work per core.  Long streams matter: the conservative engine
#: pays a serial warmup crawl bounded by the slowest-warming core (see
#: docs/PERFORMANCE.md); the speculation layer attacks exactly that, so
#: full mode measures both ends — long streams (``FULL_OPS``) and a
#: short-trace row (``SHORT_OPS``) that is nearly all warmup.
FULL_OPS = 16000
SHORT_OPS = 400
SMOKE_OPS = 400

#: The weak-scaling anchor of the repository benchmark (e2ebench
#: ``weakscale-256``): cores and ops per core, measured as its own row in
#: full mode.
ANCHOR = (256, 8000)

KIND = DirectoryKind.STASH
RATIO = 0.125
SEED = 1
WORKLOAD = "weakscale-like"

OUTPUT = _ROOT / "BENCH_scaling.json"


def _result_key(result):
    return (
        result.cycles_per_core,
        sorted(result.stats.items()),
        result.effective_tracking_samples,
    )


def measure_size(num_cores: int, ops_per_core: int) -> dict:
    """One weak-scaling point: both engines, identity-checked, plus storage."""
    config = make_config(KIND, ratio=RATIO, num_cores=num_cores, seed=SEED)
    assert vector_supports(config) is None, num_cores
    trace = build_workload(
        WORKLOAD, num_cores, ops_per_core,
        seed=SEED, block_bytes=config.block_bytes,
    )
    total = trace.total_ops()

    rates = {}
    reference_key = None
    runs = (
        ("vector", dict(engine="vector")),
        ("parallel0", dict(engine="parallel")),
        ("parallel_spec", dict(engine="parallel", speculate=True)),
    )
    native_refused = native_supports(config)
    if native_refused is None:
        runs += (("native", dict(engine="native")),)
    for name, kwargs in runs:
        start = time.perf_counter()
        result = run_trace(config, trace, **kwargs)
        elapsed = time.perf_counter() - start
        assert result.engine == kwargs["engine"], (num_cores, name)
        key = _result_key(result)
        if reference_key is None:
            reference_key = key
        else:
            assert key == reference_key, (
                f"{name} diverged from vector at {num_cores} cores"
            )
        rates[name] = round(total / elapsed, 1) if elapsed > 0 else None

    storage = {}
    for label, fmt in (
        ("full_bit_vector", SharerFormat.FULL_BIT_VECTOR),
        ("hierarchical", SharerFormat.HIERARCHICAL),
    ):
        cfg = make_config(
            KIND, ratio=RATIO, num_cores=num_cores, seed=SEED,
            sharer_format=fmt,
        )
        estimate = storage_of(cfg)
        storage[label] = {
            "bits_per_entry": estimate.bits_per_entry,
            "bytes_per_core": round(
                estimate.total_bits / 8 / num_cores, 1
            ),
        }

    vector_rate = rates["vector"]
    parallel_rate = rates["parallel0"]
    spec_rate = rates["parallel_spec"]
    native_rate = rates.get("native")
    return {
        "ops_per_core": ops_per_core,
        "total_ops": total,
        "accesses_per_sec": rates,
        "native_vs_speculative": (
            round(native_rate / spec_rate, 3)
            if native_rate and spec_rate else None
        ),
        "native_refused": native_refused,
        "parallel_speedup": (
            round(parallel_rate / vector_rate, 3)
            if vector_rate and parallel_rate else None
        ),
        "speculative_speedup": (
            round(spec_rate / vector_rate, 3)
            if vector_rate and spec_rate else None
        ),
        "directory_storage": storage,
        "bit_identical": True,  # asserted above, recorded for readers
    }


def run_report(smoke: bool = False, ops: int | None = None) -> dict:
    ops = ops if ops is not None else (SMOKE_OPS if smoke else FULL_OPS)
    payload = {
        "benchmark": "weak_scaling",
        "mode": "smoke" if smoke else "full",
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": WORKLOAD,
        "kind": KIND.value,
        "ratio": RATIO,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "sizes": {
            str(num_cores): measure_size(num_cores, ops)
            for num_cores in SIZES
        },
    }
    if not smoke and ops != SHORT_OPS:
        # The warmup-dominated end: short streams are where the serial
        # warmup crawl used to eat the whole run.
        payload["short_sizes"] = {
            str(num_cores): measure_size(num_cores, SHORT_OPS)
            for num_cores in SIZES
        }
    if not smoke:
        payload["anchor"] = {str(ANCHOR[0]): measure_size(*ANCHOR)}
    return payload


def write_report(payload: dict, output: Path = OUTPUT) -> None:
    output.write_text(json.dumps(payload, indent=1) + "\n")


# ---------------------------------------------------------------- pytest entry

def test_weak_scaling(benchmark):
    """Measure the sweep, write BENCH_scaling.json, check the shape.

    Host-independent claims: every size produced positive rates and
    bit-identical results (speculation included), hierarchical storage
    per core shrinks relative to the full bit vector as the machine
    grows, the conservative parallel engine (parallel0) beats the serial
    vector engine at 256 cores, and the speculative engine holds at least
    parity at 1024 cores — the crossover acceptance criterion.
    """
    from benchmarks.conftest import once

    payload = once(benchmark, lambda: run_report(smoke=False))
    write_report(payload)
    assert set(payload["sizes"]) == {str(n) for n in SIZES}
    ratios = []
    for num_cores in SIZES:
        row = payload["sizes"][str(num_cores)]
        assert row["bit_identical"]
        for rate in row["accesses_per_sec"].values():
            assert rate and rate > 0, num_cores
        storage = row["directory_storage"]
        ratios.append(
            storage["hierarchical"]["bytes_per_core"]
            / storage["full_bit_vector"]["bytes_per_core"]
        )
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert payload["sizes"]["256"]["parallel_speedup"] > 1.0
    assert payload["sizes"]["1024"]["speculative_speedup"] >= 1.0
    for row in payload["short_sizes"].values():
        assert row["bit_identical"]
    assert json.loads(OUTPUT.read_text()) == payload


# ---------------------------------------------------------------- CLI entry

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short traces; numbers are not cross-run comparable",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help="override ops per core",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT,
        help=f"report path (default: {OUTPUT})",
    )
    args = parser.parse_args(argv)

    payload = run_report(smoke=args.smoke, ops=args.ops)
    write_report(payload, args.output)
    print(f"wrote {args.output}")
    sections = [("sizes", "")]
    if "short_sizes" in payload:
        sections.append(("short_sizes", f" (short, {SHORT_OPS} ops/core)"))
    if "anchor" in payload:
        sections.append(("anchor", f" (anchor, {ANCHOR[1]} ops/core)"))
    for section, note in sections:
        if note:
            print(f" {note.strip()}")
        for num_cores in map(int, payload[section]):
            row = payload[section][str(num_cores)]
            rates = row["accesses_per_sec"]
            storage = row["directory_storage"]
            native = (
                f"  native {rates['native']:>12,.0f}"
                f" ({row['native_vs_speculative']:.1f}x spec)"
                if "native" in rates else "  native refused"
            )
            print(
                f"  {num_cores:>5} cores:"
                f"  vector {rates['vector']:>12,.0f} acc/s"
                f"  parallel {rates['parallel0']:>12,.0f}"
                f"  ({row['parallel_speedup']:.2f}x)"
                f"  spec {rates['parallel_spec']:>12,.0f}"
                f"  ({row['speculative_speedup']:.2f}x){native}"
                f"  dir B/core: fbv"
                f" {storage['full_bit_vector']['bytes_per_core']:,.0f}"
                f" / hier {storage['hierarchical']['bytes_per_core']:,.0f}"
            )
    if payload["mode"] == "smoke":
        print("  (smoke mode: shape check only, not comparable)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
