"""Flat-engine throughput: interp vs vector vs native accesses/sec per kind.

Measures the end-to-end trace replay (16-core ``mix`` workload through
``run_trace``) on the interpreter, on the vectorized table-driven engine
(``engine="vector"``) and on the compiled flat machine
(``engine="native"``), for every directory organization the evaluation
compares (``experiments.KINDS``).  Kinds without a flat view are listed as
fallbacks with the reason ``vector_supports`` gives, not measured; on a
host without a C compiler the native column is left out and the reason
recorded.  The report also records the kernel's one-time build cost
(compile wall time and the compiler's peak RSS, from an empty cache).  The report lands in
``BENCH_vector.json`` at the repository root, stamped with the commit
(``git describe --always --dirty``), a SHA-256 of the ``src/`` tree (which
still identifies the measured code when the commit is dirty),
``cpu_count`` and Python version.

The engines produce bit-identical results (see
``tests/integration/test_golden_vector.py``,
``tests/integration/test_golden_native.py`` and ``repro fuzz --engine``),
so the speedup columns are pure like-for-like throughput ratios.  As with
the hot-path benchmark, throughput is the **best of several repetitions**
and only full mode is meaningful for cross-commit comparison; ``--smoke``
exists for CI shape-checking.

Run standalone::

    python benchmarks/bench_vector.py            # full measurement
    python benchmarks/bench_vector.py --smoke    # CI smoke (short traces)

or through pytest (``make bench-vector``)::

    pytest benchmarks/bench_vector.py --benchmark-only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

# Standalone bootstrap: make src/ importable when run as a script without
# PYTHONPATH (the pytest path already has it configured).
_SRC = str(_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis.experiments import KINDS, make_config
from repro.common.config import DirectoryKind
from repro.sim.simulator import run_trace
from repro.sim.trace import PackedTrace
from repro.sim.vector import vector_supports
from repro.workloads.suite import build_workload

#: Full-mode measurement parameters — identical to the hot-path benchmark
#: (same workload, trace length, seed and provisioning ratio) so the
#: interpreter column here lines up with BENCH_hotpath.json.
FULL_OPS = 3000
FULL_REPS = 7

#: Smoke-mode parameters: enough to exercise both engines on every kind.
SMOKE_OPS = 400
SMOKE_REPS = 2

RATIO = 0.5
SEED = 1
WORKLOAD = "mix"

OUTPUT = _ROOT / "BENCH_vector.json"

#: Why the vector speedup plateaus where it does (recorded in the report
#: so the number is read in context): the interpreter and the vector
#: engine are pure CPython, and the vector engine's floor is the
#: interpreter's *decision structure*, not its arithmetic.  Measured
#: per-access-class costs on the reference host put the achievable ratio
#: near 3.3x for L1 hits and 4.3-4.5x for misses/upgrades; the blended
#: mix-workload speedup therefore lands in the 2-3x band regardless of
#: further micro-optimization.  The native kernel runs the same decision
#: sequence compiled, so its column is bounded by the per-run Python
#: set-up and stats folding instead.
CEILING_NOTE = (
    "The interpreter and the vector engine are pure CPython; the vector "
    "engine removes the interpreter's object graph and message dispatch "
    "but must keep the bit-exact per-operation decision sequence, which "
    "bounds per-class speedups near 3.3x (L1 hits) and 4.3-4.5x "
    "(misses/upgrades). The blended speedup on the mix workload is the "
    "mediant of those ratios. The native kernel runs the same decision "
    "sequence compiled; its per-run floor is the Python set-up and stats "
    "folding around the call."
)


def git_commit(root: Path = _ROOT) -> str | None:
    """``git describe --always --dirty`` of ``root`` (None outside git)."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=root, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path = _ROOT) -> str:
    """SHA-256 over every file under ``root/src`` (path + bytes)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def flat_kinds() -> tuple:
    """``(measured, fallbacks)``: evaluated kinds with a flat view, and
    every kind without one mapped to its ``vector_supports`` reason."""
    reasons = {
        kind: vector_supports(make_config(kind, ratio=RATIO))
        for kind in DirectoryKind
    }
    measured = [kind for kind in KINDS if reasons[kind] is None]
    fallbacks = {kind.value: why for kind, why in reasons.items() if why}
    return measured, fallbacks


def _packed(ops_per_core: int) -> PackedTrace:
    config = make_config(DirectoryKind.SPARSE, ratio=RATIO)
    return build_workload(
        WORKLOAD, config.num_cores, ops_per_core,
        seed=SEED, block_bytes=config.block_bytes,
    )


def _rate(kind: DirectoryKind, packed: PackedTrace, engine: str) -> float:
    """Accesses/sec of one replay (engine state rebuilt, as a sweep does)."""
    config = make_config(kind, ratio=RATIO)
    start = time.perf_counter()
    result = run_trace(config, packed, engine=engine)
    elapsed = time.perf_counter() - start
    assert result.engine == engine, (kind, engine, result.engine)
    return packed.total_ops() / elapsed if elapsed > 0 else 0.0


def native_build_cost() -> dict:
    """The kernel's one-time build from an empty cache, in a fresh process:
    wall time of the first native-kernel request (digest, compile, load)
    and the peak RSS of the compiler processes."""
    code = (
        "import json, resource, time\n"
        "from repro.sim import native\n"
        "start = time.perf_counter()\n"
        "reason = native.kernel_unavailable()\n"
        "elapsed = time.perf_counter() - start\n"
        "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps({'reason': reason, 'compile_s': round(elapsed, 3),"
        " 'compile_peak_rss_mb': round(rss / 1024, 1)}))\n"
    )
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, XDG_CACHE_HOME=cache, PYTHONPATH=_SRC)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_report(smoke: bool = False, reps: int | None = None) -> dict:
    """Measure every flat kind on every engine; return the report payload.

    Repetitions alternate kinds and engines, so slow drifts in host speed
    hit every column alike.
    """
    ops = SMOKE_OPS if smoke else FULL_OPS
    reps = reps if reps is not None else (SMOKE_REPS if smoke else FULL_REPS)
    measured, fallbacks = flat_kinds()
    build = native_build_cost()
    engines = ("interp", "vector") + (("native",) if build["reason"] is None else ())
    packed = _packed(ops)
    best = {(kind, engine): 0.0 for kind in measured for engine in engines}
    for _ in range(reps):
        for kind in measured:
            for engine in engines:
                rate = _rate(kind, packed, engine)
                best[kind, engine] = max(best[kind, engine], rate)
    kinds = {}
    for kind in measured:
        interp = round(best[kind, "interp"], 1)
        vector = round(best[kind, "vector"], 1)
        kinds[kind.value] = {
            "interp_accesses_per_sec": interp,
            "vector_accesses_per_sec": vector,
            "speedup": round(vector / interp, 3) if interp else None,
        }
        if "native" in engines:
            native = round(best[kind, "native"], 1)
            kinds[kind.value].update(
                native_accesses_per_sec=native,
                native_vs_vector=round(native / vector, 3) if vector else None,
            )
    payload = {
        "benchmark": "vector_engine_throughput",
        "mode": "smoke" if smoke else "full",
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": WORKLOAD,
        "num_cores": packed.num_cores,
        "ops_per_core": ops,
        "ratio": RATIO,
        "seed": SEED,
        "reps": reps,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "ceiling_note": CEILING_NOTE,
        "native_build": build,
        "kinds": kinds,
        "fallbacks": fallbacks,
    }
    return payload


def write_report(payload: dict, output: Path = OUTPUT) -> None:
    output.write_text(json.dumps(payload, indent=1) + "\n")


# ---------------------------------------------------------------- pytest entry

def test_vector_throughput(benchmark):
    """Measure both engines, write BENCH_vector.json, check the shape.

    The host-independent claims: the measurement ran on every flat kind,
    both engines produced positive rates, and the vector engine was
    faster than the interpreter on each (the exact factor is recorded in
    the report alongside the host and mode).
    """
    from benchmarks.conftest import once

    payload = once(benchmark, lambda: run_report(smoke=False))
    write_report(payload)
    assert set(payload["kinds"]) | set(payload["fallbacks"]) >= {
        kind.value for kind in KINDS
    }
    assert not set(payload["kinds"]) & set(payload["fallbacks"])
    for name, row in payload["kinds"].items():
        assert row["interp_accesses_per_sec"] > 0, name
        assert row["vector_accesses_per_sec"] > 0, name
        assert row["speedup"] is not None and row["speedup"] > 1.0, name
        if payload["native_build"]["reason"] is None:
            assert row["native_accesses_per_sec"] > 0, name
    assert json.loads(OUTPUT.read_text()) == payload


# ---------------------------------------------------------------- CLI entry

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short traces / few reps; numbers are not cross-run comparable",
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
    print(f"wrote {args.output} (commit {payload['commit']})")
    width = max(len(name) for name in [*payload["kinds"], *payload["fallbacks"]])
    build = payload["native_build"]
    if build["reason"] is None:
        print(
            f"  native kernel build: {build['compile_s']:.2f} s, compiler peak"
            f" RSS {build['compile_peak_rss_mb']:.0f} MB"
        )
    else:
        print(f"  native column skipped: {build['reason']}")
    for name, row in payload["kinds"].items():
        native = ""
        if "native_accesses_per_sec" in row:
            native = (
                f"  native {row['native_accesses_per_sec']:>12,.0f}"
                f" ({row['native_vs_vector']:.1f}x vector)"
            )
        print(
            f"  {name:<{width}}  interp {row['interp_accesses_per_sec']:>10,.0f}"
            f"  vector {row['vector_accesses_per_sec']:>10,.0f} acc/s"
            f"  ({row['speedup']:.2f}x){native}"
        )
    for name, reason in payload["fallbacks"].items():
        print(f"  {name:<{width}}  fallback: {reason}")
    if payload["mode"] == "smoke":
        print("  (smoke mode: throughput is not cross-run comparable)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
