"""The repository's end-to-end benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload f3-sweep --seed 1 --seconds 20 --trace 0

Workloads (README.md says why each was chosen):

* ``f3-sweep``       cold F3 sweep, 5 kinds x 4 ratios x 4 workloads, 16 cores;
* ``weakscale-256``  256-core weak scaling, generation + packing + the
                     speculative parallel engine;
* ``campaign-mixed`` closed loop of campaigns against ``repro serve``.

Each repetition runs in a fresh process and an empty directory (see
``rep.py``).  Repetitions continue until ``--seconds`` have passed, with at
least three.  ``--trace 0`` prints the end-to-end metrics (medians over
repetitions); ``--trace 1`` alternates untraced and traced repetitions and
prints the per-layer metrics of the median traced one, with the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full record
(provenance, every repetition, spans) is written under ``e2ebench/out/``.
The command exits 1 when any correctness check fails and 2 when the
directory it runs in is not a checkout of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import (  # noqa: E402
    SpeedSampler,
    combined_digest,
    descendants,
    median,
    percentile_or_median,
    provenance,
    tail_percentile,
)

WORKLOADS = ("f3-sweep", "weakscale-256", "campaign-mixed")

#: Seed whose per-point digests are stored in reference.json.
DEFAULT_SEED = 1
REFERENCE = HERE / "reference.json"

MIN_REPS = 3

#: Workloads whose request runs in one process.  Each virtual CPU of the
#: host changes speed on its own, so these run on one CPU and the speed
#: sampler samples that CPU.  (``rep.py`` lifts the pin where the parallel
#: engine would start scan workers.)
PINNED = ("f3-sweep", "weakscale-256")

#: Set-up-only repetitions after each full one: setup_s is the median of
#: every set-up in a run.
SETUP_PROBES = 2

#: Calibration-loop time that defines the reference host speed.  The
#: host's speed drifts by 20% and more over minutes, so host times are
#: reported at the reference speed: a run's raw times are scaled by
#: CALIB_REF_S / the calibration the SpeedSampler measured over the run.
CALIB_REF_S = 0.07
REP_TIMEOUT = 150.0

#: (name, unit) of every end-to-end metric, printed with --trace 0.
END_TO_END = (
    ("wall_s", "s"),
    ("sim_accesses_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("campaign_latency_p50_s", "s"),
    ("campaign_latency_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, printed with --trace 1.
PER_LAYER = (
    ("workloads.gen_s", "s"),
    ("workloads.gen_ops_per_s", "1/s"),
    ("trace.pack_s", "s"),
    ("store.lookup_s", "s"),
    ("store.spool_load_s", "s"),
    ("store.spool_store_s", "s"),
    ("store.generated", "count"),
    ("store.hit_frac", "ratio"),
    ("sim.interp_s", "s"),
    ("sim.vector_s", "s"),
    ("sim.parallel_s", "s"),
    ("sim.interp_accesses_per_s", "1/s"),
    ("sim.vector_accesses_per_s", "1/s"),
    ("sim.parallel_accesses_per_s", "1/s"),
    ("sim.fast_engine_frac", "ratio"),
    ("sim.fallbacks", "count"),
    ("sim.parallel.squash_frac", "ratio"),
    ("tables.derive_s", "s"),
    ("io.encode_s", "s"),
    ("io.decode_s", "s"),
    ("runner.self_s", "s"),
    ("runner.disk_load_s", "s"),
    ("runner.disk_store_s", "s"),
    ("runner.cache_hit_frac", "ratio"),
    ("experiments.assemble_s", "s"),
    ("service.submit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.point_latency_p50_s", "s"),
    ("service.cache_served_frac", "ratio"),
    ("dispatch.utilization", "ratio"),
    ("dispatch.worker_busy_s", "s"),
    ("model.l1_hit_frac", "ratio"),
    ("model.dir_evictions_per_kilo", "per_kilo"),
    ("model.discoveries_per_kilo", "per_kilo"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.accounted_frac", "ratio"),
    ("trace.overhead_s", "s"),
)


def run_rep(root: Path, workload: str, seed: int, index: int, traced: bool,
            size: str, setup_only: bool = False, cpu: Optional[int] = None) -> Dict:
    """One repetition in a fresh process and directory; its JSON record."""
    workdir = root / ".e2ebench_work" / f"{workload}-{seed}-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Program defaults only: no inherited REPRO_* overrides.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    command = [
        sys.executable, str(HERE / "rep.py"), "--root", str(root),
        "--workload", workload, "--seed", str(seed), "--rep", str(index),
        "--traced", str(int(traced)), "--size", size,
        "--spawned-at", repr(time.time()),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(command, cwd=workdir, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if cpu is not None:
        os.sched_setaffinity(proc.pid, {cpu})
    try:
        try:
            stdout, stderr = proc.communicate(timeout=REP_TIMEOUT)
        except subprocess.TimeoutExpired:
            # The repetition's server and pool workers die with it.
            for pid in descendants(proc.pid) + [proc.pid]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.communicate()
            raise
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"exit {proc.returncode}: {stderr.strip()[-2000:]}")
        record = json.loads(lines[-1])
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        record = {"error": f"repetition {index} failed: {exc}", "traced": traced}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def load_reference() -> Dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def verify(workload: str, seed: int, size: str, reps: List[Dict],
           failures: List[str]) -> int:
    """Cross-repetition and reference-digest checks; returns failed points."""
    good = [r for r in reps if "digests" in r]
    failed = set()
    first = good[0]["digests"] if good else {}
    for rep in good[1:]:
        for label, digest in rep["digests"].items():
            if first.get(label) != digest:
                failed.add(label)
                failures.append(f"repetitions disagree on {label}")
    if seed == DEFAULT_SEED and size == "full" and first:
        expected = load_reference().get(workload)
        if expected is None:
            failures.append(f"no reference digests for {workload}")
            failed.update(first)
        else:
            for label in sorted(set(expected) | set(first)):
                if expected.get(label) != first.get(label):
                    failed.add(label)
                    failures.append(f"digest of {label} differs from reference")
    return len(failed)


def summarize(reps: List[Dict], probes: List[Dict], scale: float) -> Dict[str, float]:
    """End-to-end metrics from the untraced repetitions, at reference speed."""
    plain = [r for r in reps if not r["traced"]]
    latencies = [x for r in plain for x in r["latencies"]]
    return {
        "wall_s": scale * median(r["wall_s"] for r in plain),
        "sim_accesses_per_s": median(r["sim_accesses"] / r["wall_s"] for r in plain)
        / scale,
        "points_per_s": median(r["points"] / r["wall_s"] for r in plain) / scale,
        "campaign_latency_p50_s": scale * percentile_or_median(latencies, 50.0),
        "campaign_latency_p90_s": scale * percentile_or_median(latencies, 90.0),
        "setup_s": scale * median(r["setup_s"] for r in reps + probes),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }


def layer_summary(reps: List[Dict], wall_s: float, scale: float) -> Dict[str, float]:
    """Per-layer metrics of the median traced repetition, in raw host time."""
    traced = sorted((r for r in reps if r["traced"]), key=lambda r: r["wall_s"])
    chosen = traced[(len(traced) - 1) // 2]
    layer = dict(chosen["layer"])
    root = [s for s in chosen["spans"] if s["parent"] is None and s["name"] == "bench"]
    root_s = root[0]["end"] - root[0]["start"]
    layer["trace.wall_s"] = chosen["wall_s"]
    layer["trace.accounted_frac"] = (
        (root_s - chosen["self_times"].get("bench", 0.0)) / root_s if root_s else 0.0
    )
    layer["trace.overhead_s"] = chosen["wall_s"] - wall_s / scale
    return {name: float(layer.get(name, 0.0)) for name, _ in PER_LAYER}


def check_accounting(reps: List[Dict], failures: List[str]) -> None:
    """Self times of one traced repetition's spans add up to its root span."""
    for rep in reps:
        if not rep.get("traced") or "spans" not in rep:
            continue
        roots = [s for s in rep["spans"] if s["parent"] is None]
        total = sum(rep["self_times"].values())
        covered = sum(s["end"] - s["start"] for s in roots)
        if len(roots) != 1 or abs(total - covered) > 1e-6 * max(1.0, covered):
            failures.append(
                f"span self times {total:.6f}s do not account for the "
                f"traced wall {covered:.6f}s ({len(roots)} roots)"
            )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition each way (self-tests)")
    parser.add_argument("--update-reference", action="store_true",
                        help=f"store this run's digests as the seed-{DEFAULT_SEED} "
                             "reference")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro; run from a checkout's root",
              file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    plan = [False, True] if args.trace else [False]
    minimum = 2 if args.smoke else MIN_REPS
    start = time.monotonic()
    reps: List[Dict] = []
    probes: List[Dict] = []
    longest = 0.0
    cpu = min(os.sched_getaffinity(0)) if args.workload in PINNED else None
    with SpeedSampler(cpu=cpu) as sampler:
        while True:
            traced = plan[len(reps) % len(plan)]
            began = time.monotonic()
            reps.append(run_rep(root, args.workload, args.seed, len(reps), traced, size,
                                cpu=cpu))
            for _ in range(0 if args.smoke else SETUP_PROBES):
                probes.append(run_rep(root, args.workload, args.seed, len(reps),
                                      False, size, setup_only=True, cpu=cpu))
            longest = max(longest, time.monotonic() - began)
            if "error" in reps[-1]:
                break
            elapsed = time.monotonic() - start
            if len(reps) >= minimum and (args.smoke or elapsed + longest > args.seconds):
                break

    try:
        (root / ".e2ebench_work").rmdir()
    except OSError:
        pass  # not empty: another run is using it
    failures: List[str] = [r["error"] for r in reps + probes if "error" in r]
    for rep in reps + probes:
        failures.extend(rep.get("failures", []))
    complete = not any("error" in r for r in reps + probes)
    if args.update_reference:
        if args.seed != DEFAULT_SEED or size != "full" or failures:
            print(f"error: the reference comes from a passing seed-{DEFAULT_SEED} "
                  "full-size run", file=sys.stderr)
            return 2
        reference = load_reference()
        reference[args.workload] = reps[0]["digests"]
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    points = max((r.get("points", 0) for r in reps if "points" in r), default=1)
    attempted = sum(r.get("attempted", points) for r in reps)
    failed = sum(r.get("failed_points", points if "error" in r else 0) for r in reps)
    failed += verify(args.workload, args.seed, size, reps, failures)
    calibration = sampler.seconds()
    scale = CALIB_REF_S / calibration
    metrics: Dict[str, float] = {}
    if complete:
        check_accounting(reps, failures)
        metrics = summarize(reps, probes, scale)
        if args.trace:
            metrics = layer_summary(reps, metrics["wall_s"], scale)
    # A failed check that names no point still counts once.
    failed = min(attempted, failed + (0 if failed or not failures else 1))
    correct = complete and not failures

    units = dict(END_TO_END + PER_LAYER)
    latencies = [scale * x for r in reps if not r["traced"] for x in r.get("latencies", [])]
    tail = tail_percentile(latencies)
    record = {
        "workload": args.workload,
        "size": size,
        "seconds": args.seconds,
        "calibration_s": calibration,
        "calibration_samples": len(sampler.samples),
        "host_scale": scale,
        "trace": args.trace,
        "provenance": provenance(root, args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures,
        "digest": combined_digest(reps[0]["digests"]) if "digests" in reps[0] else None,
        "latency_samples": len(latencies),
        "latency_tail": (
            {"percentile": tail[0], "value_s": tail[1]} if tail else None
        ),
        "engines": [r.get("engines") for r in reps],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "repetitions": reps,
        "setup_probes": probes,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    print(f"{args.workload}: {len(reps)} repetitions, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, size {size}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':32s} {record['failed_frac']:>16.6g} ratio "
          f"({failed} of {attempted} points)")
    if tail:
        print(f"  latency tail: p{tail[0]:g} = {tail[1]:.6g} s over "
              f"{len(latencies)} samples")
    for rep in reps:
        if rep.get("engines"):
            print(f"  rep {rep['rep']} engines {rep['engines']}")
    print(f"  digest of all points: {record['digest']}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(f"  record: {out_path.relative_to(root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
