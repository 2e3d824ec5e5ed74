"""The program's layers as this benchmark sees them from outside.

``install`` rebinds the public functions each layer is entered through so
a traced repetition records one span per call.  ``layer_metrics`` turns
those spans into the per-layer metrics.  Span names are the layer names
of the metrics: ``sim.<engine>`` is ``run_trace`` split by the engine that
actually ran (``result.engine``).

Only ``repro`` must be importable when these functions run; importing
this module imports nothing from the program.
"""

from __future__ import annotations

from typing import Dict, List

from spans import Tracer, self_by_name, total_by_name

#: Span names whose summed self time is reported as ``<name>_s``.
SELF_TIME_LAYERS = {
    "experiments": "experiments.assemble_s",
    "runner": "runner.self_s",
    "runner.disk_load": "runner.disk_load_s",
    "runner.disk_store": "runner.disk_store_s",
    "io.encode": "io.encode_s",
    "io.decode": "io.decode_s",
    "store": "store.lookup_s",
    "store.spool_load": "store.spool_load_s",
    "store.spool_store": "store.spool_store_s",
    "workloads.gen": "workloads.gen_s",
    "trace.pack": "trace.pack_s",
    "sim.interp": "sim.interp_s",
    "sim.vector": "sim.vector_s",
    "sim.parallel": "sim.parallel_s",
    "bench": "bench.self_s",
}

ENGINES = ("interp", "vector", "parallel")


def _count_speculation(counts, engine, result) -> None:
    stats = getattr(engine, "spec_stats", None) or {}
    counts["spec_ops"] += stats.get("ops", 0)
    counts["spec_squashed_ops"] += stats.get("squashed_ops", 0)


def install(tracer: Tracer) -> None:
    """Rebind every traced entry point of the program to ``tracer``."""
    from repro.analysis import experiments, runner
    from repro.analysis import io as result_io
    from repro.sim import parallel, simulator
    from repro.sim import trace as trace_mod
    from repro.workloads import store, suite

    tracer.patch_function(experiments.run_performance_sweep, "experiments")
    tracer.patch_function(runner.run_points, "runner")
    tracer.patch_method(runner.DiskCache, "load", "runner.disk_load")
    tracer.patch_method(runner.DiskCache, "store", "runner.disk_store")
    tracer.patch_function(result_io.result_to_dict, "io.encode")
    tracer.patch_function(result_io.result_from_dict, "io.decode")
    tracer.patch_function(store.get_packed_trace, "store")
    tracer.patch_method(store.TraceStore, "load", "store.spool_load")
    tracer.patch_method(store.TraceStore, "store", "store.spool_store")
    tracer.patch_function(
        suite.build_workload, "workloads.gen",
        attrs_of=lambda trace: {"ops": trace.total_ops()},
    )
    tracer.patch_method(trace_mod.PackedTrace, "from_trace", "trace.pack")
    tracer.patch_function(
        simulator.run_trace,
        lambda result: f"sim.{result.engine}",
        attrs_of=lambda result: {"accesses": result.total_accesses},
    )
    tracer.patch_observer(parallel.ParallelEngine, "run", _count_speculation)


def layer_metrics(spans: List[dict], counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from one run's spans and counts."""
    own = self_by_name(spans)
    inclusive = total_by_name(spans)
    out = {metric: own.get(name, 0.0) for name, metric in SELF_TIME_LAYERS.items()}
    gen_ops = sum(
        s.get("attrs", {}).get("ops", 0) for s in spans if s["name"] == "workloads.gen"
    )
    gen_s = inclusive.get("workloads.gen", 0.0)
    out["workloads.gen_ops_per_s"] = gen_ops / gen_s if gen_s else 0.0
    for engine in ENGINES:
        name = f"sim.{engine}"
        accesses = sum(
            s.get("attrs", {}).get("accesses", 0) for s in spans if s["name"] == name
        )
        seconds = inclusive.get(name, 0.0)
        out[f"{name}_accesses_per_s"] = accesses / seconds if seconds else 0.0
    spec = counts.get("spec_ops", 0)
    out["sim.parallel.squash_frac"] = (
        counts.get("spec_squashed_ops", 0) / spec if spec else 0.0
    )
    return out
