"""Golden equivalence: the parallel engine must not change a single bit.

The bank-parallel run-length batching engine (:mod:`repro.sim.parallel`)
is the third execution engine for the same machine; its contract is the
same golden one the vector engine carries.  Every test here compares
complete :class:`~repro.sim.results.SimulationResult` objects — per-core
cycles, the flattened statistics tree and the effective-tracking sample
series — against the serial interpreter and the vector engine, across
directory organizations, scan-window sizes, speculation settings and
core counts up to the paper's scaling regime.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import KINDS, make_config
from repro.common.config import DirectoryKind
from repro.sim.parallel import ParallelEngine, parallel_supports
from repro.sim.simulator import run_trace
from repro.sim.trace import PackedTrace
from repro.workloads.suite import build_workload

OPS = 400

#: Every organization: the evaluation's plus IN_LLC and the fallbacks.
ALL_KINDS = KINDS + [k for k in DirectoryKind if k not in KINDS]

#: Kinds with a flat view (the rest must fall back transparently).
FLAT_KINDS = tuple(
    k for k in ALL_KINDS if parallel_supports(make_config(k, 0.25)) is None
)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_parallel_run_bit_identical(kind):
    config = make_config(kind, 0.25)
    trace = PackedTrace.from_trace(
        build_workload("mix", config.num_cores, OPS, seed=3)
    )
    interp = run_trace(config, trace)
    parallel = run_trace(config, trace, engine="parallel")
    assert parallel.cycles_per_core == interp.cycles_per_core
    assert parallel.stats == interp.stats
    assert parallel == interp
    if kind in FLAT_KINDS:
        assert parallel.engine == "parallel"
    else:
        assert kind.value in parallel_supports(config)  # the reason names it
        assert parallel.engine == "interp"  # transparent fallback


@pytest.mark.parametrize("kind", FLAT_KINDS, ids=[k.value for k in FLAT_KINDS])
def test_speculative_run_bit_identical(kind):
    """Speculation (warp past the horizon, flush, validate, squash and
    replay) is exact on every flat organization, at a provisioning ratio
    low enough that directory evictions interleave with speculated runs."""
    config = make_config(kind, 0.125, seed=3)
    trace = PackedTrace.from_trace(build_workload("locks-like", 16, 1200, seed=2))
    interp = run_trace(config, trace)
    engine = ParallelEngine(config, speculate=True, spec_min=4)
    assert engine.run(trace) == interp
    assert engine.spec_stats["ops"] > 0


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_tri_engine_64core_bit_identical(kind):
    """Interpreter, vector and parallel agree at the 64-core scale."""
    config = make_config(kind, 0.25, num_cores=64, seed=2)
    trace = PackedTrace.from_trace(build_workload("mix", 64, OPS, seed=7))
    interp = run_trace(config, trace)
    vector = run_trace(config, trace, engine="vector")
    parallel = run_trace(config, trace, engine="parallel")
    assert vector == interp
    assert parallel == interp


def test_parallel_identical_across_window_sizes():
    """Scan-window slicing is invisible: any epoch_ops yields the same bits."""
    config = make_config(DirectoryKind.STASH, 0.25)
    trace = PackedTrace.from_trace(
        build_workload("mix", config.num_cores, OPS, seed=5)
    )
    reference = ParallelEngine(config).run(trace)
    for epoch_ops in (1, 7, OPS - 1, OPS, 4096):
        result = ParallelEngine(config, epoch_ops=epoch_ops).run(trace)
        assert result == reference, f"epoch_ops={epoch_ops} diverged"


def test_parallel_256core_smoke():
    """One point in the scaling regime: 256 cores, bit-identical to vector."""
    config = make_config(
        DirectoryKind.STASH, 0.125, num_cores=256, seed=1
    )
    trace = PackedTrace.from_trace(
        build_workload("weakscale-like", 256, 300, seed=1)
    )
    vector = run_trace(config, trace, engine="vector")
    parallel = run_trace(config, trace, engine="parallel")
    assert parallel == vector
    assert parallel.engine == "parallel"


def test_tri_engine_1024core_bit_identical():
    """The paper's largest machine: every engine agrees at 1024 cores."""
    from repro.sim.native import native_supports

    config = make_config(DirectoryKind.STASH, 0.125, num_cores=1024, seed=1)
    trace = PackedTrace.from_trace(
        build_workload("weakscale-like", 1024, 120, seed=1)
    )
    interp = run_trace(config, trace)
    vector = run_trace(config, trace, engine="vector")
    parallel = run_trace(config, trace, engine="parallel")
    speculative = run_trace(config, trace, engine="parallel", speculate=True)
    native = run_trace(config, trace, engine="native")
    assert vector == interp
    assert parallel == interp
    assert speculative == interp
    assert native == interp
    assert speculative.engine == "parallel"
    expected = "native" if native_supports(config) is None else "vector"
    assert native.engine == expected


@pytest.mark.parametrize("speculate", [False, True])
def test_speculation_matrix_bit_identical(speculate):
    """Speculation on or off never changes a bit.

    ``locks-like`` is contended enough that speculative runs are built,
    validated against remote interference, squashed and replayed through
    the serial path (``spec_min`` is dropped so short traces speculate).
    """
    config = make_config(DirectoryKind.STASH, 0.125, num_cores=16, seed=1)
    trace = PackedTrace.from_trace(build_workload("locks-like", 16, 1200, seed=1))
    interp = run_trace(config, trace)
    engine = ParallelEngine(
        config, speculate=speculate, spec_min=4 if speculate else None
    )
    result = engine.run(trace)
    assert result == interp
    if speculate:
        assert engine.spec_stats["ops"] > 0
        assert engine.spec_stats["squashes"] > 0  # replay path exercised


def test_speculation_identical_across_window_sizes():
    """Scan-window slicing stays invisible with speculation enabled."""
    config = make_config(DirectoryKind.STASH, 0.25)
    trace = PackedTrace.from_trace(
        build_workload("mix", config.num_cores, OPS, seed=5)
    )
    reference = run_trace(config, trace)
    for epoch_ops in (7, 97, OPS, 4096):
        result = ParallelEngine(
            config, epoch_ops=epoch_ops, speculate=True, spec_min=4
        ).run(trace)
        assert result == reference, f"epoch_ops={epoch_ops} diverged"


def test_engine_workers_auto_resolution(monkeypatch):
    """The legacy setting only validates: every accepted value means 0.

    The scan-worker pool is gone, so ``"auto"`` resolves to 0 even on a
    host with CPUs to spare, and a request for real workers is refused
    rather than silently ignored.
    """
    import os

    from repro.common.errors import TraceError
    from repro.sim.parallel import resolve_engine_workers

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_engine_workers("auto") == 0
    for value in (None, 0, 1):
        assert resolve_engine_workers(value) == 0
    config = make_config(DirectoryKind.STASH, 0.125)
    trace = build_workload("mix", config.num_cores, 50, seed=1)
    with pytest.raises(TraceError, match="removed"):
        run_trace(config, trace, engine="parallel", engine_workers=2)


def test_neheap_compaction_bounds_churn():
    """Stale next-event bounds are compacted away, not accumulated.

    ``falseshare-like`` republishes bounds on nearly every op (every
    event dirties every sharer), the worst case for lazy deletion; the
    compaction threshold (stale > 2x live) must actually fire and keep
    the heap within a small multiple of the core count — while leaving
    the results bit-identical to the interpreter.
    """
    config = make_config(DirectoryKind.STASH, 0.125, num_cores=8, seed=1)
    trace = PackedTrace.from_trace(
        build_workload("falseshare-like", 8, 1200, seed=1)
    )
    interp = run_trace(config, trace)
    engine = ParallelEngine(config, epoch_ops=96)
    result = engine.run(trace)
    assert result == interp
    stats = engine.heap_stats
    assert stats["neheap_compactions"] > 0
    assert stats["neheap_max"] <= 3 * 8 + 9
    assert stats["neheap_live"] == 0  # every core drained
