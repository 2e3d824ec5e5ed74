"""Parallel sweep execution engine with a two-layer persistent result cache.

Every figure/table in the evaluation fans out over (directory kind x
provisioning ratio x workload) sweep points — dozens of independent pure-
Python simulations.  This module is the one place that executes them;
the CLI, the experiments and the campaign service all call
:func:`run_points`:

* **Fan-out** — :func:`run_points` distributes independent sweep points
  across a pluggable :class:`~repro.analysis.dispatch.DispatchBackend`
  (``workers > 1``, or a live backend the caller keeps warm; a process
  pool by default) with deterministic result ordering: results come back
  in input order and are byte-identical to a serial run, because each
  simulation is fully determined by its :class:`SweepPoint`.
  ``workers=1`` (the default) or a single pending point runs inline, as
  does a sweep whose backend cannot start.  A batch that raises fails
  exactly its own points; the rest of the sweep continues.  Completed
  batches write their cache entries *incrementally* (atomic per-entry
  files) and report each point through the ``on_point`` hook, and
  ``KeyboardInterrupt`` / SIGTERM mid-sweep cancels pending batches,
  drains the pool (terminating blocked workers) and re-raises — a killed
  sweep keeps every finished point and never leaves a partially-written
  cache entry.
* **Batched dispatch** — pending points are grouped by *trace key* (the
  workload-generation parameterization) and shipped to workers in batches,
  so each worker derives or loads its input trace once per batch and pays
  process/IPC overhead once per batch instead of once per point.  The
  default batch size splits the pending set evenly across workers
  (``batch_size`` overrides it; ``1`` reproduces per-point dispatch).
* **Shared traces** — workload traces are materialized exactly once per
  distinct key through :mod:`repro.workloads.store`: an in-process memo of
  :class:`~repro.sim.trace.PackedTrace` streams plus a corruption-safe
  binary spool under ``<cache-dir>/traces/``.  The parent pre-materializes
  every distinct trace before dispatch, so a kinds x ratios sweep
  generates each workload once, not ``len(kinds) * len(ratios)`` times.
* **Persistent cache** — results are cached on disk as JSON under
  ``.repro_cache/`` (override with ``REPRO_CACHE_DIR`` / ``configure``),
  keyed by a stable SHA-256 of the full :class:`~repro.common.config.
  SystemConfig` plus the workload name, trace length and seed.  The key
  also folds in :data:`CACHE_SCHEMA_VERSION` and :data:`CODE_VERSION`, so
  bumping either invalidates every stale entry.  Corrupt or truncated
  files are detected, dropped and recomputed — never crashed on.
* **In-memory memo** — the per-process memo (shared with
  :mod:`repro.analysis.experiments`) sits above the disk layer, so hot
  sweep points never touch the filesystem twice in one process.
* **Observability** — :data:`counters` tracks memo/disk hit rates,
  per-point compute wall-times and parallel fallbacks;
  :func:`counters_summary` renders them (CLI ``--cache-stats``).

Environment knobs (read once at import, overridable via :func:`configure`
or per-call arguments): ``REPRO_WORKERS`` (worker processes, default 1),
``REPRO_CACHE_DIR`` (cache root, default ``.repro_cache``),
``REPRO_NO_CACHE`` (any non-empty value disables the result disk layer),
``REPRO_NO_TRACE_CACHE`` (disables the trace spool), ``REPRO_BATCH_SIZE``
(points per worker dispatch, 0 = auto) and ``REPRO_BACKEND`` (dispatch
backend name from :data:`repro.analysis.dispatch.BACKENDS`, default
``pool``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..common.config import SystemConfig
from ..obs import ObsConfig, attach
from ..sim.results import SimulationResult
from ..sim.simulator import run_trace
from ..sim.system import build_system
from ..workloads import store as trace_store
from . import dispatch
from .io import FORMAT_VERSION, config_to_dict, result_from_dict, result_to_dict

# Re-exported for callers that think in runner terms (CLI, benchmarks).
trace_counters = trace_store.counters

#: Layout version of the on-disk cache wrapper; bump on wrapper changes.
CACHE_SCHEMA_VERSION = 1

#: Simulator-semantics version.  Bump whenever a change to the simulator,
#: protocol, workload generators or timing model alters results for the
#: same configuration — every existing disk entry is then invalidated
#: (its key changes) without touching the cache directory.
CODE_VERSION = 1


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation: a workload run on one configuration.

    ``obs`` attaches a :class:`repro.obs.ObsConfig` to the run: the worker
    wires an observer into the built system and, when ``obs.out_prefix``
    is set, writes the epoch/trace exports next to the simulation.
    Observed points are **never cached** (neither memo nor disk): their
    value is the side-channel files, and serving them from cache would
    silently skip the exports.  ``cache_key`` builds its payload from
    explicit fields, so plain points keep their existing cache keys.

    ``engine`` is the execution engine to request (see
    :func:`repro.sim.simulator.run_trace`).  The default, ``"native"``,
    runs every configuration the compiled kernel models natively, hands
    the rest (and every point on a host without a C compiler) to the
    vector engine, and that engine hands what it cannot model to the
    interpreter — bit-identically at every step.  All
    engines produce the same bits, so the engine is not part of the
    point's identity: ``memo_key`` and ``cache_key`` leave it out, a point
    computed on one engine serves requests for any other, and
    ``result.engine`` records which engine actually computed the value.
    """

    workload: str
    config: SystemConfig
    ops_per_core: int = 3000
    seed: int = 1
    obs: Optional[ObsConfig] = None
    engine: str = "native"

    @property
    def memo_key(self) -> tuple:
        """Hashable in-memory memo key (the parameterization, engine-free)."""
        return (self.workload, self.ops_per_core, self.seed, self.config)

    @property
    def trace_memo_key(self) -> tuple:
        """The workload-generation key this point's input trace shares.

        Points that differ only in directory/NoC/protocol configuration
        replay the identical trace; the batched scheduler groups on this.
        """
        return trace_store.memo_key(
            self.workload,
            self.config.num_cores,
            self.ops_per_core,
            self.seed,
            self.config.block_bytes,
        )

    @property
    def observed(self) -> bool:
        """Does this point carry live observability (and bypass caching)?"""
        return self.obs is not None and self.obs.enabled


def cache_key(point: SweepPoint) -> str:
    """Stable content-addressed key for one sweep point.

    SHA-256 over a canonical (sorted-key, no-whitespace) JSON encoding of
    the complete configuration and workload spec plus the cache and code
    versions.  Identical parameterizations hash identically across
    processes and machines; any changed field produces a distinct key.
    """
    payload = {
        "cache_schema": CACHE_SCHEMA_VERSION,
        "code_version": CODE_VERSION,
        "result_format": FORMAT_VERSION,
        "workload": point.workload,
        "ops_per_core": point.ops_per_core,
        "seed": point.seed,
        "config": config_to_dict(point.config),
    }
    # The engine is provenance, not identity (every engine produces the
    # same bits), so it stays out of the payload — which also keeps every
    # interp-computed entry under the key it always had.
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class DiskCache:
    """Content-addressed JSON result store under one directory.

    One file per sweep point (``<sha256>.json``), written atomically
    (temp file + ``os.replace``) so readers never observe partial writes.
    Unreadable, truncated or version-mismatched files are treated as
    misses and deleted.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """The file a key maps to (exists only after :meth:`store`)."""
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            with open(path) as handle:
                wrapper = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            counters.add(corrupt_entries=1)
            self._discard(path)
            return None
        try:
            if (
                wrapper.get("cache_schema") != CACHE_SCHEMA_VERSION
                or wrapper.get("code_version") != CODE_VERSION
                or wrapper.get("key") != key
            ):
                raise ValueError("cache wrapper version/key mismatch")
            return result_from_dict(wrapper["result"])
        except Exception:
            counters.add(corrupt_entries=1)
            self._discard(path)
            return None

    def store(self, key: str, point: SweepPoint, result: SimulationResult) -> None:
        """Atomically persist one result (best-effort: IO errors ignored)."""
        wrapper = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "code_version": CODE_VERSION,
            "key": key,
            "workload": point.workload,
            "ops_per_core": point.ops_per_core,
            "seed": point.seed,
            "result": result_to_dict(result),
        }
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as handle:
                json.dump(wrapper, handle, separators=(",", ":"))
            os.replace(tmp, path)
            counters.add(disk_writes=1)
        except OSError:
            self._discard(tmp)

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.iterdir():
            if path.suffix == ".json" or ".tmp." in path.name:
                self._discard(path)
                removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


# ------------------------------------------------------------------ module state

@dataclass
class RunnerCounters:
    """Hit-rate and wall-time counters for the sweep engine.

    ``point_seconds`` holds the per-point compute wall-times of the most
    recent :func:`run_points` batch (cache hits contribute nothing — they
    are the point).  ``trace_seconds`` is the share of compute time spent
    acquiring input traces (store lookups + any generation inside
    workers); ``dispatches`` counts worker batches shipped through the
    pool across all parallel runs.
    """

    memo_hits: int = 0
    disk_hits: int = 0
    computed: int = 0
    disk_writes: int = 0
    corrupt_entries: int = 0
    parallel_fallbacks: int = 0
    parallel_batches: int = 0
    dispatches: int = 0
    compute_seconds: float = 0.0
    trace_seconds: float = 0.0
    batch_seconds: float = 0.0
    point_seconds: List[float] = field(default_factory=list)

    @property
    def lookups(self) -> int:
        """Total sweep points requested (after in-batch deduplication)."""
        return self.memo_hits + self.disk_hits + self.computed

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either cache layer."""
        total = self.lookups
        return (self.memo_hits + self.disk_hits) / total if total else 0.0

    def add(self, **deltas: float) -> None:
        """Increment counters by name, atomically: concurrent
        :func:`run_points` calls (one per service campaign) share them."""
        with _COUNTERS_LOCK:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def reset(self) -> None:
        """Zero every counter (tests and benchmarks)."""
        self.__init__()


_COUNTERS_LOCK = threading.Lock()

#: Process-global counters (reset with ``counters.reset()``).
counters = RunnerCounters()

#: In-memory memo layered above the disk cache; shared (by object
#: identity) with ``repro.analysis.experiments._RESULT_CACHE``.
_MEMO: Dict[tuple, SimulationResult] = {}

_DEFAULTS = {
    "workers": max(1, int(os.environ.get("REPRO_WORKERS", "1") or "1")),
    "cache_dir": os.environ.get("REPRO_CACHE_DIR") or ".repro_cache",
    "cache_enabled": not os.environ.get("REPRO_NO_CACHE"),
    "trace_cache_enabled": not os.environ.get("REPRO_NO_TRACE_CACHE"),
    "batch_size": max(0, int(os.environ.get("REPRO_BATCH_SIZE", "0") or "0")),
    "backend": os.environ.get("REPRO_BACKEND") or dispatch.ProcessPoolBackend.name,
}


def configure(
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    cache_enabled: Optional[bool] = None,
    trace_cache_enabled: Optional[bool] = None,
    batch_size: Optional[int] = None,
    backend: Optional[str] = None,
) -> Dict[str, object]:
    """Set process-wide runner defaults; None leaves a field unchanged.

    Returns the resolved defaults (also the way to inspect them).
    ``batch_size=0`` means auto (split the pending set evenly across
    workers); the trace spool lives under ``<cache_dir>/traces/``;
    ``backend`` names a dispatch backend from
    :data:`repro.analysis.dispatch.BACKENDS`.
    """
    if workers is not None:
        _DEFAULTS["workers"] = max(1, int(workers))
    if cache_dir is not None:
        _DEFAULTS["cache_dir"] = str(cache_dir)
    if cache_enabled is not None:
        _DEFAULTS["cache_enabled"] = bool(cache_enabled)
    if trace_cache_enabled is not None:
        _DEFAULTS["trace_cache_enabled"] = bool(trace_cache_enabled)
    if batch_size is not None:
        _DEFAULTS["batch_size"] = max(0, int(batch_size))
    if backend is not None:
        if backend not in dispatch.BACKENDS:
            raise ValueError(
                f"unknown dispatch backend {backend!r}; "
                f"known: {sorted(dispatch.BACKENDS)}"
            )
        _DEFAULTS["backend"] = backend
    return dict(_DEFAULTS)


def default_cache() -> DiskCache:
    """A DiskCache rooted at the currently configured directory."""
    return DiskCache(_DEFAULTS["cache_dir"])


def trace_spool_root(cache_dir: Optional[Union[str, Path]] = None) -> Path:
    """The trace-spool directory under a cache root (default: configured)."""
    root = Path(cache_dir) if cache_dir is not None else Path(_DEFAULTS["cache_dir"])
    return root / "traces"


def default_trace_store() -> trace_store.TraceStore:
    """A TraceStore spooling under the configured cache directory."""
    return trace_store.TraceStore(trace_spool_root())


def campaigns_root(cache_dir: Optional[Union[str, Path]] = None) -> Path:
    """The campaign-journal directory under a cache root (default: configured)."""
    root = Path(cache_dir) if cache_dir is not None else Path(_DEFAULTS["cache_dir"])
    return root / "campaigns"


def clear_memo() -> None:
    """Drop the in-memory result memo only."""
    _MEMO.clear()


def clear_disk_cache() -> int:
    """Delete every entry in the configured disk cache; returns the count."""
    return default_cache().clear()


def clear_trace_cache() -> int:
    """Drop the trace memo and the configured spool; returns files removed."""
    trace_store.clear_memo()
    return default_trace_store().clear()


def clear_campaign_store() -> int:
    """Delete every journaled campaign under the configured cache dir."""
    # Imported lazily: repro.service sits above the analysis layer.
    from ..service.store import CampaignStore

    return CampaignStore(campaigns_root()).clear()


def clear_all() -> None:
    """Drop every cache layer — result memo+disk, trace memo+spool and the
    campaign journal store."""
    clear_memo()
    clear_disk_cache()
    clear_trace_cache()
    clear_campaign_store()


# ------------------------------------------------------------------ execution

#: What :func:`_compute_point` returns: (result, seconds, trace_seconds,
#: gauges) — plain data, so it crosses a process boundary.
PointOutput = Tuple[SimulationResult, float, float, Dict[str, float]]


@dataclass(frozen=True)
class PointOutcome:
    """How one input point of :func:`run_points` completed (``on_point``).

    ``source`` is ``"cache"`` (memo or disk hit), ``"computed"`` or
    ``"failed"`` (then ``error`` holds ``"Type: message"`` and ``result``
    is None).  ``seconds`` is the compute wall time (0 for a cache hit),
    ``key`` the result-cache key (``""`` for observed points, which bypass
    the cache) and ``gauges`` an observed point's latest epoch gauges
    (:meth:`~repro.obs.epoch.EpochSampler.latest_gauges`).
    """

    source: str
    result: Optional[SimulationResult] = None
    seconds: float = 0.0
    key: str = ""
    error: Optional[str] = None
    gauges: Dict[str, float] = field(default_factory=dict)


def _compute_point(
    point: SweepPoint,
    spool_dir: Optional[str] = None,
    spool_enabled: bool = True,
) -> PointOutput:
    """Run one sweep point; returns (result, seconds, trace_seconds, gauges).

    The input trace comes from the shared trace store (memo -> spool ->
    generate) in packed form, so repeated points over one workload never
    regenerate it; ``trace_seconds`` is the acquisition share of the
    point's wall time.  An observed point also writes its exports and
    returns its sampler's latest gauges (empty otherwise).  Top-level so
    :class:`ProcessPoolExecutor` can pickle it.
    """
    start = time.perf_counter()
    trace = trace_store.get_packed_trace(
        point.workload,
        point.config.num_cores,
        point.ops_per_core,
        seed=point.seed,
        block_bytes=point.config.block_bytes,
        root=spool_dir,
        disk_enabled=spool_enabled,
    )
    trace_seconds = time.perf_counter() - start
    gauges: Dict[str, float] = {}
    if point.observed:
        system = build_system(point.config)
        observer = attach(system, point.obs)
        result = run_trace(point.config, trace, system=system, observer=observer)
        observer.write_all(
            meta={"workload": point.workload, "ops_per_core": point.ops_per_core,
                  "seed": point.seed}
        )
        if observer.sampler is not None:
            gauges = observer.sampler.latest_gauges()
    else:
        result = run_trace(point.config, trace, engine=point.engine)
    return result, time.perf_counter() - start, trace_seconds, gauges


def _run_batch(
    batch: Sequence[SweepPoint],
    spool_dir: Optional[str] = None,
    spool_enabled: bool = True,
) -> List[PointOutput]:
    """Worker entry point: compute one batch of points in order.

    A batch is the unit of pool dispatch — the worker pays pickling/IPC
    once for the whole list, and the trace store's in-process memo
    guarantees each distinct trace key inside the batch is derived once
    (with a forking pool it is usually already memoized by the parent's
    pre-materialization pass).
    """
    return [_compute_point(point, spool_dir, spool_enabled) for point in batch]


def _effective_workers(requested: Optional[int]) -> int:
    """Resolve a per-call ``workers`` argument to the count actually used.

    An explicit request is honored as-is (floored at 1) — tests and
    benchmarks deliberately oversubscribe.  The configured *default* is
    clamped to ``os.cpu_count()``: spawning more sweep processes than
    cores only adds pool overhead, and on a single-CPU host the clamp
    makes the default path purely serial (no executor at all).
    """
    if requested is not None:
        return max(1, int(requested))
    configured = int(_DEFAULTS["workers"])
    return max(1, min(configured, os.cpu_count() or 1))


def _plan_batches(
    points: Sequence[SweepPoint], workers: int, batch_size: int
) -> List[List[int]]:
    """Partition point indices into dispatch batches, grouped by trace key.

    Points sharing a trace key are laid out adjacently (first-occurrence
    order, so the plan is deterministic), then cut into batches of
    ``batch_size``; ``batch_size <= 0`` picks the even split
    ``ceil(len(points) / workers)`` — one dispatch per worker for uniform
    sweeps, which is where per-point IPC overhead goes to die.
    """
    groups: Dict[tuple, List[int]] = {}
    order: List[tuple] = []
    for index, point in enumerate(points):
        key = point.trace_memo_key
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(index)
    if batch_size <= 0:
        batch_size = max(1, math.ceil(len(points) / workers))
    batches: List[List[int]] = []
    current: List[int] = []
    for key in order:
        for index in groups[key]:
            current.append(index)
            if len(current) >= batch_size:
                batches.append(current)
                current = []
    if current:
        batches.append(current)
    return batches


def _compute_batch(
    points: Sequence[SweepPoint],
    workers: int,
    spool_dir: Optional[str],
    spool_enabled: bool,
    batch_size: int,
    backend: Union[str, dispatch.DispatchBackend, None],
    on_output: Callable[[int, Union[PointOutput, Exception]], None],
) -> None:
    """Compute every point, folding each through ``on_output`` as it lands.

    ``on_output(point_index, output)`` fires once per point in completion
    order — the hook incremental cache writes hang off, so an interrupted
    sweep keeps everything that finished.  A point whose batch raised gets
    the exception as its output; the other batches continue.

    A live ``backend`` is always used and never shut down.  Otherwise
    ``workers > 1`` with several points dispatches through a fresh backend
    (named, or the configured default) and one worker runs the points
    inline, one batch each.  A backend that cannot start falls back to
    inline.  ``KeyboardInterrupt`` and SIGTERM cancel pending batches,
    drain the backend and re-raise.
    """
    live = isinstance(backend, dispatch.DispatchBackend)
    parallel = live or (workers > 1 and len(points) > 1)
    if parallel:
        plan = _plan_batches(points, backend.workers if live else workers, batch_size)
        if not live:
            backend = dispatch.make_backend(
                backend or str(_DEFAULTS["backend"]), min(workers, len(plan))
            )
        try:
            backend.start()
        except Exception:
            counters.add(parallel_fallbacks=1)
            parallel = False
    if not parallel:
        plan = [[index] for index in range(len(points))]
        backend = dispatch.SerialBackend()

    def _fold(batch_index: int, outputs) -> None:
        for offset, point_index in enumerate(plan[batch_index]):
            on_output(
                point_index,
                outputs if isinstance(outputs, Exception) else outputs[offset],
            )

    run = partial(_run_batch, spool_dir=spool_dir, spool_enabled=spool_enabled)
    try:
        with dispatch.graceful_sigterm():
            dispatch.run_batches(
                backend,
                run,
                [[points[i] for i in batch] for batch in plan],
                on_batch=_fold,
                on_error=_fold,
            )
    finally:
        if not live:
            backend.shutdown()
    if parallel:
        counters.add(parallel_batches=1, dispatches=len(plan))


def run_points(
    points: Sequence[SweepPoint],
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    cache_enabled: Optional[bool] = None,
    trace_cache_enabled: Optional[bool] = None,
    batch_size: Optional[int] = None,
    backend: Union[str, dispatch.DispatchBackend, None] = None,
    on_point: Optional[Callable[[int, PointOutcome], None]] = None,
) -> List[Optional[SimulationResult]]:
    """Execute sweep points through memo -> disk cache -> (parallel) compute.

    Results are returned in input order; duplicate points are simulated
    once.  Pending points are dispatched to workers in trace-key-grouped
    batches, and every distinct input trace is materialized exactly once
    in this process (memo + spool) before any dispatch.  Completed points
    land in the memo and disk cache *as their batches finish*, so an
    interrupted sweep resumes from everything already computed.  Per-call
    arguments override the configured defaults (None means "use the
    default").

    ``backend`` is a backend name or a live
    :class:`~repro.analysis.dispatch.DispatchBackend`; batches for a live
    one are planned for its own worker count, and it is left running for
    the caller's next call.  ``on_point(index, outcome)`` fires exactly
    once per input index, duplicates included, in completion order, with
    a :class:`PointOutcome`.  A batch that raises fails exactly its own
    points: with ``on_point`` they report ``"failed"`` and come back as
    None; without it the first such error is raised once every other
    batch has finished.  Concurrent calls (from threads) are safe.
    """
    workers = _effective_workers(workers)
    use_disk = _DEFAULTS["cache_enabled"] if cache_enabled is None else bool(cache_enabled)
    use_spool = (
        _DEFAULTS["trace_cache_enabled"]
        if trace_cache_enabled is None
        else bool(trace_cache_enabled)
    )
    batch_size = (
        int(_DEFAULTS["batch_size"]) if batch_size is None else max(0, int(batch_size))
    )
    disk = DiskCache(cache_dir) if cache_dir is not None else default_cache()
    spool_dir = str(trace_spool_root(cache_dir))

    batch_start = time.perf_counter()
    results: List[Optional[SimulationResult]] = [None] * len(points)
    # memo_key -> (point, indices still waiting, disk key)
    pending: Dict[tuple, Tuple[SweepPoint, List[int], str]] = {}
    for index, point in enumerate(points):
        if point.observed:
            # Observed points bypass both cache layers (their exports are
            # the point); key on the obs config too so identical sims with
            # different observability stay distinct.
            key = (point.memo_key, point.obs)
            if key in pending:
                pending[key][1].append(index)
            else:
                pending[key] = (point, [index], "")
            continue
        key = point.memo_key
        hit = _MEMO.get(key)
        if hit is not None:
            counters.add(memo_hits=1)
            results[index] = hit
            if on_point is not None:
                on_point(index, PointOutcome("cache", hit, key=cache_key(point)))
            continue
        if key in pending:
            pending[key][1].append(index)
            continue
        disk_key = cache_key(point)
        if use_disk:
            loaded = disk.load(disk_key)
            if loaded is not None:
                counters.add(disk_hits=1)
                _MEMO[key] = loaded
                results[index] = loaded
                if on_point is not None:
                    on_point(index, PointOutcome("cache", loaded, key=disk_key))
                continue
        pending[key] = (point, [index], disk_key)

    if pending:
        entries = list(pending.values())
        todo = [entry[0] for entry in entries]
        # Materialize every distinct input trace once, up front: later
        # worker batches find it in the spool (or, with a forking pool,
        # already in the inherited memo), so a kinds x ratios sweep
        # performs exactly one generation per workload.
        seen_traces = set()
        for point in todo:
            trace_key = point.trace_memo_key
            if trace_key not in seen_traces:
                seen_traces.add(trace_key)
                trace_store.get_packed_trace(
                    *trace_key, root=spool_dir, disk_enabled=use_spool
                )

        point_seconds: List[float] = []
        failures: List[Exception] = []

        def _fold(todo_index: int, output) -> None:
            # Fires as each batch completes: an interrupted sweep keeps
            # every finished point in both cache layers.
            point, indices, disk_key = entries[todo_index]
            if isinstance(output, Exception):
                failures.append(output)
                outcome = PointOutcome(
                    "failed", error=f"{type(output).__name__}: {output}"
                )
            else:
                result, seconds, trace_seconds, gauges = output
                if not point.observed:
                    _MEMO[point.memo_key] = result
                    if use_disk:
                        disk.store(disk_key, point, result)
                counters.add(
                    computed=1, compute_seconds=seconds, trace_seconds=trace_seconds
                )
                point_seconds.append(seconds)
                outcome = PointOutcome("computed", result, seconds, disk_key,
                                       gauges=gauges)
                for index in indices:
                    results[index] = result
            if on_point is not None:
                for index in indices:
                    on_point(index, outcome)

        _compute_batch(
            todo, workers, spool_dir, use_spool, batch_size, backend, _fold
        )
        counters.point_seconds = point_seconds
        if failures and on_point is None:
            raise failures[0]
    counters.add(batch_seconds=time.perf_counter() - batch_start)
    return results


def simulate_point(
    workload: str,
    config: SystemConfig,
    ops_per_core: int = 3000,
    seed: int = 1,
    engine: str = "native",
) -> SimulationResult:
    """Single-point convenience wrapper over :func:`run_points`."""
    return run_points(
        [SweepPoint(workload, config, ops_per_core, seed, engine=engine)]
    )[0]


def counters_summary() -> str:
    """One-paragraph human-readable counter report (results, traces,
    campaign journals)."""
    from ..service.store import CampaignStore

    c = counters
    t = trace_store.counters
    spool = default_trace_store().stats()
    campaigns = CampaignStore(campaigns_root()).stats()
    lines = [
        "sweep runner counters:",
        f"  lookups        {c.lookups}  (memo {c.memo_hits}, disk {c.disk_hits}, "
        f"computed {c.computed})",
        f"  hit rate       {c.hit_rate:.1%}",
        f"  compute time   {c.compute_seconds:.2f}s over {c.computed} points"
        + (
            f" (last batch: {len(c.point_seconds)} points, "
            f"max {max(c.point_seconds):.2f}s)"
            if c.point_seconds
            else ""
        ),
        f"  batch time     {c.batch_seconds:.2f}s  "
        f"(parallel batches {c.parallel_batches}, dispatches {c.dispatches}, "
        f"fallbacks {c.parallel_fallbacks})",
        f"  disk           writes {c.disk_writes}, corrupt dropped {c.corrupt_entries}",
        f"  traces         {t.lookups} lookups (memo {t.memo_hits}, "
        f"spool {t.disk_hits}, generated {t.generated} in {t.gen_seconds:.2f}s); "
        f"acquisition {c.trace_seconds:.2f}s of compute",
        f"  trace spool    {spool['files']} files, {spool['bytes']} bytes "
        f"(writes {t.disk_writes}, corrupt dropped {t.corrupt_entries})",
        f"  campaigns      {campaigns['campaigns']} journaled "
        f"({campaigns['files']} files, {campaigns['bytes']} bytes)",
    ]
    return "\n".join(lines)
