"""Pluggable dispatch backends for sweep-batch execution.

The sweep engine (:mod:`repro.analysis.runner`) executes one unit of
work: a *batch* of :class:`~repro.analysis.runner.SweepPoint` objects,
grouped by trace key so each dispatch pays trace acquisition and IPC
once.  The campaign service (:mod:`repro.service`) keeps one backend warm
and hands it to every ``run_points`` call.  This module is the
seam between "what to run" and "where to run it":

* :class:`DispatchBackend` — the ABC.  ``submit(fn, batch)`` returns a
  :class:`concurrent.futures.Future` of the batch's outputs; callers
  consume completions in any order (work-stealing falls out of the pool
  semantics: idle workers pull the next queued batch).
* :class:`SerialBackend` — runs the batch inline during ``submit`` (the
  zero-overhead path the runner uses for ``workers <= 1``).
* :class:`InProcessBackend` — a thread pool.  GIL-bound for pure-Python
  simulation, but batches complete concurrently with the caller: pool
  semantics without process spawn (``repro serve --backend inproc`` and
  tests).
* :class:`ProcessPoolBackend` — a :class:`ProcessPoolExecutor`; the true
  parallel path.  ``shutdown(cancel_pending=True)`` cancels every queued
  batch **and terminates running workers**, so a blocked or long-running
  worker can never wedge a Ctrl-C.

:func:`run_batches` is the synchronous driver the runner uses: submit
every batch, fold completions (and per-batch failures) through callbacks
as they land, and on ``KeyboardInterrupt``/``SystemExit`` cancel + drain
the backend before re-raising — completed batches keep their (atomically
written) cache entries, pending ones simply never run.
:func:`graceful_sigterm` routes SIGTERM through the same path so
``kill <pid>`` behaves like Ctrl-C.
"""

from __future__ import annotations

import queue
import signal
import threading
from abc import ABC, abstractmethod
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "BACKENDS",
    "DispatchBackend",
    "InProcessBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "graceful_sigterm",
    "make_backend",
    "run_batches",
]


class DispatchBackend(ABC):
    """Executes batches of sweep work; the one seam runner and service share.

    A backend is cheap to construct; resources (threads, processes) are
    created lazily on first ``submit`` (or explicitly via :meth:`start`)
    and released by :meth:`shutdown`.  ``fn`` must be picklable for the
    process-pool backend — the runner passes its top-level batch worker.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self._in_flight = 0
        self._lock = threading.Lock()

    def start(self) -> None:
        """Eagerly create the execution resources (optional)."""

    @abstractmethod
    def submit(self, fn: Callable, batch: Sequence) -> Future:
        """Schedule ``fn(batch)``; returns a Future of its return value."""

    def shutdown(self, cancel_pending: bool = False) -> None:
        """Release resources; ``cancel_pending`` also drops queued batches."""

    # -- introspection (metrics) -------------------------------------------

    @property
    def in_flight(self) -> int:
        """Batches submitted but not yet completed."""
        return self._in_flight

    @property
    def utilization(self) -> float:
        """Fraction of workers currently busy (in-flight / workers, capped)."""
        return min(1.0, self._in_flight / self.workers) if self.workers else 0.0

    def describe(self) -> Dict[str, object]:
        """JSON-able backend description (service status endpoint)."""
        return {"backend": self.name, "workers": self.workers}

    # -- shared bookkeeping -------------------------------------------------

    def _track(self, future: Future) -> Future:
        with self._lock:
            self._in_flight += 1

        def _done(_):
            with self._lock:
                self._in_flight -= 1

        future.add_done_callback(_done)
        return future


class SerialBackend(DispatchBackend):
    """Runs each batch inline during ``submit`` (no concurrency, no pool).

    ``KeyboardInterrupt``/``SystemExit`` raised by the batch propagate out
    of ``submit`` — an inline interrupt should stop the caller, not be
    smuggled into a Future nobody is awaiting yet.
    """

    name = "serial"

    def submit(self, fn: Callable, batch: Sequence) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(batch))
        except Exception as exc:
            future.set_exception(exc)
        return future


class InProcessBackend(DispatchBackend):
    """Thread-pool backend: concurrent completion without process spawn.

    Simulation is pure Python, so threads do not add CPU parallelism; the
    value is asynchrony without process spawn.
    """

    name = "inproc"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def start(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-dispatch"
            )

    def submit(self, fn: Callable, batch: Sequence) -> Future:
        self.start()
        assert self._pool is not None
        return self._track(self._pool.submit(fn, batch))

    def shutdown(self, cancel_pending: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=not cancel_pending, cancel_futures=cancel_pending)


class ProcessPoolBackend(DispatchBackend):
    """Process-pool backend: the real parallel path.

    ``shutdown(cancel_pending=True)`` is the graceful-interrupt discipline:
    queued batches are cancelled, then every live worker process is
    terminated — a worker blocked in a long simulation (or wedged outright)
    cannot stall the shutdown.  Results already handed back through
    completed futures are unaffected.
    """

    name = "pool"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    def start(self) -> None:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def submit(self, fn: Callable, batch: Sequence) -> Future:
        self.start()
        assert self._pool is not None
        return self._track(self._pool.submit(fn, batch))

    def shutdown(self, cancel_pending: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if not cancel_pending:
            pool.shutdown(wait=True)
            return
        # Snapshot the worker table and manager thread first:
        # executor.shutdown() nulls both even with wait=False.
        processes = dict(getattr(pool, "_processes", None) or {})
        manager = getattr(pool, "_executor_manager_thread", None)
        pool.shutdown(wait=False, cancel_futures=True)
        # Drain: kill live workers so a blocked simulation cannot hold the
        # interpreter (the executor would otherwise join them at exit).
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):
                pass
        for process in list(processes.values()):
            try:
                process.join(timeout=5.0)
            except (OSError, ValueError, AssertionError):
                pass
        if manager is not None:
            manager.join(timeout=5.0)  # it exits once it sees the dead workers


#: Backend registry: name -> class (CLI ``repro serve --backend``).
BACKENDS = {
    SerialBackend.name: SerialBackend,
    InProcessBackend.name: InProcessBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}


def make_backend(name: str, workers: int = 1) -> DispatchBackend:
    """Instantiate a registered backend by name."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown dispatch backend {name!r}; known: {sorted(BACKENDS)}"
        ) from None
    return cls(workers)


@contextmanager
def graceful_sigterm():
    """Route SIGTERM to ``KeyboardInterrupt`` for the enclosed block.

    Only effective in the main thread of the main interpreter (signal
    handlers cannot be installed elsewhere); a no-op otherwise.  The
    previous handler is restored on exit.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    try:
        previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


def run_batches(
    backend: DispatchBackend,
    fn: Callable,
    batches: Sequence[Sequence],
    on_batch: Optional[Callable[[int, List], None]] = None,
    on_error: Optional[Callable[[int, Exception], None]] = None,
) -> List[Optional[List]]:
    """Submit every batch and fold completions as they land.

    Returns outputs in input order (``outputs[i]`` for ``batches[i]``);
    ``on_batch(index, outputs)`` fires in *completion* order, which is what
    incremental cache writes and live metrics hang off.  A batch already
    done when ``submit`` returns (the serial backend's) is folded at once,
    so an interrupt never loses it.  On ``KeyboardInterrupt``/``SystemExit``
    the pending batches are cancelled, the backend is drained
    (``shutdown(cancel_pending=True)``) and the interrupt re-raised — work
    already completed stays completed.

    A batch that raises any other exception — or is cancelled by a drain
    of the backend — is handed to ``on_error(index, exc)`` (its output
    stays None) and the other batches continue; without ``on_error`` the
    exception propagates.
    """
    futures: List[Future] = []
    outputs: List[Optional[List]] = [None] * len(batches)
    # Done-callbacks, not as_completed: a future cancelled by
    # shutdown(cancel_futures=True) runs its callbacks but never wakes an
    # as_completed waiter.
    landed: "queue.SimpleQueue[int]" = queue.SimpleQueue()

    def _fold(index: int) -> None:
        try:
            outputs[index] = futures[index].result()
        except Exception as exc:
            if on_error is None:
                raise
            on_error(index, exc)
            return
        if on_batch is not None:
            on_batch(index, outputs[index])

    try:
        folded = 0
        for index, batch in enumerate(batches):
            futures.append(backend.submit(fn, batch))
            futures[index].add_done_callback(lambda _, i=index: landed.put(i))
            while not landed.empty():
                _fold(landed.get())
                folded += 1
        for _ in range(folded, len(batches)):
            _fold(landed.get())
    except (KeyboardInterrupt, SystemExit):
        for future in futures:
            future.cancel()
        backend.shutdown(cancel_pending=True)
        raise
    return outputs
