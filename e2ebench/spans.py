"""In-memory span tracing around calls into the program's public functions.

A traced repetition rebinds a fixed set of the program's public functions
(see ``layers.py``) to wrappers that record one span per call: name, start,
end, parent span and run id.  Spans stay in a list until the repetition
ends.  Untraced repetitions never install a wrapper.

The self time of a span is its duration minus the part of that interval
its child spans cover.  Children of one span may overlap when they run on
different threads, so the covered part is the union of their intervals.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Tracer:
    """Records spans for one run; install/uninstall rebinds functions."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields its record.

        The block may rename the record or add ``attrs`` before it ends.
        """
        stack = self._stack()
        with self._id_lock:
            self._next_id += 1
            span_id = self._next_id
        record = {"id": span_id, "name": name, "parent": stack[-1] if stack else None,
                  "run": self.run_id}
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, fn: Callable, name, attrs_of=None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``name`` may be a function of the call's result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else "") as record:
                result = fn(*args, **kwargs)
                if callable(name):
                    record["name"] = name(result)
                if attrs_of is not None:
                    record["attrs"] = attrs_of(result)
            return result

        return traced

    # -- rebinding ---------------------------------------------------------

    def patch_function(self, fn: Callable, name, attrs_of=None) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that names it.

        Modules import functions by name (``from ..sim.simulator import
        run_trace``), so each binding is replaced where it is found.
        """
        wrapper = self.wrap(fn, name, attrs_of)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name, attrs_of=None) -> None:
        """Rebind a method (plain or classmethod) on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name, attrs_of))
        else:
            wrapped = self.wrap(raw, name, attrs_of)
        self._set(cls, attr, wrapped)

    def patch_observer(self, cls: type, attr: str, observe: Callable) -> None:
        """Rebind a method to call ``observe(counts, obj, result)`` after it.

        Records counts, not spans: used where a layer exposes counters on
        the object it ran with.
        """
        raw = cls.__dict__[attr]

        @functools.wraps(raw)
        def observed(obj, *args, **kwargs):
            result = raw(obj, *args, **kwargs)
            observe(self.counts, obj, result)
            return result

        self._set(cls, attr, observed)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every rebound attribute back, newest first."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------- arithmetic

def covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[Optional[int], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered((span["start"], span["end"]), children.get(span["id"], ()))
        for span in spans
    }


def self_by_name(spans: List[dict]) -> Dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span["name"]] += own[span["id"]]
    return dict(out)


def total_by_name(spans: List[dict]) -> Dict[str, float]:
    """Summed inclusive duration per span name."""
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span["name"]] += span["end"] - span["start"]
    return dict(out)
