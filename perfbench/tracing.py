"""Spans around the calls into each layer's public functions.

A :class:`Tracer` replaces chosen functions and methods of the ``repro``
package with timing wrappers, from outside the package, and restores them
on :meth:`Tracer.uninstall`.  Each call records a span (layer, name,
start, end, parent); a layer's self time is the sum of its spans'
durations minus the time of their child spans in other layers, and its call
count is the number of calls that enter it from another layer.  The
current span lives in a :class:`contextvars.ContextVar`, so spans nest
correctly across interleaved asyncio tasks, and spans opened in executor
threads start at the root.  Spans stay in memory (totals always, events up
to a cap) and are written out when the run ends, as Chrome trace-event
JSON that Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import inspect
import json
import os
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

#: Spans kept for the trace file per process; totals keep counting beyond it.
MAX_EVENTS = 200_000


class _Span:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child = 0.0


class Tracer:
    """Per-process span recorder and function wrapper."""

    def __init__(self, process_name: str, *, keep_intervals: tuple[str, ...] = ()) -> None:
        self.process_name = process_name
        self.pid = os.getpid()
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()
        # (layer, name) -> [calls into the layer, self seconds, rows]
        self.totals: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0])
        self.events: list[tuple] = []
        self.dropped = 0
        self.keep_intervals = set(keep_intervals)
        self.intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _close(
        self, span: _Span, parent: _Span | None, name: str, start: float, end: float, rows: int
    ) -> None:
        duration = end - start
        if parent is not None:
            parent.child += duration
        with self._lock:
            entry = self.totals[(span.layer, name)]
            if parent is None or parent.layer != span.layer:
                entry[0] += 1
            entry[1] += duration - span.child
            entry[2] += rows
            if name in self.keep_intervals:
                self.intervals[name].append((start, end))
            if len(self.events) < MAX_EVENTS:
                self.events.append((span.layer, name, start, duration, threading.get_ident()))
            else:
                self.dropped += 1

    # -- wrappers ----------------------------------------------------------------

    def _sync(self, fn, layer: str, name: str, rows):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.current.get()
            span = _Span(layer)
            token = tracer.current.set(span)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer.current.reset(token)
                counted = rows(args, kwargs, result) if rows is not None else 0
                tracer._close(span, parent, name, start, end, counted)

        return wrapper

    def _async_wall(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent = tracer.current.get()
            span = _Span(layer)
            token = tracer.current.set(span)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.current.reset(token)
                tracer._close(span, parent, name, start, end, 0)

        return wrapper

    def _async_busy(self, fn, layer: str, name: str):
        """Time only the steps a coroutine runs, not the time it is suspended.

        For a parser awaiting bytes from a socket, the suspended time is the
        peer's think time, not work done by the layer.
        """
        tracer = self

        @types.coroutine
        def drive(coro):
            busy = 0.0
            send, throw = None, None
            while True:
                start = time.perf_counter()
                try:
                    if throw is not None:
                        exc, throw = throw, None
                        yielded = coro.throw(exc)
                    else:
                        yielded = coro.send(send)
                except StopIteration as stop:
                    busy += time.perf_counter() - start
                    return busy, stop.value
                busy += time.perf_counter() - start
                try:
                    send = yield yielded
                except BaseException as exc:  # delivered into the coroutine
                    throw = exc

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            busy, value = await drive(fn(*args, **kwargs))
            end = time.perf_counter()
            tracer._close(_Span(layer), None, name, end - busy, end, 0)
            return value

        return wrapper

    def wrap(self, owner, attr: str, layer: str, *, rows=None, mode: str = "sync") -> None:
        """Replace ``owner.attr`` with a timing wrapper (restored by uninstall).

        ``rows(args, kwargs, result)`` counts the work units of one call.
        ``mode`` is ``"sync"``, ``"async_wall"`` (span covers the whole
        await) or ``"async_busy"`` (only the coroutine's running steps).
        """
        raw = inspect.getattr_static(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._sync(raw.__func__, layer, name, rows))
        elif mode == "async_wall":
            wrapped = self._async_wall(raw, layer, name)
        elif mode == "async_busy":
            wrapped = self._async_busy(raw, layer, name)
        else:
            wrapped = self._sync(raw, layer, name, rows)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def wrap_public_methods(self, cls, layer: str) -> None:
        """Wrap every public method a class defines itself."""
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                self.wrap(cls, attr, layer)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    # -- output ------------------------------------------------------------------

    def layer_totals(self) -> dict:
        """``{"layer:function": {"calls", "self_s", "rows"}}``."""
        with self._lock:
            out: dict[str, dict] = {}
            for (layer, name), (calls, self_s, rows) in self.totals.items():
                out[f"{layer}:{name}"] = {"calls": calls, "self_s": self_s, "rows": rows}
            return out

    def trace_events(self) -> list[dict]:
        """Chrome trace events (complete events, microseconds)."""
        with self._lock:
            events = [
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": duration * 1e6,
                    "pid": self.pid,
                    "tid": tid,
                }
                for layer, name, start, duration, tid in self.events
            ]
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": self.pid,
                "args": {"name": self.process_name},
            }
        )
        return events

    def dump(self, path: str | Path) -> None:
        """Write totals, kept intervals and trace events to one JSON file."""
        payload = {
            "totals": self.layer_totals(),
            "intervals": {k: list(v) for k, v in self.intervals.items()},
            "events": self.trace_events(),
            "dropped_events": self.dropped,
        }
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


# -- what each side of the benchmark wraps -----------------------------------------


def install_fit_layers(tracer: Tracer) -> None:
    """Wrap the layers a fit runs through (in the benchmark process)."""
    from repro.backend.base import ComputeBackend
    from repro.core.model import Anonymizer
    from repro.distance.emd import (
        ClusterEMDTracker,
        NominalClusterTracker,
        NominalEMDReference,
        OrderedEMDReference,
    )
    from repro.microagg.engine import ClusteringEngine
    from repro.runtime import checkpoint
    from repro.runtime.checkpoint import CheckpointStore

    tracer.wrap(Anonymizer, "fit", "core")
    for cls in (
        ClusterEMDTracker,
        NominalClusterTracker,
        OrderedEMDReference,
        NominalEMDReference,
    ):
        tracer.wrap_public_methods(cls, "distance")
    tracer.wrap_public_methods(ClusteringEngine, "microagg")
    tracer.wrap(
        ComputeBackend,
        "eval_sq_distances",
        "backend",
        rows=lambda a, kw, r: int(kw["n"] if "n" in kw else a[5]),
    )
    for attr in ("open", "complete_phase", "write_progress"):
        tracer.wrap(CheckpointStore, attr, "runtime")
    tracer.wrap(
        checkpoint, "atomic_write_bytes", "runtime", rows=lambda a, kw, r: len(a[1])
    )
    tracer.wrap(
        checkpoint,
        "atomic_write_json",
        "runtime",
        rows=lambda a, kw, r: os.path.getsize(a[0]),
    )


def install_serving_layers(tracer: Tracer) -> None:
    """Wrap the request path's stages (in the server process)."""
    from repro.backend.base import ComputeBackend
    from repro.serving import http
    from repro.serving.batcher import CoalescingBatcher
    from repro.serving.model import TransformModel

    tracer.wrap(http, "read_request", "serving", mode="async_busy")
    tracer.wrap(http.Request, "json", "serving")
    tracer.wrap(TransformModel, "encode_batch", "serving")
    tracer.wrap(CoalescingBatcher, "assign", "serving", mode="async_wall")
    tracer.wrap(TransformModel, "assign_encoded", "serving")
    tracer.wrap(TransformModel, "apply_assignment", "serving")
    tracer.wrap(http, "render_response", "serving")
    tracer.wrap(
        ComputeBackend,
        "assign_nearest",
        "backend",
        rows=lambda a, kw, r: len(a[1]),
    )


#: Names whose (start, end) intervals the server keeps, for the batch wait.
SERVING_INTERVALS = ("CoalescingBatcher.assign", "TransformModel.assign_encoded")


def batch_wait_s(intervals: dict) -> float:
    """Total time requests spent in the batcher beyond their batch's scan.

    Each ``CoalescingBatcher.assign`` span waits for the flush that resolves
    it; that flush's inner ``assign_encoded`` is the last one to end inside
    the span.  The wait is the span minus that inner scan (the whole span
    when the cache answered every row and nothing was scanned).
    """
    outer = sorted(intervals.get("CoalescingBatcher.assign", []))
    inner = sorted(intervals.get("TransformModel.assign_encoded", []), key=lambda iv: iv[1])
    ends = [end for _, end in inner]
    total = 0.0
    for start, end in outer:
        i = bisect.bisect_right(ends, end) - 1
        scan = 0.0
        if i >= 0 and inner[i][0] >= start:
            scan = inner[i][1] - inner[i][0]
        total += (end - start) - scan
    return total
