"""Out-of-tree span tracer for the benchmark's traced runs.

The tracer lives in the benchmark's files, not in ``repro``: it wraps
the public entry point of each layer from outside, records one span per
call and keeps every span in memory until :meth:`Tracer.dump` writes
them out.  It is installed only for a traced run (``--trace 1``); the
end-to-end numbers always come from untraced runs.

A span is ``(id, name, start_ns, end_ns, parent_id, request_id)``.
Times are ``time.monotonic_ns()``, which on Linux is one system-wide
clock, so spans written by the serving process line up with the
benchmark's own timestamps.  The parent is the innermost open span
on the same thread.  A layer's self time is its duration minus the
time its child spans cover (see :func:`layers.self_times`).

Garbage-collection pauses come from ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: (span name, defining module, attribute) — one row per public entry
#: point the tracer wraps.  ``Class.method`` rows patch the class;
#: plain function rows patch every loaded ``repro`` module that bound
#: the function by name.
ENTRY_POINTS = (
    ("kernels.build", "repro.kernels.combos", "build_kernel"),
    ("kernels.build", "repro.kernels.combos", "build_combined"),
    ("dataset.build", "repro.dataset.build", "build_paper_dataset"),
    ("explore.session", "repro.explore.session",
     "ExplorationSession.evaluate"),
    ("explore.design", "repro.explore.session", "build_design_for"),
    ("serve.service", "repro.serve.service",
     "CongestionService.predict_batch"),
    ("serve.design", "repro.serve.service",
     "CongestionService._build_design"),
    ("flow.pipeline", "repro.flow.pipeline", "FlowPipeline.run"),
    ("hls", "repro.flow.pipeline", "HLSStage.run"),
    ("rtl", "repro.flow.pipeline", "RTLStage.run"),
    ("impl.pack", "repro.flow.pipeline", "PackStage.run"),
    ("impl.place", "repro.flow.pipeline", "PlaceStage.run"),
    ("impl.route", "repro.flow.pipeline", "RouteStage.run"),
    ("impl.sta", "repro.flow.pipeline", "StaStage.run"),
    ("graph", "repro.flow.pipeline", "GraphStage.run"),
    ("backtrace", "repro.flow.pipeline", "BacktraceStage.run"),
    ("features", "repro.features.extract", "FeatureExtractor.extract_all"),
    ("ml.predict", "repro.predict.predictor",
     "CongestionPredictor.predict_matrix"),
    ("ml.fit", "repro.predict.predictor", "CongestionPredictor.fit"),
    ("predict.regions", "repro.predict.predictor", "RegionIndex.build"),
    ("predict.regions", "repro.predict.predictor", "RegionIndex.regions"),
    ("util.cache.get", "repro.util.cache", "DiskCache.get"),
    ("util.cache.put", "repro.util.cache", "DiskCache.put"),
    ("serve.registry.load", "repro.serve.registry", "ModelRegistry.load"),
    ("serve.registry.save", "repro.serve.registry", "ModelRegistry.save"),
    ("serve.server.submit", "repro.serve.server",
     "ResilientCongestionServer.submit"),
    ("serve.net.request_from_wire", "repro.serve.net", "request_from_wire"),
    ("serve.net.response_to_wire", "repro.serve.net", "response_to_wire"),
    ("serve.protocol.encode_frame", "repro.serve.protocol", "encode_frame"),
    ("serve.protocol.decode_payload", "repro.serve.protocol",
     "decode_payload"),
)

#: root span the benchmark opens around each timed answer
ROOT = "bench.request"


class Tracer:
    """In-memory span recorder with GC-pause capture."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.gc_pauses: list[tuple[int, int, int]] = []
        #: per-span extras keyed by span id (cache bytes and hits,
        #: queue waits, batch sizes, rejections)
        self.extras: dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._gc_start = 0
        #: id(PredictRequest) -> wire id, and -> submit time
        self._wire_ids: dict[int, str] = {}
        self._submitted: dict[int, int] = {}
        #: monotonic times of submits the server refused
        self.rejections: list[int] = []
        self._restore: list = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, rid=None):
        """Run ``fn`` inside a span; returns ``(span_id, result)``."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        if rid is None and stack:
            rid = stack[-1][1]
        span_id = next(self._ids)
        stack.append((span_id, rid))
        start = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic_ns()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, rid))
        return span_id, result

    def root(self, rid, fn, *args, **kwargs):
        """Run one timed answer under the benchmark's root span."""
        return self.call(ROOT, fn, args, kwargs, rid=rid)[1]

    # ------------------------------------------------------------------
    def _gc_callback(self, phase: str, info: dict) -> None:
        now = time.monotonic_ns()
        if phase == "start":
            self._gc_start = now
        else:
            self.gc_pauses.append(
                (self._gc_start, now, int(info.get("generation", 0)))
            )

    def _wrapper(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            rid = hook.rid(tracer, args) if hook is not None else None
            if hook is not None:
                hook.before(tracer, args)
            try:
                span_id, result = tracer.call(name, fn, args, kwargs, rid)
            except BaseException as exc:
                if hook is not None:
                    hook.failed(tracer, args, exc)
                raise
            if hook is not None:
                hook.after(tracer, span_id, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> "Tracer":
        """Wrap every :data:`ENTRY_POINTS` row and start GC capture."""
        for name, module_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrapper(name, raw.__func__))
                else:
                    new = self._wrapper(name, raw)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
            else:
                original = getattr(module, attr)
                new = self._wrapper(name, original)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, new)
                            self._restore.append((mod, key, original))
        gc.callbacks.append(self._gc_callback)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def dump(self, path: str) -> None:
        """Write every recorded span, GC pause and rejection as JSON."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump({
                "spans": self.spans,
                "gc": self.gc_pauses,
                "rejections": self.rejections,
                "extras": {str(k): v for k, v in self.extras.items()},
            }, fh)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# per-entry hooks: request ids and the counts measured at the boundary
# ----------------------------------------------------------------------
class _Hook:
    def rid(self, tracer: Tracer, args):
        return None

    def before(self, tracer: Tracer, args) -> None:
        pass

    def after(self, tracer: Tracer, span_id: int, args, result) -> None:
        pass

    def failed(self, tracer: Tracer, args, exc: BaseException) -> None:
        pass


class _CacheGet(_Hook):
    def after(self, tracer, span_id, args, result):
        cache, key = args[0], args[1]
        hit = result is not None
        size = 0
        if hit:
            try:
                size = os.path.getsize(cache.path_for(key))
            except OSError:
                size = 0
        tracer.extras[span_id] = {"hit": hit, "bytes": size}


class _CachePut(_Hook):
    def after(self, tracer, span_id, args, result):
        cache, key = args[0], args[1]
        try:
            size = os.path.getsize(cache.path_for(key))
        except OSError:
            size = 0
        tracer.extras[span_id] = {"bytes": size}


class _WireIn(_Hook):
    """``decode_payload``: the span's request id is the frame's id."""

    def after(self, tracer, span_id, args, result):
        if isinstance(result, dict) and "id" in result:
            tracer.extras[span_id] = {"wire_id": str(result["id"])}


class _WireOut(_Hook):
    """``encode_frame``: the outgoing message carries the request id."""

    def rid(self, tracer, args):
        message = args[0] if args else None
        if isinstance(message, dict) and "id" in message:
            return str(message["id"])
        return None


class _FromWire(_Hook):
    def rid(self, tracer, args):
        message = args[0] if args else None
        if isinstance(message, dict) and "id" in message:
            return str(message["id"])
        return None

    def after(self, tracer, span_id, args, result):
        rid = self.rid(tracer, args)
        if rid is not None:
            tracer._wire_ids[id(result[0])] = rid


class _Submit(_Hook):
    def rid(self, tracer, args):
        return tracer._wire_ids.get(id(args[1]))

    def before(self, tracer, args):
        tracer._submitted[id(args[1])] = time.monotonic_ns()

    def failed(self, tracer, args, exc):
        tracer._submitted.pop(id(args[1]), None)
        tracer.rejections.append(time.monotonic_ns())


class _PredictBatch(_Hook):
    def rid(self, tracer, args):
        ids = [tracer._wire_ids.get(id(r)) for r in args[1]]
        ids = [i for i in ids if i is not None]
        return ",".join(ids) if ids else None

    def before(self, tracer, args):
        now = time.monotonic_ns()
        waits = []
        for request in args[1]:
            submitted = tracer._submitted.pop(id(request), None)
            if submitted is not None:
                waits.append(now - submitted)
            tracer._wire_ids.pop(id(request), None)
        tracer._local.pending_batch = (len(args[1]), waits)

    def after(self, tracer, span_id, args, result):
        size, waits = tracer._local.pending_batch
        tracer.extras[span_id] = {"batch": size, "waits": waits}


_HOOKS = {
    "util.cache.get": _CacheGet(),
    "util.cache.put": _CachePut(),
    "serve.protocol.decode_payload": _WireIn(),
    "serve.protocol.encode_frame": _WireOut(),
    "serve.net.request_from_wire": _FromWire(),
    "serve.server.submit": _Submit(),
    "serve.service": _PredictBatch(),
}
