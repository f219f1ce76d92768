"""Per-layer metrics from a dumped trace.

Every traced run reports every metric in :data:`PER_ANSWER`,
:data:`PER_RUN`, :data:`SERVING` and :data:`RUN_HEALTH`; a layer that
did no work on a workload reads 0 there, which is itself the finding
(``hls.self_ms`` is 0 on ``serve_net`` because its answers are
prediction-cache hits).
"""

from __future__ import annotations

import json
from collections import defaultdict

from common import median
from tracer import ROOT

#: metric -> span name; self time per answered config, in ms
PER_ANSWER = {
    "explore.session.self_ms": "explore.session",
    "explore.design.self_ms": "explore.design",
    "serve.service.self_ms": "serve.service",
    "serve.design.self_ms": "serve.design",
    "kernels.build_ms": "kernels.build",
    "flow.pipeline.self_ms": "flow.pipeline",
    "hls.self_ms": "hls",
    "graph.self_ms": "graph",
    "features.self_ms": "features",
    "ml.predict_ms": "ml.predict",
    "predict.regions_ms": "predict.regions",
    "util.cache.put_ms": "util.cache.put",
    "util.cache.get_ms": "util.cache.get",
    "rtl.self_ms": "rtl",
    "impl.pack_ms": "impl.pack",
    "impl.place_ms": "impl.place",
    "impl.route_ms": "impl.route",
    "impl.sta_ms": "impl.sta",
    "backtrace.self_ms": "backtrace",
}

#: metric -> (span name, unit scale) for work outside the timed
#: answers (set-up): the median duration of one call
PER_RUN = {
    "dataset.build_s": ("dataset.build", 1e-9),
    "ml.fit_s": ("ml.fit", 1e-9),
    "serve.registry.save_ms": ("serve.registry.save", 1e-6),
    "serve.registry.load_ms": ("serve.registry.load", 1e-6),
}

#: spans that enclose other layers' work: what no named layer below
#: them explains shows up as their self time, so ``trace.coverage``
#: counts their self time as uncovered
CATCH_ALL = (ROOT, "explore.session", "serve.service", "flow.pipeline")

CACHE = ("util.cache.put_kb", "util.cache.get_kb", "util.cache.hit_ratio")

SERVING = (
    "serve.net.server_ms_p50", "serve.net.wire_ms_p50",
    "serve.server.queue_wait_ms_p50", "serve.server.batch_size_mean",
    "serve.server.rejected", "serve.service.predict_batch_ms_p50",
    "serve.service.prediction_hit_ratio", "loadgen.late_ms_p90",
)

RUN_HEALTH = (
    "gc.pause_ms", "gc.gen2_count", "host.yardstick_ms",
    "trace.coverage", "trace.overhead_pct",
)

ALL = (*PER_ANSWER, *PER_RUN, *CACHE, *SERVING, *RUN_HEALTH)

def load(path: str) -> dict:
    with open(path) as fh:
        trace = json.load(fh)
    trace["extras"] = {int(k): v for k, v in trace["extras"].items()}
    return trace


def self_times(spans) -> dict[int, int]:
    """Span id -> self time (duration minus its children's durations).

    Children of one span run on the span's own thread and nest inside
    it, so their durations never overlap and simply subtract.
    """
    child_total: dict[int, int] = defaultdict(int)
    for span_id, _name, start, end, parent, _rid in spans:
        if parent:
            child_total[parent] += end - start
    return {
        span_id: (end - start) - child_total.get(span_id, 0)
        for span_id, _name, start, end, _parent, _rid in spans
    }


def _answer_spans(spans) -> tuple[set[int], list[tuple[int, int]]]:
    """Ids of spans inside a timed answer, and the root intervals.

    The tracer hands a root's request id down to every span below it;
    the what-if and implement passes open no other spans with an id.
    """
    ids = {s[0] for s in spans if s[5] is not None}
    intervals = sorted((s[2], s[3]) for s in spans if s[1] == ROOT)
    return ids, intervals


def _gc_in(trace, intervals) -> tuple[float, int]:
    """GC pause ms and generation-2 collections starting inside any of
    ``intervals``."""
    import bisect

    starts = [a for a, _ in intervals]
    pause = 0
    gen2 = 0
    for start, end, generation in trace["gc"]:
        i = bisect.bisect_right(starts, start) - 1
        if i >= 0 and start < intervals[i][1]:
            pause += end - start
            gen2 += generation == 2
    return pause / 1e6, gen2


def per_run(trace, excluded: set[int] = frozenset()) -> dict[str, float]:
    """Once-per-run metrics: the median duration of one call."""
    out = {}
    for metric, (name, scale) in PER_RUN.items():
        durations = [(s[3] - s[2]) * scale for s in trace["spans"]
                     if s[1] == name and s[0] not in excluded]
        out[metric] = median(durations) if durations else 0.0
    return out


def zero_metrics() -> dict[str, float]:
    return {m: 0.0 for m in ALL}


def answer_layers(trace: dict, n_answers: int) -> dict[str, float]:
    """Layer metrics of a what-if or implement pass (timed answers are
    the benchmark's root spans)."""
    spans = trace["spans"]
    own = self_times(spans)
    inside, intervals = _answer_spans(spans)
    out = zero_metrics()
    by_name: dict[str, int] = defaultdict(int)
    for s in spans:
        if s[0] in inside:
            by_name[s[1]] += own[s[0]]
    for metric, name in PER_ANSWER.items():
        out[metric] = by_name.get(name, 0) / 1e6 / n_answers
    out.update(per_run(trace, inside))

    puts = [trace["extras"].get(s[0], {}) for s in spans
            if s[0] in inside and s[1] == "util.cache.put"]
    gets = [trace["extras"].get(s[0], {}) for s in spans
            if s[0] in inside and s[1] == "util.cache.get"]
    out["util.cache.put_kb"] = sum(e.get("bytes", 0)
                                   for e in puts) / 1024 / n_answers
    out["util.cache.get_kb"] = sum(e.get("bytes", 0)
                                   for e in gets) / 1024 / n_answers
    out["util.cache.hit_ratio"] = (
        sum(1 for e in gets if e.get("hit")) / len(gets) if gets else 0.0
    )

    timed = sum(b - a for a, b in intervals)
    named = sum(own[s[0]] for s in spans
                if s[0] in inside and s[1] not in CATCH_ALL)
    out["trace.coverage"] = named / timed if timed else 0.0
    pause_ms, gen2 = _gc_in(trace, intervals)
    out["gc.pause_ms"] = pause_ms / n_answers
    out["gc.gen2_count"] = float(gen2)
    return out


#: metrics the implement pass of a traced whatif_cold run reports: the
#: implementation stages per flow, and the training's once-per-run calls
IMPLEMENT = (
    "explore.design.self_ms", "rtl.self_ms", "impl.pack_ms", "impl.place_ms",
    "impl.route_ms", "impl.sta_ms", "backtrace.self_ms",
    "dataset.build_s", "ml.fit_s", "serve.registry.save_ms",
)


def implement_layers(trace: dict, n_flows: int) -> dict[str, float]:
    """The :data:`IMPLEMENT` metrics of a traced implement pass."""
    flows = answer_layers(trace, n_flows)
    return {m: flows[m] for m in IMPLEMENT}


def serving_layers(trace: dict, window: tuple[int, int],
                   client: dict) -> dict[str, float]:
    """Layer metrics of the serving process over the bench's timed
    window.  ``client`` maps wire id -> (send_ns, recv_ns) for every
    answered request of the window."""
    spans = trace["spans"]
    own = self_times(spans)
    in_win = [s for s in spans if window[0] <= s[2] < window[1]]
    out = zero_metrics()
    n = max(1, len(client))
    by_name: dict[str, int] = defaultdict(int)
    for s in in_win:
        by_name[s[1]] += own[s[0]]
    for metric, name in PER_ANSWER.items():
        out[metric] = by_name.get(name, 0) / 1e6 / n
    out.update(per_run(trace, {s[0] for s in in_win}))

    # server time per wire id: request frame decoded -> answer encoded
    received: dict[str, int] = {}
    answered: dict[str, int] = {}
    for s in in_win:
        if s[1] == "serve.protocol.decode_payload":
            wire_id = trace["extras"].get(s[0], {}).get("wire_id")
            if wire_id is not None:
                received[wire_id] = s[2]
        elif s[1] == "serve.protocol.encode_frame" and s[5] is not None:
            answered[s[5]] = s[3]
    server_ms, wire_ms = [], []
    for wire_id, (sent, recv) in client.items():
        if wire_id in received and wire_id in answered:
            server = (answered[wire_id] - received[wire_id]) / 1e6
            server_ms.append(server)
            wire_ms.append((recv - sent) / 1e6 - server)
    waits, sizes, batch_ms = [], [], []
    for s in in_win:
        if s[1] == "serve.service":
            extra = trace["extras"].get(s[0], {})
            waits.extend(w / 1e6 for w in extra.get("waits", []))
            sizes.append(extra.get("batch", 0))
            batch_ms.append((s[3] - s[2]) / 1e6)
    out["serve.net.server_ms_p50"] = median(server_ms) if server_ms else 0.0
    out["serve.net.wire_ms_p50"] = median(wire_ms) if wire_ms else 0.0
    out["serve.server.queue_wait_ms_p50"] = median(waits) if waits else 0.0
    out["serve.server.batch_size_mean"] = (
        sum(sizes) / len(sizes) if sizes else 0.0
    )
    out["serve.server.rejected"] = float(sum(
        1 for t in trace["rejections"] if window[0] <= t < window[1]
    ))
    out["serve.service.predict_batch_ms_p50"] = (
        median(batch_ms) if batch_ms else 0.0
    )
    client_total = sum(recv - sent for sent, recv in client.values())
    out["trace.coverage"] = (
        sum(server_ms) * 1e6 / client_total if client_total else 0.0
    )
    pause_ms, gen2 = _gc_in(trace, [window])
    out["gc.pause_ms"] = pause_ms / n
    out["gc.gen2_count"] = float(gen2)
    return out
