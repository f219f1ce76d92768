"""One benchmark pass in a fresh interpreter.

``python3 e2ebench/passes.py SPEC.json OUT.json`` runs the pass the
spec names and writes its result as JSON.  ``run.py`` starts every pass
as a child process, so each one begins with empty in-memory caches and
its own peak-memory count, and a restart really is a new process.

Passes:

* ``registry`` — train the per-checkout model once, with the code under
  test, into the shared registry;
* ``whatif`` — ``mode`` ``cold`` (empty stage caches), ``fill`` (a cold
  sweep that fills the on-disk stage cache) or ``restart`` (a new
  process over the filled cache): set up, then answer the seeded config
  list one config at a time through ``ExplorationSession.evaluate``;
* ``implement`` — the implementation layers for a traced run: train
  from an empty registry, then run the full place-and-route flow on the
  first configs of a seeded list disjoint from the what-if list.

A timed pass reads its peak memory right after its timed loop and
dumps its trace there too; answer checks and scoring come after, so
neither figure includes them.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


class Pass:
    """A pass's tracer (traced passes only) and its timed-window end."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.tracer = None
        if spec.get("trace_path"):
            import tracer

            self.tracer = tracer.Tracer().install()

    def timed(self, rid, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.root(rid, fn, *args)

    def end_timing(self) -> float:
        """Close the timed part: dump the trace, return peak RSS (MB)."""
        rss = common.peak_rss_mb()
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer.dump(self.spec["trace_path"])
        return rss


def _space():
    from repro.explore.session import build_design_for
    from repro.explore.space import DirectiveSpace

    base = build_design_for(common.DESIGN, "baseline", common.SCALE)
    return base, DirectiveSpace.around(base)


def _clear_stores(*names) -> None:
    from repro.util.cache import cached_property_store

    for name in names:
        cached_property_store(name).clear()


def _use_cache_dir(path: str | None) -> None:
    if path is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.makedirs(path, exist_ok=True)
        os.environ["REPRO_CACHE_DIR"] = path


def _fresh_cache(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    _use_cache_dir(path)


# ----------------------------------------------------------------------
# answer checks shared by the passes
# ----------------------------------------------------------------------
def evaluation_answer(evaluation) -> list:
    """The comparable content of one what-if answer."""
    return [
        evaluation.peak_vertical, evaluation.peak_horizontal,
        evaluation.hot_regions, evaluation.mean_region,
        evaluation.latency_cycles, sorted(evaluation.resources.items()),
        evaluation.n_operations,
    ]


def reference_answer(predictor, directives_key, options, device) -> list:
    """Recompute one what-if answer through the independent reference
    path: uncached HLS prefix, the per-node reference feature extractor
    and the object-walk tree model."""
    from repro.explore.session import build_design_for
    from repro.features._reference import ReferenceFeatureExtractor
    from repro.flow.pipeline import FlowPipeline
    from repro.predict.predictor import regions_from_predictions

    design = build_design_for(common.DESIGN, "baseline", common.SCALE,
                              directives_key)
    ctx = FlowPipeline.default().subset(["graph"]).run(
        design, device, options
    )
    nodes, X = ReferenceFeatureExtractor(
        ctx.hls, ctx.graph, device
    ).extract_all()
    v = predictor._models["vertical"].estimator.predict_reference(X)
    h = predictor._models["horizontal"].estimator.predict_reference(X)
    regions = regions_from_predictions(ctx.design, ctx.graph, nodes, v, h)
    hot = sum(1 for r in regions if r.average > common.HOT_THRESHOLD)
    mean = sum(r.average for r in regions) / len(regions)
    return [
        float(v.max()), float(h.max()), hot, mean,
        ctx.hls.latency_cycles,
        sorted(dict(ctx.hls.top_report.hierarchical_resources).items()),
        len(nodes),
    ]


def answers_match(a: list, b: list, tol: float = 1e-6) -> bool:
    for x, y in zip(a, b):
        if isinstance(x, float) or isinstance(y, float):
            if abs(x - y) > tol * max(1.0, abs(x)):
                return False
        elif x != y:
            return False
    return len(a) == len(b)


class ErrorTally:
    """Per-node absolute error of the model against routed labels."""

    def __init__(self) -> None:
        self.sum_v = 0.0
        self.sum_h = 0.0
        self.count = 0

    def add_flow(self, predictor, result) -> None:
        from repro.dataset.build import dataset_from_flow

        data = dataset_from_flow(result)
        v, h = predictor.predict_matrix(data.X)
        self.sum_v += float(abs(v - data.y_vertical).sum())
        self.sum_h += float(abs(h - data.y_horizontal).sum())
        self.count += data.n_samples

    def result(self) -> dict:
        return {"mae_v_pct": self.sum_v / self.count,
                "mae_h_pct": self.sum_h / self.count,
                "scored_nodes": self.count}


def _implement(key, device, options):
    from repro.explore import session
    from repro.flow import c_to_fpga

    # looked up at call time, so a traced pass times the wrapped entries
    design = session.build_design_for(common.DESIGN, "baseline",
                                      common.SCALE, key)
    return c_to_fpga.run_flow_on_design(design, device, options)


def score_configs(predictor, keys, options, device) -> dict:
    """Implement ``keys`` (untimed) and score the model on them.  The
    flows' own wall times are kept for the informational full-flow
    rate."""
    tally = ErrorTally()
    flow_s = []
    for key in keys:
        start = time.perf_counter()
        result = _implement(key, device, options)
        flow_s.append(time.perf_counter() - start)
        tally.add_flow(predictor, result)
    return {**tally.result(), "flow_s": flow_s}


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def pass_registry(spec: dict) -> dict:
    from repro.flow.pipeline import FlowOptions
    from repro.serve.service import CongestionService

    _use_cache_dir(spec["cache_dir"])
    service = CongestionService(
        common.MODEL, options=FlowOptions(scale=common.SCALE)
    )
    return {"source": service.warm()}


def pass_whatif(spec: dict) -> dict:
    """Set up ``setups`` times, then answer the list with the last
    session, one config at a time.

    A cold set-up starts from an empty disk cache of its own and empty
    in-memory stores; fill and restart set-ups share ``cache_dir``.
    """
    run = Pass(spec)
    from repro.explore.session import ExplorationSession
    from repro.flow.pipeline import FlowOptions
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import CongestionService

    mode = spec["mode"]
    options = FlowOptions(scale=common.SCALE)
    _base, space = _space()
    configs = [space.config(v) for v in common.config_lists(
        space, spec["seed"], spec["n"])["whatif"]]

    setup_s = []
    for i in range(spec["setups"]):
        if mode == "cold":
            _fresh_cache(os.path.join(spec["cache_dir"], f"setup{i}"))
        else:
            # the fill pass writes the cache the restart pass reads
            _use_cache_dir(spec["cache_dir"])
        _clear_stores("flow_stages")
        # free the previous set-up's objects before its successor's clock
        service = session = None
        gc.collect()
        start = time.perf_counter()
        service = CongestionService(
            common.MODEL, options=options,
            registry=ModelRegistry(spec["registry"]),
        )
        service.warm()
        session = ExplorationSession(common.DESIGN, service=service)
        session.baseline()
        setup_s.append(time.perf_counter() - start)

    gc.collect()
    gen2_before = common.gen2_collections()
    latencies, answers = [], []
    for i, config in enumerate(configs):
        start = time.perf_counter()
        evaluation = run.timed(i, session.evaluate, [config])[0]
        latencies.append(time.perf_counter() - start)
        answers.append(evaluation_answer(evaluation))
    gen2 = common.gen2_collections() - gen2_before
    peak_rss = run.end_timing()

    result = {
        "setup_s": setup_s, "latencies": latencies, "answers": answers,
        "gen2": gen2, "peak_rss_mb": peak_rss, "failed": 0, "checks": [],
    }
    predictor = session.service.predictor
    device = session.service.device
    keys = [space.apply(c, session.base_directives).to_key()
            for c in configs]
    if spec["checks"]:
        for i in (0, len(configs) // 2):
            ref = reference_answer(predictor, keys[i], options, device)
            ok = answers_match(ref, answers[i])
            result["checks"].append({"config": i, "reference": ok})
            result["failed"] += 0 if ok else 1
    if spec["score"]:
        _use_cache_dir(None)
        result.update(score_configs(
            predictor, keys[:common.SCORED_CONFIGS], options, device
        ))
    return result


def _implement_keys(spec: dict) -> list:
    base, space = _space()
    values = common.config_lists(space, spec["seed"], spec["n"])["implement"]
    return [space.apply(space.config(v), base.directives).to_key()
            for v in values]


def pass_implement(spec: dict) -> dict:
    """The implementation layers, for a traced run: train from an empty
    registry, then run the full flow on the first
    :data:`common.IMPLEMENT_FLOWS` configs of the implement list, each
    under a root span.  Two of the routed results are then re-routed
    through the reference router (after the trace is written)."""
    run = Pass(spec)
    from repro.flow.pipeline import FlowOptions
    from repro.fpga.device import xc7z020
    from repro.impl._reference import reference_route
    from repro.serve.service import CongestionService

    options = FlowOptions(scale=common.SCALE)
    device = xc7z020()
    keys = _implement_keys(spec)[:common.IMPLEMENT_FLOWS]
    _fresh_cache(spec["cache_dir"])
    _clear_stores("flow_stages", "flow_results", "datasets")
    if CongestionService(common.MODEL, options=options).warm() != "trained":
        raise RuntimeError("the implement pass must train from scratch")
    _use_cache_dir(None)

    picks = {0: None, len(keys) // 2: None}
    latencies = []
    for i, key in enumerate(keys):
        start = time.perf_counter()
        result = run.timed(i, _implement, key, device, options)
        latencies.append(time.perf_counter() - start)
        if i in picks:
            picks[i] = result
    run.end_timing()

    checks, failed = [], 0
    for i, result in picks.items():
        ref = reference_route(result.netlist, result.packing,
                              result.placement, device, options.routing)
        ok = bool(
            abs(ref.vertical - result.congestion.vertical).max() <= 1e-9
            and abs(ref.horizontal - result.congestion.horizontal).max()
            <= 1e-9
        )
        checks.append({"config": i, "reference_route": ok})
        failed += 0 if ok else 1
    return {"latencies": latencies, "checks": checks, "failed": failed}


PASSES = {
    "registry": pass_registry,
    "whatif": pass_whatif,
    "implement": pass_implement,
}


def main(argv: list[str]) -> int:
    spec_path, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = PASSES[spec["kind"]](spec)
    tmp = f"{out_path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
