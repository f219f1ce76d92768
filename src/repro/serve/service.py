"""The congestion-prediction serving facade.

:class:`CongestionService` is the stable front door for answering
"where will this design be congested?" many times cheaply:

* it lazily **loads-or-trains** its predictor — first from an in-memory
  slot, then from the :class:`~repro.serve.registry.ModelRegistry`
  (second processes never retrain), and only then by building the
  training dataset and fitting from scratch (persisting the result);
* requests run only the **HLS prefix** of the flow pipeline
  (``FlowPipeline.default().subset(["graph"])`` — no packing, placement
  or routing ever executes on the serving path), with stage artifacts
  memoized per design so repeated requests are feature-extraction only;
* feature extraction itself rides the **vectorized snapshot engine**:
  the graph stage pre-compiles a frozen
  :class:`~repro.graph.snapshot.GraphSnapshot` and
  :class:`~repro.features.extract.FeatureExtractor` memoizes the
  extracted ``[n, 302]`` matrix on it per device, so the steady state
  of repeated requests against one design is a dictionary hit, not a
  re-extraction;
* :meth:`predict_batch` answers many :class:`PredictRequest` objects in
  one model invocation: features of all unique designs are stacked into
  a single matrix and the regressors run once, which is where the batch
  throughput win comes from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import threading

from repro.dataset.build import build_paper_dataset
from repro.errors import (
    CircuitOpenError,
    CorruptArtifactError,
    DeadlineExceededError,
    ModelRegistryError,
    ServeError,
    StaleModelError,
)
from repro.features.extract import FeatureExtractor
from repro.flow.c_to_fpga import design_cache_token
from repro.hls.directives import DirectiveSet
from repro.flow.pipeline import FlowOptions, FlowPipeline
from repro.fpga.device import Device, xc7z020
from repro.kernels.combos import (
    KERNEL_BUILDERS,
    PAPER_COMBINATIONS,
    build_combined,
    build_kernel,
)
from repro.predict.predictor import (
    CongestionPredictor,
    RegionIndex,
    SourceRegionPrediction,
)
from repro.serve.registry import ModelRegistry, dataset_spec_fingerprint
from repro.serve.resilience import ResiliencePolicy, deadline_timestamp
from repro.util.cache import cached_property_store


@dataclass(frozen=True)
class PredictRequest:
    """One prediction request, addressable by design name.

    ``directives`` optionally *overrides* the design's directive set
    with a canonical :meth:`~repro.hls.directives.DirectiveSet.to_key`
    tuple — the what-if exploration workload: same source, different
    pragma configuration, answered without any place-and-route.  Each
    distinct override gets its own stage-cache identity, so two
    configurations never alias and a repeated configuration is a cache
    hit.
    """

    design: str
    variant: str = "baseline"
    #: how many hottest source regions to return
    top: int = 5
    #: canonical DirectiveSet.to_key() override, or None for the stock
    #: directives of (design, variant)
    directives: tuple | None = None

    @property
    def group_key(self) -> tuple:
        """Identity of the feature-extraction group this request joins."""
        return (self.design, self.variant, self.directives)


@dataclass
class PredictResponse:
    """Answer to one :class:`PredictRequest`."""

    request: PredictRequest
    #: hottest source regions, descending by average congestion
    regions: list[SourceRegionPrediction] = field(default_factory=list)
    n_operations: int = 0
    predicted_max_vertical: float = 0.0
    predicted_max_horizontal: float = 0.0
    #: where the model came from: "memory" | "registry" | "trained"
    model_source: str = ""
    #: wall seconds attributed to this request (batch time / batch size
    #: when served as part of a batch)
    latency_seconds: float = 0.0
    batch_size: int = 1
    #: True when the service fell back after a dependency failure (e.g.
    #: a quarantined registry artifact forced a retrain-in-place, or the
    #: trained model could not be persisted); the prediction itself is
    #: from a fully fitted model, but operators should know
    degraded: bool = False
    degraded_reason: str = ""
    #: HLS-report summary of the (possibly directive-overridden) design —
    #: what-if exploration trades these against predicted congestion
    latency_cycles: int = 0
    resources: dict[str, int] = field(default_factory=dict)
    #: which model generation answered: increments every time the
    #: service adopts a predictor (train, registry load, hot-swap), so a
    #: micro-batch served across a hot-swap is provably single-generation
    model_generation: int = 0


class CongestionService:
    """Train-or-load once, then answer prediction requests cheaply."""

    def __init__(
        self,
        model: str = "gbrt",
        *,
        options: FlowOptions | None = None,
        device: Device | None = None,
        combos: tuple[str, ...] | None = None,
        registry: ModelRegistry | str | None = "auto",
        n_jobs: int = 1,
        resilience: ResiliencePolicy | None = None,
        prediction_cache: bool = True,
    ) -> None:
        self.model_name = model
        self.options = options or FlowOptions()
        self.device = device or xc7z020()
        self.combos = tuple(combos or PAPER_COMBINATIONS)
        self.n_jobs = n_jobs
        #: memoize finished group results per (design, variant,
        #: directives)?  Benchmarks that measure model-invocation cost
        #: turn this off — otherwise every repeat request is a dict hit
        #: and the numbers say nothing about inference.
        self.prediction_cache = prediction_cache
        #: optional retry/circuit-breaker wiring around the registry and
        #: dataset-build dependencies (the resilient server installs one)
        self.resilience = resilience
        if registry == "auto":
            try:
                self.registry: ModelRegistry | None = ModelRegistry()
            except ModelRegistryError:
                self.registry = None  # no REPRO_CACHE_DIR: memory only
        elif isinstance(registry, str):
            self.registry = ModelRegistry(registry)
        else:
            self.registry = registry
        #: the HLS prefix — hls + dependency graph, nothing physical
        self.pipeline = FlowPipeline.default().subset(["graph"])
        self._predictor: CongestionPredictor | None = None
        self._model_source = ""
        self._model_generation = 0
        self._degraded_reason = ""
        #: finished group results (regions, peaks, HLS summary) per
        #: (design, variant, directives) — predictions over a fixed
        #: model are deterministic, so a repeated what-if configuration
        #: skips extraction AND the model invocation entirely.  Keyed to
        #: the predictor instance: a retrain/reload invalidates it.
        self._prediction_cache: dict[tuple, tuple] = {}
        self._prediction_cache_for: object | None = None
        #: model-independent extraction artifacts per group — (design,
        #: hls, graph, nodes, X, region index).  Unlike the prediction
        #: cache this survives hot-swaps and retrains (features don't
        #: depend on the model), so after a swap only the model
        #: invocation reruns.  FIFO-bounded so an unbounded what-if
        #: sweep can't pin every design module it ever touched.
        self._feature_cache: dict[tuple, tuple] = {}
        self._feature_cache_max = 128
        #: concurrent workers may warm through one service; this keeps
        #: "train exactly once" race-free
        self._warm_lock = threading.Lock()
        self._counters = {
            "predictions": 0, "batches": 0, "trained": 0,
            "registry_loads": 0, "stale_rejections": 0,
            "quarantined_loads": 0, "registry_unavailable": 0,
            "save_failures": 0,
            "prediction_hits": 0, "prediction_misses": 0,
        }

    # ------------------------------------------------------------------
    # model lifecycle
    # ------------------------------------------------------------------
    @property
    def dataset_fingerprint(self) -> str:
        return dataset_spec_fingerprint(self.combos, self.options)

    def warm(self) -> str:
        """Ensure a predictor is available; returns its source
        ("memory", "registry" or "trained").

        With a :class:`~repro.serve.resilience.ResiliencePolicy`
        installed, registry loads are retried on transient I/O and
        guarded by a circuit breaker, and **graceful degradation**
        applies: a corrupt (quarantined) artifact or an unavailable
        registry falls back to retrain-in-place and every subsequent
        response carries ``degraded=True`` with the reason, instead of
        the process crashing or silently serving nothing.
        """
        with self._warm_lock:
            return self._warm_locked()

    def _warm_locked(self) -> str:
        if self._predictor is not None:
            self._model_source = "memory"
            return self._model_source
        policy = self.resilience

        if self.registry is not None:
            def load():
                return self.registry.load(
                    self.model_name, self.dataset_fingerprint,
                    device=self.device,
                )

            if policy is not None:
                attempt = load

                def load():
                    return policy.registry_breaker.call(
                        lambda: policy.registry_retry.call(attempt),
                        on=(OSError,),
                    )

            try:
                self._predictor = load()
                self._model_generation += 1
                self._counters["registry_loads"] += 1
                self._model_source = "registry"
                return self._model_source
            except StaleModelError:
                self._counters["stale_rejections"] += 1
            except CorruptArtifactError as exc:
                # the registry already quarantined the artifact pair;
                # retrain in place and flag responses as degraded
                self._counters["quarantined_loads"] += 1
                self._degraded_reason = (
                    f"registry artifact quarantined; retrained in place "
                    f"({exc})"
                )
            except ModelRegistryError:
                pass  # nothing persisted yet — train below
            except (OSError, CircuitOpenError) as exc:
                self._counters["registry_unavailable"] += 1
                self._degraded_reason = (
                    f"model registry unavailable; retrained in place "
                    f"({exc})"
                )

        def build():
            return build_paper_dataset(
                options=self.options, combos=self.combos,
                n_jobs=self.n_jobs, device=self.device,
            )

        if policy is not None:
            dataset = policy.dataset_breaker.call(build)
        else:
            dataset = build()
        predictor = CongestionPredictor(self.model_name, self.device)
        predictor.fit(dataset)
        self._predictor = predictor
        self._model_generation += 1
        self._counters["trained"] += 1
        self._model_source = "trained"
        if self.registry is not None:
            try:
                self.registry.save(
                    predictor, dataset_fingerprint=self.dataset_fingerprint
                )
            except (OSError, ModelRegistryError) as exc:
                if policy is None:
                    raise
                # resilient mode: an unpersistable model still serves —
                # flag it so operators see the registry is unhealthy
                self._counters["save_failures"] += 1
                self._degraded_reason = (
                    f"trained model could not be persisted ({exc})"
                )
        return self._model_source

    @property
    def predictor(self) -> CongestionPredictor:
        if self._predictor is None:
            self.warm()
        return self._predictor

    @property
    def model_generation(self) -> int:
        """0 before any model is adopted; +1 per train/load/hot-swap."""
        return self._model_generation

    def adopt_predictor(self, predictor: CongestionPredictor, *,
                        source: str = "registry") -> int:
        """Atomically replace the serving predictor (model hot-swap).

        Returns the new model generation.  The per-predictor prediction
        cache self-invalidates (it is keyed to the predictor instance),
        so no stale answer can outlive a swap.  Callers that serve
        batches concurrently must serialize this against
        ``predict_batch`` — :meth:`ResilientCongestionServer.hot_swap`
        does exactly that, which is what makes in-flight micro-batches
        finish on the old model.
        """
        with self._warm_lock:
            self._predictor = predictor
            self._model_source = source
            self._model_generation += 1
            return self._model_generation

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _build_design(self, request: PredictRequest):
        """A freshly built ``(design, token)`` for one request.

        Built anew on every call: the pipeline's HLS stage mutates the
        design module in place, so a shared instance would hand later
        callers a half-transformed module (directive transforms
        double-applied on re-synthesis), and a rebuild costs less than
        a pickled copy would.  Builds and HLS transforms share the
        process-global op-uid counter, so callers must not run
        ``predict_batch`` concurrently on one process (the resilient
        server serializes it under its service lock).
        """
        if request.design in KERNEL_BUILDERS:
            build, combined = build_kernel, False
        elif request.design in PAPER_COMBINATIONS:
            build, combined = build_combined, True
        else:
            known = sorted({*KERNEL_BUILDERS, *PAPER_COMBINATIONS})
            raise ServeError(
                f"unknown design {request.design!r}; known: {known}"
            )
        token = design_cache_token(
            request.design, request.variant, self.options.scale, combined,
            request.directives,
        )
        design = build(
            request.design, scale=self.options.scale,
            variant=request.variant,
        )
        if request.directives is not None:
            directives = DirectiveSet.from_key(
                request.directives,
                name=f"{request.design}:{request.variant}:whatif",
            )
            directives.validate(design.module)
            design.directives = directives
        return design, token

    def _extract_features(self, request: PredictRequest,
                          deadline: float | None = None):
        """(design, hls, graph, nodes, X, region index) for one unique
        group (design, variant, directives override).

        Runs only the HLS-prefix pipeline; stage artifacts are memoized
        under the design token so repeated requests skip synthesis.
        Everything here is model-independent, so the whole tuple is
        additionally memoized per group: a warm group skips the design
        build, the pipeline walk and feature extraction
        entirely, leaving just the model invocation and per-region
        maxima on the hot path.
        """
        key = request.group_key
        hit = self._feature_cache.get(key)
        if hit is not None:
            return hit
        design, token = self._build_design(request)
        ctx = self.pipeline.run(
            design, self.device, self.options, cache_token=token,
            persist=True, deadline=deadline,
        )
        extractor = FeatureExtractor(ctx.hls, ctx.graph, self.device)
        nodes, X = extractor.extract_all()
        # ctx.design, not the local build: on stage-cache hits the
        # pipeline adopts the design the cached artifacts belong to.
        index = RegionIndex.build(ctx.design, ctx.graph, nodes)
        entry = (ctx.design, ctx.hls, ctx.graph, nodes, X, index)
        if len(self._feature_cache) >= self._feature_cache_max:
            self._feature_cache.pop(next(iter(self._feature_cache)))
        self._feature_cache[key] = entry
        return entry

    def predict(self, request: PredictRequest, *,
                deadline=None) -> PredictResponse:
        """Answer one request (a batch of one)."""
        return self.predict_batch([request], deadline=deadline)[0]

    def predict_batch(
        self, requests: list[PredictRequest], *, deadline=None,
    ) -> list[PredictResponse]:
        """Answer many requests with one stacked model invocation.

        ``deadline`` (a :class:`~repro.serve.resilience.Deadline` or
        monotonic timestamp) propagates into the HLS-prefix pipeline:
        an expired budget raises
        :class:`~repro.errors.DeadlineExceededError` for the whole
        batch — extraction work is shared, so the batch deadline should
        be the *loosest* member deadline (the server handles per-request
        expiry around this call).
        """
        if not requests:
            return []
        deadline = deadline_timestamp(deadline)
        start = time.perf_counter()
        predictor = self.predictor
        source = self._model_source
        generation = self._model_generation
        if self._prediction_cache_for is not predictor:
            # model retrained/reloaded since the cache was filled
            self._prediction_cache = {}
            self._prediction_cache_for = predictor

        # one feature extraction per unique (design, variant, directives)
        # — and none at all for groups the prediction cache already holds
        groups: dict[tuple, list[int]] = {}
        for i, request in enumerate(requests):
            groups.setdefault(request.group_key, []).append(i)
        per_group: dict[tuple, tuple] = {}
        to_compute: dict[tuple, int] = {}
        for key, idx in groups.items():
            cached = (
                self._prediction_cache.get(key)
                if self.prediction_cache else None
            )
            if cached is not None:
                per_group[key] = cached
                self._counters["prediction_hits"] += 1
            else:
                to_compute[key] = idx[0]
                self._counters["prediction_misses"] += 1
        extracted = {
            key: self._extract_features(requests[i], deadline)
            for key, i in to_compute.items()
        }

        if extracted:
            # one model invocation over the stacked feature matrix
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceededError(
                    "deadline exceeded after feature extraction, before "
                    "the model invocation"
                )
            order = list(extracted)
            X_all = np.vstack([extracted[key][4] for key in order])
            v_all, h_all = predictor.predict_matrix(X_all)

            offset = 0
            for key in order:
                design, hls, graph, nodes, X, index = extracted[key]
                v = v_all[offset:offset + len(nodes)]
                h = h_all[offset:offset + len(nodes)]
                offset += len(nodes)
                regions = index.regions(v, h)
                regions.sort(key=lambda r: -r.average)
                per_group[key] = (regions, len(nodes), float(v.max()),
                                  float(h.max()), hls.latency_cycles,
                                  dict(hls.top_report.hierarchical_resources))
                if self.prediction_cache:
                    self._prediction_cache[key] = per_group[key]

        elapsed = time.perf_counter() - start
        degraded_reason = self._degraded_reason
        responses = []
        for request in requests:
            regions, n_ops, v_max, h_max, latency, resources = per_group[
                request.group_key
            ]
            responses.append(PredictResponse(
                request=request,
                regions=regions[:request.top],
                n_operations=n_ops,
                predicted_max_vertical=v_max,
                predicted_max_horizontal=h_max,
                model_source=source,
                latency_seconds=elapsed / len(requests),
                batch_size=len(requests),
                degraded=bool(degraded_reason),
                degraded_reason=degraded_reason,
                latency_cycles=latency,
                resources=resources,
                model_generation=generation,
            ))
        self._counters["predictions"] += len(requests)
        if len(requests) > 1:
            self._counters["batches"] += 1
        return responses

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release serving resources.  A plain in-process service holds
        none (no-op); the multi-process :class:`repro.serve.pool.PoolServer`
        overrides this to stop its workers.  Idempotent."""

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service + registry + stage-cache hit statistics."""
        return {
            **self._counters,
            "model_source": self._model_source,
            "model_generation": self._model_generation,
            "degraded_reason": self._degraded_reason,
            "registry": (
                self.registry.stats() if self.registry is not None else None
            ),
            "stage_cache": cached_property_store("flow_stages").stats(),
            "resilience": (
                self.resilience.stats() if self.resilience is not None
                else None
            ),
        }


def measure_serving(
    service: CongestionService, requests: list[PredictRequest]
) -> dict:
    """Time single-request vs batched serving of ``requests``.

    One measurement protocol shared by ``python -m repro serve-demo``
    and the perf harness (``run_bench.py --serve``) so the two can
    never drift: prime the HLS-prefix stage cache first (both modes
    measure prediction cost, not first-touch synthesis), then time a
    per-request loop and one batched call.
    """
    service.predict_batch(requests)
    latencies = []
    start = time.perf_counter()
    for request in requests:
        response = service.predict(request)
        latencies.append(response.latency_seconds)
    single_seconds = time.perf_counter() - start
    start = time.perf_counter()
    service.predict_batch(requests)
    batch_seconds = time.perf_counter() - start
    return {
        "latencies": sorted(latencies),
        "single_seconds": single_seconds,
        "batch_seconds": batch_seconds,
    }
