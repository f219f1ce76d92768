"""ExplorationSession + autotune integration tests.

The module-scoped service trains one linear model at a tiny scale;
every test then explores through it.  The two properties the subsystem
exists for are pinned here:

* predict mode never touches an implementation stage (booby-trapped
  rtl/pack/place/route functions);
* each unique stage signature is computed exactly once per sweep
  (stage-cache miss accounting on a fresh store).
"""

import pytest

import repro.flow.pipeline as pipeline_mod
import repro.util.cache as cache_mod
from repro.errors import ExploreError
from repro.explore import ExplorationSession, autotune
from repro.explore.session import build_design_for
from repro.flow import FlowOptions
from repro.serve import CongestionService
from repro.util.cache import KeyedCache

#: tiny designs so the one-off model train costs ~seconds
OPTS = dict(scale=0.16, placement_effort="fast", seed=0)

IMPLEMENTATION_STAGE_FNS = (
    "generate_netlist", "pack_netlist", "place_netlist", "route_design",
)


@pytest.fixture(scope="module")
def service():
    svc = CongestionService("linear", options=FlowOptions(**OPTS))
    svc.warm()
    return svc


def _session(service, **kwargs):
    kwargs.setdefault("max_knobs", 4)
    return ExplorationSession("face_detection", service=service, **kwargs)


def test_sweep_never_places_or_routes(service, monkeypatch):
    def boom(*args, **kwargs):  # pragma: no cover - only on regression
        raise AssertionError(
            "an implementation stage ran during a predict-mode sweep"
        )

    for stage_fn in IMPLEMENTATION_STAGE_FNS:
        monkeypatch.setattr(pipeline_mod, stage_fn, boom)
    # fresh-process simulation: empty stage store + cold predictions
    monkeypatch.setitem(
        cache_mod._GLOBAL_STORES, "flow_stages", KeyedCache()
    )
    monkeypatch.setattr(service, "_prediction_cache", {})
    monkeypatch.setattr(service, "_feature_cache", {})
    session = _session(service)
    result = session.sweep(max_configs=6, seed=1)
    assert len(result.evaluations) == 6
    assert result.baseline.peak > 0
    assert result.pareto  # something is non-dominated


def test_each_unique_signature_computed_exactly_once(service, monkeypatch):
    monkeypatch.setitem(
        cache_mod._GLOBAL_STORES, "flow_stages", KeyedCache()
    )
    # start prediction-cold too (earlier tests share the service);
    # designs are built fresh per request, so nothing else needs clearing
    monkeypatch.setattr(service, "_prediction_cache", {})
    monkeypatch.setattr(service, "_feature_cache", {})
    session = _session(service)
    configs = session.space.sample(8, seed=3)
    unique_keys = {
        session.space.apply(c, session.base_directives).to_key()
        for c in configs
    }
    result = session.sweep(configs=configs, seed=3)
    telemetry = result.telemetry
    # the HLS prefix is two stages (hls + graph); baseline + each unique
    # configuration computes them once — and nothing twice
    expected_groups = len(unique_keys) + 1  # + the baseline request
    assert telemetry["stage_cache_misses"] == 2 * expected_groups
    assert telemetry["prediction_cache_misses"] == expected_groups
    assert telemetry["prediction_cache_hits"] == 0
    assert telemetry["n_unique"] == len(unique_keys)

    # sweeping the same configs again: session memo answers everything —
    # no new predictions, no new stage activity
    before = session.counters["predictions_issued"]
    again = session.sweep(configs=configs, seed=3)
    assert session.counters["predictions_issued"] == before
    assert again.telemetry["stage_cache_misses"] == 0
    assert again.telemetry["prediction_cache_misses"] == 0

    # a fresh session over the same service: the prediction cache
    # answers every configuration without touching the pipeline
    fresh = _session(service)
    warm = fresh.sweep(configs=configs, seed=3)
    assert warm.telemetry["stage_cache_misses"] == 0
    assert warm.telemetry["prediction_cache_hits"] == expected_groups
    assert [e.directives_key for e in warm.evaluations] == \
        [e.directives_key for e in result.evaluations]


def test_deltas_are_relative_to_baseline(service):
    session = _session(service)
    result = session.sweep(max_configs=5, seed=2)
    base = result.baseline
    for evaluation in result.evaluations:
        assert evaluation.delta_peak == pytest.approx(
            evaluation.peak - base.peak
        )
        assert (evaluation.delta_latency
                == evaluation.latency_cycles - base.latency_cycles)


def test_identity_config_predicts_exactly_the_baseline(service):
    session = _session(service)
    identity = session.space.config(
        session.space.identity_values(session.base_directives)
    )
    evaluation = session.evaluate([identity])[0]
    baseline = session.baseline()
    assert evaluation.peak == pytest.approx(baseline.peak)
    assert evaluation.latency_cycles == baseline.latency_cycles


def test_autotune_is_seed_deterministic(service):
    first = autotune(_session(service), budget=10, seed=7, restarts=2)
    second = autotune(_session(service), budget=10, seed=7, restarts=2)
    assert first.best.directives_key == second.best.directives_key
    assert ([s.label for s in first.trajectory]
            == [s.label for s in second.trajectory])
    assert ([s.peak for s in first.trajectory]
            == [s.peak for s in second.trajectory])
    assert first.evaluated == second.evaluated == 10


def test_autotune_never_beats_budget_or_baseline(service):
    result = autotune(_session(service), budget=6, seed=0, restarts=2)
    assert result.evaluated <= 6
    # restart 0 starts at the identity configuration, so the best found
    # can never predict worse than the design's own directives
    assert result.best.peak <= result.baseline.peak + 1e-9
    assert result.trajectory[0].action == "identity"


def test_autotune_ground_truth_validation(service):
    result = autotune(_session(service), budget=4, seed=0, restarts=1,
                      validate_top_k=1)
    assert len(result.validated) == 1
    measured = result.validated[0].measured
    assert measured is not None and measured["peak"] > 0
    assert result.baseline.measured is not None


def test_unknown_design_raises(service):
    with pytest.raises(ExploreError):
        build_design_for("no_such_design", "baseline", 0.16)


def test_sweep_through_resilient_server(service):
    from repro.serve import ResilientCongestionServer, ServerConfig

    direct = _session(service)
    configs = direct.space.sample(3, seed=5)
    expected = direct.evaluate(configs)
    with ResilientCongestionServer(
        service, ServerConfig(max_queue=8, batch_window_s=0.005)
    ) as server:
        session = ExplorationSession(
            "face_detection", server=server, max_knobs=4
        )
        got = session.evaluate(configs)
    assert [e.directives_key for e in got] == \
        [e.directives_key for e in expected]
    assert [e.peak for e in got] == pytest.approx(
        [e.peak for e in expected]
    )
