"""Model registry persistence and the prediction service."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.dataset import build_paper_dataset
from repro.errors import (
    CorruptArtifactError,
    ModelRegistryError,
    ServeError,
    StaleModelError,
)
from repro.flow import FlowOptions
from repro.fpga.device import small_test_device
from repro.impl.routing import RoutingOptions
from repro.predict import CongestionPredictor
from repro.serve import (
    CongestionService,
    ModelRegistry,
    PredictRequest,
    ResiliencePolicy,
    dataset_spec_fingerprint,
)

SCALE = 0.18
COMBOS = ("face_detection",)


def _options() -> FlowOptions:
    return FlowOptions(scale=SCALE, placement_effort="fast", seed=0)


@pytest.fixture(scope="module")
def trained():
    """One small linear predictor + the dataset it was trained on."""
    dataset = build_paper_dataset(options=_options(), combos=COMBOS)
    predictor = CongestionPredictor("linear").fit(dataset)
    fingerprint = dataset_spec_fingerprint(COMBOS, _options())
    return predictor, dataset, fingerprint


# ----------------------------------------------------------------------
# registry persistence
# ----------------------------------------------------------------------
def test_round_trip_predicts_bit_identically(tmp_path, trained):
    predictor, dataset, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    manifest = registry.save(predictor, dataset_fingerprint=fingerprint)
    assert manifest.n_training_samples > 0

    loaded = registry.load("linear", fingerprint)
    v0, h0 = predictor.predict_matrix(dataset.X)
    v1, h1 = loaded.predict_matrix(dataset.X)
    assert np.array_equal(v0, v1)
    assert np.array_equal(h0, h1)


def test_registry_rejects_device_fingerprint_mismatch(tmp_path, trained):
    """A manifest whose recorded device fingerprint no longer matches
    the slot's device (calibration drift under a persisted model) is
    refused, never silently served."""
    predictor, _, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    path = registry.manifest_path("linear", fingerprint)
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["device_fingerprint"][-1] = 999  # h_tracks recalibrated
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(StaleModelError, match="device_fingerprint"):
        registry.load("linear", fingerprint)
    assert registry.stats()["stale"] == 1


def test_registry_other_calibration_is_a_miss_not_stale(tmp_path, trained):
    predictor, _, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    with pytest.raises(ModelRegistryError, match="no persisted"):
        registry.load("linear", fingerprint, device=small_test_device())
    assert registry.stats()["stale"] == 0


def test_registry_rejects_feature_registry_mismatch(tmp_path, trained):
    predictor, _, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    path = registry.manifest_path("linear", fingerprint)
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["feature_registry_hash"] = "0" * 64
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(StaleModelError, match="feature_registry_hash"):
        registry.load("linear", fingerprint)


def test_registry_slots_coexist_per_device(tmp_path, trained):
    """Two device calibrations sharing one root keep separate slots —
    neither save evicts the other."""
    predictor, dataset, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)

    other = CongestionPredictor("linear", small_test_device()).fit(dataset)
    registry.save(other, dataset_fingerprint=fingerprint)

    assert registry.stats()["entries"] == 2
    a = registry.load("linear", fingerprint)  # default xc7z020
    b = registry.load("linear", fingerprint, device=small_test_device())
    assert a.device.name != b.device.name


def test_registry_malformed_manifest_is_typed_and_quarantined(
    tmp_path, trained
):
    """A truncated/garbled manifest surfaces as a typed
    CorruptArtifactError naming the offending path — never a raw
    JSONDecodeError — and the (manifest, model) pair is quarantined."""
    predictor, _, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    manifest_path = registry.manifest_path("linear", fingerprint)
    model_path = registry.model_path("linear", fingerprint)
    with open(manifest_path) as fh:
        text = fh.read()
    with open(manifest_path, "w") as fh:
        fh.write(text[: len(text) // 2])  # torn JSON

    with pytest.raises(CorruptArtifactError, match="malformed manifest") \
            as exc_info:
        registry.load("linear", fingerprint)
    assert manifest_path in str(exc_info.value)
    assert not isinstance(exc_info.value, json.JSONDecodeError)
    assert os.path.exists(manifest_path + ".quarantined")
    assert os.path.exists(model_path + ".quarantined")
    assert registry.stats()["quarantined"] == 2
    # the slot degraded to a plain miss, not a poisoned load
    with pytest.raises(ModelRegistryError, match="no persisted"):
        ModelRegistry(str(tmp_path)).load("linear", fingerprint)


def test_service_degrades_after_corrupt_artifact(tmp_path, trained):
    """Graceful degradation end to end: a corrupt persisted model is
    quarantined, the service retrains in place, and every response is
    flagged degraded with the reason."""
    predictor, _, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    path = registry.model_path("linear", fingerprint)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[-1] ^= 0xFF  # flip one payload byte: checksum must catch it
    with open(path, "wb") as fh:
        fh.write(blob)

    service = CongestionService(
        "linear", options=_options(), combos=COMBOS,
        registry=ModelRegistry(str(tmp_path)),
        resilience=ResiliencePolicy(),
    )
    assert service.warm() == "trained"  # retrained in place
    response = service.predict(PredictRequest("face_detection"))
    assert response.degraded
    assert "quarantined" in response.degraded_reason
    stats = service.stats()
    assert stats["quarantined_loads"] == 1
    assert stats["trained"] == 1
    # the retrained model was re-persisted over the quarantined slot:
    # a fresh service loads it cleanly and is NOT degraded
    fresh = CongestionService(
        "linear", options=_options(), combos=COMBOS,
        registry=ModelRegistry(str(tmp_path)),
        resilience=ResiliencePolicy(),
    )
    assert fresh.warm() == "registry"
    assert not fresh.predict(PredictRequest("face_detection")).degraded


def test_registry_missing_model(tmp_path):
    registry = ModelRegistry(str(tmp_path))
    with pytest.raises(ModelRegistryError, match="no persisted"):
        registry.load("gbrt", "deadbeef")
    assert registry.stats()["misses"] == 1


def test_registry_refuses_unfitted_save(tmp_path):
    registry = ModelRegistry(str(tmp_path))
    with pytest.raises(ModelRegistryError, match="unfitted"):
        registry.save(CongestionPredictor("linear"),
                      dataset_fingerprint="deadbeef")


def test_registry_requires_root(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    with pytest.raises(ModelRegistryError, match="no registry root"):
        ModelRegistry()


def test_dataset_fingerprint_tracks_stage_options():
    base = dataset_spec_fingerprint(COMBOS, _options())
    assert base == dataset_spec_fingerprint(COMBOS, _options())
    smeared = _options()
    smeared.routing = RoutingOptions(smear=2)
    assert dataset_spec_fingerprint(COMBOS, smeared) != base
    assert dataset_spec_fingerprint(("bnn_render_flow",), _options()) != base


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def test_service_batch_equals_per_request():
    service = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=None
    )
    requests = [
        PredictRequest("face_detection"),
        PredictRequest("spam_filter", top=3),
        PredictRequest("face_detection", "no_directives"),
    ]
    singles = [service.predict(r) for r in requests]
    batch = service.predict_batch(requests)
    for single, batched in zip(singles, batch):
        assert batched.batch_size == len(requests)
        assert single.n_operations == batched.n_operations
        # Semantically identical, but not bit-identical: both paths run
        # one stacked model invocation, and BLAS picks different matmul
        # kernels for a 1-request vs an n-request row count, which
        # perturbs X @ coef_ in the last ulp.
        assert single.predicted_max_vertical == pytest.approx(
            batched.predicted_max_vertical, abs=1e-9
        )
        assert [(r.source_file, r.source_line) for r in single.regions] \
            == [(r.source_file, r.source_line) for r in batched.regions]
        for s_region, b_region in zip(single.regions, batched.regions):
            assert s_region.vertical == pytest.approx(
                b_region.vertical, abs=1e-9
            )
            assert s_region.horizontal == pytest.approx(
                b_region.horizontal, abs=1e-9
            )
    stats = service.stats()
    assert stats["trained"] == 1
    assert stats["predictions"] == 2 * len(requests)


def test_service_second_instance_loads_from_registry(tmp_path):
    registry = ModelRegistry(str(tmp_path))
    first = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=registry
    )
    assert first.warm() == "trained"
    r1 = first.predict(PredictRequest("face_detection"))

    second = CongestionService(
        "linear", options=_options(), combos=COMBOS,
        registry=ModelRegistry(str(tmp_path)),
    )
    assert second.warm() == "registry"
    assert second.warm() == "memory"
    r2 = second.predict(PredictRequest("face_detection"))
    assert second.stats()["trained"] == 0
    assert r1.predicted_max_vertical == r2.predicted_max_vertical
    assert [(r.source_line, r.vertical) for r in r1.regions] == [
        (r.source_line, r.vertical) for r in r2.regions
    ]


def test_service_answers_from_registry_in_second_process(tmp_path):
    """The acceptance path: a *separate process* loads the persisted
    model (never retrains) and predicts identically."""
    registry = ModelRegistry(str(tmp_path / "models"))
    service = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=registry
    )
    service.warm()
    local = service.predict(PredictRequest("face_detection"))

    script = (
        "import json, sys\n"
        "from repro.flow import FlowOptions\n"
        "from repro.serve import (CongestionService, ModelRegistry,\n"
        "                         PredictRequest)\n"
        f"registry = ModelRegistry({str(tmp_path / 'models')!r})\n"
        "service = CongestionService(\n"
        f"    'linear', options=FlowOptions(scale={SCALE},\n"
        "    placement_effort='fast', seed=0),\n"
        f"    combos={COMBOS!r}, registry=registry)\n"
        "source = service.warm()\n"
        "response = service.predict(PredictRequest('face_detection'))\n"
        "print(json.dumps({\n"
        "    'source': source,\n"
        "    'trained': service.stats()['trained'],\n"
        "    'v': response.predicted_max_vertical,\n"
        "    'h': response.predicted_max_horizontal,\n"
        "    'regions': [[r.source_line, r.vertical, r.horizontal]\n"
        "                for r in response.regions],\n"
        "}))\n"
    )
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_root) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    remote = json.loads(out.stdout.strip().splitlines()[-1])
    assert remote["source"] == "registry"
    assert remote["trained"] == 0
    assert remote["v"] == local.predicted_max_vertical
    assert remote["h"] == local.predicted_max_horizontal
    assert remote["regions"] == [
        [r.source_line, r.vertical, r.horizontal] for r in local.regions
    ]


def test_service_rejects_unknown_design():
    service = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=None
    )
    with pytest.raises(ServeError, match="unknown design"):
        service.predict_batch([PredictRequest("not_a_design")])


def test_service_empty_batch():
    service = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=None
    )
    assert service.predict_batch([]) == []


def test_design_build_is_fresh_per_call():
    """Every request gets its own, never-synthesized design instance.

    The pipeline's HLS stage mutates the design module in place, so a
    design *object* shared between calls would make a second,
    stage-cache-cold use re-synthesize an already-transformed module —
    double-applying the directive transforms.
    """
    import repro.util.cache as cache_mod
    from repro.util.cache import KeyedCache

    service = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=None
    )
    request = PredictRequest("face_detection")
    d1, token1 = service._build_design(request)
    d2, token2 = service._build_design(request)
    assert token1 == token2
    assert d1 is not d2  # a fresh instance per use, never a shared one
    assert d1.module is not d2.module

    # Two stage-cache-cold predicts: each must synthesize an untouched
    # design.  A shared instance would be mutated by the first cold run
    # (directive transforms are destructive), and the second would raise
    # DirectiveError re-inlining a consumed function.
    service.warm()
    old_store = cache_mod._GLOBAL_STORES["flow_stages"]
    try:
        results = []
        for _ in range(2):
            cache_mod._GLOBAL_STORES["flow_stages"] = KeyedCache()
            service._prediction_cache.clear()
            service._feature_cache.clear()
            results.append(service.predict(request))
    finally:
        cache_mod._GLOBAL_STORES["flow_stages"] = old_store
    first, second = results
    assert second.n_operations == first.n_operations
    assert second.predicted_max_vertical == first.predicted_max_vertical
