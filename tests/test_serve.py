"""Tests for the repro.serve subsystem: cache, batching, registry, server, CLI."""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import DefenseConfig, DefendedClassifier
from repro.data import make_dataset
from repro.models.factory import resolve_variant, variant_catalog
from repro.serve import (
    BatchedServer,
    MicroBatcher,
    ModelRegistry,
    PredictionCache,
    PredictRequest,
    ServerStats,
    generate_requests,
    image_fingerprint,
    run_load,
    run_naive_loop,
    synthetic_image_pool,
)
from repro.serve.__main__ import main as serve_main
from repro.serve.types import PredictResponse

IMAGE_SIZE = 16


@pytest.fixture(scope="module")
def tiny_registry_kwargs():
    """Registry settings that train a usable model in a couple of seconds."""

    from repro.models.training import TrainingConfig

    return {
        "image_size": IMAGE_SIZE,
        "seed": 0,
        "training_config": TrainingConfig(epochs=1, batch_size=16, seed=0),
        "dataset_factory": lambda: make_dataset(48, image_size=IMAGE_SIZE, seed=1),
    }


@pytest.fixture(scope="module")
def served_classifier():
    """An untrained baseline (random weights are fine for serving mechanics)."""

    return DefendedClassifier.build(DefenseConfig.baseline(), seed=0, image_size=IMAGE_SIZE)


@pytest.fixture(scope="module")
def memory_registry(served_classifier):
    registry = ModelRegistry(None, image_size=IMAGE_SIZE)
    registry.add("baseline", served_classifier, persist=False)
    return registry


@pytest.fixture(scope="module")
def pool():
    return synthetic_image_pool(12, image_size=IMAGE_SIZE, seed=9)


# ----------------------------------------------------------------------
# Prediction cache
# ----------------------------------------------------------------------
class TestPredictionCache:
    def test_hit_miss_counters(self):
        cache = PredictionCache(4)
        assert cache.get("a") is None
        cache.put("a", np.array([1.0]))
        assert cache.get("a") is not None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = PredictionCache(2)
        cache.put("a", np.array([1.0]))
        cache.put("b", np.array([2.0]))
        cache.get("a")  # refresh "a" so "b" is the LRU entry
        cache.put("c", np.array([3.0]))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = PredictionCache(0)
        assert not cache.enabled
        cache.put("a", np.array([1.0]))
        assert len(cache) == 0 and cache.get("a") is None

    def test_fingerprint_sensitivity(self):
        image = np.zeros((3, 4, 4))
        other = image.copy()
        other[0, 0, 0] = 1e-12
        assert image_fingerprint("m", image) == image_fingerprint("m", image.copy())
        assert image_fingerprint("m", image) != image_fingerprint("m", other)
        assert image_fingerprint("m", image) != image_fingerprint("n", image)


# ----------------------------------------------------------------------
# Micro-batcher
# ----------------------------------------------------------------------
def _echo_runner(model_name, items):
    responses = []
    for item in items:
        responses.append(
            PredictResponse(
                request_id=item.request.request_id,
                model=model_name,
                class_index=0,
                class_name="stop",
                probabilities=np.array([1.0]),
                latency_ms=0.0,
                batch_size=len(items),
            )
        )
    return responses


class TestServerStats:
    def test_concurrent_record_request_loses_no_count(self):
        per_thread = 100_000
        stats = ServerStats()

        def submitter(model):
            for _ in range(per_thread):
                stats.record_request(model)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force thread switches mid-update
        try:
            threads = [
                threading.Thread(target=submitter, args=(model,))
                for model in ("baseline", "baseline", "feature_filter_3x3", "input_filter_5x5")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snapshot = stats.as_dict()
        assert stats.requests == sum(stats.per_model.values()) == 4 * per_thread
        assert snapshot["per_model_requests"]["baseline"] == 2 * per_thread


class TestMicroBatcher:
    def test_sync_mode_coalesces_to_max_batch(self, pool):
        seen_sizes = []

        def runner(model_name, items):
            seen_sizes.append(len(items))
            return _echo_runner(model_name, items)

        batcher = MicroBatcher(runner, max_batch_size=4, mode="sync")
        futures = [
            batcher.submit(PredictRequest(image=pool[i % len(pool)], request_id=str(i)))
            for i in range(10)
        ]
        batcher.flush()
        assert seen_sizes == [4, 4, 2]
        assert [future.result().request_id for future in futures] == [str(i) for i in range(10)]
        assert all(future.result().batch_size in (4, 2) for future in futures)

    def test_thread_mode_resolves_futures(self, pool):
        batcher = MicroBatcher(_echo_runner, max_batch_size=4, max_wait=0.01, mode="thread")
        with batcher:
            futures = [
                batcher.submit(PredictRequest(image=pool[0], request_id=str(i))) for i in range(9)
            ]
            results = [future.result(timeout=5.0) for future in futures]
        assert [response.request_id for response in results] == [str(i) for i in range(9)]
        # At least one batch must have been coalesced beyond a single request.
        assert max(response.batch_size for response in results) > 1

    def test_thread_mode_requires_start(self, pool):
        batcher = MicroBatcher(_echo_runner, mode="thread")
        with pytest.raises(RuntimeError):
            batcher.submit(PredictRequest(image=pool[0]))

    def test_stop_drains_pending_requests(self, pool):
        batcher = MicroBatcher(_echo_runner, max_batch_size=64, max_wait=5.0, mode="thread")
        batcher.start()
        futures = [batcher.submit(PredictRequest(image=pool[0])) for _ in range(3)]
        batcher.stop()  # must not leave futures unresolved
        assert all(future.done() for future in futures)

    def test_runner_errors_propagate(self, pool):
        def broken(model_name, items):
            raise RuntimeError("model exploded")

        batcher = MicroBatcher(broken, max_batch_size=2, mode="sync")
        future = batcher.submit(PredictRequest(image=pool[0]))
        batcher.flush()
        with pytest.raises(RuntimeError, match="model exploded"):
            future.result()

    def test_groups_by_model(self, pool):
        seen = []

        def runner(model_name, items):
            seen.append((model_name, len(items)))
            return _echo_runner(model_name, items)

        batcher = MicroBatcher(runner, max_batch_size=8, mode="sync")
        for index in range(4):
            batcher.submit(
                PredictRequest(image=pool[0], model="a" if index % 2 == 0 else "b")
            )
        batcher.flush()
        assert sorted(seen) == [("a", 2), ("b", 2)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            MicroBatcher(_echo_runner, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(_echo_runner, max_wait=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(_echo_runner, mode="carrier-pigeon")


# ----------------------------------------------------------------------
# Model registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_catalog_and_resolution(self):
        catalog = variant_catalog()
        assert "baseline" in catalog and "feature_filter_3x3" in catalog
        assert resolve_variant("baseline").kind == "baseline"
        with pytest.raises(KeyError, match="unknown model variant"):
            resolve_variant("no_such_model")

    def test_can_serve_covers_memory_catalog_disk_and_rejects_garbage(
        self, tmp_path, tiny_registry_kwargs, memory_registry
    ):
        # In-memory custom name and catalog name resolve; garbage does not.
        assert memory_registry.can_serve("baseline")
        assert memory_registry.can_serve("feature_filter_3x3")  # trainable
        assert not memory_registry.can_serve("no_such_model")
        # A persisted custom name is found by a fresh registry via the O(1)
        # disk probe -- without any directory scan (and path-separator
        # names never touch the filesystem).
        disk = ModelRegistry(tmp_path / "registry", **tiny_registry_kwargs)
        disk.get("baseline")
        fresh = ModelRegistry(tmp_path / "registry", **tiny_registry_kwargs)
        assert fresh.can_serve("baseline")
        assert not fresh.can_serve("../registry/baseline")
        assert not fresh.can_serve(".hidden")

    def test_train_persist_reload_identical_predictions(self, tmp_path, tiny_registry_kwargs):
        registry = ModelRegistry(tmp_path / "registry", **tiny_registry_kwargs)
        trained = registry.get("baseline")
        assert "baseline" in registry.persisted()
        probe = np.random.default_rng(0).random((6, 3, IMAGE_SIZE, IMAGE_SIZE))
        expected = trained.predict(probe)

        fresh = ModelRegistry(tmp_path / "registry", **tiny_registry_kwargs)
        reloaded = fresh.get("baseline")
        np.testing.assert_array_equal(
            reloaded.predict_logits(probe), trained.predict_logits(probe)
        )
        np.testing.assert_array_equal(reloaded.predict(probe), expected)
        # Meta records the defense configuration.
        meta = json.loads((tmp_path / "registry" / "baseline" / "meta.json").read_text())
        assert meta["config"]["kind"] == "baseline"
        assert meta["image_size"] == IMAGE_SIZE

    def test_add_and_engine_cache(self, memory_registry):
        engine = memory_registry.engine("baseline")
        assert memory_registry.engine("baseline") is engine
        classifier = memory_registry.get("baseline")
        probe = np.random.default_rng(3).random((4, 3, IMAGE_SIZE, IMAGE_SIZE))
        np.testing.assert_array_equal(
            engine.predict(probe), classifier.predict(probe)
        )

    def test_memory_registry_has_no_disk(self):
        registry = ModelRegistry(None)
        assert registry.persisted() == []
        assert "baseline" not in registry

    def test_engine_recompiles_after_state_dict_reload(self, memory_registry):
        # The stale-engine footgun: reloading weights into an already-served
        # model must invalidate the compiled engine automatically.
        from repro.nn.serialization import load_state_dict, state_dict

        classifier = memory_registry.get("baseline")
        probe = np.random.default_rng(8).random((5, 3, IMAGE_SIZE, IMAGE_SIZE))
        before = memory_registry.engine("baseline").predict_logits(probe)

        donor = DefendedClassifier.build(
            DefenseConfig.baseline(), seed=123, image_size=IMAGE_SIZE
        )
        load_state_dict(classifier.model, state_dict(donor.model))
        after = memory_registry.engine("baseline").predict_logits(probe)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(
            after, donor.predict_logits(probe), atol=1e-3, rtol=1e-4
        )

    def test_snapshot_is_picklable_and_self_contained(self, memory_registry):
        import pickle

        snapshot = memory_registry.snapshot("baseline")
        restored = pickle.loads(pickle.dumps(snapshot))
        from repro.serve import classifier_from_snapshot

        rebuilt = classifier_from_snapshot(restored)
        probe = np.random.default_rng(4).random((4, 3, IMAGE_SIZE, IMAGE_SIZE))
        np.testing.assert_array_equal(
            rebuilt.predict(probe), memory_registry.get("baseline").predict(probe)
        )


# ----------------------------------------------------------------------
# Inference server
# ----------------------------------------------------------------------
class TestInferenceServer:
    def test_sync_predictions_match_classifier(self, memory_registry, served_classifier, pool):
        server = BatchedServer(memory_registry, mode="sync", max_batch_size=8, cache_size=0)
        responses = server.predict_many(pool)
        expected = served_classifier.predict(pool)
        assert [response.class_index for response in responses] == list(expected)
        assert all(not response.cache_hit for response in responses)
        assert server.stats.batches >= 1
        assert server.stats.mean_batch_size > 1

    def test_cache_hit_on_duplicate(self, memory_registry, pool):
        server = BatchedServer(memory_registry, mode="sync", max_batch_size=8, cache_size=32)
        first = server.predict(pool[0])
        second = server.predict(pool[0])
        assert not first.cache_hit and second.cache_hit
        assert second.batch_size == 1
        np.testing.assert_allclose(second.probabilities, first.probabilities)
        assert server.stats.cache_hits == 1

    def test_thread_mode_end_to_end(self, memory_registry, served_classifier, pool):
        with BatchedServer(
            memory_registry, mode="thread", max_batch_size=4, max_wait_ms=2.0, cache_size=0
        ) as server:
            futures = [server.submit(PredictRequest(image=image)) for image in pool]
            responses = [future.result(timeout=10.0) for future in futures]
        expected = served_classifier.predict(pool)
        assert [response.class_index for response in responses] == list(expected)
        assert any(response.batch_size > 1 for response in responses)

    def test_smoothing_variant_served_via_vote(self, tiny_split, tiny_training_config):
        train_set, _ = tiny_split
        classifier = DefendedClassifier.build(
            DefenseConfig.randomized_smoothing(0.1, samples=4), seed=0, image_size=IMAGE_SIZE
        )
        classifier.fit(train_set, tiny_training_config)
        registry = ModelRegistry(None, image_size=IMAGE_SIZE)
        registry.add("rand_smooth_0.1", classifier, persist=False)
        server = BatchedServer(registry, mode="sync", cache_size=0)
        response = server.predict(train_set.images[0], model="rand_smooth_0.1")
        # Vote shares are multiples of 1/num_samples.
        np.testing.assert_allclose(
            response.probabilities * 4, np.round(response.probabilities * 4), atol=1e-9
        )

    def test_response_metadata(self, memory_registry, pool):
        server = BatchedServer(memory_registry, mode="sync", cache_size=0)
        response = server.predict(pool[0])
        payload = response.as_dict()
        assert payload["model"] == "baseline"
        assert isinstance(payload["class_name"], str)
        assert 0.0 <= payload["confidence"] <= 1.0
        assert payload["latency_ms"] >= 0.0


# ----------------------------------------------------------------------
# Traffic generation and load measurement
# ----------------------------------------------------------------------
class TestTraffic:
    def test_duplicate_fraction_zero_is_unique_cycle(self, pool):
        requests = generate_requests(pool, len(pool), duplicate_fraction=0.0)
        fingerprints = {image_fingerprint("m", request.image) for request in requests}
        assert len(fingerprints) == len(pool)

    def test_duplicates_repeat_earlier_images(self, pool):
        requests = generate_requests(pool, 64, duplicate_fraction=0.75, seed=5)
        fingerprints = [image_fingerprint("m", request.image) for request in requests]
        assert len(set(fingerprints)) < len(fingerprints)

    def test_deterministic_given_seed(self, pool):
        first = generate_requests(pool, 32, duplicate_fraction=0.5, seed=11)
        second = generate_requests(pool, 32, duplicate_fraction=0.5, seed=11)
        assert all(
            np.array_equal(a.image, b.image) for a, b in zip(first, second)
        )

    def test_run_load_and_naive_reports(self, memory_registry, served_classifier, pool):
        requests = generate_requests(pool, 16, duplicate_fraction=0.5, seed=2)
        server = BatchedServer(memory_registry, mode="sync", max_batch_size=8, cache_size=64)
        report = run_load(server, requests)
        assert report.requests == 16
        assert report.images_per_second > 0
        assert report.cache_hit_rate > 0  # duplicate-heavy stream must hit
        naive = run_naive_loop(served_classifier, requests[:4])
        assert naive.mean_batch_size == 1.0
        row = report.as_dict()
        assert set(row) >= {"scenario", "images_per_second", "p95_latency_ms"}

    def test_validation_errors(self, pool):
        with pytest.raises(ValueError):
            generate_requests(pool, 4, duplicate_fraction=1.5)
        with pytest.raises(ValueError):
            generate_requests(pool[:0], 4)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_list_models(self, capsys):
        assert serve_main(["--list-models"]) == 0
        output = capsys.readouterr().out
        assert "baseline" in output and "feature_filter_3x3" in output

    def test_synthetic_serving_run(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        exit_code = serve_main(
            [
                "--model",
                "baseline",
                "--registry-dir",
                str(tmp_path / "registry"),
                "--synthetic",
                "24",
                "--duplicate-fraction",
                "0.5",
                "--image-size",
                str(IMAGE_SIZE),
                "--train-size",
                "48",
                "--epochs",
                "1",
                "--mode",
                "sync",
                "--batch-size",
                "8",
                "--compare-naive",
                "--json",
                str(report_path),
            ]
        )
        assert exit_code == 0
        rows = json.loads(report_path.read_text())
        assert len(rows) == 2
        assert {row["scenario"] for row in rows} == {"naive_loop", "micro_batched[sync]"}
        assert all(row["images_per_second"] > 0 for row in rows)
        assert "speedup" in capsys.readouterr().out
        # Weights persisted: a second invocation must reuse them (fast path).
        started = time.perf_counter()
        assert (
            serve_main(
                [
                    "--model",
                    "baseline",
                    "--registry-dir",
                    str(tmp_path / "registry"),
                    "--synthetic",
                    "8",
                    "--image-size",
                    str(IMAGE_SIZE),
                    "--mode",
                    "sync",
                ]
            )
            == 0
        )
        assert (tmp_path / "registry" / "baseline" / "weights.npz").exists()
        assert time.perf_counter() - started < 30.0


# ----------------------------------------------------------------------
# Serving experiment scenario
# ----------------------------------------------------------------------
def test_serving_evaluation_rows(tiny_baseline, tiny_split):
    from repro.experiments.serving import run_serving_evaluation

    class _StubContext:
        def __init__(self):
            from repro.experiments.config import ExperimentProfile

            self.profile = ExperimentProfile(name="serve-test", image_size=IMAGE_SIZE)
            self._test = tiny_split[1]

        def get_baseline(self):
            return tiny_baseline

        @property
        def test_set(self):
            return self._test

    rows = run_serving_evaluation(_StubContext(), num_requests=24, max_batch_size=8)
    scenarios = [row.scenario for row in rows]
    assert scenarios == ["naive_loop", "micro_batched[sync]", "micro_batched[cached]"]
    assert rows[0].speedup_vs_naive == pytest.approx(1.0)
    assert rows[2].cache_hit_rate > 0
    assert all(row.images_per_second > 0 for row in rows)
