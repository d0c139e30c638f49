"""The single-queue inference server: registry + prediction cache + micro-batcher.

:class:`BatchedServer` is the workhorse of the serving subsystem.  A
request flows through three stages:

1. **Cache probe** -- the content hash of the (model, image) pair is looked
   up in the LRU :class:`~repro.serve.cache.PredictionCache`; a hit is
   answered immediately without touching the scheduler.
2. **Micro-batching** -- misses are enqueued on the
   :class:`~repro.serve.batching.MicroBatcher`, which coalesces them into
   batches of up to ``max_batch_size`` images.
3. **Batched forward** -- each batch runs through the compiled
   :class:`~repro.nn.inference.InferenceEngine` of the requested variant
   (one gradient-free float32 forward per batch); randomized-smoothing
   variants fall back to the classifier's Monte-Carlo vote, which cannot
   be expressed as a single forward.

Results are written back to the cache, so repeated traffic gets cheaper
over time.

Standalone, a :class:`BatchedServer` is a *single-queue* server: one
scheduler and one cache shared by every model it is asked for.  Under
:class:`~repro.serve.shard.ShardedServer` the same class is embedded once
per shard replica -- pinned to a single variant via ``allowed_models``,
stamped with a ``shard_id``, owning a private scheduler and cache.

The front half of every serving queue -- model validation, counting, the
cache probe and cache-hit answer, and turning a finished batch's
probability rows into responses and cache entries -- lives once, in
:class:`_ServingQueue`.  :class:`BatchedServer` adds only its
:class:`~repro.serve.batching.MicroBatcher` and the in-process forward;
:class:`~repro.serve.procshard.ProcessReplica` adds only its pipe,
busy-driven buffer and worker lifecycle.

Thread-safety: ``submit`` may be called from any number of threads; the
cache, the counters and the scheduler queue are internally locked.
``restart`` and ``stop`` are owner operations and must not race each other.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import List, Optional, Sequence

import numpy as np

from ..data.signs import SIGN_CLASSES
from .autotune import BatchTuner
from .batching import MicroBatcher, QueuedRequest
from .cache import cache_metrics, image_fingerprint, make_prediction_cache
from .registry import ModelRegistry
from .types import PredictRequest, PredictResponse, ServerStats, UnknownModelError

__all__ = ["BatchedServer"]


class _PredictMixin:
    """``predict``/``predict_many`` and ``with`` support over ``submit``.

    Shared by every serving front (queues and the sharded router): the
    host class supplies ``submit``, ``flush``, ``start``, ``stop`` and a
    ``mode`` attribute; sync-mode fronts are flushed before waiting.
    """

    def predict(self, image: np.ndarray, model: str = "baseline") -> PredictResponse:
        """Synchronous convenience: submit one image and wait for the answer."""

        future = self.submit(PredictRequest(image=image, model=model))
        if self.mode == "sync":
            self.flush()
        return future.result()

    def predict_many(
        self, images: np.ndarray, model: str = "baseline"
    ) -> List[PredictResponse]:
        """Submit a stack of images and wait for all responses (in order)."""

        futures = [self.submit(PredictRequest(image=image, model=model)) for image in images]
        if self.mode == "sync":
            self.flush()
        return [future.result() for future in futures]

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class _ServingQueue(_PredictMixin):
    """Front half of one serving queue, shared by thread and process replicas.

    Owns the prediction cache, class names, model pinning, counters and the
    optional batch tuner, and implements the two steps every queue shares:

    * **admit** (:meth:`submit`) -- validate the model, count the request,
      probe the cache and answer a hit at once; a miss goes to the
      subclass's ``_enqueue``;
    * **answer** (:meth:`_answer`) -- for a finished batch, count it, build
      one response per probability row and cache each row.

    Subclasses supply ``mode``, ``alive``, ``start``/``stop``/``flush`` and
    ``_enqueue(request) -> Future``: how a cache miss reaches a forward.
    See :class:`BatchedServer` for the meaning of the parameters.
    """

    def __init__(
        self,
        *,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        cache_size: int = 1024,
        cache_policy: str = "lru",
        autotune: bool = False,
        tuner: Optional[BatchTuner] = None,
        class_names: Optional[Sequence[str]] = None,
        allowed_models: Optional[Sequence[str]] = None,
        shard_id: Optional[str] = None,
    ) -> None:
        self.cache = make_prediction_cache(cache_policy, cache_size)
        self.class_names = list(class_names) if class_names is not None else list(SIGN_CLASSES)
        self.allowed_models = frozenset(allowed_models) if allowed_models is not None else None
        self.shard_id = shard_id
        self.stats = ServerStats()
        # The constructor values are the tuner's *starting point*, so the
        # ladder/wait bounds widen to include them when they sit outside
        # the defaults -- autotune must never silently clamp an explicit
        # configuration.  An injected tuner is used as given.
        max_wait_s = max_wait_ms / 1000.0
        if tuner is None and autotune:
            tuner = BatchTuner(
                initial_batch_size=max_batch_size,
                initial_wait=max_wait_s,
                min_batch_size=min(2, max_batch_size),
                max_batch_size=max(64, max_batch_size),
                min_wait=min(0.0005, max_wait_s),
                max_wait=max(0.010, max_wait_s),
            )
        self.tuner = tuner

    def metrics(self) -> dict:
        """Live serving metrics of this queue (JSON-friendly).

        One envelope per queue: the lifetime :class:`ServerStats` counters
        (including per-model request counts and the batch-size histogram),
        the prediction cache's counters/hit rate, and -- when autotuning --
        the tuner's snapshot with its current and best-known rungs.  This
        is what the HTTP gateway's ``GET /metrics`` serves; sharded
        ``metrics()`` nests one envelope per replica.
        """

        return {
            "mode": self.mode,
            "alive": self.alive,
            "shard_id": self.shard_id,
            "stats": self.stats.as_dict(),
            "cache": cache_metrics(self.cache),
            "autotune": self.tuner.as_dict() if self.tuner is not None else None,
        }

    def submit(self, request: PredictRequest) -> "Future[PredictResponse]":
        """Submit one request; returns a ``Future[PredictResponse]``.

        Cache hits resolve the future immediately; misses resolve when the
        batch carrying the request completes.  Raises
        :class:`~repro.serve.types.UnknownModelError` for a model this
        queue does not serve, and ``RuntimeError`` when the queue is not
        running.  Safe to call from any thread.
        """

        self._validate(request.model)
        self.stats.record_request(request.model)
        started = time.perf_counter()
        if self.cache.enabled:
            probabilities = self.cache.get(image_fingerprint(request.model, request.image))
            if probabilities is not None:
                self.stats.record_hit()
                future: "Future[PredictResponse]" = Future()
                future.set_result(
                    self._build_response(
                        request,
                        probabilities,
                        latency_ms=(time.perf_counter() - started) * 1000.0,
                        cache_hit=True,
                        batch_size=1,
                    )
                )
                return future
        return self._enqueue(request)

    def _validate(self, model: str) -> None:
        """Reject (and count) a request for a variant this queue is not pinned to."""

        if self.allowed_models is not None and model not in self.allowed_models:
            self.stats.record_rejected()
            raise UnknownModelError(model, self.allowed_models)

    def _answer(
        self, items: Sequence[QueuedRequest], probabilities: np.ndarray, now: float
    ) -> List[PredictResponse]:
        """Count one finished batch; return its responses and cache its rows."""

        self.stats.record_batch(len(items))
        responses: List[PredictResponse] = []
        for item, probability_row in zip(items, probabilities):
            responses.append(
                self._build_response(
                    item.request,
                    probability_row,
                    latency_ms=(now - item.submitted_at) * 1000.0,
                    cache_hit=False,
                    batch_size=len(items),
                )
            )
            if self.cache.enabled:
                self.cache.put(
                    image_fingerprint(item.request.model, item.request.image),
                    probability_row,
                )
        return responses

    def _build_response(
        self,
        request: PredictRequest,
        probabilities: np.ndarray,
        latency_ms: float,
        cache_hit: bool,
        batch_size: int,
    ) -> PredictResponse:
        class_index = int(np.argmax(probabilities))
        class_name = (
            self.class_names[class_index]
            if 0 <= class_index < len(self.class_names)
            else str(class_index)
        )
        return PredictResponse(
            request_id=request.request_id,
            model=request.model,
            class_index=class_index,
            class_name=class_name,
            probabilities=np.asarray(probabilities),
            latency_ms=latency_ms,
            cache_hit=cache_hit,
            batch_size=batch_size,
            shard_id=self.shard_id,
        )


class BatchedServer(_ServingQueue):
    """Batched, cached inference over a registry of defended classifiers.

    Parameters
    ----------
    registry:
        Source of named model variants (trained or loaded on first use).
    max_batch_size:
        Upper bound on images per batched forward pass.
    max_wait_ms:
        Milliseconds the thread-mode scheduler waits for stragglers after
        the first request of a batch (ignored in sync mode).
    cache_size:
        Prediction-cache capacity; 0 disables caching.
    cache_policy:
        ``"lru"`` (recency-only admission, the default) or ``"tinylfu"``
        (frequency-gated admission that survives adversarial unique-image
        spam -- see :mod:`repro.serve.admission`).
    mode:
        ``"thread"`` for the background-worker scheduler, ``"sync"`` for
        the deterministic in-process scheduler.
    autotune:
        When True, a per-server :class:`~repro.serve.autotune.BatchTuner`
        adjusts ``max_batch_size``/``max_wait`` online from observed
        arrival rate and per-batch latency (the constructor values become
        the tuner's starting point).  The tuner -- exposed as
        ``self.tuner`` -- survives :meth:`restart`, so a revived scheduler
        resumes from the tuned settings instead of relearning.
    tuner:
        A pre-configured :class:`~repro.serve.autotune.BatchTuner` to use
        instead of the default one ``autotune=True`` would build -- for
        callers that need non-default controller constants (epoch sizing,
        dead band, hold length).  Supplying a tuner implies autotuning;
        its own initial values win over ``max_batch_size``/``max_wait_ms``.
    class_names:
        Human-readable class labels; defaults to the 18 LISA sign classes.
    allowed_models:
        When given, requests for any other variant are rejected with
        :class:`~repro.serve.types.UnknownModelError` at submit time.  A
        shard replica pins itself to one variant this way; ``None`` (the
        default) serves every variant the registry can resolve.
    shard_id:
        Identifier stamped on every response this server produces;
        ``None`` for standalone (non-sharded) servers.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        cache_size: int = 1024,
        cache_policy: str = "lru",
        mode: str = "thread",
        autotune: bool = False,
        tuner: Optional[BatchTuner] = None,
        class_names: Optional[Sequence[str]] = None,
        allowed_models: Optional[Sequence[str]] = None,
        shard_id: Optional[str] = None,
    ) -> None:
        super().__init__(
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            cache_size=cache_size,
            cache_policy=cache_policy,
            autotune=autotune,
            tuner=tuner,
            class_names=class_names,
            allowed_models=allowed_models,
            shard_id=shard_id,
        )
        self.registry = registry
        self._batcher_settings = {
            "max_batch_size": max_batch_size,
            "max_wait": max_wait_ms / 1000.0,
            "mode": mode,
            "tuner": self.tuner,
        }
        self.batcher = MicroBatcher(self._run_batch, **self._batcher_settings)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Scheduler mode, ``"thread"`` or ``"sync"``."""

        return self.batcher.mode

    @property
    def alive(self) -> bool:
        """Whether the server can accept work right now.

        Sync-mode servers are always alive.  A thread-mode server is alive
        between :meth:`start` and :meth:`stop` while its worker thread is
        running; a crashed (or never-started) worker reports ``False``.
        """

        return self.batcher.alive

    def start(self) -> "BatchedServer":
        """Start the scheduler (no-op in sync mode).  Returns ``self``."""

        self.batcher.start()
        return self

    def stop(self) -> None:
        """Gracefully drain pending requests, then stop the scheduler.

        Every request submitted before ``stop`` resolves its future (the
        shutdown sentinel makes the worker run the backlog before
        exiting); requests submitted after raise ``RuntimeError``.
        """

        self.batcher.stop()

    def restart(self) -> "BatchedServer":
        """Replace a dead scheduler with a fresh one and start it.

        Used by :class:`~repro.serve.shard.ShardedServer` to revive a
        crashed shard replica.  The registry, cache and counters survive;
        only the queue/worker is rebuilt (``stats.restarts`` is
        incremented), and any requests still waiting in the dead scheduler
        are re-adopted by the new one so their futures eventually resolve.
        Must not be called concurrently with :meth:`submit` racing on the
        *same* dead batcher from another owner.
        """

        try:
            self.batcher.stop()
        except Exception:  # a half-dead worker must not block revival
            pass
        stranded = self.batcher.take_pending()
        self.batcher = MicroBatcher(self._run_batch, **self._batcher_settings)
        self.stats.record_restart()
        self.start()
        if stranded:
            self.batcher.adopt(stranded)
        return self

    def flush(self) -> None:
        """Run every pending request now (sync mode; no-op in thread mode)."""

        self.batcher.flush()

    def warm(self, model: str = "baseline") -> None:
        """Materialize a variant (and its compiled engine) ahead of traffic.

        Smoothing variants are served through their Monte-Carlo vote, not
        the engine, so only the classifier itself is materialized for them.
        """

        classifier = self.registry.get(model)
        if classifier.smoother is None:
            self.registry.engine(model)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _validate(self, model: str) -> None:
        if self.allowed_models is None and not self.registry.can_serve(model):
            # Unrestricted servers used to accept any name and fail the
            # whole micro-batch at forward time; validating here fails only
            # the offending request, keeps the wire fronts' 404 mapping
            # honest, and stops client-controlled garbage names from
            # growing the per-model stats without bound.
            self.stats.record_rejected()
            raise UnknownModelError(
                model, set(self.registry.loaded()) | self.registry.catalog_names()
            )
        super()._validate(model)

    def _enqueue(self, request: PredictRequest) -> "Future[PredictResponse]":
        return self.batcher.submit(request)

    # ------------------------------------------------------------------
    # Batch execution (called by the scheduler)
    # ------------------------------------------------------------------
    def _run_batch(
        self, model_name: str, items: Sequence[QueuedRequest]
    ) -> List[PredictResponse]:
        classifier = self.registry.get(model_name)
        images = np.stack([item.request.image for item in items])
        if classifier.smoother is not None:
            # The Monte-Carlo vote is not a single forward pass; serve it
            # through the classifier's own (chunked) probability path.
            probabilities = classifier.predict_proba(images)
        else:
            engine = self.registry.engine(model_name)
            probabilities = engine.predict_proba(images, batch_size=len(images))
        return self._answer(items, probabilities, time.perf_counter())
