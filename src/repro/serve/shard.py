"""Sharded multi-model serving: route requests to per-variant worker shards.

The single-queue :class:`~repro.serve.server.BatchedServer` shares one
scheduler and one prediction cache across every variant it is asked for.
Under multi-model traffic that design pays twice:

* **batch fragmentation** -- a micro-batch drained from the shared queue
  mixes variants, so it splits into one small forward per variant and the
  per-forward overhead is never amortized over a full batch;
* **cache competition** -- all variants' entries fight over one LRU
  capacity, and a multi-variant working set that exceeds it degrades to a
  ~0% hit rate under cyclic traffic (the LRU worst case).

:class:`ShardedServer` removes both by composition: each served variant
gets one or more *shard replicas* -- each replica a private
:class:`~repro.serve.server.BatchedServer` pinned to that variant
(``allowed_models``), owning its own micro-batch scheduler and its own
prediction cache, all sharing one :class:`~repro.serve.registry.ModelRegistry`
entry for the weights.  A pluggable :class:`RoutingPolicy` (round-robin or
least-loaded) picks the replica for each request.  With ``mode="process"``
each replica is instead a :class:`~repro.serve.procshard.ProcessReplica`:
a worker *process* compiled from the registry's ``.npz`` snapshot, giving
replicas truly parallel forwards instead of GIL-interleaved ones (see
``docs/performance.md``).

Failure handling: a replica whose scheduler worker has died is restarted
transparently on the next request routed to it (``stats.restarts`` counts
revivals).  Shutdown is a graceful drain -- every request accepted before
``stop()`` resolves its future.

Thread-safety: ``submit`` may be called from any number of threads; routing
state (round-robin cursors, in-flight counters) is guarded by a lock per
shard.  ``start``/``stop``/``flush`` are owner operations.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Sequence, Union

from .procshard import ProcessReplica
from .registry import ModelRegistry
from .server import BatchedServer, _PredictMixin
from .types import PredictRequest, PredictResponse, ServerStats, UnknownModelError

__all__ = [
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "ShardReplica",
    "ShardedServer",
]


class RoutingPolicy:
    """Strategy for picking one replica out of a shard's replica set.

    Subclasses implement :meth:`select`; the sharded server calls it under
    the shard's lock, so implementations may read replica state (e.g.
    in-flight counts) without further synchronization but must not block.
    """

    def select(self, replicas: Sequence["ShardReplica"]) -> "ShardReplica":
        """Return the replica that should serve the next request.

        ``replicas`` is non-empty and ordered by replica index.  Called
        under the shard lock; must be fast and non-blocking.
        """

        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return type(self).__name__


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through replicas in order, one request each.

    Keeps one cursor per shard (keyed by the shard's model name), so the
    rotation of one variant's replicas is independent of the others.
    """

    def __init__(self) -> None:
        self._cursors: Dict[str, int] = {}

    def select(self, replicas: Sequence["ShardReplica"]) -> "ShardReplica":
        """Return the next replica in rotation for this shard."""

        model = replicas[0].model
        cursor = self._cursors.get(model, 0)
        self._cursors[model] = (cursor + 1) % len(replicas)
        return replicas[cursor % len(replicas)]


class LeastLoadedPolicy(RoutingPolicy):
    """Send each request to the replica with the fewest in-flight requests.

    Ties break toward the lowest replica index, so a fully idle shard
    behaves deterministically.
    """

    def select(self, replicas: Sequence["ShardReplica"]) -> "ShardReplica":
        """Return the replica with the smallest ``inflight`` count."""

        return min(replicas, key=lambda replica: (replica.inflight, replica.index))


_POLICIES: Dict[str, Callable[[], RoutingPolicy]] = {
    "round_robin": RoundRobinPolicy,
    "least_loaded": LeastLoadedPolicy,
}


class ShardReplica:
    """One worker shard: a pinned single-variant server plus routing state.

    Wraps a :class:`~repro.serve.server.BatchedServer` restricted to one
    model variant and tracks the number of in-flight requests (submitted
    but not yet resolved) that routing policies use for load balancing.

    Attributes
    ----------
    model:
        The variant this replica serves.
    index:
        Replica number within the shard (0-based).
    shard_id:
        Stable identifier, ``"<model>/<index>"``; stamped on responses.
    server:
        The embedded single-queue server (own scheduler, own cache).

    Thread-safety: ``submit`` is safe from any thread; the in-flight
    counter is lock-guarded and decremented from future callbacks.
    """

    def __init__(self, model: str, index: int, server: BatchedServer) -> None:
        self.model = model
        self.index = index
        self.shard_id = f"{model}/{index}"
        self.server = server
        self._inflight = 0
        self._lock = threading.Lock()

    @property
    def inflight(self) -> int:
        """Number of requests submitted to this replica and not yet resolved."""

        with self._lock:
            return self._inflight

    @property
    def alive(self) -> bool:
        """Whether the replica's scheduler can accept work right now."""

        return self.server.alive

    @property
    def restarts(self) -> int:
        """How many times this replica has been revived after a crash."""

        return self.server.stats.restarts

    def submit(self, request: PredictRequest) -> "Future[PredictResponse]":
        """Submit one request to the embedded server, tracking in-flight load.

        The counter is incremented before the submit and decremented by a
        done-callback on the returned future (cache hits resolve the
        future -- and the counter -- immediately).
        """

        with self._lock:
            self._inflight += 1
        try:
            future = self.server.submit(request)
        except Exception:
            with self._lock:
                self._inflight -= 1
            raise
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, _future: "Future[PredictResponse]") -> None:
        with self._lock:
            self._inflight -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardReplica({self.shard_id!r}, inflight={self.inflight}, "
            f"alive={self.alive})"
        )


class ShardedServer(_PredictMixin):
    """Route multi-model traffic to per-variant shards of batched servers.

    Parameters
    ----------
    registry:
        Shared source of model weights.  Each shard owns its registry
        *entry* (the variant it serves); the registry object itself is
        shared so weights are materialized once per process.
    models:
        The variant names to serve.  Requests for any other name are
        rejected with :class:`~repro.serve.types.UnknownModelError`.
    replicas:
        Worker shards per variant (each with its own scheduler and cache).
    routing:
        ``"round_robin"``, ``"least_loaded"``, or a
        :class:`RoutingPolicy` instance for custom strategies.
    cache_policy:
        Admission policy of every replica's prediction cache: ``"lru"``
        or ``"tinylfu"`` (see :mod:`repro.serve.admission`).
    autotune:
        When True every replica owns a private
        :class:`~repro.serve.autotune.BatchTuner` that adjusts its
        ``max_batch_size``/``max_wait`` online -- per-replica, because
        each shard sees different traffic.  Tuner state survives replica
        crash-restarts (thread and process modes alike).
    max_batch_size, max_wait_ms, cache_size, mode, class_names:
        Forwarded to every embedded replica server; note ``cache_size`` is
        *per replica* -- sharding multiplies total cache capacity, which is
        what isolates each variant's working set.  ``mode`` picks the
        replica implementation: ``"thread"`` / ``"sync"`` embed a
        :class:`~repro.serve.server.BatchedServer`, while ``"process"``
        embeds a :class:`~repro.serve.procshard.ProcessReplica` -- a worker
        *process* that compiles its own engine from the registry's ``.npz``
        snapshot, so replica forwards run truly in parallel instead of
        sharing the parent's GIL (``max_wait_ms`` is ignored there: process
        batches are busy-driven).  Process-mode workers need weights at
        spawn time, so ``start()`` materializes every served variant
        eagerly.

    Thread-safety: ``submit``/``predict`` are safe from any thread;
    lifecycle methods (``start``/``stop``/``flush``) belong to the owner.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        models: Sequence[str],
        *,
        replicas: int = 1,
        routing: Union[str, RoutingPolicy] = "round_robin",
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        cache_size: int = 1024,
        cache_policy: str = "lru",
        mode: str = "thread",
        autotune: bool = False,
        class_names: Optional[Sequence[str]] = None,
    ) -> None:
        if not models:
            raise ValueError("a ShardedServer needs at least one model")
        if len(set(models)) != len(models):
            raise ValueError(f"duplicate model names in {list(models)!r}")
        if replicas < 1:
            raise ValueError("replicas must be positive")
        if mode not in {"thread", "sync", "process"}:
            raise ValueError(
                f"unknown mode {mode!r}; expected 'thread', 'sync' or 'process'"
            )
        if isinstance(routing, str):
            if routing not in _POLICIES:
                raise ValueError(
                    f"unknown routing policy {routing!r}; expected one of {sorted(_POLICIES)}"
                )
            routing = _POLICIES[routing]()
        self.registry = registry
        self.policy = routing
        self.replicas_per_model = replicas
        self._mode = mode
        self._replica_settings = {
            "max_batch_size": max_batch_size,
            "max_wait_ms": max_wait_ms,
            "cache_size": cache_size,
            "cache_policy": cache_policy,
            "autotune": autotune,
            "class_names": class_names,
        }
        self._routing_stats = ServerStats()  # rejections of unserved models
        self._shards: Dict[str, List[ShardReplica]] = {}
        self._shard_locks: Dict[str, threading.Lock] = {}
        for model in models:
            self._shards[model] = [
                ShardReplica(model, index, self._build_replica_server(model, index))
                for index in range(replicas)
            ]
            self._shard_locks[model] = threading.Lock()

    def _build_replica_server(self, model: str, index: int):
        """One pinned replica server for ``model``: batched (thread/sync) or process."""

        settings = dict(
            self._replica_settings, allowed_models=(model,), shard_id=f"{model}/{index}"
        )
        if self._mode == "process":
            del settings["max_wait_ms"]  # process batches are busy-driven
            return ProcessReplica(lambda name=model: self.registry.snapshot(name), **settings)
        return BatchedServer(self.registry, mode=self._mode, **settings)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Replica mode: ``"thread"``, ``"sync"`` or ``"process"``."""

        return self._mode

    @property
    def models(self) -> List[str]:
        """The variant names this server routes (sorted)."""

        return sorted(self._shards)

    def shard(self, model: str) -> List[ShardReplica]:
        """The replica list serving ``model`` (raises ``UnknownModelError``)."""

        try:
            return self._shards[model]
        except KeyError:
            raise UnknownModelError(model, self._shards) from None

    @property
    def all_replicas(self) -> List[ShardReplica]:
        """Every replica across every shard, in (model, index) order."""

        return [replica for model in self.models for replica in self._shards[model]]

    @property
    def stats(self) -> ServerStats:
        """Fleet-wide counters aggregated over every replica.

        Unknown-model rejections never reach a replica (routing raises
        first), so they are counted at the fleet level and folded in here.
        """

        return ServerStats.aggregate(
            [replica.server.stats for replica in self.all_replicas]
            + [self._routing_stats]
        )

    def metrics(self) -> Dict[str, object]:
        """Fleet-wide serving metrics plus one envelope per shard replica.

        The top level carries the aggregated :class:`ServerStats` (per-model
        request counts included) and the routed model list; ``"shards"``
        maps each ``shard_id`` to that replica's own ``metrics()`` envelope
        (stats, cache counters, tuner snapshot).  This is what the HTTP
        gateway's ``GET /metrics`` serves for sharded deployments.
        """

        return {
            "mode": self.mode,
            "models": self.models,
            "stats": self.stats.as_dict(),
            "shards": {
                replica.shard_id: replica.server.metrics()
                for replica in self.all_replicas
            },
        }

    def per_shard_stats(self) -> Dict[str, ServerStats]:
        """Per-replica counters keyed by ``shard_id`` (for dashboards/tests)."""

        return {
            replica.shard_id: replica.server.stats for replica in self.all_replicas
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedServer":
        """Start every replica's scheduler (no-op in sync mode)."""

        for replica in self.all_replicas:
            replica.server.start()
        return self

    def stop(self) -> None:
        """Gracefully drain and stop every replica.

        Each replica's scheduler runs its backlog before exiting, so every
        request accepted before ``stop`` resolves its future.
        """

        for replica in self.all_replicas:
            replica.server.stop()

    def flush(self) -> None:
        """Run all pending requests now on every replica (sync mode)."""

        for replica in self.all_replicas:
            replica.server.flush()

    def warm(self, model: Optional[str] = None) -> None:
        """Materialize variants (and engines) ahead of traffic.

        Warms ``model``, or every served variant when ``model`` is None.
        """

        models = self.models if model is None else [model]
        for name in models:
            self.shard(name)[0].server.warm(name)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: PredictRequest) -> "Future[PredictResponse]":
        """Route one request to a replica of its model's shard.

        The routing policy picks a replica under the shard lock; a replica
        found dead (crashed scheduler worker) is restarted before the
        request is enqueued.  Raises
        :class:`~repro.serve.types.UnknownModelError` for unserved models.
        Safe to call from any thread.
        """

        try:
            replicas = self.shard(request.model)
        except UnknownModelError:
            self._routing_stats.record_rejected()
            raise
        with self._shard_locks[request.model]:
            replica = self.policy.select(replicas)
            if not replica.alive:
                replica.server.restart()
            try:
                return replica.submit(request)
            except RuntimeError:
                # The scheduler died between the health check and the
                # enqueue (or was stopped behind our back): revive once and
                # retry.  A second failure propagates to the caller.
                replica.server.restart()
                return replica.submit(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedServer(models={self.models}, replicas={self.replicas_per_model}, "
            f"policy={self.policy!r}, mode={self.mode!r})"
        )
