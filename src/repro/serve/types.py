"""Typed request/response layer of the serving subsystem.

A :class:`PredictRequest` wraps one image destined for one named model; the
server answers with a :class:`PredictResponse` carrying the decision, the
full probability vector and the serving metadata (latency, whether the
answer came from the prediction cache, the size of the micro-batch the
request rode in and, under sharded serving, which shard replica produced
it).  :class:`ServerStats` aggregates counters over one server's lifetime;
:meth:`ServerStats.aggregate` merges the per-shard counters of a
:class:`~repro.serve.shard.ShardedServer` into one fleet-wide view.

Thread-safety: request/response objects are plain value carriers and are
never mutated by the serving layer after construction; they may be shared
freely across threads.  ``ServerStats`` counters are exact: submitters,
scheduler workers and process-shard receivers all mutate them through the
``record_*`` methods, which hold the instance's lock, and :meth:`as_dict` /
:meth:`aggregate` read consistent snapshots under the same lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

__all__ = ["UnknownModelError", "PredictRequest", "PredictResponse", "ServerStats"]


class UnknownModelError(KeyError):
    """Raised when a request names a model the server does not serve.

    Subclasses :class:`KeyError` so existing ``except KeyError`` call sites
    (e.g. the CLI) keep working.  Raised synchronously by ``submit`` --
    routing failures never consume queue capacity.
    """

    def __init__(self, model: str, known: Iterable[str]) -> None:
        super().__init__(
            f"unknown model {model!r}; served models: {', '.join(sorted(known)) or '(none)'}"
        )
        self.model = model

    def __str__(self) -> str:
        return self.args[0]


@dataclass
class PredictRequest:
    """One inference request.

    Attributes
    ----------
    image:
        ``(3, H, W)`` float array in ``[0, 1]``.
    model:
        Registry name of the model variant to query.
    request_id:
        Caller-chosen identifier echoed back on the response.
    """

    image: np.ndarray
    model: str = "baseline"
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        self.image = np.asarray(self.image)
        if self.image.ndim != 3:
            raise ValueError(
                f"request image must be (C, H, W); got shape {self.image.shape}"
            )


@dataclass
class PredictResponse:
    """The server's answer to one :class:`PredictRequest`.

    Attributes
    ----------
    request_id, model:
        Echoed from the request.
    class_index, class_name:
        Arg-max decision and its human-readable sign-class label.
    probabilities:
        Full ``(num_classes,)`` probability vector.
    latency_ms:
        Wall-clock time from submission to completion.
    cache_hit:
        True when the answer was produced by the prediction cache without
        running the model.
    batch_size:
        Size of the micro-batch this request was folded into (1 for cache
        hits and the naive path).
    shard_id:
        Identifier of the shard replica that produced the answer (``None``
        when served by a plain single-queue server).
    """

    request_id: Optional[str]
    model: str
    class_index: int
    class_name: str
    probabilities: np.ndarray
    latency_ms: float
    cache_hit: bool = False
    batch_size: int = 1
    shard_id: Optional[str] = None

    @property
    def confidence(self) -> float:
        """Probability assigned to the predicted class."""

        return float(self.probabilities[self.class_index])

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (probabilities as a plain list)."""

        return {
            "request_id": self.request_id,
            "model": self.model,
            "class_index": int(self.class_index),
            "class_name": self.class_name,
            "confidence": self.confidence,
            "latency_ms": float(self.latency_ms),
            "cache_hit": bool(self.cache_hit),
            "batch_size": int(self.batch_size),
            "shard_id": self.shard_id,
        }


@dataclass
class ServerStats:
    """Lifetime counters of one serving queue.

    Each :class:`~repro.serve.server.BatchedServer` or
    :class:`~repro.serve.procshard.ProcessReplica` (standalone or embedded
    as a shard replica) owns one instance; sharded deployments merge the
    per-replica instances with :meth:`aggregate`.  Mutate only through the
    ``record_*`` methods: they share one lock, so concurrent updates from
    submitter, scheduler and receiver threads are never lost.
    """

    requests: int = 0
    cache_hits: int = 0
    batches: int = 0
    batched_images: int = 0
    rejected: int = 0
    restarts: int = 0
    batch_sizes: Dict[int, int] = field(default_factory=dict)
    per_model: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record_request(self, model: str) -> None:
        """Record one accepted request for ``model`` (feeds the per-model counts)."""

        with self._lock:
            self.requests += 1
            self.per_model[model] = self.per_model.get(model, 0) + 1

    def record_hit(self) -> None:
        """Record one request answered from the prediction cache."""

        with self._lock:
            self.cache_hits += 1

    def record_rejected(self) -> None:
        """Record one request refused at submit time (unserved model)."""

        with self._lock:
            self.rejected += 1

    def record_batch(self, size: int) -> None:
        """Record one executed micro-batch of ``size`` images."""

        with self._lock:
            self.batches += 1
            self.batched_images += size
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1

    def record_restart(self) -> None:
        """Record one revival of a crashed scheduler or worker process."""

        with self._lock:
            self.restarts += 1

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests answered from the cache."""

        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average number of images per executed micro-batch."""

        return self.batched_images / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly summary, read as one consistent snapshot."""

        with self._lock:
            return {
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "cache_hit_rate": self.cache_hit_rate,
                "batches": self.batches,
                "batched_images": self.batched_images,
                "mean_batch_size": self.mean_batch_size,
                "rejected": self.rejected,
                "restarts": self.restarts,
                "per_model_requests": dict(self.per_model),
                "batch_size_histogram": {
                    str(size): count for size, count in sorted(self.batch_sizes.items())
                },
            }

    @classmethod
    def aggregate(cls, parts: Iterable["ServerStats"]) -> "ServerStats":
        """Merge several per-queue counter sets into one combined view.

        Returns a new instance; the inputs are not modified.  Each part is
        read under its own lock, so every part contributes a consistent
        snapshot.  Used by :class:`~repro.serve.shard.ShardedServer` to
        expose fleet-wide stats over its replicas.
        """

        total = cls()
        for part in parts:
            with part._lock:
                total.requests += part.requests
                total.cache_hits += part.cache_hits
                total.batches += part.batches
                total.batched_images += part.batched_images
                total.rejected += part.rejected
                total.restarts += part.restarts
                for size, count in part.batch_sizes.items():
                    total.batch_sizes[size] = total.batch_sizes.get(size, 0) + count
                for model, count in part.per_model.items():
                    total.per_model[model] = total.per_model.get(model, 0) + count
        return total
