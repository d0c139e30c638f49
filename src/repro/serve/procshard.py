"""Process-backed shard replicas: forwards that never share the parent's GIL.

Thread-mode shard replicas (:class:`~repro.serve.server.BatchedServer`
inside :class:`~repro.serve.shard.ShardedServer`) only overlap inside BLAS
calls -- every per-request Python step (queue hops, future resolution,
response construction) of every replica serializes on one interpreter
lock.  A :class:`ProcessReplica` moves the model forward out of the parent
interpreter entirely:

* the worker is a separate OS **process**, spawned from a picklable
  :class:`~repro.serve.registry.ModelSnapshot` (the registry's ``.npz``
  weight payload); it rebuilds the classifier and compiles a private
  :class:`~repro.nn.inference.InferenceEngine` on startup, sharing no
  memory with the parent;
* requests are coalesced **parent-side** and shipped as one message per
  micro-batch over a duplex pipe (float32 image stack out, float32
  probability matrix back), so IPC cost is paid per batch, not per
  request;
* batching is **busy-driven**: the first request of an idle replica is
  dispatched immediately, and everything that arrives while the worker is
  computing forms the next batch (up to ``max_batch_size``) -- burst
  traffic coalesces into full batches with no straggler timer at all.

The replica shares the front half of a serving queue with
:class:`~repro.serve.server.BatchedServer` -- validation, counters, the
parent-side prediction cache, response building, ``metrics()`` and
``predict``/``predict_many`` all come from the same base class -- so
:class:`~repro.serve.shard.ShardedServer` embeds it unchanged under
``mode="process"``.  What is its own is the pipe, the busy-driven buffer,
the worker lifecycle, transparent crash restart (a dead worker process is
respawned and the stranded requests are re-dispatched) and graceful drain
on ``stop()``.

Thread-safety: ``submit`` may be called from any number of parent threads;
replica state is guarded by one lock and the pipe is written only under
it.  Lifecycle methods (``start``/``stop``/``restart``) belong to the
owner.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .batching import QueuedRequest
from .registry import ModelSnapshot, classifier_from_snapshot
from .server import _ServingQueue
from .types import PredictRequest, PredictResponse

__all__ = ["ProcessReplica", "worker_main"]

#: Seconds a freshly spawned worker gets to rebuild its classifier and
#: compile its engine before ``start()`` gives up.
_READY_TIMEOUT = 120.0

#: Seconds ``stop()`` waits for the worker process to exit after the
#: shutdown sentinel before escalating to ``terminate()``.
_JOIN_TIMEOUT = 10.0

#: Chunk size of the worker-side engine forward.
_ENGINE_BATCH_SIZE = 32

#: Workers start by ``fork`` where available (cheapest startup), else ``spawn``.
_CONTEXT = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


def worker_main(snapshot: ModelSnapshot, connection) -> None:
    """Entry point of one shard worker process.

    Rebuilds the classifier from the registry snapshot, compiles a private
    inference engine (randomized-smoothing variants predict through their
    vectorized Monte-Carlo vote instead), then answers ``("batch", id,
    images)`` messages with ``("result", id, probabilities)`` until the
    ``None`` shutdown sentinel (or a closed pipe) arrives.  Per-batch
    failures are reported as ``("error", id, message)`` without killing
    the worker.
    """

    try:
        classifier = classifier_from_snapshot(snapshot)
        engine = None
        if classifier.smoother is None:
            from ..nn.inference import cached_engine

            engine = cached_engine(classifier.model)
            warmup = np.zeros(
                (1, 3, snapshot.image_size, snapshot.image_size), dtype=np.float32
            )
            engine.predict(warmup)
        connection.send(("ready", os.getpid()))
    except Exception as error:  # startup failure: report, then exit
        try:
            connection.send(("fatal", repr(error)))
        except (OSError, BrokenPipeError):
            pass
        return

    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        _kind, batch_id, images = message
        try:
            if engine is not None:
                probabilities = engine.predict_proba(
                    images, batch_size=_ENGINE_BATCH_SIZE
                )
            else:
                probabilities = classifier.predict_proba(
                    np.asarray(images, dtype=np.float64)
                )
            connection.send(
                ("result", batch_id, probabilities.astype(np.float32, copy=False))
            )
        except Exception as error:
            try:
                connection.send(("error", batch_id, repr(error)))
            except (OSError, BrokenPipeError):
                return


class ProcessReplica(_ServingQueue):
    """One shard replica whose batched forwards run in a worker process.

    Drop-in peer of a shard-embedded
    :class:`~repro.serve.server.BatchedServer`: the same serving-queue
    front half (submit, cache, stats, metrics, predict), but the model
    lives in a child process compiled from a
    :class:`~repro.serve.registry.ModelSnapshot`, so its forward passes
    run on a separate interpreter (true parallelism across cores, no GIL
    sharing with the ingest path).

    Parameters
    ----------
    snapshot_factory:
        Zero-argument callable returning the
        :class:`~repro.serve.registry.ModelSnapshot` to spawn workers
        from; called at every (re)start so restarts pick up reloaded
        weights.  Typically ``lambda: registry.snapshot(name)``.
    max_batch_size:
        Upper bound on requests folded into one worker round trip.
    cache_size, cache_policy, class_names, allowed_models, shard_id:
        As for :class:`~repro.serve.server.BatchedServer`; the prediction
        cache lives parent-side.
    autotune:
        When True a parent-side :class:`~repro.serve.autotune.BatchTuner`
        adjusts ``max_batch_size`` online from the dispatch-to-completion
        latency of each worker round trip (process batching is
        busy-driven, so there is no wait knob to tune).  The tuner lives
        on the replica object (``self.tuner``), not the worker, so its
        learned state survives worker crash-restarts.
    """

    def __init__(
        self,
        snapshot_factory: Callable[[], ModelSnapshot],
        *,
        max_batch_size: int = 32,
        cache_size: int = 1024,
        cache_policy: str = "lru",
        autotune: bool = False,
        class_names: Optional[Sequence[str]] = None,
        allowed_models: Optional[Sequence[str]] = None,
        shard_id: Optional[str] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        super().__init__(
            max_batch_size=max_batch_size,
            cache_size=cache_size,
            cache_policy=cache_policy,
            autotune=autotune,
            class_names=class_names,
            allowed_models=allowed_models,
            shard_id=shard_id,
        )
        self.snapshot_factory = snapshot_factory
        self.max_batch_size = (
            self.tuner.batch_size if self.tuner is not None else max_batch_size
        )
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._buffer: List[QueuedRequest] = []
        self._inflight: Dict[int, List[QueuedRequest]] = {}
        self._dispatch_times: Dict[int, float] = {}
        self._next_batch_id = 0
        self._busy = False
        self._running = False
        self._worker_dead = False
        self._process: Optional[mp.process.BaseProcess] = None
        self._connection = None
        self._receiver: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Scheduler mode of this replica: always ``"process"``."""

        return "process"

    @property
    def alive(self) -> bool:
        """Whether the replica can accept work right now.

        True between :meth:`start` and :meth:`stop` while the worker
        process is running; a crashed (or never-started) worker reports
        ``False`` so :class:`~repro.serve.shard.ShardedServer` revives it.
        """

        return bool(
            self._running
            and not self._worker_dead
            and self._process is not None
            and self._process.is_alive()
        )

    def start(self) -> "ProcessReplica":
        """Spawn the worker process and wait for its ready handshake.

        No-op when already running.  Raises ``RuntimeError`` when the
        worker fails to come up (snapshot rebuild or engine compile
        error, or handshake timeout).
        """

        with self._lock:
            if self._running:
                return self
        snapshot = self.snapshot_factory()
        parent_connection, child_connection = _CONTEXT.Pipe()
        process = _CONTEXT.Process(
            target=worker_main,
            args=(snapshot, child_connection),
            daemon=True,
            name=f"proc-shard-{self.shard_id or snapshot.name}",
        )
        process.start()
        child_connection.close()
        if not parent_connection.poll(_READY_TIMEOUT):
            process.terminate()
            raise RuntimeError(
                f"process shard worker for {snapshot.name!r} did not come up "
                f"within {_READY_TIMEOUT:.0f}s"
            )
        status = parent_connection.recv()
        if status[0] != "ready":
            process.join(timeout=_JOIN_TIMEOUT)
            raise RuntimeError(
                f"process shard worker for {snapshot.name!r} failed to start: {status[1]}"
            )
        receiver = threading.Thread(
            target=self._receive_loop,
            args=(parent_connection,),
            name=f"proc-shard-recv-{self.shard_id or snapshot.name}",
            daemon=True,
        )
        with self._lock:
            self._process = process
            self._connection = parent_connection
            self._receiver = receiver
            self._running = True
            self._worker_dead = False
            self._busy = False
        receiver.start()
        with self._lock:
            if self._buffer:
                self._dispatch_locked()
        return self

    def stop(self) -> None:
        """Gracefully drain pending requests, then stop the worker process.

        Every request accepted before ``stop`` resolves its future: with a
        healthy worker it resolves normally; if the worker dies during the
        drain the remaining futures fail with ``RuntimeError`` instead of
        hanging their waiters (``stop`` is terminal -- it never restarts).
        Requests submitted after ``stop`` raise ``RuntimeError``.
        """

        with self._idle:
            if not self._running:
                return
            self._running = False
            while (self._buffer or self._inflight) and not self._worker_dead:
                self._idle.wait(timeout=0.1)
                if self._process is not None and not self._process.is_alive():
                    break
            stranded = self._take_stranded_locked()
        for item in stranded:
            if not item.future.done():
                item.future.set_exception(
                    RuntimeError(
                        "process shard worker died while draining; request "
                        "was not served (shard_id="
                        f"{self.shard_id!r})"
                    )
                )
        self._shutdown_worker()

    def restart(self) -> "ProcessReplica":
        """Replace a dead worker process and re-dispatch stranded requests.

        Mirrors :meth:`repro.serve.server.BatchedServer.restart`: the
        cache and counters survive, ``stats.restarts`` is incremented, and
        every request that was buffered or in flight when the worker died
        is adopted by the fresh worker so its future eventually resolves.
        """

        with self._lock:
            # start() dispatches whatever is buffered once the worker is up.
            self._buffer = self._take_stranded_locked()
            self._busy = False
            self._running = False
        self._shutdown_worker(force=True)
        self.stats.record_restart()
        return self.start()

    def _take_stranded_locked(self) -> List[QueuedRequest]:
        """Empty the in-flight batches (oldest first) and the buffer, in order."""

        stranded: List[QueuedRequest] = []
        for batch_id in sorted(self._inflight):
            stranded.extend(self._inflight.pop(batch_id))
        self._dispatch_times.clear()
        stranded.extend(self._buffer)
        self._buffer = []
        return stranded

    def flush(self) -> None:
        """No-op: process replicas dispatch eagerly (API parity hook)."""

    def warm(self, model: Optional[str] = None) -> None:
        """No-op: the worker compiles its engine during :meth:`start`."""

    def _shutdown_worker(self, force: bool = False) -> None:
        connection, process, receiver = self._connection, self._process, self._receiver
        self._connection = None
        self._process = None
        self._receiver = None
        if connection is not None:
            try:
                connection.send(None)
            except (OSError, BrokenPipeError):
                pass
        if process is not None:
            process.join(timeout=0.1 if force else _JOIN_TIMEOUT)
            if process.is_alive():
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)
        if connection is not None:
            connection.close()  # unblocks the receiver thread
        if receiver is not None and receiver is not threading.current_thread():
            receiver.join(timeout=_JOIN_TIMEOUT)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _enqueue(self, request: PredictRequest) -> "Future[PredictResponse]":
        # (No tuner.record_arrival here: process batching is busy-driven,
        # there is no wait knob for the arrival-rate estimate to feed, so
        # the bookkeeping would be pure per-submit lock contention.)
        item = QueuedRequest(request)
        with self._lock:
            if not self._running or self._worker_dead:
                raise RuntimeError(
                    "process-mode replica is not running; call start() (or restart())"
                )
            self._buffer.append(item)
            if not self._busy:
                self._dispatch_locked()
        return item.future

    # ------------------------------------------------------------------
    # Parent-side batching + response plumbing
    # ------------------------------------------------------------------
    def _dispatch_locked(self) -> None:
        """Ship the next micro-batch to the worker (caller holds the lock).

        At most one batch is outstanding at a time: the worker computes
        batch *N* while requests for batch *N+1* accumulate parent-side.
        """

        if not self._buffer or self._connection is None:
            return
        batch = self._buffer[: self.max_batch_size]
        del self._buffer[: len(batch)]
        self._next_batch_id += 1
        batch_id = self._next_batch_id
        self._inflight[batch_id] = batch
        self._dispatch_times[batch_id] = time.perf_counter()
        images = np.stack([item.request.image for item in batch]).astype(
            np.float32, copy=False
        )
        self._busy = True
        try:
            self._connection.send(("batch", batch_id, images))
        except (OSError, BrokenPipeError):
            self._worker_dead = True
            self._busy = False

    def _receive_loop(self, connection) -> None:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                with self._idle:
                    self._worker_dead = True
                    self._busy = False
                    self._idle.notify_all()
                return
            kind = message[0]
            if kind == "result":
                self._complete(message[1], message[2], error=None)
            elif kind == "error":
                self._complete(message[1], None, error=RuntimeError(message[2]))

    def _complete(
        self,
        batch_id: int,
        probabilities: Optional[np.ndarray],
        error: Optional[BaseException],
    ) -> None:
        now = time.perf_counter()
        with self._lock:
            batch = self._inflight.pop(batch_id, [])
            dispatched_at = self._dispatch_times.pop(batch_id, None)
            if self.tuner is not None and batch and error is None:
                # The round trip (IPC + worker forward) is the batch
                # latency the controller optimizes in process mode.
                self.tuner.record_batch(len(batch), now - dispatched_at)
                self.max_batch_size = self.tuner.batch_size
            # Feed the worker its next batch before resolving futures, so
            # it computes while the parent runs response callbacks.
            if self._buffer and not self._worker_dead:
                self._dispatch_locked()
            else:
                self._busy = False
        if error is not None:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(error)
        elif batch:
            for item, response in zip(batch, self._answer(batch, probabilities, now)):
                if not item.future.done():  # stop() may have failed it already
                    item.future.set_result(response)
        with self._idle:
            if not self._buffer and not self._inflight:
                self._idle.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessReplica(shard_id={self.shard_id!r}, alive={self.alive}, "
            f"max_batch_size={self.max_batch_size})"
        )
