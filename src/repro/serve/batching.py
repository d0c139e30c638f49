"""Dynamic micro-batching: coalesce single-image requests into batches.

The scheduler accepts individual :class:`~repro.serve.types.PredictRequest`
submissions and groups them into micro-batches so the model runs one
``no_grad`` forward per batch instead of one per request -- the batching
amortization that makes the compiled inference engine pay off.

Two execution modes are provided:

* ``"thread"`` -- a background worker drains a queue: it blocks for the
  first pending request, then keeps gathering until ``max_batch_size``
  requests are in hand or ``max_wait`` seconds have passed, whichever
  comes first.  This is the latency/throughput trade-off knob of every
  production batcher.
* ``"sync"`` -- no threads: submissions accumulate in-process and run when
  ``max_batch_size`` is reached or :meth:`MicroBatcher.flush` is called.
  Deterministic and convenient for tests, benchmarks and offline jobs.

The batcher is model-agnostic: it resolves each batch through a
``batch_runner(model_name, requests) -> responses`` callable supplied by
the owner (the :class:`~repro.serve.server.BatchedServer`).  Requests for
different models submitted concurrently are grouped per model before being
run.

When a :class:`~repro.serve.autotune.BatchTuner` is attached, the batcher
closes the autotuning loop: every submit feeds the tuner's arrival-rate
estimate, every executed batch reports its size and latency, and the
scheduler re-reads the recommended ``max_batch_size`` / ``max_wait`` after
each batch -- so both knobs track the observed traffic online instead of
staying at their constructor values.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .autotune import BatchTuner
from .types import PredictRequest, PredictResponse

__all__ = ["QueuedRequest", "MicroBatcher"]

_BatchRunner = Callable[[str, Sequence["QueuedRequest"]], List[PredictResponse]]


@dataclass
class QueuedRequest:
    """A request in flight: the payload, its future and its submit time."""

    request: PredictRequest
    future: "Future[PredictResponse]" = field(default_factory=Future)
    submitted_at: float = field(default_factory=time.perf_counter)


class MicroBatcher:
    """Request-coalescing scheduler in front of a batch runner.

    Parameters
    ----------
    batch_runner:
        Callable executing one micro-batch for one model; it must return
        one :class:`PredictResponse` per queued request, in order.
    max_batch_size:
        Upper bound on requests folded into one forward pass.
    max_wait:
        Seconds the worker waits for stragglers after the first request of
        a batch arrives (thread mode only).
    mode:
        ``"thread"`` or ``"sync"`` (see module docstring).
    tuner:
        Optional :class:`~repro.serve.autotune.BatchTuner`; when given,
        ``max_batch_size``/``max_wait`` start from (and keep following)
        the tuner's recommendation instead of the constructor values.
        The tuner object is owned by the server, so its learned state
        survives scheduler rebuilds on :meth:`~repro.serve.server.BatchedServer.restart`.
    """

    def __init__(
        self,
        batch_runner: _BatchRunner,
        max_batch_size: int = 32,
        max_wait: float = 0.002,
        mode: str = "thread",
        tuner: Optional[BatchTuner] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        if mode not in {"thread", "sync"}:
            raise ValueError(f"unknown mode {mode!r}; expected 'thread' or 'sync'")
        self.batch_runner = batch_runner
        self.tuner = tuner
        if tuner is not None:
            max_batch_size, max_wait = tuner.recommend()
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.mode = mode
        self._queue: "queue.Queue[Optional[QueuedRequest]]" = queue.Queue()
        self._pending: List[QueuedRequest] = []  # sync mode accumulator
        self._worker: Optional[threading.Thread] = None
        self._running = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the scheduler can accept work right now.

        Sync mode is always alive.  Thread mode is alive while the worker
        thread is running: ``False`` before :meth:`start`, after
        :meth:`stop`, and after a worker crash.
        """

        if self.mode == "sync":
            return True
        return bool(self._running and self._worker is not None and self._worker.is_alive())

    def start(self) -> "MicroBatcher":
        """Start the worker thread (no-op in sync mode or when running)."""

        if self.mode != "thread" or self._running:
            return self
        self._running = True
        self._worker = threading.Thread(target=self._worker_loop, name="micro-batcher", daemon=True)
        self._worker.start()
        return self

    def stop(self) -> None:
        """Flush outstanding work and stop the worker thread."""

        if self.mode == "sync":
            self.flush()
            return
        with self._lock:
            if not self._running:
                return
            self._running = False
            self._queue.put(None)  # wake the worker so it can exit
        if self._worker is not None:
            self._worker.join()
            self._worker = None

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: PredictRequest) -> "Future[PredictResponse]":
        """Enqueue one request; returns a future for its response."""

        item = QueuedRequest(request)
        if self.tuner is not None:
            self.tuner.record_arrival(item.submitted_at)
        if self.mode == "sync":
            with self._lock:
                self._pending.append(item)
                ready = len(self._pending) >= self.max_batch_size
            if ready:
                self.flush()
        else:
            # The running-check and enqueue happen under the same lock that
            # stop() takes to flip the flag and post the shutdown sentinel,
            # so an item can never land behind the sentinel (where the
            # exiting worker would miss it and its future would never
            # resolve).
            with self._lock:
                if not self._running:
                    raise RuntimeError("thread-mode batcher is not running; call start()")
                self._queue.put(item)
        return item.future

    def take_pending(self) -> List[QueuedRequest]:
        """Remove and return every request still waiting in this batcher.

        Used when replacing a dead scheduler: the unserved requests (with
        their original, still-unresolved futures) are handed to the
        replacement via :meth:`adopt` so no accepted future is abandoned.
        Call only on a stopped or dead batcher.
        """

        leftovers: List[QueuedRequest] = []
        with self._lock:
            leftovers.extend(self._pending)
            self._pending = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:  # drop shutdown sentinels
                leftovers.append(item)
        return leftovers

    def adopt(self, items: Sequence[QueuedRequest]) -> None:
        """Enqueue already-wrapped requests (preserving their futures).

        The counterpart of :meth:`take_pending` for scheduler replacement.
        The batcher must be running (thread mode) or accepting (sync mode).
        """

        if self.mode == "sync":
            with self._lock:
                self._pending.extend(items)
            return
        with self._lock:
            if not self._running:
                raise RuntimeError("cannot adopt requests: batcher is not running")
            for item in items:
                self._queue.put(item)

    def flush(self) -> None:
        """Run every pending request now (sync mode)."""

        if self.mode != "sync":
            return
        with self._lock:
            pending, self._pending = self._pending, []
        self._run_chunked(pending)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.1)
            except queue.Empty:
                if not self._running:
                    return
                continue
            if first is None:
                # Shutdown sentinel: drain whatever is left, then exit.
                self._drain_remaining()
                return
            batch = [first]
            deadline = time.perf_counter() + self.max_wait
            while len(batch) < self.max_batch_size:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is None:
                    self._run_batch(batch)
                    self._drain_remaining()
                    return
                batch.append(item)
            self._run_batch(batch)

    def _drain_remaining(self) -> None:
        leftovers: List[QueuedRequest] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                leftovers.append(item)
        self._run_chunked(leftovers)

    def _run_chunked(self, items: Sequence[QueuedRequest]) -> None:
        """Run a backlog in bounded-size batches.

        The chunk limit is re-read before every batch because a tuner may
        adjust ``max_batch_size`` after each executed one.
        """

        start = 0
        while start < len(items):
            size = max(1, self.max_batch_size)
            self._run_batch(items[start : start + size])
            start += size

    def _run_batch(self, batch: Sequence[QueuedRequest]) -> None:
        if not batch:
            return
        # Group by model so one forward pass serves one set of weights.
        groups: Dict[str, List[QueuedRequest]] = {}
        for item in batch:
            groups.setdefault(item.request.model, []).append(item)
        for model_name, items in groups.items():
            try:
                run_started = time.perf_counter()
                responses = self.batch_runner(model_name, items)
                if self.tuner is not None:
                    self.tuner.record_batch(
                        len(items), time.perf_counter() - run_started
                    )
                for item, response in zip(items, responses):
                    item.future.set_result(response)
            except Exception as error:  # propagate to every waiter, keep serving
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(error)
        if self.tuner is not None:
            self.max_batch_size, self.max_wait = self.tuner.recommend()
