"""Serving-throughput scenario: the defended classifiers as a workload.

Beyond reproducing the paper's tables, the ROADMAP treats the defended
classifiers as a system to be served at scale.  This scenario reuses the
trained baseline of the shared :class:`~repro.experiments.context.ExperimentContext`
and pushes the same synthetic traffic stream through three serving paths:

* ``naive_loop`` -- one synchronous ``predict`` call per request (how the
  experiment scripts produce predictions today);
* ``micro_batched[sync]`` -- the :mod:`repro.serve` scheduler in
  deterministic in-process mode, prediction cache disabled, isolating the
  batching + compiled-engine speedup;
* ``micro_batched[cached]`` -- the same scheduler with the LRU prediction
  cache enabled on a duplicate-heavy stream, showing the additional win on
  repetitive road-sign traffic.

The rows double as a regression surface: the ``speedup_vs_naive`` column
of the batched rows is what the serving benchmark asserts on.

:func:`run_sharded_serving_evaluation` is the PR 2 follow-up scenario:
the same traffic machinery, but the stream now interleaves several defense
variants and the single-queue server is raced against the
:class:`~repro.serve.shard.ShardedServer` (per-variant schedulers and
caches).  Its ``speedup_vs_single_queue`` column is what
``benchmarks/test_serve_sharded.py`` asserts on.

:func:`run_adaptive_serving_evaluation` covers the adaptive-serving layer:
a fixed-configuration batch-size sweep against the online
:class:`~repro.serve.autotune.BatchTuner`, and the LRU-vs-TinyLFU hot-set
hit rates under adversarial unique-image spam.  These rows are
report-only; the gated versions of the same quantities live in
``benchmarks/test_serve_autotune.py`` and
``benchmarks/test_cache_admission.py``, which run their own hermetic
measurements.

:func:`run_http_serving_evaluation` measures the wire boundary: the same
sequential request pattern driven in-process, through the frame-protocol
:class:`~repro.serve.frontend.SocketFrontend` and through the HTTP/JSON
:class:`~repro.serve.http.HttpFrontend` (both ``.npy`` and JSON bodies),
so the per-protocol overhead is isolated from batching effects.  These
rows are report-only; ``benchmarks/test_serve_http_overhead.py`` runs the gated
version.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..models.factory import build_variant, resolve_variant
from ..serve.frontend import SocketClient, SocketFrontend
from ..serve.http import HttpClient, HttpFrontend
from ..serve.registry import ModelRegistry
from ..serve.server import BatchedServer
from ..serve.shard import ShardedServer
from ..serve.traffic import (
    ThroughputReport,
    coresident_interpreter_load,
    generate_adversarial_requests,
    generate_mixed_requests,
    generate_requests,
    replay_requests,
    run_load,
    run_naive_loop,
    summarize_adversarial_responses,
)
from .context import ExperimentContext

__all__ = [
    "ServingRow",
    "run_serving_evaluation",
    "run_sharded_serving_evaluation",
    "run_process_serving_evaluation",
    "run_adaptive_serving_evaluation",
    "run_http_serving_evaluation",
]


@dataclass
class ServingRow:
    """One serving scenario measurement."""

    scenario: str
    requests: int
    images_per_second: float
    mean_latency_ms: float
    p95_latency_ms: float
    cache_hit_rate: float
    mean_batch_size: float
    speedup_vs_naive: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "requests": self.requests,
            "images_per_second": round(self.images_per_second, 1),
            "mean_latency_ms": round(self.mean_latency_ms, 3),
            "p95_latency_ms": round(self.p95_latency_ms, 3),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "mean_batch_size": round(self.mean_batch_size, 2),
            "speedup_vs_naive": round(self.speedup_vs_naive, 2),
        }


def _to_row(report: ThroughputReport, naive_ips: float) -> ServingRow:
    return ServingRow(
        scenario=report.label,
        requests=report.requests,
        images_per_second=report.images_per_second,
        mean_latency_ms=report.mean_latency_ms,
        p95_latency_ms=report.latency_percentile(95),
        cache_hit_rate=report.cache_hit_rate,
        mean_batch_size=report.mean_batch_size,
        speedup_vs_naive=report.images_per_second / max(naive_ips, 1e-9),
    )


def run_serving_evaluation(
    context: ExperimentContext,
    num_requests: int = 192,
    max_batch_size: int = 32,
    duplicate_fraction: float = 0.5,
) -> List[ServingRow]:
    """Measure serving throughput of the trained baseline under three paths."""

    classifier = context.get_baseline()
    registry = ModelRegistry(
        None, image_size=context.profile.image_size, seed=context.profile.seed
    )
    registry.add("baseline", classifier, persist=False)

    # Unique-image stream isolates batching; duplicate-heavy stream adds the
    # cache on top.  Both reuse the evaluation images so no new rendering
    # cost is paid here.
    pool = context.test_set.images
    unique_stream = generate_requests(
        pool, num_requests, duplicate_fraction=0.0, seed=context.profile.seed
    )
    repeat_stream = generate_requests(
        pool,
        num_requests,
        duplicate_fraction=duplicate_fraction,
        seed=context.profile.seed,
    )

    naive = run_naive_loop(classifier, unique_stream)

    batched_server = BatchedServer(
        registry, max_batch_size=max_batch_size, cache_size=0, mode="sync"
    )
    batched_server.warm("baseline")
    batched = run_load(batched_server, unique_stream, label="micro_batched[sync]")

    cached_server = BatchedServer(
        registry, max_batch_size=max_batch_size, cache_size=4 * num_requests, mode="sync"
    )
    cached_server.warm("baseline")
    cached = run_load(cached_server, repeat_stream, label="micro_batched[cached]")

    naive_ips = naive.images_per_second
    return [_to_row(naive, naive_ips), _to_row(batched, naive_ips), _to_row(cached, naive_ips)]


def run_sharded_serving_evaluation(
    context: ExperimentContext,
    models: Sequence[str] = ("baseline", "input_filter_3x3", "feature_filter_3x3"),
    passes: int = 3,
    max_batch_size: int = 32,
) -> List[Dict[str, object]]:
    """Race the single-queue server against per-variant shards on mixed traffic.

    The stream interleaves ``models`` round-robin and cycles each variant's
    image pool ``passes`` times, so repeats are bit-identical
    (cache-hittable).  Both servers run the deterministic sync scheduler
    with the same *per-queue* cache capacity, sized to hold one variant's
    working set: the single-queue server shares that one capacity across
    all variants (the PR 1 design) and thrashes under the cyclic
    multi-variant stream, while the sharded server gives each variant its
    own scheduler and cache.  The measured gap is therefore batch
    fragmentation plus cache competition -- the two penalties sharding
    removes.

    The baseline variant reuses the context's trained classifier; the
    other variants are served with untrained weights, which leaves the
    per-forward cost (the quantity under test) unchanged.

    Returns JSON-friendly rows; the sharded row carries
    ``speedup_vs_single_queue``.
    """

    registry = ModelRegistry(
        None, image_size=context.profile.image_size, seed=context.profile.seed
    )
    registry.add("baseline", context.get_baseline(), persist=False)
    for name in models:
        if name not in registry.loaded():
            registry.add(
                name,
                build_variant(
                    resolve_variant(name),
                    seed=context.profile.seed,
                    image_size=context.profile.image_size,
                ),
                persist=False,
            )

    pool = context.test_set.images
    cache_size = len(pool) + max_batch_size  # one variant's working set per queue
    num_requests = len(models) * len(pool) * passes
    stream = generate_mixed_requests(
        pool, num_requests, list(models), duplicate_fraction=0.0, seed=context.profile.seed
    )

    single = BatchedServer(
        registry, max_batch_size=max_batch_size, cache_size=cache_size, mode="sync"
    )
    single_report = run_load(single, stream, label="single_queue[sync]")

    sharded = ShardedServer(
        registry,
        list(models),
        replicas=1,
        max_batch_size=max_batch_size,
        cache_size=cache_size,
        mode="sync",
    )
    sharded_report = run_load(sharded, stream, label="sharded[sync]")

    single_ips = single_report.images_per_second
    rows = []
    for report in (single_report, sharded_report):
        row = report.as_dict()
        row["models"] = len(models)
        row["speedup_vs_single_queue"] = round(
            report.images_per_second / max(single_ips, 1e-9), 2
        )
        rows.append(row)
    return rows


def run_process_serving_evaluation(
    context: ExperimentContext,
    models: Sequence[str] = ("baseline", "input_filter_3x3", "feature_filter_3x3"),
    passes: int = 2,
    max_batch_size: int = 32,
    coresident_threads: int = 3,
) -> List[Dict[str, object]]:
    """Race thread-mode against process-mode shard replicas on mixed traffic.

    Thread-mode replicas share the parent's GIL: with the interpreter
    otherwise idle they run close to compute-bound (every heavy NumPy op
    releases the lock), but any interpreter-resident work -- the asyncio
    front-end, metric aggregation, an analysis loop -- preempts them at
    every op boundary and serving collapses.  Process-mode replicas
    (:class:`~repro.serve.procshard.ProcessReplica`) compile their own
    engine from the registry's ``.npz`` snapshot and only compete for CPU
    through the OS scheduler.

    Four rows measure that contrast on one mixed multi-variant stream:
    both modes with the parent idle, then both modes with
    ``coresident_threads`` busy interpreter threads
    (:func:`~repro.serve.traffic.coresident_interpreter_load`).  Caches
    are disabled so the comparison isolates scheduling + forward cost.
    Each row carries ``speedup_process_vs_thread`` (filled on process
    rows).

    The baseline variant reuses the context's trained classifier; the
    other variants are served with untrained weights, which leaves the
    per-forward cost (the quantity under test) unchanged.
    """

    registry = ModelRegistry(
        None, image_size=context.profile.image_size, seed=context.profile.seed
    )
    registry.add("baseline", context.get_baseline(), persist=False)
    for name in models:
        if name not in registry.loaded():
            registry.add(
                name,
                build_variant(
                    resolve_variant(name),
                    seed=context.profile.seed,
                    image_size=context.profile.image_size,
                ),
                persist=False,
            )

    pool = context.test_set.images
    num_requests = len(models) * len(pool) * passes
    stream = generate_mixed_requests(
        pool, num_requests, list(models), duplicate_fraction=0.0, seed=context.profile.seed
    )

    def measure(mode: str, busy_threads: int, label: str) -> ThroughputReport:
        server = ShardedServer(
            registry,
            list(models),
            replicas=1,
            max_batch_size=max_batch_size,
            cache_size=0,
            mode=mode,
        )
        with server:
            run_load(server, stream[: len(models) * max_batch_size], label="warm")
            with coresident_interpreter_load(busy_threads):
                return run_load(server, stream, label=label)

    pairs = []
    for busy_threads, suffix in ((0, "idle_interpreter"), (coresident_threads, "busy_interpreter")):
        thread_report = measure("thread", busy_threads, f"sharded[thread,{suffix}]")
        process_report = measure("process", busy_threads, f"sharded[process,{suffix}]")
        pairs.append((thread_report, process_report))

    rows: List[Dict[str, object]] = []
    for thread_report, process_report in pairs:
        ratio = process_report.images_per_second / max(
            thread_report.images_per_second, 1e-9
        )
        for report, speedup in ((thread_report, None), (process_report, round(ratio, 2))):
            row = report.as_dict()
            row["models"] = len(models)
            row["coresident_threads"] = (
                0 if "idle_interpreter" in report.label else coresident_threads
            )
            row["speedup_process_vs_thread"] = speedup
            rows.append(row)
    return rows


def run_adaptive_serving_evaluation(
    context: ExperimentContext,
    fixed_batch_sizes: Sequence[int] = (2, 8, 32),
    num_requests: int = 256,
    hot_set_size: int = 16,
    spam_ratio: float = 4.0,
    cache_size: int = 48,
) -> List[Dict[str, object]]:
    """Measure the two adaptive-serving controllers on the trained baseline.

    **Batch autotuning.**  A unique-image stream is replayed through sync
    servers pinned to each of ``fixed_batch_sizes`` (caches disabled so
    the comparison isolates scheduling), then through an autotuned server
    that starts from the *worst* fixed configuration and hill-climbs
    online.  The controller warms up over repeated convergence passes and
    is then frozen at its best-known rung for the measured pass (an
    online controller is judged at the steady state it picked, not at
    whatever probe it happens to be running).  Its row carries
    ``speedup_vs_best_fixed`` and ``speedup_vs_worst_fixed`` plus the
    frozen batch size.

    **Cache admission.**  An adversarial stream
    (:func:`~repro.serve.traffic.generate_adversarial_requests`:
    ``spam_ratio``:1 unique-image spam around a ``hot_set_size`` working
    set) is replayed through two cached sync servers that differ only in
    ``cache_policy``.  Each row carries the per-population hit rates from
    :func:`~repro.serve.traffic.summarize_adversarial_responses`; the
    TinyLFU row adds ``hot_hit_rate_vs_lru``.

    The baseline variant reuses the context's trained classifier.
    Returns JSON-friendly rows keyed by ``scenario``.
    """

    registry = ModelRegistry(
        None, image_size=context.profile.image_size, seed=context.profile.seed
    )
    registry.add("baseline", context.get_baseline(), persist=False)
    registry.engine("baseline")  # compile outside every measured window

    pool = context.test_set.images
    unique_stream = generate_requests(
        pool, num_requests, duplicate_fraction=0.0, seed=context.profile.seed
    )

    rows: List[Dict[str, object]] = []
    fixed_rates: Dict[int, float] = {}
    for batch_size in fixed_batch_sizes:
        server = BatchedServer(
            registry, max_batch_size=batch_size, cache_size=0, mode="sync"
        )
        report = run_load(server, unique_stream, label=f"fixed[b{batch_size}]")
        fixed_rates[batch_size] = report.images_per_second
        row = report.as_dict()
        row["max_batch_size"] = batch_size
        rows.append(row)

    worst_batch = min(fixed_rates, key=fixed_rates.get)
    autotuned = BatchedServer(
        registry, max_batch_size=worst_batch, cache_size=0, mode="sync", autotune=True
    )
    # Converge online (bounded passes), then freeze at the best-known
    # rung so the measured pass scores the controller's chosen
    # configuration rather than its transient probing.
    for _ in range(4):
        run_load(autotuned, unique_stream, label="warmup")
        if autotuned.tuner.best_rung() >= max(fixed_batch_sizes) // 2:
            break
    autotuned.tuner.freeze(adopt_best=True)
    report = run_load(autotuned, unique_stream, label="autotuned[sync]")
    best_rate, worst_rate = max(fixed_rates.values()), min(fixed_rates.values())
    row = report.as_dict()
    row["max_batch_size"] = autotuned.tuner.batch_size
    row["speedup_vs_best_fixed"] = round(report.images_per_second / max(best_rate, 1e-9), 2)
    row["speedup_vs_worst_fixed"] = round(report.images_per_second / max(worst_rate, 1e-9), 2)
    rows.append(row)

    adversarial_stream = generate_adversarial_requests(
        pool,
        num_requests,
        hot_set_size=hot_set_size,
        spam_ratio=spam_ratio,
        seed=context.profile.seed,
    )
    policy_rows: Dict[str, Dict[str, object]] = {}
    for policy in ("lru", "tinylfu"):
        server = BatchedServer(
            registry,
            max_batch_size=32,
            cache_size=cache_size,
            cache_policy=policy,
            mode="sync",
        )
        responses = replay_requests(server, adversarial_stream)
        row: Dict[str, object] = {
            "scenario": f"adversarial[{policy}]",
            "requests": len(responses),
            "cache_size": cache_size,
            "spam_ratio": spam_ratio,
        }
        row.update(summarize_adversarial_responses(responses))
        policy_rows[policy] = row
        rows.append(row)
    # Report the ratio only when LRU retained anything; in the expected
    # collapse case a clamped ratio would be an artifact of the epsilon,
    # so record null instead (the absolute rates carry the result).
    lru_hot = float(policy_rows["lru"]["hot_hit_rate"])
    policy_rows["tinylfu"]["hot_hit_rate_vs_lru"] = (
        round(float(policy_rows["tinylfu"]["hot_hit_rate"]) / lru_hot, 1)
        if lru_hot > 0
        else None
    )
    return rows


def run_http_serving_evaluation(
    context: ExperimentContext,
    num_requests: int = 96,
    max_batch_size: int = 32,
) -> List[Dict[str, object]]:
    """Measure the wire-protocol overhead of the two network front-ends.

    The same unique-image stream is driven through one thread-mode
    :class:`~repro.serve.server.BatchedServer` four ways, always by a
    single sequential blocking caller (one request in flight at a time, so
    every row pays the same batching pattern and the ratios isolate pure
    protocol cost):

    * ``in_process`` -- ``submit()`` + ``future.result()`` directly;
    * ``socket[npy]`` -- the frame protocol through
      :class:`~repro.serve.frontend.SocketFrontend` with binary ``N``
      frames;
    * ``http[npy]`` -- the HTTP gateway with raw ``.npy`` bodies
      (``Content-Type: application/x-npy``);
    * ``http[json]`` -- the HTTP gateway with nested-list JSON bodies (the
      float-to-text worst case a browser without binary encoding pays).

    Each row carries ``overhead_vs_in_process`` (the in-process throughput
    divided by the row's -- 1.0 means free).  The caches are disabled so
    every request runs the model.  Report-only: the gated completion floor
    lives in ``benchmarks/test_serve_http_overhead.py``.
    """

    registry = ModelRegistry(
        None, image_size=context.profile.image_size, seed=context.profile.seed
    )
    registry.add("baseline", context.get_baseline(), persist=False)
    registry.engine("baseline")  # compile outside every measured window

    pool = context.test_set.images
    stream = generate_requests(
        pool, num_requests, duplicate_fraction=0.0, seed=context.profile.seed
    )

    def measure(label: str, roundtrip) -> Dict[str, object]:
        started = time.perf_counter()
        for request in stream:
            roundtrip(request)
        wall = time.perf_counter() - started
        return {
            "scenario": label,
            "requests": len(stream),
            "wall_seconds": round(wall, 4),
            "images_per_second": round(len(stream) / wall, 1) if wall > 0 else 0.0,
        }

    server = BatchedServer(
        registry, max_batch_size=max_batch_size, cache_size=0, mode="thread"
    )
    rows: List[Dict[str, object]] = []
    with server:
        rows.append(
            measure("in_process", lambda request: server.submit(request).result())
        )
        with SocketFrontend(server) as socket_frontend:
            with SocketClient("127.0.0.1", socket_frontend.port) as client:
                rows.append(
                    measure(
                        "socket[npy]",
                        lambda request: client.predict(
                            request.image, model=request.model, binary=True
                        ),
                    )
                )
        with HttpFrontend(server) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                for label, encoding in (("http[npy]", "npy"), ("http[json]", "list")):
                    rows.append(
                        measure(
                            label,
                            lambda request, encoding=encoding: client.predict(
                                request.image, model=request.model, encoding=encoding
                            ),
                        )
                    )
    in_process_rate = float(rows[0]["images_per_second"])
    for row in rows:
        rate = float(row["images_per_second"])
        row["overhead_vs_in_process"] = (
            round(in_process_rate / rate, 2) if rate > 0 else None
        )
    return rows
