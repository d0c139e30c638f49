"""``serve_procs_flood``: process shards under a flood of distinct images.

An in-process ``ShardedServer(mode="process")`` serves ``baseline``,
``feature_filter_3x3`` and ``input_filter_5x5`` with one forked worker
each and the default batch size and cache.  One generator thread keeps a
fixed window of requests in flight on a round-robin mixed stream (closed
loop).  Every image is distinct, so the prediction cache only misses.
Nothing is pinned and BLAS keeps its default thread count, as for any
user of ``--mode process``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Dict, List, Optional

from common import (
    ImageStream,
    Oracle,
    counter_ratio,
    cpu_seconds,
    end_to_end_values,
    latency_summary,
    now,
    peak_rss_mb,
    percentile,
)
from paths import BUILD, IMAGE_SIZE, REGISTRY_DIR, SERVING_MODELS
from tracing import (
    Tracer,
    by_name,
    durations_ms,
    forward_metrics,
    load_spans,
    self_times,
    setup_metrics,
)

IN_FLIGHT = 64
WARMUP_REQUESTS = 3 * IN_FLIGHT
SETUP_REPEATS = 21


def timed_setup(stream: ImageStream, oracle: Oracle, index: int):
    """Load the registry, start the process shards and wait for a first correct answer.

    That is what a user pays at every start; returns (server, seconds).
    """

    from repro.serve import ModelRegistry, ShardedServer

    started = now()
    registry = ModelRegistry(REGISTRY_DIR, image_size=IMAGE_SIZE)
    server = ShardedServer(registry, list(SERVING_MODELS), replicas=1, mode="process")
    try:
        server.start()
        image = stream.image(index)
        response = server.predict(image, model=SERVING_MODELS[0])
        elapsed = now() - started
        reference = oracle.probabilities(SERVING_MODELS[0], image[None])
        if not oracle.correct(reference, [response.class_index])[0]:
            raise RuntimeError("first response of the process shards is wrong")
    except BaseException:
        server.stop()
        raise
    return server, elapsed


def drive(server, stream: ImageStream, seconds: float) -> Dict[str, object]:
    """Warm up, then keep ``IN_FLIGHT`` requests in flight for ``seconds``."""

    from repro.serve import PredictRequest

    slots = threading.BoundedSemaphore(IN_FLIGHT)
    results: Dict[int, tuple] = {}
    failures: List[str] = []
    window: Dict[str, float] = {}

    def submit_all(start: int, count: Optional[int] = None, stop_at: Optional[float] = None) -> int:
        index = start
        while (count is None or index < start + count) and (stop_at is None or now() < stop_at):
            slots.acquire()
            model = SERVING_MODELS[index % len(SERVING_MODELS)]
            submitted = now()
            try:
                future = server.submit(
                    PredictRequest(image=stream.image(index), model=model, request_id=str(index))
                )
            except RuntimeError as error:
                failures.append(f"{index}: {error!r}")
                slots.release()
                index += 1
                continue
            future.add_done_callback(
                lambda done, index=index, submitted=submitted: finish(index, submitted, done)
            )
            index += 1
        for _ in range(IN_FLIGHT):  # wait until every request has answered
            slots.acquire()
        for _ in range(IN_FLIGHT):
            slots.release()
        return index

    def finish(index: int, submitted: float, future) -> None:
        try:
            response = future.result()
            results[index] = (response.class_index, (now() - submitted) * 1000.0, response.cache_hit)
        except Exception as error:  # a failed answer is counted, never raised here
            failures.append(f"{index}: {error!r}")
        finally:
            slots.release()

    def generate() -> None:
        submit_all(len(stream) // 2, count=WARMUP_REQUESTS)
        results.clear()
        failures.clear()
        generator_cpu = time.thread_time()
        window["cpu_start"] = _server_cpu()
        window["start"] = now()
        window["next"] = submit_all(0, stop_at=window["start"] + seconds)
        window["end"] = now()
        window["generator_cpu"] = time.thread_time() - generator_cpu

    workers = multiprocessing.active_children()

    def _server_cpu() -> float:
        return cpu_seconds(os.getpid()) + sum(cpu_seconds(worker.pid) for worker in workers)

    generator = threading.Thread(target=generate, name="procs-flood-generator")
    generator.start()
    generator.join(timeout=seconds + 300)
    if generator.is_alive():
        raise RuntimeError("the generator did not finish")
    cpu = _server_cpu() - window["cpu_start"] - window["generator_cpu"]
    rss = peak_rss_mb(os.getpid()) + sum(peak_rss_mb(worker.pid) for worker in workers)
    return {
        "results": results,
        "failures": failures,
        "attempted": window["next"],
        "elapsed_s": window["end"] - window["start"],
        "window_start": window["start"],
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "affinity": {
            "server_and_client": sorted(os.sched_getaffinity(0)),
            **{worker.name: sorted(os.sched_getaffinity(worker.pid)) for worker in workers},
        },
    }


def measure(server, stream: ImageStream, seconds: float) -> Dict[str, object]:
    """Run the measured window on a started server, read its counters, then stop it.

    Workers write their spans (when traced) as ``worker_main`` returns.
    """

    try:
        before = server.metrics()["stats"]
        raw = drive(server, stream, seconds)
        after = server.metrics()["stats"]
    finally:
        server.stop()
    raw["mean_batch"] = counter_ratio(after, before, "batched_images", "batches")
    raw["cache_hit_rate"] = counter_ratio(after, before, "cache_hits", "requests")
    return raw


def score(raw: Dict[str, object], stream: ImageStream, oracle: Oracle) -> Dict[str, object]:
    results = raw["results"]
    correct = 0
    for offset, model in enumerate(SERVING_MODELS):
        indices = sorted(i for i in results if i % len(SERVING_MODELS) == offset)
        if not indices:
            continue
        reference = oracle.probabilities(model, stream.images(indices))
        correct += int(oracle.correct(reference, [results[i][0] for i in indices]).sum())
    attempted = raw["attempted"]
    latencies = [row[1] for row in results.values()]
    return {
        "attempted": attempted,
        "correct": correct,
        "failed": attempted - correct,
        "img_per_s": correct / raw["elapsed_s"],
        "latency": latency_summary(latencies) if latencies else None,
        "cpu_ms_per_img": raw["cpu_s"] * 1000.0 / max(len(results), 1),
        "cache_hits": sum(1 for row in results.values() if row[2]),
    }


def run(seed: int, seconds: float, trace: bool) -> tuple:
    stream = ImageStream(seed)
    oracle = Oracle(SERVING_MODELS)
    setup_index = len(stream) - 1

    if not trace:
        setups = []
        for repeat in range(SETUP_REPEATS):
            server, elapsed = timed_setup(stream, oracle, setup_index - repeat)
            setups.append(elapsed)
            if repeat < SETUP_REPEATS - 1:
                server.stop()
        raw = measure(server, stream, seconds)
        scored = score(raw, stream, oracle)
        details = {
            "setup_s_samples": setups,
            "tail": scored["latency"]["tail"],
            "elapsed_s": raw["elapsed_s"],
            "cache_hits": scored["cache_hits"],
            "mean_batch": raw["mean_batch"],
            "oracle_near_ties": oracle.near_ties,
            "errors": raw["failures"][:20],
            "affinity": raw["affinity"],
        }
        return end_to_end_values(setups, scored, raw["peak_rss_mb"]), scored, details

    server, _ = timed_setup(stream, oracle, setup_index)
    untraced = score(measure(server, stream, seconds), stream, oracle)
    trace_dir = BUILD / "runs" / f"procs-{os.getpid()}" / "trace"
    tracer = Tracer(trace_dir)
    tracer.install_serving()
    server, _ = timed_setup(stream, oracle, setup_index)
    raw = measure(server, stream, seconds)
    tracer.dump()
    scored = score(raw, stream, oracle)
    spans = load_spans(trace_dir)
    start = raw["window_start"]
    rtts, ipcs = batch_round_trips_ms(spans, start)
    layers = {
        "shard.submit_ms": percentile(durations_ms(by_name(spans, "shard.submit", start)), 50),
        "cache.hit_rate": raw["cache_hit_rate"],
        "procshard.mean_batch": raw["mean_batch"],
        "procshard.batch_rtt_ms": percentile(rtts, 50),
        "procshard.ipc_ms": percentile(ipcs, 50),
        "procshard.worker_ready_s": percentile(
            durations_ms(by_name(spans, "procshard.start")), 50
        ) / 1000.0,
        "trace.img_per_s_ratio": scored["img_per_s"] / untraced["img_per_s"],
    }
    layers.update(forward_metrics(spans, start))
    layers.update(setup_metrics(spans, start))
    details = {
        "self_times": self_times(spans),
        "errors": raw["failures"][:20],
        "untraced_img_per_s": untraced["img_per_s"],
        "affinity": raw["affinity"],
    }
    return layers, scored, details


def batch_round_trips_ms(spans: List[dict], since: float) -> tuple:
    """Per process-shard batch: parent round trip, and round trip minus worker forward.

    Each replica has one batch in flight at a time, so the worker forward
    of a batch is the forward of that variant that started between the
    batch's dispatch and its completion.
    """

    dispatched = {}
    for span in by_name(spans, "procshard.dispatch"):
        dispatched[(span["attrs"]["shard"], span["attrs"]["batch"])] = span["start"]
    forwards: Dict[str, List[dict]] = {}
    for span in sorted(by_name(spans, "inference.forward"), key=lambda span: span["start"]):
        forwards.setdefault(span["attrs"]["variant"], []).append(span)
    rtts, ipcs = [], []
    for span in by_name(spans, "procshard.complete", since):
        shard, batch = span["attrs"]["shard"], span["attrs"]["batch"]
        if (shard, batch) not in dispatched:
            continue
        rtt = (span["start"] - dispatched[(shard, batch)]) * 1000.0
        rtts.append(rtt)
        variant_forwards = [
            forward for forward in forwards.get(shard.split("/")[0], [])
            if dispatched[(shard, batch)] <= forward["start"] <= span["start"]
        ]
        if variant_forwards:
            worker_ms = sum(durations_ms(variant_forwards))
            ipcs.append(rtt - worker_ms)
    return rtts, ipcs
