"""In-memory span tracing, installed from outside the program.

:class:`Tracer` wraps functions and methods of ``repro.serve.*``,
``repro.nn.*``, ``repro.models.training`` and ``repro.attacks.rp2`` by
replacing them on their module or class, so no file under ``src/``
changes.  Each call becomes one span: name, start, end, parent span (per
thread), request id and a few attributes.  Spans stay in memory and are
written to ``spans-<pid>.jsonl`` in the trace directory when the process
ends its traced work; :func:`load_spans` reads every process's file back.

Process-shard workers are forked, so they inherit the wrappers; the
``worker_main`` wrapper drops the spans copied from the parent, tags the
worker with its variant and writes its own file when ``worker_main``
returns.

Two wrapped methods are private (``ProcessReplica._dispatch_locked`` and
``._complete``): the public surface has no per-batch hook, and the batch
round trip of a process shard cannot be timed without them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Describe = Callable[[tuple, dict], Tuple[Optional[str], Optional[dict]]]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: List[tuple] = []
        self.tags: Dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function, args, kwargs, request_id=None, attrs=None, after=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if after is not None:
                attrs = dict(attrs or {}, **after(args, result))
            # list.append is atomic under the GIL; no lock, so a fork
            # can never copy a held lock into a worker.
            self.spans.append((span_id, parent, name, start, end, request_id, attrs))

    def event(self, name: str, request_id=None, **attrs) -> None:
        """A zero-length span (a completion, a counter reading)."""

        moment = time.perf_counter()
        self.spans.append((next(self._ids), 0, name, moment, moment, request_id, attrs))

    def reset(self) -> None:
        """Forget spans and open-span stacks copied from a parent process."""

        self.spans = []
        self._local = threading.local()

    def dump(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        pid = os.getpid()
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, request_id, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "pid": pid,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "request_id": request_id,
                            "attrs": attrs or {},
                            "tags": self.tags,
                        }
                    )
                    + "\n"
                )
        return path

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        target: str,
        name: str,
        describe: Optional[Describe] = None,
        after=None,
        wrapper_factory=None,
    ) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` with a traced wrapper.

        A module-level function is also rebound in every loaded ``repro``
        module that imported it by name (``from .conv import conv2d``).
        """

        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner = module
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        tracer = self

        if wrapper_factory is not None:
            wrapper = wrapper_factory(original)
        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                request_id, attrs = describe(args, kwargs) if describe else (None, None)
                return tracer.call(name, original, args, kwargs, request_id, attrs, after)

        setattr(owner, attr, wrapper)
        if owner is module:
            for other in list(sys.modules.values()):
                if (
                    getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, attr, None) is original
                ):
                    setattr(other, attr, wrapper)

    def install_serving(self) -> None:
        """Wrap the serving request path, setup path and engine forward."""

        tracer = self
        self.wrap("repro.serve.frontend:load_npy_bytes", "frontend.load_npy_bytes")
        self.wrap(
            "repro.serve.shard:ShardedServer.submit",
            "shard.submit",
            describe=lambda args, kwargs: (args[1].request_id, None),
        )

        def traced_submit(original):
            @functools.wraps(original)
            def submit(server, request):
                future = tracer.call(
                    "server.submit", original, (server, request), {}, request.request_id
                )
                future.add_done_callback(
                    lambda done, rid=request.request_id: _record_response(tracer, rid, done)
                )
                return future

            return submit

        self.wrap(
            "repro.serve.server:BatchedServer.submit", "server.submit",
            wrapper_factory=traced_submit,
        )
        self.wrap(
            "repro.nn.inference:InferenceEngine.forward",
            "inference.forward",
            describe=lambda args, kwargs: (
                None,
                {"n": 1 if args[1].ndim == 3 else len(args[1]),
                 "variant": tracer.tags.get("variant")},
            ),
        )
        self.wrap("repro.nn.inference:InferenceEngine.refresh", "inference.compile")
        self.wrap(
            "repro.serve.registry:ModelRegistry.get",
            "registry.get",
            describe=lambda args, kwargs: (None, {"model": args[1], "registry": id(args[0])}),
        )
        self.wrap(
            "repro.serve.procshard:ProcessReplica.start",
            "procshard.start",
            describe=lambda args, kwargs: (None, {"shard": args[0].shard_id}),
        )
        self.wrap(
            "repro.serve.procshard:ProcessReplica._dispatch_locked",
            "procshard.dispatch",
            describe=lambda args, kwargs: (None, {"shard": args[0].shard_id}),
            after=lambda args, result: {"batch": args[0]._next_batch_id},
        )
        self.wrap(
            "repro.serve.procshard:ProcessReplica._complete",
            "procshard.complete",
            describe=lambda args, kwargs: (
                None, {"shard": args[0].shard_id, "batch": args[1]},
            ),
        )

        def traced_worker(original):
            @functools.wraps(original)
            def worker_main(snapshot, connection, *args, **kwargs):
                tracer.reset()
                tracer.tags["variant"] = snapshot.name
                try:
                    return tracer.call(
                        "procshard.worker_main", original, (snapshot, connection) + args, kwargs
                    )
                finally:
                    tracer.dump()

            return worker_main

        self.wrap(
            "repro.serve.procshard:worker_main", "procshard.worker_main",
            wrapper_factory=traced_worker,
        )

    def install_paper(self) -> None:
        """Wrap the autodiff kernels, the optimizer, the regularizer and RP2."""

        for function in ("conv2d", "depthwise_conv2d", "max_pool2d"):
            self.wrap(f"repro.nn.conv:{function}", f"conv.{function}")
        self.wrap("repro.nn.tensor:Tensor.backward", "tensor.backward")
        self.wrap("repro.nn.optim:Adam.step", "optim.step")
        self.wrap(
            "repro.core.regularizers:FeatureMapRegularizer.scaled_penalty",
            "regularizers.penalty",
        )
        self.wrap("repro.models.training:train_classifier", "training.train_classifier")
        self.wrap("repro.attacks.rp2:RP2Attack.generate", "rp2.generate")


def _record_response(tracer: Tracer, request_id, future) -> None:
    if future.cancelled() or future.exception() is not None:
        tracer.event("server.failed", request_id)
        return
    response = future.result()
    tracer.event(
        "server.response",
        request_id,
        latency_ms=response.latency_ms,
        batch_size=response.batch_size,
        cache_hit=response.cache_hit,
    )


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def load_spans(trace_dir: Path) -> List[dict]:
    spans: List[dict] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle)
    return spans


def by_name(spans: Iterable[dict], name: str, since: float = float("-inf")) -> List[dict]:
    return [span for span in spans if span["name"] == name and span["start"] >= since]


def durations_ms(spans: Iterable[dict]) -> List[float]:
    return [(span["end"] - span["start"]) * 1000.0 for span in spans]


def self_times(spans: List[dict]) -> Dict[str, dict]:
    """Per span name: calls, total ms and self ms (total minus child spans)."""

    children_ms: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span["parent"]:
            children_ms[(span["pid"], span["parent"])] += (span["end"] - span["start"]) * 1000.0
    table: Dict[str, dict] = {}
    for span in spans:
        total = (span["end"] - span["start"]) * 1000.0
        row = table.setdefault(span["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += total
        row["self_ms"] += total - children_ms.get((span["pid"], span["id"]), 0.0)
    return table


_FORWARD_BUCKETS = (("b1", 1, 1), ("b2", 2, 2), ("b3_8", 3, 8), ("b9_16", 9, 16), ("b17_32", 17, 32))


def forward_metrics(spans: List[dict], since: float) -> Dict[str, float]:
    """``inference.forward_ms.<bucket>`` medians and per-variant ms per image."""

    forwards = [s for s in spans if s["name"] == "inference.forward" and s["start"] >= since]
    metrics: Dict[str, float] = {}
    for label, low, high in _FORWARD_BUCKETS:
        picked = [s for s in forwards if low <= s["attrs"]["n"] <= high]
        if picked:
            metrics[f"inference.forward_ms.{label}"] = statistics.median(durations_ms(picked))
    variants: Dict[str, List[dict]] = {}
    for span in forwards:
        variants.setdefault(span["attrs"]["variant"], []).append(span)
    for variant, picked in variants.items():
        images = sum(span["attrs"]["n"] for span in picked)
        metrics[f"inference.forward_ms_per_img.{variant}"] = sum(durations_ms(picked)) / images
    return metrics


def setup_metrics(spans: List[dict], before: float) -> Dict[str, float]:
    """Registry load and engine compile time spent before ``before``.

    A registry load is the first ``registry.get`` of each (registry, model).
    """

    loads, seen = 0.0, set()
    for span in sorted(spans, key=lambda span: span["start"]):
        if span["name"] != "registry.get" or span["start"] >= before:
            continue
        key = (span["pid"], span["attrs"]["registry"], span["attrs"]["model"])
        if key not in seen:
            seen.add(key)
            loads += span["end"] - span["start"]
    compiles = sum(
        span["end"] - span["start"]
        for span in spans
        if span["name"] == "inference.compile" and span["start"] < before
    )
    return {"registry.load_s": loads, "inference.compile_s": compiles}

