"""``serve_http_pipelined``: the HTTP gateway under pipelined keep-alive load.

The server is ``python -m repro.serve --model baseline --http-port 0`` with
the CLI defaults (thread mode, batch size 32, 2 ms straggler wait, LRU
cache), in its own process on its own core.  The load generator is this
process, on another core: 2 keep-alive connections, each sending bursts
of 16 pipelined ``application/x-npy`` POSTs and reading the 16 answers
before the next burst (closed loop).  25% of requests repeat an image
sent earlier on the same connection, bit for bit.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import socket
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

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
from paths import BUILD, HERE, REGISTRY_DIR, child_env, child_setup
from tracing import (
    by_name,
    durations_ms,
    forward_metrics,
    load_spans,
    self_times,
    setup_metrics,
)

MODEL = "baseline"
CONNECTIONS = 2
BURST = 16
REPEAT_FRACTION = 0.25
#: Repeats pick uniformly among the last this-many distinct images of the
#: connection -- well inside the server's 2048-entry LRU cache.
REPEAT_WINDOW = 256
WARMUP_BURSTS = 8
SETUP_REPEATS = 11
_LISTENING = re.compile(rb"on http://[^:\s]+:(\d+)")


class ServerProcess:
    """One ``repro.serve`` HTTP server process, pinned to ``core``."""

    def __init__(self, core: Optional[int], log_dir: Path, trace_dir: Optional[Path] = None):
        argv = [sys.executable, "-u", str(HERE / "serve_launcher.py")]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        argv += ["--", "--model", MODEL, "--registry-dir", str(REGISTRY_DIR), "--http-port", "0"]
        log_dir.mkdir(parents=True, exist_ok=True)
        self.log_path = log_dir / "server.log"
        self._log = open(self.log_path, "ab")
        self.started = now()
        self.process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(),
            preexec_fn=child_setup(core),
        )
        self.pid = self.process.pid
        self.port = self._wait_for_port(timeout=120.0)

    def _wait_for_port(self, timeout: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        seen = b""
        deadline = now() + timeout
        try:
            while now() < deadline:
                if not selector.select(timeout=max(0.0, deadline - now())):
                    continue
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    break
                seen += chunk
                match = _LISTENING.search(seen)
                if match:
                    return int(match.group(1))
        finally:
            selector.close()
        self.stop()
        raise RuntimeError(
            f"HTTP server did not start; stdout {seen!r}, log {self.log_path}"
        )

    def stop(self) -> int:
        """SIGTERM (the launcher drains the CLI and returns), escalating to SIGKILL."""

        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self._log.close()
        return self.process.returncode


class Connection:
    """Raw keep-alive HTTP/1.1 client connection that can pipeline."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def response(self):
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = self.reader.read(length)
        return status, json.loads(body)

    def get_json(self, path: str) -> Dict[str, object]:
        self.send(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))
        status, payload = self.response()
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return payload

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def predict_request(request_id: str, image: np.ndarray) -> bytes:
    from repro.serve.http import npy_bytes

    body = npy_bytes(image)
    head = (
        f"POST /v1/predict?model={MODEL}&request_id={request_id} HTTP/1.1\r\n"
        f"Host: bench\r\nContent-Type: application/x-npy\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


class RequestPlan:
    """The seeded sequence of stream indices one connection sends."""

    def __init__(self, seed: int, connection: int) -> None:
        self.rng = np.random.default_rng([seed, 11, connection])
        self.next_unique = connection
        self.recent: deque = deque(maxlen=REPEAT_WINDOW)

    def next(self) -> int:
        if self.recent and self.rng.random() < REPEAT_FRACTION:
            return self.recent[int(self.rng.integers(len(self.recent)))]
        index = self.next_unique
        self.next_unique += CONNECTIONS
        self.recent.append(index)
        return index


def start_server(
    core: Optional[int],
    run_dir: Path,
    stream: ImageStream,
    oracle: Oracle,
    index: int,
    trace_dir: Optional[Path] = None,
) -> tuple:
    """Launch a server and wait for its first correct answer; returns (server, seconds)."""

    server = ServerProcess(core, run_dir, trace_dir)
    try:
        connection = Connection(server.port)
        try:
            image = stream.image(index)
            connection.send(predict_request("setup", image))
            status, payload = connection.response()
            answered = now()
        finally:
            connection.close()
        reference = oracle.probabilities(MODEL, image[None])
        if status != 200 or not oracle.correct(reference, [payload["class_index"]])[0]:
            raise RuntimeError(f"first response of the server is wrong: {status} {payload}")
    except BaseException:
        server.stop()
        raise
    return server, answered - server.started


def drive(server: ServerProcess, stream: ImageStream, seed: int, seconds: float) -> Dict[str, object]:
    """Warm up, then run the closed loop for ``seconds``; returns raw records."""

    window: Dict[str, float] = {}

    def open_window() -> None:
        window["start"] = now()
        window["stop"] = window["start"] + seconds
        window["cpu_start"] = cpu_seconds(server.pid)

    barrier = threading.Barrier(CONNECTIONS, action=open_window)
    records: List[list] = [[] for _ in range(CONNECTIONS)]
    lost = [0] * CONNECTIONS
    errors: List[str] = []

    def run_connection(index: int) -> None:
        plan = RequestPlan(seed, index)
        connection = Connection(server.port)
        sequence = 0

        def burst(keep: bool) -> bool:
            nonlocal sequence
            indices = [plan.next() for _ in range(BURST)]
            ids = [f"c{index}-{sequence + position}" for position in range(BURST)]
            sequence += BURST
            payload = b"".join(
                predict_request(rid, stream.image(u)) for rid, u in zip(ids, indices)
            )
            received = 0
            sent = now()
            try:
                connection.send(payload)
                for rid, u in zip(ids, indices):
                    status, body = connection.response()
                    received += 1
                    if keep:
                        records[index].append(
                            (u, status, body.get("class_index"),
                             body.get("request_id") == rid, body.get("latency_ms"), sent, now())
                        )
            except (OSError, ValueError) as error:
                errors.append(f"connection {index}: {error!r}")
                if keep:
                    lost[index] += BURST - received
                return False
            return True

        try:
            for _ in range(WARMUP_BURSTS):
                if not burst(keep=False):
                    break
            barrier.wait(timeout=120)
            while now() < window["stop"]:
                if not burst(keep=True):
                    break
        finally:
            connection.close()

    threads = [
        threading.Thread(target=run_connection, args=(index,), name=f"http-load-{index}")
        for index in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 300)
        if thread.is_alive():
            raise RuntimeError("a load connection did not finish")
    cpu_end = cpu_seconds(server.pid)
    if "start" not in window:
        raise RuntimeError(f"load never reached the measured window: {errors}")
    rows = [row for per_connection in records for row in per_connection]
    return {
        "rows": rows,
        "lost": sum(lost),
        "errors": errors,
        "window_start": window["start"],
        "cpu_s": cpu_end - window["cpu_start"],
    }


def measure(server: ServerProcess, stream: ImageStream, seed: int, seconds: float) -> Dict[str, object]:
    """Run the measured window on a started server, read it, then stop it."""

    try:
        probe = Connection(server.port)
        before = probe.get_json("/metrics")["stats"]
        raw = drive(server, stream, seed, seconds)
        after = probe.get_json("/metrics")["stats"]
        probe.close()
        raw["rss_mb"] = peak_rss_mb(server.pid)
        raw["mean_batch"] = counter_ratio(after, before, "batched_images", "batches")
        raw["cache_hit_rate"] = counter_ratio(after, before, "cache_hits", "requests")
        raw["affinity"] = {
            "client": sorted(os.sched_getaffinity(0)),
            "server": sorted(os.sched_getaffinity(server.pid)),
        }
    finally:
        exit_code = server.stop()
    raw["server_exit"] = exit_code
    if exit_code != 0:
        raw["errors"].append(f"server exited with {exit_code}")
    return raw


def score(raw: Dict[str, object], stream: ImageStream, oracle: Oracle) -> Dict[str, object]:
    """Check every answer against the oracle and compute the window's figures."""

    rows = raw["rows"]
    served = [i for i, row in enumerate(rows) if row[1] == 200 and row[3]]
    reference_ok = np.zeros(len(rows), dtype=bool)
    if served and raw["server_exit"] == 0:
        # One reference forward per distinct image; repeats share it.
        unique = sorted({rows[i][0] for i in served})
        position = {u: i for i, u in enumerate(unique)}
        reference = oracle.probabilities(MODEL, stream.images(unique))
        reference_ok[served] = oracle.correct(
            reference[[position[rows[i][0]] for i in served]], [rows[i][2] for i in served]
        )
    correct = int(reference_ok.sum())
    attempted = len(rows) + raw["lost"]
    last = max((row[6] for row in rows), default=raw["window_start"])
    elapsed = last - raw["window_start"]
    latencies = [(row[6] - row[5]) * 1000.0 for row in rows]
    answered = sum(1 for row in rows if row[1] == 200)
    return {
        "attempted": attempted,
        "correct": correct,
        "failed": attempted - correct,
        "elapsed_s": elapsed,
        "img_per_s": correct / elapsed if elapsed > 0 else 0.0,
        "latency": latency_summary(latencies) if latencies else None,
        "cpu_ms_per_img": raw["cpu_s"] * 1000.0 / max(answered, 1),
        "wire_ms": [
            (row[6] - row[5]) * 1000.0 - row[4] for row in rows if row[1] == 200 and row[3]
        ],
    }


def run(seed: int, seconds: float, trace: bool, server_core: Optional[int]) -> tuple:
    stream = ImageStream(seed)
    oracle = Oracle([MODEL])
    run_dir = BUILD / "runs" / f"http-{os.getpid()}"
    setup_index = len(stream) - 1  # far from every index the plans send

    if not trace:
        setups = []
        for repeat in range(SETUP_REPEATS):
            server, elapsed = start_server(
                server_core, run_dir, stream, oracle, setup_index - repeat
            )
            setups.append(elapsed)
            if repeat < SETUP_REPEATS - 1:
                server.stop()
        raw = measure(server, stream, seed, seconds)
        scored = score(raw, stream, oracle)
        details = {
            "setup_s_samples": setups,
            "tail": scored["latency"]["tail"],
            "elapsed_s": scored["elapsed_s"],
            "oracle_near_ties": oracle.near_ties,
            "mean_batch": raw["mean_batch"],
            "cache_hit_rate": raw["cache_hit_rate"],
            "errors": raw["errors"],
            "affinity": raw["affinity"],
        }
        return end_to_end_values(setups, scored, raw["rss_mb"]), scored, details

    # Untraced pass first: its img/s is the base of the tracing overhead.
    server, _ = start_server(server_core, run_dir, stream, oracle, setup_index)
    untraced = score(measure(server, stream, seed, seconds), stream, oracle)
    trace_dir = run_dir / "trace"
    server, _ = start_server(server_core, run_dir, stream, oracle, setup_index, trace_dir)
    raw = measure(server, stream, seed, seconds)
    scored = score(raw, stream, oracle)
    spans = load_spans(trace_dir)
    start = raw["window_start"]
    layers = {
        "http.wire_ms": percentile(scored["wire_ms"], 50),
        "frontend.load_npy_bytes_ms": percentile(
            durations_ms(by_name(spans, "frontend.load_npy_bytes", start)), 50
        ),
        "server.submit_ms": percentile(durations_ms(by_name(spans, "server.submit", start)), 50),
        "batching.queue_wait_ms": percentile(queue_waits_ms(spans, start), 50),
        "batching.mean_batch": raw["mean_batch"],
        "cache.hit_rate": raw["cache_hit_rate"],
        "trace.img_per_s_ratio": scored["img_per_s"] / untraced["img_per_s"],
    }
    layers.update(forward_metrics(spans, start))
    layers.update(setup_metrics(spans, start))
    details = {
        "self_times": self_times(spans),
        "errors": raw["errors"],
        "untraced_img_per_s": untraced["img_per_s"],
        "affinity": raw["affinity"],
    }
    return layers, scored, details


def queue_waits_ms(spans: List[dict], since: float) -> List[float]:
    """Server latency minus the forward time of the batch each miss rode in.

    The batch of a response is the last forward that ended before the
    response's completion event (one batcher thread per server).
    """

    forwards = sorted(
        (span for span in spans if span["name"] == "inference.forward"),
        key=lambda span: span["end"],
    )
    ends = np.array([span["end"] for span in forwards])
    waits = []
    for event in by_name(spans, "server.response", since):
        attrs = event["attrs"]
        if attrs["cache_hit"]:
            continue
        index = int(np.searchsorted(ends, event["start"], side="right")) - 1
        if index < 0:
            continue
        forward = forwards[index]
        waits.append(attrs["latency_ms"] - (forward["end"] - forward["start"]) * 1000.0)
    return waits
