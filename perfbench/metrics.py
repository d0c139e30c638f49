"""The benchmark's metric catalogue: end-to-end metrics and per-layer metrics.

Every workload reports the same end-to-end metrics (untraced runs).  The
traced run reports the per-layer metrics; each one names the end-to-end
metric(s) it should move and on which workload, so a change that claims a
layer gain can be checked against the end-to-end number it predicts.
"""

from __future__ import annotations

WORKLOADS = ("serve_http_pipelined", "serve_procs_flood", "paper_train_attack")

HTTP, PROCS, PAPER = WORKLOADS

#: name -> unit, in the order the result line prints them.
END_TO_END = {
    "setup_s": "s",
    "success_rate": "fraction",
    "img_per_s": "img/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
    "cpu_ms_per_img": "ms",
}

#: name -> (unit, better, [(end-to-end metric, workload), ...]).
PER_LAYER = {
    "http.wire_ms": ("ms", "lower", [("p50_ms", HTTP), ("tail_ms", HTTP)]),
    "frontend.load_npy_bytes_ms": ("ms", "lower", [("p50_ms", HTTP)]),
    "server.submit_ms": ("ms", "lower", [("p50_ms", HTTP), ("cpu_ms_per_img", HTTP)]),
    "batching.queue_wait_ms": ("ms", "lower", [("p50_ms", HTTP), ("img_per_s", HTTP)]),
    "batching.mean_batch": ("img", "higher", [("img_per_s", HTTP)]),
    "cache.hit_rate": ("fraction", "higher", [("cpu_ms_per_img", HTTP)]),
    "inference.forward_ms.b1": ("ms", "lower", [("img_per_s", PROCS), ("cpu_ms_per_img", HTTP)]),
    "inference.forward_ms.b2": ("ms", "lower", [("img_per_s", PROCS), ("cpu_ms_per_img", HTTP)]),
    "inference.forward_ms.b3_8": ("ms", "lower", [("img_per_s", PROCS), ("cpu_ms_per_img", HTTP)]),
    "inference.forward_ms.b9_16": ("ms", "lower", [("img_per_s", PROCS), ("cpu_ms_per_img", HTTP)]),
    "inference.forward_ms.b17_32": ("ms", "lower", [("img_per_s", PROCS), ("cpu_ms_per_img", HTTP)]),
    "inference.forward_ms_per_img.baseline": (
        "ms", "lower", [("img_per_s", PROCS), ("cpu_ms_per_img", HTTP)],
    ),
    "inference.forward_ms_per_img.feature_filter_3x3": ("ms", "lower", [("img_per_s", PROCS)]),
    "inference.forward_ms_per_img.input_filter_5x5": ("ms", "lower", [("img_per_s", PROCS)]),
    "shard.submit_ms": ("ms", "lower", [("p50_ms", PROCS)]),
    "procshard.batch_rtt_ms": ("ms", "lower", [("p50_ms", PROCS)]),
    "procshard.ipc_ms": ("ms", "lower", [("img_per_s", PROCS)]),
    "procshard.mean_batch": ("img", "higher", [("img_per_s", PROCS)]),
    "registry.load_s": ("s", "lower", [("setup_s", HTTP), ("setup_s", PROCS)]),
    "inference.compile_s": ("s", "lower", [("setup_s", HTTP), ("setup_s", PROCS)]),
    "procshard.worker_ready_s": ("s", "lower", [("setup_s", PROCS)]),
    "training.step_ms": ("ms", "lower", [("img_per_s", PAPER), ("p50_ms", PAPER)]),
    "tensor.backward_ms": ("ms", "lower", [("img_per_s", PAPER), ("p50_ms", PAPER)]),
    "optim.step_ms": ("ms", "lower", [("img_per_s", PAPER), ("p50_ms", PAPER)]),
    "regularizers.penalty_ms": ("ms", "lower", [("img_per_s", PAPER), ("p50_ms", PAPER)]),
    "conv.conv2d_ms": ("ms", "lower", [("img_per_s", PAPER)]),
    "conv.depthwise_conv2d_ms": ("ms", "lower", [("img_per_s", PAPER)]),
    "conv.max_pool2d_ms": ("ms", "lower", [("img_per_s", PAPER)]),
    "rp2.step_ms": ("ms", "lower", [("p50_ms", PAPER), ("img_per_s", PAPER)]),
    # Predicted to stay put: the engine evaluation is <1% of the paper loop.
    "inference.eval_ms_per_img": ("ms", "lower", [("img_per_s", PAPER)]),
    # Counts that must repeat exactly for a given seed, not speeds.
    "quality.clean_acc": ("count", "higher", [("success_rate", PAPER)]),
    "quality.attack_success": ("count", "lower", [("success_rate", PAPER)]),
    # Traced img/s over untraced img/s of the same run: the tracing cost.
    "trace.img_per_s_ratio": ("ratio", "higher", []),
}


def end_to_end_block(values: dict) -> dict:
    """The ``metrics`` object of an untraced result line."""

    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_block(values: dict) -> dict:
    """The ``metrics`` object of a traced result line.

    Layers a workload does not run read 0; :func:`not_exercised` names them.
    """

    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, (unit, _better, _moves) in PER_LAYER.items()
    }


def not_exercised(values: dict) -> list:
    """Per-layer metrics the traced workload did not measure."""

    return [name for name in PER_LAYER if name not in values]
