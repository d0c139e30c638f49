"""Compiled-engine speedup on the Table I black-box evaluation loop.

The black-box transfer experiment is dominated by gradient-free forward
passes: for every Table I variant it predicts the clean evaluation views
and the transferred adversarial views and compares arg-maxes
(:func:`repro.attacks.transfer.evaluate_transfer`).  Historically that
loop ran the float64 autodiff forward; this PR routes it through the
per-model cached :class:`~repro.nn.inference.InferenceEngine`
(NHWC float32 pipeline with a contiguous-run im2col gather, reusable
workspaces, fused conv+bias+ReLU).

This benchmark replays exactly that evaluation loop -- all five Table I
variants, clean plus adversarial stacks -- through both paths and asserts
the acceptance criterion of the PR: the compiled path must sustain at
least **3x** the autodiff path, with arg-max-identical decisions.  Rows
land in ``results/BENCH_engine_eval.json``.

Training does not change the cost of a forward pass, so the models use
fresh random weights (same shortcut as the serving benchmarks) and the
"adversarial" stack is a perturbed copy of the clean pool -- the
arithmetic under test is identical to the trained/attacked case.

Measurement is **hermetic** (pyperf-style): the timed loop runs in a
fresh interpreter subprocess so the ratio is not skewed by allocator and
cache state accumulated over a long pytest session.  Run
``python benchmarks/test_engine_eval.py`` directly to reproduce the raw
JSON by hand.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

TABLE1_MODELS = (
    "baseline",
    "input_filter_3x3",
    "input_filter_5x5",
    "feature_filter_3x3",
    "feature_filter_5x5",
)
EVAL_IMAGES = 64
IMAGE_SIZE = 32
SPEEDUP_FLOOR = 3.0  # acceptance criterion of the compiled fast path


def _evaluation_loop(models, stacks, exact: bool):
    """The Table I scoring loop: clean + adversarial predictions per model."""

    from repro.models.training import predict_classes

    return {
        name: [predict_classes(model, stack, exact=exact) for stack in stacks]
        for name, model in models.items()
    }


def run_eval() -> Dict[str, object]:
    """Time the evaluation loop on both paths; returns a JSON-ready report."""

    import numpy as np

    from repro.models.factory import build_variant, resolve_variant
    from repro.nn.inference import cached_engine
    from repro.serve import synthetic_image_pool

    classifiers = {
        name: build_variant(resolve_variant(name), seed=0, image_size=IMAGE_SIZE)
        for name in TABLE1_MODELS
    }
    models = {name: classifier.model for name, classifier in classifiers.items()}
    clean = synthetic_image_pool(EVAL_IMAGES, image_size=IMAGE_SIZE, seed=11)
    rng = np.random.default_rng(12)
    adversarial = np.clip(clean + rng.normal(0.0, 0.05, size=clean.shape), 0.0, 1.0)
    stacks = [clean, adversarial]

    # Warm both paths (engine compilation and workspace allocation happen
    # once, outside the timing).
    for model in models.values():
        cached_engine(model).predict(clean[:32])
    _evaluation_loop(models, stacks, exact=False)

    started = time.perf_counter()
    exact_predictions = _evaluation_loop(models, stacks, exact=True)
    exact_seconds = time.perf_counter() - started

    started = time.perf_counter()
    fast_predictions = _evaluation_loop(models, stacks, exact=False)
    fast_seconds = time.perf_counter() - started

    decisions_identical = all(
        bool(np.array_equal(exact_stack, fast_stack))
        for name in models
        for exact_stack, fast_stack in zip(exact_predictions[name], fast_predictions[name])
    )
    forwards = len(models) * sum(len(stack) for stack in stacks)
    return {
        "total_forward_images": forwards,
        "exact_seconds": round(exact_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "speedup": round(exact_seconds / max(fast_seconds, 1e-9), 3),
        "decisions_identical": decisions_identical,
    }


def test_engine_speedup_on_blackbox_eval_loop(benchmark):
    from conftest import run_hermetic, run_once, write_bench_artifact

    report = run_once(benchmark, run_hermetic, __file__)
    forwards = report["total_forward_images"]
    speedup = report["speedup"]

    rows = [
        {
            "path": "autodiff_float64",
            "seconds": report["exact_seconds"],
            "images_per_second": round(forwards / report["exact_seconds"], 1),
        },
        {
            "path": "compiled_engine_float32",
            "seconds": report["fast_seconds"],
            "images_per_second": round(forwards / report["fast_seconds"], 1),
        },
    ]
    path = write_bench_artifact(
        "engine_eval",
        {
            "scenario": "table1 black-box evaluation loop (clean + adversarial, "
            "5 variants; hermetic subprocess measurement)",
            "models": list(TABLE1_MODELS),
            "eval_images": EVAL_IMAGES,
            "total_forward_images": forwards,
            "speedup_engine_vs_autodiff": speedup,
            "rows": rows,
        },
    )

    print(f"\nautodiff: {forwards / report['exact_seconds']:.0f} img/s")
    print(f"compiled engine: {forwards / report['fast_seconds']:.0f} img/s ({speedup:.2f}x)")
    print(f"artifact: {path}")

    # The fast path must not change any decision on this data...
    assert report["decisions_identical"], (
        "compiled-engine predictions diverged from the autodiff forward on "
        "the evaluation stacks"
    )
    # ...and must clear the PR's speedup floor.
    assert speedup >= SPEEDUP_FLOOR, (
        f"compiled engine sustained only {speedup:.2f}x the autodiff evaluation loop "
        f"(need >= {SPEEDUP_FLOOR}x)"
    )


if __name__ == "__main__":
    print(json.dumps(run_eval()))
