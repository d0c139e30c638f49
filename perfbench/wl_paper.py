"""``paper_train_attack``: the paper's train -> RP2 attack -> evaluate loop.

One process on one core.  A cycle trains the ``conv5x5`` variant (the
trainable 5x5 depthwise layer under the paper's L-infinity regularizer)
on the benchmark profile's dataset, runs RP2 toward classes 5 and 9 on
the 8-view stop-sign evaluation set with its sticker masks, and scores
clean accuracy and attack success on the compiled engine.  A run does at
least :data:`MIN_CYCLES` cycles and repeats them until the run's seconds
are spent; every cycle of a run does the same work and must reach the same
counts.

Run as a script (``--first-step SEED``) it is the set-up probe: it makes
the inputs, builds the model, takes one training step and prints the
moment that step finished and how long making the inputs took, so the
parent can time launch-to-first-step less the benchmark's own input
generation.
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
from typing import Dict, List

import numpy as np

from common import (
    cpu_seconds,
    end_to_end_values,
    latency_summary,
    now,
    peak_rss_mb,
    percentile,
)
from paths import BUILD, HERE, IMAGE_SIZE, child_env, child_setup

VARIANT = "conv5x5"
SETUP_REPEATS = 11
#: A cycle takes longer than the run's seconds; the second cycle is what
#: makes the repeated-counts check able to fail.
MIN_CYCLES = 2

# The benchmark profile of the repo's pytest benchmarks (benchmarks/conftest.py).
TARGET_CLASSES = (5, 9)
DATASET_SIZE = 220
TEST_FRACTION = 0.2
EPOCHS = 4
BATCH_SIZE = 32
LEARNING_RATE = 2e-3
EVAL_VIEWS = 8
ATTACK_STEPS = 40
ATTACK_LEARNING_RATE = 0.1
ATTACK_LAMBDA = 0.1
ATTACK_NPS_WEIGHT = 0.02

#: Clean test images correct (of 44) and successful view attacks (of 16)
#: per seed, measured when this benchmark was defined.  A cycle fails when
#: its clean accuracy or attack success, as a fraction, is further than the
#: tolerance from its seed's reference; a seed outside the table is held to
#: the table's range widened by the tolerance.
REFERENCE_COUNTS = {
    1: (20, 0), 2: (19, 0), 3: (24, 0), 4: (19, 0), 5: (20, 0),
    6: (18, 11), 7: (19, 1), 8: (29, 5), 9: (23, 0), 10: (30, 1),
}
CLEAN_ACC_TOLERANCE = 0.15
ATTACK_SUCCESS_TOLERANCE = 0.25


def quality_bounds(seed: int, test_size: int, attacked: int) -> dict:
    """Accepted [low, high] clean accuracy and attack success fractions for ``seed``."""

    rows = [REFERENCE_COUNTS[seed]] if seed in REFERENCE_COUNTS else list(REFERENCE_COUNTS.values())
    clean = [correct / test_size for correct, _ in rows]
    attack = [success / attacked for _, success in rows]
    return {
        "clean_acc": (min(clean) - CLEAN_ACC_TOLERANCE, max(clean) + CLEAN_ACC_TOLERANCE),
        "attack_success": (
            min(attack) - ATTACK_SUCCESS_TOLERANCE, max(attack) + ATTACK_SUCCESS_TOLERANCE,
        ),
    }

def make_inputs(seed: int) -> Dict[str, object]:
    from repro.data.evaluation import make_stop_sign_eval_set, sticker_mask
    from repro.data.lisa import make_dataset, train_test_split

    dataset = make_dataset(DATASET_SIZE, image_size=IMAGE_SIZE, seed=seed)
    train, test = train_test_split(dataset, TEST_FRACTION, seed=seed)
    views = make_stop_sign_eval_set(num_views=EVAL_VIEWS, image_size=IMAGE_SIZE, seed=seed + 1234)
    masks = np.stack([sticker_mask(mask) for mask in views.masks])
    return {"train": train, "test": test, "views": views, "masks": masks}


def build(seed: int):
    from repro.core.blurnet import DefendedClassifier
    from repro.models.factory import resolve_variant

    return DefendedClassifier.build(resolve_variant(VARIANT), seed=seed, image_size=IMAGE_SIZE)


def training_config(seed: int, epochs: int = EPOCHS):
    from repro.models.training import TrainingConfig

    return TrainingConfig(
        epochs=epochs, batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE, seed=seed
    )


def cycle(inputs: Dict[str, object], seed: int) -> Dict[str, object]:
    """Train, attack and evaluate once; returns step times, counts and check results."""

    from repro.attacks.rp2 import RP2Attack, RP2Config
    from repro.models import training

    classifier = build(seed)
    train_marks: List[float] = []

    def mark_step(images, labels, rng):
        train_marks.append(now())
        return images

    history = training.train_classifier(
        classifier.model,
        inputs["train"],
        training_config(seed),
        regularizer=classifier.regularizer,
        batch_hook=mark_step,
    )
    train_marks.append(now())

    # The identity transform is called once per RP2 step and once after
    # the last, so consecutive calls of one attack bound each step.
    attack_marks: List[List[float]] = []

    def mark_attack(masked):
        attack_marks[-1].append(now())
        return masked

    views, masks = inputs["views"], inputs["masks"]
    results = []
    for target in TARGET_CLASSES:
        attack_marks.append([])
        attack = RP2Attack(
            classifier.model,
            RP2Config(
                steps=ATTACK_STEPS,
                learning_rate=ATTACK_LEARNING_RATE,
                lambda_reg=ATTACK_LAMBDA,
                nps_weight=ATTACK_NPS_WEIGHT,
                seed=seed,
            ),
            perturbation_transform=mark_attack,
        )
        results.append(attack.generate(views.images, masks, target))

    evaluated = now()
    test = inputs["test"]
    clean_correct = int((classifier.predict(test.images) == test.labels).sum())
    attack_success = sum(
        int((classifier.predict(result.adversarial_images) == target).sum())
        for target, result in zip(TARGET_CLASSES, results)
    )
    eval_s = now() - evaluated

    outside = ~masks[:, None, :, :].repeat(3, axis=1)
    attacked = len(views) * len(TARGET_CLASSES)
    bounds = quality_bounds(seed, len(test), attacked)
    checks = {
        "loss_finite": all(
            map(math.isfinite, history.losses + [v for r in results for v in r.loss_history])
        ),
        "perturbation_in_mask": all(
            np.all((r.adversarial_images - r.clean_images)[outside] == 0.0) for r in results
        ),
        "perturbation_nonzero_in_mask": all(
            np.any((r.adversarial_images - r.clean_images)[~outside] != 0.0) for r in results
        ),
        "rp2_loss_decreased": all(r.loss_history[-1] < r.loss_history[0] for r in results),
        "images_in_range": all(
            r.adversarial_images.min() >= 0.0 and r.adversarial_images.max() <= 1.0
            for r in results
        ),
        "clean_acc_in_tolerance": _within(clean_correct / len(test), bounds["clean_acc"]),
        "attack_success_in_tolerance": _within(attack_success / attacked, bounds["attack_success"]),
    }
    return {
        "train_steps_ms": list(np.diff(train_marks) * 1000.0),
        "attack_steps_ms": [ms for marks in attack_marks for ms in np.diff(marks) * 1000.0],
        "image_passes": len(inputs["train"]) * EPOCHS + ATTACK_STEPS * attacked,
        "clean_correct": clean_correct,
        "attack_success": attack_success,
        "eval_ms_per_img": eval_s * 1000.0 / (len(test) + attacked),
        "checks": checks,
    }


def _within(value: float, bounds: tuple) -> bool:
    return bounds[0] <= value <= bounds[1]


def loop(inputs: Dict[str, object], seed: int, seconds: float) -> Dict[str, object]:
    """Run at least :data:`MIN_CYCLES` cycles, then more until ``seconds`` have passed."""

    cycles = []
    cpu_start = cpu_seconds(os.getpid())
    started = now()
    while True:
        # A cycle leaves garbage in reference cycles that only the cyclic
        # collector frees; without this collection two cycles peaked at
        # 3.6 GB resident against 2.25 GB with it.  Collecting makes every
        # cycle start like a fresh paper run, so peak memory does not grow
        # with the number of cycles.
        gc.collect()
        cycles.append(cycle(inputs, seed))
        if len(cycles) >= MIN_CYCLES and now() - started >= seconds:
            break
    elapsed = now() - started
    steps = [ms for c in cycles for ms in c["train_steps_ms"] + c["attack_steps_ms"]]
    passes = sum(c["image_passes"] for c in cycles)
    first = cycles[0]
    repeatable = all(
        (c["clean_correct"], c["attack_success"]) == (first["clean_correct"], first["attack_success"])
        for c in cycles
    )
    correct = sum(all(c["checks"].values()) and repeatable for c in cycles)
    return {
        "cycles": cycles,
        "attempted": len(cycles),
        "correct": correct,
        "failed": len(cycles) - correct,
        "elapsed_s": elapsed,
        "img_per_s": passes / elapsed,
        "latency": latency_summary(steps),
        "cpu_ms_per_img": (cpu_seconds(os.getpid()) - cpu_start) * 1000.0 / passes,
        "repeatable": repeatable,
    }


def one_step(inputs: Dict[str, object], seed: int) -> float:
    """Build the model and take one training step on one batch; returns its loss."""

    from repro.models.training import train_classifier

    classifier = build(seed)
    history = train_classifier(
        classifier.model,
        inputs["train"][np.arange(BATCH_SIZE)],
        training_config(seed, epochs=1),
        regularizer=classifier.regularizer,
    )
    return history.losses[0]


def first_step_probe(seed: int) -> Dict[str, float]:
    """Set-up cost a user pays: launch, imports, model, one training step.

    Making the seeded inputs is timed separately so the parent can leave
    it out: it is the benchmark's input, not the program's set-up.  The
    data modules are imported first, since imports are set-up the program
    pays.
    """

    import repro.data.evaluation  # noqa: F401
    import repro.data.lisa  # noqa: F401

    started = now()
    inputs = make_inputs(seed)
    inputs_s = now() - started
    if not math.isfinite(one_step(inputs, seed)):
        raise RuntimeError("first training step produced a non-finite loss")
    return {"first_step_done": now(), "inputs_s": inputs_s}


def timed_setups(seed: int) -> List[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        launched = now()
        output = subprocess.run(
            [sys.executable, str(HERE / "wl_paper.py"), "--first-step", str(seed)],
            env=child_env(),
            preexec_fn=child_setup(),
            check=True,
            capture_output=True,
            text=True,
            timeout=170,
        ).stdout
        probe = json.loads(output.strip().splitlines()[-1])
        samples.append(probe["first_step_done"] - launched - probe["inputs_s"])
    return samples


def run(seed: int, seconds: float, trace: bool) -> tuple:
    affinity = {"trainer": sorted(os.sched_getaffinity(0))}
    if not trace:
        setups = timed_setups(seed)
        inputs = make_inputs(seed)
        one_step(inputs, seed)  # first-use allocations fall outside the window
        scored = loop(inputs, seed, seconds)
        values = end_to_end_values(setups, scored, peak_rss_mb(os.getpid()))
        return values, scored, _details(scored, affinity, setup_s_samples=setups)

    from tracing import Tracer, by_name, durations_ms, load_spans, self_times

    inputs = make_inputs(seed)
    one_step(inputs, seed)
    untraced = loop(inputs, seed, seconds)
    trace_dir = BUILD / "runs" / f"paper-{os.getpid()}" / "trace"
    tracer = Tracer(trace_dir)
    tracer.install_paper()
    scored = loop(inputs, seed, seconds)
    tracer.dump()
    spans = load_spans(trace_dir)
    cycles = scored["cycles"]
    layers = {
        "training.step_ms": percentile([ms for c in cycles for ms in c["train_steps_ms"]], 50),
        "rp2.step_ms": percentile([ms for c in cycles for ms in c["attack_steps_ms"]], 50),
        "inference.eval_ms_per_img": percentile([c["eval_ms_per_img"] for c in cycles], 50),
        "quality.clean_acc": cycles[0]["clean_correct"],
        "quality.attack_success": cycles[0]["attack_success"],
        "trace.img_per_s_ratio": scored["img_per_s"] / untraced["img_per_s"],
    }
    for name, span in (
        ("tensor.backward_ms", "tensor.backward"),
        ("optim.step_ms", "optim.step"),
        ("regularizers.penalty_ms", "regularizers.penalty"),
        ("conv.conv2d_ms", "conv.conv2d"),
        ("conv.depthwise_conv2d_ms", "conv.depthwise_conv2d"),
        ("conv.max_pool2d_ms", "conv.max_pool2d"),
    ):
        layers[name] = percentile(durations_ms(by_name(spans, span)), 50)
    details = _details(
        scored, affinity, self_times=self_times(spans), untraced_img_per_s=untraced["img_per_s"]
    )
    return layers, scored, details


def _details(scored: Dict[str, object], affinity: Dict[str, list], **extra) -> Dict[str, object]:
    cycles = scored["cycles"]
    return {
        "tail": scored["latency"]["tail"],
        "elapsed_s": scored["elapsed_s"],
        "cycles": len(cycles),
        "steps": len(cycles[0]["train_steps_ms"]) + len(cycles[0]["attack_steps_ms"]),
        "clean_correct": [c["clean_correct"] for c in cycles],
        "test_size": round(DATASET_SIZE * TEST_FRACTION),
        "attack_success": [c["attack_success"] for c in cycles],
        "attacked_views": EVAL_VIEWS * len(TARGET_CLASSES),
        "checks": [c["checks"] for c in cycles],
        "repeatable": scored["repeatable"],
        "affinity": affinity,
        **extra,
    }


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--first-step":
        sys.exit(f"usage: {sys.argv[0]} --first-step SEED")
    print(json.dumps(first_step_probe(int(sys.argv[2]))))
