"""Shared pieces of the benchmark.

Paths of the checkout, the untimed model registry, latency statistics,
``/proc`` readers, the host block, the seeded image stream and the argmax
oracle that every serving response is checked against.

Import this module only after the process is pinned: it imports NumPy,
and OpenBLAS sizes its thread pool from the CPU affinity at load time.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
import time
from typing import Dict, Optional, Sequence

import numpy as np

from paths import BUILD, IMAGE_SIZE, REGISTRY_DIR, SERVING_MODELS, SRC, registry_ready

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Training settings of the registry (the serving CLI's defaults).
REGISTRY_TRAIN_SIZE = 400
REGISTRY_EPOCHS = 8

#: Reference and served probabilities come from float32 forwards whose
#: summation order depends on the batch a request rode in; a served class
#: whose reference probability is within this of the maximum is a tie.
TIE_TOLERANCE = 1e-5

#: Thread-count variables the benchmark records and never sets.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ----------------------------------------------------------------------
# Model registry (built once per checkout, before any timed run)
# ----------------------------------------------------------------------
def build_registry() -> None:
    """Train the serving variants into a staging directory, then rename it in place."""

    from repro.data.lisa import make_dataset
    from repro.models.training import TrainingConfig
    from repro.serve import ModelRegistry

    staging = BUILD / f"registry.tmp-{os.getpid()}"
    registry = ModelRegistry(
        staging,
        image_size=IMAGE_SIZE,
        seed=0,
        training_config=TrainingConfig(epochs=REGISTRY_EPOCHS, seed=0),
        dataset_factory=lambda: make_dataset(
            REGISTRY_TRAIN_SIZE, image_size=IMAGE_SIZE, seed=0
        ),
    )
    for name in SERVING_MODELS:
        registry.get(name)
    try:
        os.rename(staging, REGISTRY_DIR)
    except OSError:
        if not registry_ready():
            raise  # not a lost race with a concurrent build


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail(values: Sequence[float]) -> Dict[str, object]:
    """The highest of p90/p99/p99.9 with at least 10 samples beyond it."""

    data = np.asarray(values, dtype=np.float64)
    chosen = None
    for q in (99.9, 99.0, 90.0):
        value = float(np.percentile(data, q))
        beyond = int((data > value).sum())
        chosen = {"value": value, "percentile": q, "beyond": beyond, "samples": int(data.size)}
        if beyond >= 10:
            break
    return chosen


def latency_summary(values_ms: Sequence[float]) -> Dict[str, object]:
    return {"p50_ms": percentile(values_ms, 50), "tail": tail(values_ms)}


def end_to_end_values(
    setups: Sequence[float], scored: Dict[str, object], rss_mb: float
) -> Dict[str, float]:
    """The seven end-to-end metrics of an untraced run."""

    return {
        "setup_s": float(np.median(setups)),
        "success_rate": scored["correct"] / max(scored["attempted"], 1),
        "img_per_s": scored["img_per_s"],
        "p50_ms": scored["latency"]["p50_ms"],
        "tail_ms": scored["latency"]["tail"]["value"],
        "peak_rss_mb": rss_mb,
        "cpu_ms_per_img": scored["cpu_ms_per_img"],
    }


def counter_ratio(after: dict, before: dict, numerator: str, denominator: str) -> float:
    """Ratio of two ``ServerStats`` counters' growth between two readings."""

    count = after[denominator] - before[denominator]
    return (after[numerator] - before[numerator]) / count if count else 0.0


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User+system CPU time of every thread of ``pid`` so far."""

    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of ``pid`` in MB."""

    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Host block
# ----------------------------------------------------------------------
def _blas_threads() -> Optional[int]:
    """OpenBLAS's live thread count, read from the library NumPy loaded."""

    with open("/proc/self/maps") as handle:
        paths = {line.split()[-1] for line in handle if "blas" in line.lower() and "/" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def host_block(affinity: Dict[str, list], load_start: Sequence[float]) -> Dict[str, object]:
    """Facts the run was measured under; ``affinity`` maps process role -> CPUs."""

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads_in_benchmark_process": _blas_threads(),
        },
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Sign renders and noise fields the image stream combines.
STREAM_BASES = 64
STREAM_NOISES = 512


class ImageStream:
    """Seeded stream of distinct images: sign renders plus small noise.

    Image ``u`` is base render ``a`` plus noise field ``b`` for the
    ``u``-th pair of a seeded permutation of all ``(a, b)`` pairs, so the
    first ``STREAM_BASES * STREAM_NOISES`` images are pairwise distinct
    bit for bit and each costs one add and clip to make.
    """

    def __init__(self, seed: int) -> None:
        from repro.data.lisa import make_dataset

        rng = np.random.default_rng([seed, 7])
        self.base = make_dataset(STREAM_BASES, image_size=IMAGE_SIZE, seed=seed).images.astype(
            np.float32
        )
        self.noise = rng.normal(
            0.0, 0.03, size=(STREAM_NOISES, 3, IMAGE_SIZE, IMAGE_SIZE)
        ).astype(np.float32)
        self.pairs = rng.permutation(STREAM_BASES * STREAM_NOISES)

    def __len__(self) -> int:
        return len(self.pairs)

    def image(self, index: int) -> np.ndarray:
        pair = int(self.pairs[index % len(self.pairs)])
        return np.clip(
            self.base[pair // STREAM_NOISES] + self.noise[pair % STREAM_NOISES], 0.0, 1.0
        )

    def images(self, indices: Sequence[int]) -> np.ndarray:
        return np.stack([self.image(index) for index in indices])


class Oracle:
    """Reference argmax per (model, image) from the registry weights.

    Uses ``InferenceEngine.predict_proba`` on the same weights the servers
    load; a served class is correct when it is the reference argmax, or
    within :data:`TIE_TOLERANCE` of it.
    """

    def __init__(self, models: Sequence[str]) -> None:
        from repro.serve import ModelRegistry

        registry = ModelRegistry(REGISTRY_DIR, image_size=IMAGE_SIZE)
        self.engines = {name: registry.engine(name) for name in models}
        self.near_ties = 0

    def probabilities(self, model: str, images: np.ndarray) -> np.ndarray:
        return self.engines[model].predict_proba(images, batch_size=64)

    def correct(self, probabilities: np.ndarray, classes: Sequence[int]) -> np.ndarray:
        """Boolean mask: which served ``classes`` match their reference rows."""

        classes = np.asarray(classes, dtype=np.int64)
        if len(classes) == 0:
            return np.zeros(0, dtype=bool)
        in_range = (classes >= 0) & (classes < probabilities.shape[1])
        exact = probabilities.argmax(axis=1) == classes
        served = probabilities[np.arange(len(classes)), np.where(in_range, classes, 0)]
        tie = in_range & ~exact & (served >= probabilities.max(axis=1) - TIE_TOLERANCE)
        self.near_ties += int(tie.sum())
        return exact | tie


def now() -> float:
    """Monotonic clock shared by every process on the host (CLOCK_MONOTONIC)."""

    return time.perf_counter()


def emit(report: Dict[str, object], result: Dict[str, object]) -> None:
    """Print the run report, then the result object as the last stdout line."""

    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--build-registry"]:
        sys.exit(f"usage: {sys.argv[0]} --build-registry")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_registry()
