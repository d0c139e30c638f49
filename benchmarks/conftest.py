"""Shared fixtures and the benchmark-artifact harness.

Each benchmark regenerates one table or figure of the paper, or measures
one serving/engine hot path.  The heavy state (trained defense variants)
is shared across benchmarks through the process-wide experiment-context
cache, so a full ``pytest benchmarks/ --benchmark-only`` session trains
every model exactly once.

The benchmarks use a dedicated ``bench`` profile -- smaller than the ``fast``
profile used by ``python -m repro.experiments.runner`` -- so the whole
harness completes on a single CPU core in minutes.  The regenerated numbers
are printed below each benchmark; EXPERIMENTS.md records the fast-profile
numbers alongside the paper's.

Artifact harness
----------------
Every benchmark's numbers land in ``results/`` in one uniform schema:

* :func:`write_bench_artifact` writes ``results/BENCH_<name>.json`` with a
  fixed envelope (``benchmark`` id, ``schema_version``, ``host`` block
  recording the CPU budget the numbers were measured under) around the
  benchmark-specific ``rows``/metrics;
* every :func:`run_once` call records its wall time, and the session ends
  by writing ``results/BENCH_timings.json`` -- the whole suite's duration
  trajectory in the same schema.

Ratio gates time their loops **hermetically**: :func:`run_hermetic` runs
the benchmark file itself as a script in a fresh interpreter (each such
file prints its JSON report under ``if __name__ == "__main__"``), so no
allocator, cache or interpreter state of the long pytest session leaks
into the measured ratio.

``tools/bench_compare.py`` diffs these artifacts against a previous
checkout (or any directory of artifacts) so the perf trajectory of the
repo is tracked commit over commit.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.experiments.config import ExperimentProfile  # noqa: E402
from repro.experiments.context import get_context  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"

#: Wall time of every run_once-measured benchmark, keyed by test name;
#: flushed to ``results/BENCH_timings.json`` at session end.
_TIMINGS: Dict[str, float] = {}


def bench_profile() -> ExperimentProfile:
    """The reduced experiment profile used by the benchmark harness."""

    return ExperimentProfile(
        name="bench",
        dataset_size=220,
        epochs=4,
        eval_views=8,
        attack_steps=40,
        attack_learning_rate=0.1,
        target_classes=(5, 9),
        smoothing_samples=8,
        include_smoothing_baselines=True,
        dct_sweep=(4, 8, 16),
        seed=0,
    )


@pytest.fixture(scope="session")
def context():
    """Session-wide experiment context (datasets plus trained-model cache)."""

    return get_context(bench_profile())


def host_info() -> Dict[str, object]:
    """CPU/interpreter facts the artifact numbers were measured under."""

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def write_bench_artifact(name: str, payload: Dict[str, object]) -> Path:
    """Write ``results/BENCH_<name>.json`` in the uniform benchmark schema.

    ``payload`` carries the benchmark-specific metrics/rows; the uniform
    envelope (``benchmark``, ``schema_version``, ``host``) is added here so
    every artifact is diffable by ``tools/bench_compare.py``.  Returns the
    artifact path.
    """

    artifact: Dict[str, object] = {
        "benchmark": name,
        "schema_version": 1,
        "host": host_info(),
    }
    artifact.update(payload)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    return path


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments are far too expensive for pytest-benchmark's default
    auto-calibrated repetition, so every benchmark uses a single round.
    The wall time is also recorded for ``results/BENCH_timings.json``.
    """

    started = time.perf_counter()
    result = benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
    name = getattr(benchmark, "name", None) or getattr(function, "__name__", "benchmark")
    _TIMINGS[name] = time.perf_counter() - started
    return result


def run_hermetic(script: str, timeout: float = 600.0) -> Dict[str, object]:
    """Run benchmark file ``script`` in a fresh interpreter; parse its JSON report.

    The script must print exactly one JSON object on stdout when run as
    ``python <script>``.  Raises ``RuntimeError`` with the captured output
    when it exits non-zero.
    """

    path = Path(script).resolve()
    completed = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, timeout=timeout
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"hermetic run of {path.name} failed (exit {completed.returncode}):\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(completed.stdout)


def pytest_sessionfinish(session, exitstatus):
    """Flush the suite's per-benchmark wall times as one uniform artifact."""

    if not _TIMINGS:
        return
    rows = [
        {"benchmark": name, "seconds": round(seconds, 4)}
        for name, seconds in sorted(_TIMINGS.items())
    ]
    write_bench_artifact(
        "timings",
        {"rows": rows, "total_seconds": round(sum(_TIMINGS.values()), 4)},
    )
