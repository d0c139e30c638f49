"""Checkout layout the benchmark relies on (standard library only).

``run.py`` reads this before it pins its CPU affinity, so nothing here may
import NumPy.  Everything the benchmark writes goes under ``.bench_build/``
at the root of the checkout.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
REGISTRY_DIR = BUILD / "registry"

#: The variants the serving workloads load.  ``baseline`` has no blur;
#: the other two carry the paper's feature-map and input blurs.
SERVING_MODELS = ("baseline", "feature_filter_3x3", "input_filter_5x5")
IMAGE_SIZE = 32


def program_present() -> bool:
    return (SRC / "repro" / "serve" / "__main__.py").is_file()


def registry_ready() -> bool:
    return all((REGISTRY_DIR / name / "weights.npz").exists() for name in SERVING_MODELS)


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: the parent's plus ``src`` on the path."""

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def child_setup(core: Optional[int] = None, idle_class: bool = False) -> Callable[[], None]:
    """``preexec_fn`` for benchmark children: die with the parent, optionally pin.

    ``idle_class`` puts the child in ``SCHED_IDLE``: it only runs when no
    other task on its core wants to.
    """

    def setup() -> None:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if core is not None:
            os.sched_setaffinity(0, {core})
        if idle_class:
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))

    return setup


def keep_awake() -> List[subprocess.Popen]:
    """One ``SCHED_IDLE`` busy loop per allowed CPU, so no CPU ever halts.

    On a virtual machine a halted vCPU pays the hypervisor's scheduling
    latency at every wake-up; the serving workloads sleep and wake
    thousands of times a second, and that latency, which depends on the
    neighbours' load, showed up as 10-27% steal per core and a 380-490
    img/s spread between identical HTTP runs.  A ``SCHED_IDLE`` task
    yields to any other task at once, so the workload keeps its CPUs.
    """

    return [
        subprocess.Popen(
            [sys.executable, "-c", "while True: pass"],
            preexec_fn=child_setup(core, idle_class=True),
        )
        for core in sorted(os.sched_getaffinity(0))
    ]


def stop_all(processes: List[subprocess.Popen]) -> None:
    for process in processes:
        if process.poll() is None:
            process.kill()
    for process in processes:
        process.wait(timeout=30)
