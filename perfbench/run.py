"""Benchmark entry point: one run of one workload, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_http_pipelined --seed 1 --seconds 10 --trace 0

Workloads: ``serve_http_pipelined``, ``serve_procs_flood`` and
``paper_train_attack`` (see ``perfbench/README.md``).  The first run in a
checkout trains the serving variants into ``.bench_build/perfbench``;
that build is never timed.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The line before it is the run report (host block, tail percentile
and sample count, setup samples, oracle ties, self times).  Exits non-zero
without a result line when the program under ``src/`` is missing or a run
fails.

CPU placement is decided here, before NumPy is imported, because
OpenBLAS sizes its thread pool from the affinity it starts under.  No
BLAS or OpenMP thread variable is set anywhere.  While a workload runs,
every allowed CPU also runs a ``SCHED_IDLE`` busy loop (see
``paths.keep_awake``), stopped before the run exits.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import traceback

from metrics import WORKLOADS, end_to_end_block, not_exercised, per_layer_block
from paths import HERE, child_env, child_setup, keep_awake, program_present, registry_ready, stop_all


def _placement(workload: str) -> dict:
    """Cores for each role; an empty dict leaves everything unpinned."""

    cores = sorted(os.sched_getaffinity(0))
    if workload == "serve_http_pipelined" and len(cores) >= 2:
        return {"client": cores[0], "server": cores[1]}
    if workload == "paper_train_attack":
        return {"trainer": cores[-1]}
    return {}


def main() -> int:
    parser = argparse.ArgumentParser(description="BlurNet serving and paper-loop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()

    if not program_present():
        print("error: no program under src/repro in this checkout", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    if not registry_ready():
        subprocess.run(
            [sys.executable, str(HERE / "common.py"), "--build-registry"],
            env=child_env(),
            preexec_fn=child_setup(),
            check=True,
            timeout=850,
            stdout=subprocess.DEVNULL,
        )

    placement = _placement(arguments.workload)
    spinners = keep_awake()
    try:
        own_core = placement.get("client", placement.get("trainer"))
        if own_core is not None:
            os.sched_setaffinity(0, {own_core})
        return _run(arguments, placement, load_start)
    finally:
        stop_all(spinners)


def _run(arguments: argparse.Namespace, placement: dict, load_start: tuple) -> int:
    from common import emit, host_block  # NumPy loads here, after pinning

    trace = bool(arguments.trace)
    if arguments.workload == "serve_http_pipelined":
        import wl_http

        values, scored, details = wl_http.run(
            arguments.seed, arguments.seconds, trace, placement.get("server")
        )
    elif arguments.workload == "serve_procs_flood":
        import wl_procs

        values, scored, details = wl_procs.run(arguments.seed, arguments.seconds, trace)
    else:
        import wl_paper

        values, scored, details = wl_paper.run(arguments.seed, arguments.seconds, trace)

    report = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": trace,
        "host": host_block(details.pop("affinity"), load_start),
        **details,
    }
    if trace:
        report["not_exercised"] = not_exercised(values)
        metrics = per_layer_block(values)
    else:
        metrics = end_to_end_block(values)
    result = {
        "correct": scored["failed"] == 0,
        "attempted": int(scored["attempted"]),
        "failed": int(scored["failed"]),
        "metrics": metrics,
    }
    emit(report, result)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
