"""Run the benchmark over several seeds and print every metric with its spread.

Usage (from the root of a checkout)::

    python3 perfbench/sweep.py --workload serve_procs_flood --seeds 1-10
    python3 perfbench/sweep.py --workload all --seeds 1-5 --trace 1

For each metric it prints the unit, the median and quartiles across runs
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and, for end-to-end metrics, the metric's bound from ``BENCHMARK.json``
and whether the spread is under a third of it.  Per-layer metrics are
printed with the end-to-end metric and workload each should move.  Every
run's result line and report are saved under
``.bench_build/perfbench/sweeps/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from metrics import PER_LAYER, WORKLOADS
from paths import BUILD, HERE, ROOT


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr[-3000:]}"
        )
    return json.loads(lines[-1]), json.loads(lines[-2]), wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    workloads = WORKLOADS if arguments.workload == "all" else (arguments.workload,)
    out_dir = BUILD / "sweeps"
    out_dir.mkdir(parents=True, exist_ok=True)
    steady = True

    for workload in workloads:
        runs = []
        for seed in _seeds(arguments.seeds):
            result, report, wall = run_once(workload, seed, seconds, arguments.trace)
            runs.append({"seed": seed, "wall_s": wall, "result": result, "report": report})
            tail = report.get("tail")
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} wall={wall:.1f}s"
                + (f" tail=p{tail['percentile']} ({tail['beyond']} of {tail['samples']} beyond)"
                   if tail else ""),
                flush=True,
            )
        stamp = time.strftime("%Y%m%d-%H%M%S")
        (out_dir / f"{workload}-trace{arguments.trace}-{stamp}.json").write_text(
            json.dumps(runs, indent=1)
        )
        tail_percentiles = sorted(
            {run["report"]["tail"]["percentile"] for run in runs if run["report"].get("tail")}
        )
        print(f"\n{workload}: {len(runs)} runs of {seconds} s, tail percentiles {tail_percentiles}")
        print(f"{'metric':48} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  note")
        for name, first in runs[0]["result"]["metrics"].items():
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            if name in bounds:
                ok = spread <= bounds[name] / 3
                steady &= ok
                note = f"bound {bounds[name]}: {'steady' if ok else 'NOT STEADY'}"
                if name == "tail_ms" and len(tail_percentiles) > 1:
                    note += f"; MIXED percentiles {tail_percentiles}: values not comparable"
            else:
                note = ", ".join(f"{metric}@{where}" for metric, where in PER_LAYER[name][2])
            print(f"{name:48} {first['unit']:9} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f}  {note}")
        print()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
