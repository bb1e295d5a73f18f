"""Repeat ``run.py`` over seeds and summarize run-to-run spread.

For each workload, runs ``run.py --trace 0`` once per seed (1, 2, ...),
then reports each end-to-end metric's median and its spread: the
distance between the first and third quartiles
(``statistics.quantiles(n=4)``) as a share of the median, next to the
metric's bound in ``BENCHMARK.json``. With
``--out`` it also makes one traced run per workload and writes the lot
(medians, quartiles, per-layer metrics, provenance, host) as a baseline
file, replacing only the workloads measured. Run from the repository
root::

    python3 perfbench/baseline.py --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Runs per workload, one seed each.
RUNS = 10


def run(workload: str, seed: int, trace: int) -> List[str]:
    command = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return done.stdout.strip().splitlines()


def spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary: Dict[str, Any] = {}
    for workload in args.workloads.split(","):
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        started = time.monotonic()
        for seed in range(1, RUNS + 1):
            result = json.loads(run(workload, seed, 0)[-1])
            assert result["correct"], result
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        elapsed = (time.monotonic() - started) / RUNS
        summary[workload] = {
            "recorded": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
            "end_to_end": {},
            "seconds_per_run": elapsed,
        }
        for name, series in values.items():
            stats = spread(series)
            summary[workload]["end_to_end"][name] = {**stats, "values": series}
            print(f"{workload:13s} {name:12s} median {stats['median']:10.5g}  "
                  f"spread {stats['spread']:.4f}  bound/3 {bounds[name] / 3:.4f}"
                  f"{'' if stats['spread'] < bounds[name] / 3 else '  WIDE'}  "
                  f"[{' '.join(f'{v:.4g}' for v in series)}]", flush=True)
        print(f"{workload:13s} {elapsed:.1f} s per run", flush=True)
        if args.out is not None:
            lines = run(workload, 0, 1)
            summary[workload]["per_layer"] = json.loads(lines[-1])["metrics"]
            summary[workload]["host_lines"] = [line for line in lines if line.startswith("[")]
    if args.out is not None:
        # Workloads not measured this time keep their earlier entries.
        earlier = json.loads(args.out.read_text())["workloads"] if args.out.exists() else {}
        args.out.write_text(json.dumps({
            "recorded": time.strftime("%Y-%m-%d"),
            "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                     "python": platform.python_version(), "system": platform.system()},
            "runs_per_workload": RUNS,
            "run_seconds": SPEC["run_seconds"],
            "workloads": {**earlier, **summary},
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
