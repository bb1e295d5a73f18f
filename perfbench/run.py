"""The repo benchmark: one workload, measured end to end or traced by layer.

Run from the repository root::

    python3 perfbench/run.py --workload quick-warm --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Workloads (``workloads.py``): ``quick-warm``, ``trace-full`` and
``fleet-policy``; ``all`` runs the three in turn. One run, in order:

1. builds the replay kernel into an empty directory (timed, reported as
   ``setup.kernel_compile_s``, outside ``setup_s``);
2. times fresh interpreters that import the CLI and the registry and
   resolve the engine tier, each followed by the reference kernel
   (``reference.py``); ``setup_s`` is their mean in reference seconds;
3. spawns ``measure.py``, the one process that runs every timed pass,
   which refuses to run unless the compiled tier serves it, repeats
   passes for ``--seconds`` (each followed by the reference kernel) and
   checks every pass's reports; ``wall_s`` is their mean in reference
   seconds. For ``quick-warm`` an earlier ``measure.py --fill`` process
   fills the cache with one checked cold pass.

Everything the run writes stays under ``perfbench/.work``. With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer ones (``layers.py``), and the spans of the traced passes
go to ``perfbench/.work/traces/<workload>.spans.jsonl``. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (jobs of passes that raised or failed a check) and
``metrics``. The exit status is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import layers
import reference
import workloads

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up,
#: which writes the bytecode cache a user's installation already has).
SETUP_PROBES = 7

#: Every run ends within this many seconds, children included.
RUN_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(command: List[str], env: Dict[str, str], deadline: float) -> str:
    """Run ``command`` to completion; its stdout. Kills its whole group late."""
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if process.returncode != 0:
        raise ChildFailed(f"{Path(command[1]).name} exited with status {process.returncode}")
    return out


def last_json(out: str) -> Dict[str, Any]:
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure_setup(env: Dict[str, str], deadline: float) -> Dict[str, Any]:
    """Kernel build, then ``SETUP_PROBES`` timed fresh-interpreter set-ups,
    each followed by the reference kernel (also timed once before the first)."""
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    built = last_json(run_child(probe + ["--compile"], env, deadline))
    if not built["available"]:
        raise ChildFailed(
            f"the compiled replay tier is unavailable ({built['kernel']}); "
            "refusing to benchmark the Python fallback"
        )
    run_child(probe, env, deadline)
    reference.kernel()  # untimed warm-up of the kernel
    kernels = [reference.kernel()]
    walls, imports, loads = [], [], []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        out = run_child(probe, env, deadline)
        walls.append(time.perf_counter() - started)
        kernels.append(reference.kernel())
        timings = last_json(out)
        imports.append(timings["import_s"])
        loads.append(timings["kernel_load_s"])
    return {
        "setup_s": walls,
        "kernels": kernels,
        "setup.import_s": statistics.median(imports),
        "setup.kernel_load_s": statistics.median(loads),
        "setup.kernel_compile_s": built["kernel_compile_s"],
    }


def report(name: str, seed: int, trace: bool, setup: Dict[str, Any],
           measured: Dict[str, Any]) -> Dict[str, Any]:
    """Print the human-readable block; return the contract's JSON object."""
    walls = measured["walls"]
    if not walls or (trace and not measured.get("layers")):
        raise ChildFailed("every pass failed: " + "; ".join(measured["errors"][:3]))
    wall = statistics.median(walls)
    attempted, failed = measured["attempted"], measured["failed"]
    provenance = ", ".join(f"{k}={v}" for k, v in measured["provenance"].items())
    print(f"[perfbench] {name}  seed {seed}  trace {int(trace)}  "
          f"{'untraced inline' if trace else 'timed'} passes {len(walls)}")
    print(f"[perfbench] {provenance}; python {platform.python_version()}, "
          f"numpy {measured['numpy']}, nproc {os.cpu_count()}, {platform.machine()}")
    if trace:
        values = {**setup, **measured["layers"]}
        metrics = {name: values[name] for name, _ in layers.PER_LAYER}
        units = dict(layers.PER_LAYER)
    else:
        metrics = {
            "setup_s": reference.reference_seconds(setup["setup_s"], setup["kernels"]),
            "wall_s": reference.reference_seconds(walls, measured["kernels"]),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = dict(layers.END_TO_END)
    for metric, value in metrics.items():
        print(f"  {metric:34s} {value:14.6g} {units[metric]}")
    if not trace:
        q1, _, q3 = quartiles(walls)
        s1, s2, s3 = quartiles(setup["setup_s"])
        k1, k2, k3 = quartiles(measured["kernels"])
        print(f"  {'host wall quartiles':34s} {q1:.4f} .. {wall:.4f} .. {q3:.4f} s "
              f"over {len(walls)} passes")
        print(f"  {'host set-up quartiles':34s} {s1:.4f} .. {s2:.4f} .. {s3:.4f} s over "
              f"{len(setup['setup_s'])} fresh interpreters")
        print(f"  {'reference kernel quartiles':34s} {k1:.4f} .. {k2:.4f} .. {k3:.4f} s "
              f"over {len(measured['kernels'])} runs (reference {reference.REFERENCE_S} s)")
        if measured["sim_instructions"]:
            print(f"  {'sim_minstr_per_s':34s} {measured['sim_instructions'] / 1e6 / wall:14.6g} "
                  "Minstr/s")
        if measured["channel_years"]:
            print(f"  {'channel_years_per_s':34s} {measured['channel_years'] / wall:14.6g} "
                  "channel-years/s")
    print(f"  {'ops_failed_frac':34s} {failed / max(attempted, 1):14.6g} fraction "
          f"({failed} of {attempted} jobs)")
    for error in measured["errors"]:
        print(f"[perfbench] FAILED: {error}", file=sys.stderr)
    return {
        "correct": failed == 0 and not measured["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()
        },
    }


def run_workload(name: str, args: argparse.Namespace, env: Dict[str, str],
                 work: Path, deadline: float) -> Dict[str, Any]:
    setup = measure_setup(env, deadline)
    spans = WORK / "traces" / f"{name}.spans.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work), "--spans", str(spans),
    ]
    filled = None
    if workloads.WORKLOADS[name].warm:
        filled = last_json(run_child(command + ["--fill"], env, deadline))
    measured = last_json(run_child(command, env, deadline))
    if filled is not None:
        if filled["digests"] != measured["digests"]:
            # Every measured pass read what the filling pass wrote.
            measured["failed"] = measured["attempted"]
            measured["errors"].append("reports read from the cache differ from those that filled it")
        measured["attempted"] += filled["attempted"]
        measured["failed"] += filled["failed"]
        measured["errors"] += filled["errors"]
    return report(name, args.seed, bool(args.trace), setup, measured)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root: src/repro is missing here",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / f"run-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    # Bytecode is cached, as for an installed package, but under .work.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    status = 0
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            shutil.rmtree(work, ignore_errors=True)
            (work / "tmp").mkdir(parents=True)
            env["TMPDIR"] = str(work / "tmp")  # the compiler's scratch files too
            env["REPRO_KERNEL_CACHE_DIR"] = str(work / "kernel")
            result = run_workload(name, args, env, work, deadline)
            print(json.dumps(result), flush=True)
            status = status or (0 if result["correct"] else 1)
    except (ChildFailed, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
