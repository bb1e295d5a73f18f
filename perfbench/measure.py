"""Measure one workload in this process and print the result as JSON.

Run by ``run.py``, which owns set-up timing and the kernel build; this
process runs every timed pass itself, so its peak resident
memory (and that of its pool workers, its only child processes) is the
workload's. Usage::

    python3 perfbench/measure.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --work DIR --spans FILE [--fill] [--record-golden]

The warm workload reads a cache that ``--fill`` wrote beforehand, in a
process of its own, so its cold pass counts toward neither the measuring
process's peak memory nor its timings. The last line of standard output
is one JSON object (see ``main``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

import layers
import reference
import workloads

#: A run always measures at least this many passes, however long they take.
MIN_PASSES = 3


class Run:
    """Passes of one workload, with every output check they imply."""

    def __init__(self, workload: workloads.Workload, offset: int, work: Path,
                 expected: Dict[str, str]):
        self.workload = workload
        self.offset = offset
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Optional[Dict[str, str]] = None
        self.expected = expected
        self.warm_cache = work / "warm-cache" if workload.warm else None

    def one_pass(self, jobs: int, tracer: Optional[layers.Tracer] = None) -> Dict[str, Any]:
        """Plan, execute and assemble once; returns wall time and checks.

        The in-process memos are dropped first, so every pass pays what
        a fresh ``repro`` invocation pays.
        """
        from repro.fleet import clear_measured_memo
        from repro.perf.engine import clear_engine_memos
        from repro.runner import ResultCache, execute_plans

        clear_engine_memos()
        clear_measured_memo()
        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        patches = layers.install(tracer) if tracer is not None else None
        plans: workloads.KeyedPlans = []
        try:
            started = time.perf_counter()
            with span("pass"):
                with span("runner.plan"):
                    plans = self.workload.build(self.offset)
                if tracer is not None:
                    for key, plan in plans:
                        tracer.job_figure.update((id(job), key) for job in plan.jobs)
                        plan.assemble = layers.trace_assemble(tracer, key, plan.assemble)
                cache = ResultCache(str(self.warm_cache)) if self.warm_cache else None
                results = execute_plans([plan for _, plan in plans], max_workers=jobs, cache=cache)
            wall = time.perf_counter() - started
        except Exception as exc:  # a job raised: the whole pass failed
            lost = sum(len(plan.jobs) for _, plan in plans) or 1
            self.attempted += lost
            self.failed += lost
            self.errors.append(f"pass raised {type(exc).__name__}: {exc}")
            return {"wall": None}
        finally:
            if patches is not None:
                patches.restore()
        jobs_planned = sum(len(plan.jobs) for _, plan in plans)
        self.attempted += jobs_planned
        errors = self.check(plans, results, tracer)
        if errors:
            self.failed += jobs_planned
            self.errors.extend(errors)
        return {"wall": wall, "plans": plans}

    def check(self, plans, results, tracer) -> List[str]:
        """Digest, invariant and kernel-audit checks of one pass."""
        errors: List[str] = []
        got = workloads.digests(plans, results)
        if self.digests is None:
            self.digests = got
        # Every pass matches the recorded digests, or on seeds without a
        # record the run's first pass (which also catches a --jobs 1 pass
        # that disagrees with the pool).
        expected = self.expected or self.digests
        if got != expected:
            wrong = sorted(k for k in set(expected) | set(got) if expected.get(k) != got.get(k))
            source = "golden.json" if self.expected else "the run's first pass"
            errors.append(f"report digests differ from {source} on {', '.join(wrong)}")
        for (key, _), result in zip(plans, results):
            errors.extend(f"{key}: {e}" for e in workloads.invariant_errors(result))
        if tracer is not None:
            counts = tracer.counts
            violations = counts["perf.kernel_mirror_violations"]
            if violations:
                errors.append(f"kernel audit: {violations} mirror violations")
            if counts["perf.kernel_position_errors"]:
                errors.append("kernel audit: final positions differ from core_offsets[1:]")
        return errors


def _peak_rss_mb() -> float:
    # This process's own high-water mark, from /proc: ``RUSAGE_SELF``
    # would also count the spawning run.py's resident memory before exec.
    status = Path("/proc/self/status").read_text()
    own = int(status.split("VmHWM:")[1].split()[0])
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # both in KiB


def measure(run: Run, seconds: float, trace: bool, spans_path: Path) -> Dict[str, Any]:
    """Warm up, run passes for ``seconds``, then the untimed checks.

    Untraced passes alternate with the reference kernel (``reference.py``),
    timed before the first pass and after every pass.
    """
    workload = run.workload
    run.one_pass(workload.jobs)  # untimed warm-up: lazy imports, first digests
    # Peak memory of one pass in a fresh process, as one ``repro``
    # invocation sees it. Later passes only add allocator luck: a heap
    # fragmented by earlier passes peaks anywhere from 0% to 25% higher.
    peak_rss_mb = _peak_rss_mb()
    reference.kernel()  # untimed warm-up of the kernel
    walls: List[float] = []
    kernels = [] if trace else [reference.kernel()]
    traced_walls: List[float] = []
    per_pass: List[Dict[str, float]] = []
    plans = None
    deadline = time.perf_counter() + seconds
    passes = 0
    while time.perf_counter() < deadline or passes < MIN_PASSES:
        passes += 1
        if not trace:
            outcome = run.one_pass(workload.jobs)
            kernels.append(reference.kernel())
            plans = outcome.get("plans", plans)
            if outcome["wall"] is not None:
                walls.append(outcome["wall"])
            continue
        # Traced runs are inline: wrappers inside pool workers could not
        # report back. Each traced pass pairs with an untraced inline
        # one, which measures the tracer's own cost.
        outcome = run.one_pass(1)
        if outcome["wall"] is not None:
            walls.append(outcome["wall"])
        tracer = layers.Tracer()
        outcome = run.one_pass(1, tracer=tracer)
        if outcome["wall"] is None:
            continue
        traced_walls.append(outcome["wall"])
        per_pass.append(layers.pass_metrics(tracer))
        tracer.write_jsonl(spans_path, len(traced_walls) - 1)
    result: Dict[str, Any] = {"walls": walls, "kernels": kernels}
    if not trace:
        result["sim_instructions"] = workloads.simulated_instructions(plans or [])
        result["channel_years"] = workloads.channel_years(workload)
    elif per_pass:
        medians = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        medians["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        medians["runner.pool_busy_frac"] = pool_busy_frac(run)
        result["layers"] = medians
    if workload.jobs > 1:
        # Once per run, untimed: an inline pass must reproduce the pool's
        # reports exactly (``check`` compares every pass's digests).
        run.one_pass(1)
    result["peak_rss_mb"] = peak_rss_mb
    return result


def pool_busy_frac(run: Run) -> float:
    """Σ job seconds / (pass wall x workers), at the workload's worker count."""
    tracer = layers.Tracer()
    patches = layers.capture_jobs(tracer)
    try:
        outcome = run.one_pass(run.workload.jobs)
    finally:
        patches.restore()
    if not outcome["wall"]:
        return 0.0
    return sum(tracer.samples["job_s"]) / (outcome["wall"] * run.workload.jobs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True,
                        help="JSON-lines file the traced passes' spans go to")
    parser.add_argument("--fill", action="store_true",
                        help="only fill the warm workload's cache with one checked cold pass")
    parser.add_argument("--record-golden", action="store_true",
                        help="write this run's seed-0 digests into golden.json")
    args = parser.parse_args(argv)

    import numpy
    from repro.perf.engine import engine_provenance

    provenance = engine_provenance()
    if provenance["replay_engine"] != "compiled":
        print(f"measure: the compiled replay tier is unavailable ({provenance['replay_kernel']}); "
              "refusing to benchmark the Python fallback", file=sys.stderr)
        return 3
    workload = workloads.WORKLOADS[args.workload]
    golden = workloads.golden(workload.name) if args.seed == 0 and not args.record_golden else {}
    run = Run(workload, args.seed, args.work, golden)
    if args.fill:
        run.one_pass(1)
        print(json.dumps({"attempted": run.attempted, "failed": run.failed,
                          "errors": run.errors, "digests": run.digests}))
        return 0
    if run.warm_cache is not None and not any(run.warm_cache.glob("*.pkl")):
        print(f"measure: {run.warm_cache} is empty; fill it first with --fill", file=sys.stderr)
        return 1
    args.spans.unlink(missing_ok=True)
    result = measure(run, args.seconds, bool(args.trace), args.spans)
    if args.record_golden:
        if args.seed != 0 or run.errors or run.digests is None:
            print("measure: golden digests are recorded from a clean seed-0 run", file=sys.stderr)
            return 1
        workloads.record_golden(workload.name, run.digests)
    result.update(
        workload=workload.name,
        seed=args.seed,
        attempted=run.attempted,
        failed=run.failed,
        errors=run.errors,
        digests=run.digests,
        provenance=provenance,
        numpy=numpy.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
