"""Outside-in layer tracing for the repo benchmark.

Nothing here is imported by the ``repro`` package: the tracer wraps the
public entry points of each layer (runner, perf, fleet) from the
benchmark's own side, under the name each caller looks up, so a traced
pass runs the unmodified program with a span recorded around every
crossing. Spans (name, start, end, parent) are kept in memory and
written out when the run ends; a layer's *self time* is its spans'
duration minus the union of their children's intervals.

This module imports no ``repro`` code at top level, so the metric name
tables below are usable by the orchestrator and by the tests without
the package on ``sys.path``.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: Every metric name must match this (the benchmark contract's alphabet).
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Registry artifacts whose executed-job seconds are reported one by one
#: (``tables`` is left out: it plans no jobs).
FIGURE_KEYS = (
    "fig3.1",
    "fig6.1",
    "fig7.1",
    "fig7.2",
    "sensitivity",
    "fig7.4",
    "fig7.6",
    "fleet",
    "fleet-compare",
    "fleet-compare-measured",
    "study",
    "fuzz",
)

#: End-to-end metrics: (name, unit). Printed with tracing off.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Span name -> the per-layer metric carrying its summed self time.
SELF_TIME_METRICS: Dict[str, str] = {
    "runner.plan": "runner.plan_s",
    "runner.assemble": "runner.assemble_s",
    "runner.run_jobs": "runner.run_jobs_self_s",
    "runner.describe": "runner.describe_s",
    "runner.identity": "runner.identity_s",
    "runner.cache_get": "runner.cache_get_s",
    "runner.job": "runner.job_self_s",
    "perf.materialize": "perf.materialize_s",
    "perf.replay_compiled": "perf.replay_compiled_s",
    "perf.replay_python": "perf.replay_python_s",
    "fleet.sample": "fleet.sample_s",
    "fleet.pair_screen": "fleet.pair_screen_s",
    "fleet.year_reduce": "fleet.year_reduce_s",
}

#: Per-layer metrics: (name, unit), in print order. Emitted, every one,
#: on every workload of a traced run; a layer a workload never enters
#: reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("setup.import_s", "s"),
    ("setup.kernel_load_s", "s"),
    ("setup.kernel_compile_s", "s"),
    *((metric, "s") for metric in SELF_TIME_METRICS.values()),
    ("runner.describe_per_job", "count"),
    ("runner.cache_hit_ratio", "fraction"),
    ("runner.jobs_executed", "count"),
    ("runner.jobs_cached", "count"),
    ("runner.jobs_deduped", "count"),
    ("runner.dedup_ratio", "fraction"),
    ("runner.job_exec_s", "s"),
    ("runner.job_s_p50", "s"),
    ("runner.job_s_p90", "s"),
    ("runner.pool_busy_frac", "fraction"),
    *((f"figure.{key}.exec_s", "s") for key in FIGURE_KEYS),
    ("perf.materialize_calls", "count"),
    ("perf.materialize_memo_hit_ratio", "fraction"),
    ("perf.compiled_ns_per_access", "ns"),
    ("perf.accesses_replayed", "count"),
    ("perf.replay_python_calls", "count"),
    ("perf.kernel_mirror_violations", "count"),
    ("fleet.events_sampled", "count"),
    ("fleet.samples_per_block", "count"),
    ("fleet.screen_ns_per_event", "ns"),
    ("fleet.uncorrectable_channels", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
)


# -- spans ---------------------------------------------------------------------


class Span:
    """One timed crossing of a layer boundary."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    ``parent`` is an index into ``spans`` (-1 for a root). Children may
    overlap one another (a pool, a thread); the union, not the sum, is
    what the parent did not spend on its own.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(children[index], span.start, span.end)
        for index, span in enumerate(spans)
    ]


class Tracer:
    """Span recorder plus counters, filled by the layer wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.block_seeds: set = set()
        self.job_figure: Dict[int, str] = {}
        self.figure_stack: List[str] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a ``name`` span."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_time_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span.name] += own
        return dict(totals)

    def write_jsonl(self, path: Path, pass_index: int) -> None:
        """Append this pass's spans, one JSON object a line."""
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                record = {name: getattr(span, name) for name in Span.__slots__}
                handle.write(json.dumps({"pass": pass_index, **record}) + "\n")


# -- patching the program's entry points ---------------------------------------


class Patches:
    """Rebinds functions and methods; :meth:`restore` undoes every one."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def function(self, original: Callable[..., Any], replacement: Callable[..., Any]) -> None:
        """Rebind ``original`` under every name a ``repro`` module holds it.

        Callers look a function up through their own module's globals
        (``from x import f``) or through the defining package at call
        time, so every binding is replaced, not only the defining one.
        """
        found = False
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)
                    found = True
        if not found:
            raise RuntimeError(f"no repro module binds {original!r}")

    def method(self, owner: type, attr: str, make: Callable[[Any], Any]) -> None:
        self._set(owner, attr, make(vars(owner)[attr]))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _run_jobs_wrapper(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    """``run_jobs`` recording its span, job counts and per-job seconds."""
    counts = tracer.counts

    def run_jobs(jobs, *args, **kwargs):
        jobs = list(jobs)
        hits = counts["runner.cache_hits"]
        with tracer.span("runner.run_jobs"):
            results = original(jobs, *args, **kwargs)
        cached = sum(result.cached for result in results)
        counts["runner.jobs"] += len(jobs)
        counts["runner.jobs_executed"] += len(results) - cached
        counts["runner.jobs_deduped"] += cached - (counts["runner.cache_hits"] - hits)
        current = tracer.figure_stack[-1] if tracer.figure_stack else "other"
        for job, result in zip(jobs, results):
            if not result.cached:
                figure = tracer.job_figure.get(id(job), current)
                tracer.samples["job_s"].append(result.seconds)
                tracer.samples[f"figure.{figure}"].append(result.seconds)
        return results

    return run_jobs


def capture_jobs(tracer: Tracer) -> Patches:
    """Wrap ``run_jobs`` alone: job seconds of a pass, at any worker count."""
    from repro.runner import executor

    patches = Patches()
    patches.function(executor.run_jobs, _run_jobs_wrapper(tracer, executor.run_jobs))
    return patches


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; returns the patches to restore.

    Originals are bound to locals first: once patched, the module
    attributes name the wrappers.
    """
    from repro.fleet import engine as fleet_engine
    from repro.fleet import policies
    from repro.perf import _kernel
    from repro.perf import engine as perf_engine
    from repro.perf import trace as perf_trace
    from repro.runner import executor
    from repro.runner.cache import ResultCache
    from repro.runner.job import Job

    sample_block_fn = fleet_engine.sample_block
    screen_fn = policies.uncorrectable_candidate_channels
    overhead_fn = fleet_engine.overhead_series_by_year
    fractions_fn = fleet_engine.faulty_fractions_by_year
    materialize_fn = perf_trace.materialize_mix
    memo = perf_trace._materialize
    compiled_fn = _kernel.replay_compiled
    compiled_stats_fn = _kernel.replay_compiled_stats
    python_replay_fn = perf_engine.replay
    identity_fn = executor.job_identity
    run_jobs_fn = executor.run_jobs

    span = tracer.span
    counts = tracer.counts

    def sample_block(block_seed, *args, **kwargs):
        with span("fleet.sample"):
            batch = sample_block_fn(block_seed, *args, **kwargs)
        counts["fleet.sample_calls"] += 1
        counts["fleet.events_sampled"] += batch.num_events
        tracer.block_seeds.add(int(block_seed))
        return batch

    def pair_screen(batch, window_hours):
        with span("fleet.pair_screen"):
            out = screen_fn(batch, window_hours)
        counts["fleet.events_screened"] += batch.num_events
        counts["fleet.uncorrectable_channels"] += int(out.sum())
        return out

    def materialize_mix(mix, seed, instructions_per_core):
        misses = memo.cache_info().misses
        with span("perf.materialize"):
            batch = materialize_fn(mix, seed, instructions_per_core)
        counts["perf.materialize_calls"] += 1
        counts["perf.materialize_hits"] += memo.cache_info().misses == misses
        return batch

    def replay_compiled_stats(batch, point, *args, **kwargs):
        # The kernel's in-loop self-audit, read from outside through the
        # public stats entry point, which runs the same replay.
        with span("perf.replay_compiled"):
            result, stats = compiled_stats_fn(batch, point, *args, **kwargs)
        counts["perf.accesses_replayed"] += int(batch.core_offsets[-1])
        counts["perf.kernel_mirror_violations"] += stats.mirror_violations
        if stats.final_positions != tuple(int(v) for v in batch.core_offsets[1:]):
            counts["perf.kernel_position_errors"] += 1
        return result, stats

    def replay_compiled(batch, point, *args, **kwargs):
        return replay_compiled_stats(batch, point, *args, **kwargs)[0]

    def python_replay(*args, **kwargs):
        counts["perf.replay_python_calls"] += 1
        with span("perf.replay_python"):
            return python_replay_fn(*args, **kwargs)

    def cache_get(original):
        def get(self, job):
            with span("runner.cache_get"):
                hit, value = original(self, job)
            counts["runner.cache_gets"] += 1
            counts["runner.cache_hits"] += hit
            return hit, value

        return get

    def describe(original):
        def wrapped(self):
            counts["runner.describe_calls"] += 1
            with span("runner.describe"):
                return original(self)

        return wrapped

    patches = Patches()
    try:
        patches.function(sample_block_fn, sample_block)
        patches.function(screen_fn, pair_screen)
        patches.function(overhead_fn, tracer.wrap("fleet.year_reduce", overhead_fn))
        patches.function(fractions_fn, tracer.wrap("fleet.year_reduce", fractions_fn))
        patches.function(materialize_fn, materialize_mix)
        patches.function(compiled_fn, replay_compiled)
        patches.function(compiled_stats_fn, replay_compiled_stats)
        patches.function(python_replay_fn, python_replay)
        patches.function(identity_fn, tracer.wrap("runner.identity", identity_fn))
        patches.function(run_jobs_fn, _run_jobs_wrapper(tracer, run_jobs_fn))
        patches.method(ResultCache, "get", cache_get)
        patches.method(Job, "describe", describe)
        patches.method(Job, "execute", lambda original: tracer.wrap("runner.job", original))
    except BaseException:
        patches.restore()
        raise
    return patches


def trace_assemble(tracer: Tracer, figure: str, assemble: Callable[..., Any]) -> Callable[..., Any]:
    """A plan's ``assemble`` recorded as a span, attributing nested jobs."""

    def traced(values):
        tracer.figure_stack.append(figure)
        try:
            with tracer.span("runner.assemble"):
                return assemble(values)
        finally:
            tracer.figure_stack.pop()

    return traced


# -- per-layer metrics ---------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (root span: ``pass``)."""
    own = tracer.self_time_by_name()
    counts = tracer.counts
    root = tracer.spans[0]
    wall = root.end - root.start
    job_s = tracer.samples["job_s"]
    metrics: Dict[str, float] = {
        metric: own.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()
    }
    metrics.update(
        {
            "runner.describe_per_job": _ratio(
                counts["runner.describe_calls"], counts["runner.jobs"]
            ),
            "runner.cache_hit_ratio": _ratio(
                counts["runner.cache_hits"], counts["runner.cache_gets"]
            ),
            "runner.jobs_executed": counts["runner.jobs_executed"],
            "runner.jobs_cached": counts["runner.cache_hits"],
            "runner.jobs_deduped": counts["runner.jobs_deduped"],
            "runner.dedup_ratio": _ratio(counts["runner.jobs_deduped"], counts["runner.jobs"]),
            "runner.job_exec_s": sum(job_s),
            "runner.job_s_p50": percentile(job_s, 0.5),
            "runner.job_s_p90": percentile(job_s, 0.9),
            "perf.materialize_calls": counts["perf.materialize_calls"],
            "perf.materialize_memo_hit_ratio": _ratio(
                counts["perf.materialize_hits"], counts["perf.materialize_calls"]
            ),
            "perf.compiled_ns_per_access": 1e9
            * _ratio(own.get("perf.replay_compiled", 0.0), counts["perf.accesses_replayed"]),
            "perf.accesses_replayed": counts["perf.accesses_replayed"],
            "perf.replay_python_calls": counts["perf.replay_python_calls"],
            "perf.kernel_mirror_violations": counts["perf.kernel_mirror_violations"],
            "fleet.events_sampled": counts["fleet.events_sampled"],
            "fleet.samples_per_block": _ratio(
                counts["fleet.sample_calls"], len(tracer.block_seeds)
            ),
            "fleet.screen_ns_per_event": 1e9
            * _ratio(own.get("fleet.pair_screen", 0.0), counts["fleet.events_screened"]),
            "fleet.uncorrectable_channels": counts["fleet.uncorrectable_channels"],
            "trace.unattributed_frac": _ratio(own.get("pass", 0.0), wall),
        }
    )
    for key in FIGURE_KEYS:
        metrics[f"figure.{key}.exec_s"] = sum(tracer.samples.get(f"figure.{key}", ()))
    return metrics
