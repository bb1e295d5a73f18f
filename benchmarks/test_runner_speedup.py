"""Runner-side speedups against the code they replaced.

* Vectorized Monte-Carlo engine vs the legacy per-fault loop. Equal
  trial counts, same physics: the NumPy-batched engine must beat the
  original Python event loop by at least 5x on a single core (in
  practice the margin is much larger).
* Batch job keying vs the per-job ``dataclasses.asdict`` describer: the
  cache keys of every job of the ``repro run --quick`` plan, byte for
  byte the same, at least 3x faster; and the warm ``repro run --quick``
  pass that keying dominated, under an absolute wall-time bar.

The timings land in the CI benchmark job's ``BENCH_pr.json`` artifact.
"""

import dataclasses
import enum
import hashlib
import json
import time
from collections.abc import Mapping

import pytest

from conftest import emit

from repro.reliability.analytical import ReliabilityParams
from repro.reliability.montecarlo import MonteCarloReliability
from repro.runner import Job, ResultCache, execute_plans, job_identities

pytestmark = pytest.mark.mc

#: Warm ``repro run --quick`` ceiling, host seconds (one core; about
#: 0.07 s measured, 0.19 s before batch keying).
QUICK_WARM_BAR_S = 0.15

#: Figure 6.1's Monte-Carlo cross-check scale.
CHANNELS = 2000
YEARS = 7.0
PARAMS = ReliabilityParams(rate_multiplier=4.0)


def test_bench_montecarlo_vectorized(benchmark):
    mc = MonteCarloReliability(PARAMS, seed=0x5DC)
    outcome = benchmark(mc.run, CHANNELS, YEARS)
    assert outcome.channels == CHANNELS


def test_bench_montecarlo_legacy(benchmark):
    mc = MonteCarloReliability(PARAMS, seed=0x5DC)
    outcome = benchmark.pedantic(
        mc.run_legacy, args=(CHANNELS, YEARS), rounds=3, iterations=1
    )
    assert outcome.channels == CHANNELS


def test_vectorized_speedup_at_least_5x(once):
    """The PR's acceptance criterion, asserted directly."""
    mc = MonteCarloReliability(PARAMS, seed=0x5DC)
    mc.run(64, YEARS)  # warm NumPy dispatch out of the measurement

    def measure():
        started = time.perf_counter()
        mc.run(CHANNELS, YEARS)
        vectorized = time.perf_counter() - started
        started = time.perf_counter()
        mc.run_legacy(CHANNELS, YEARS)
        legacy = time.perf_counter() - started
        return vectorized, legacy

    vectorized, legacy = once(measure)
    speedup = legacy / vectorized
    emit(
        "Monte-Carlo engine speedup (equal trial counts)",
        f"{CHANNELS} channels x {YEARS:g}y at 4x rates:\n"
        f"  legacy      {legacy * 1e3:8.1f} ms\n"
        f"  vectorized  {vectorized * 1e3:8.1f} ms\n"
        f"  speedup     {speedup:8.1f}x  (acceptance bar: 5x)",
    )
    assert speedup >= 5.0


def _legacy_describe_value(value):
    """The per-job describer batch keying replaced (asdict, then a walk)."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.asdict(value)
        return {
            "__dataclass__": type(value).__name__,
            **{k: _legacy_describe_value(v) for k, v in sorted(fields.items())},
        }
    if isinstance(value, Mapping):
        return {
            str(_legacy_describe_value(k)): _legacy_describe_value(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_legacy_describe_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if callable(value):
        return (
            f"{getattr(value, '__module__', '?')}:"
            f"{getattr(value, '__qualname__', repr(value))}"
        )
    return repr(value)


def _legacy_key(version, job):
    description = {
        "fn": _legacy_describe_value(job.fn),
        "seed": job.seed,
        "config": {k: _legacy_describe_value(v) for k, v in job.config},
    }
    payload = json.dumps(
        {"code": version, "job": description}, sort_keys=True, default=repr
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def test_batch_keying_speedup_at_least_3x(once):
    """Keying the quick plan: one memo per batch vs one describe per job."""
    from repro.runner.registry import FIGURES

    jobs = [job for spec in FIGURES.values() for job in spec.plan(quick=True).jobs]
    cache = ResultCache("unused", version="0123456789abcdef")

    def batch(copies):
        job_identities(copies)
        return [cache.key(job) for job in copies]

    def legacy(copies):
        return [_legacy_key(cache.version, job) for job in copies]

    def measure():
        best, keys = {}, {}
        for name, key_all in (("legacy", legacy), ("batch", batch)):
            seconds = []
            for _ in range(5):
                # Equal jobs with no identity computed yet, as planned.
                copies = [Job(j.name, j.fn, j.config, j.seed) for j in jobs]
                started = time.perf_counter()
                keys[name] = key_all(copies)
                seconds.append(time.perf_counter() - started)
            best[name] = min(seconds)
        return best, keys

    best, keys = once(measure)
    assert keys["batch"] == keys["legacy"]
    speedup = best["legacy"] / best["batch"]
    emit(
        "Job keying speedup (repro run --quick plan, best of 5)",
        f"{len(jobs)} jobs:\n"
        f"  per-job asdict describer  {best['legacy'] * 1e3:8.1f} ms\n"
        f"  batch memo                {best['batch'] * 1e3:8.1f} ms\n"
        f"  speedup                   {speedup:8.1f}x  (acceptance bar: 3x)",
    )
    assert speedup >= 3.0


def test_quick_run_warm_within_bar(once, tmp_path):
    """``repro run --quick --jobs 1`` against a filled result cache.

    Every pass plans afresh and drops the in-process engine memos, as a
    new ``repro`` invocation would; the best of three warm passes is
    held to :data:`QUICK_WARM_BAR_S`.
    """
    from repro.fleet import clear_measured_memo
    from repro.perf.engine import clear_engine_memos
    from repro.runner.registry import FIGURES

    cache = ResultCache(str(tmp_path / "cache"))

    def one_pass():
        clear_engine_memos()
        clear_measured_memo()
        started = time.perf_counter()
        plans = [spec.plan(quick=True) for spec in FIGURES.values()]
        execute_plans(plans, max_workers=1, cache=cache)
        return time.perf_counter() - started

    one_pass()  # fills the cache

    def measure():
        return min(one_pass() for _ in range(3))

    wall = once(measure)
    emit(
        "Warm quick run wall-time (repro run --quick, filled cache)",
        f"{len(FIGURES)} artifacts, --jobs 1, best of 3:\n"
        f"  wall  {wall * 1e3:6.1f} ms  (bar: {QUICK_WARM_BAR_S * 1e3:.0f} ms)",
    )
    assert wall <= QUICK_WARM_BAR_S
