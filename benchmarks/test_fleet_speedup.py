"""Vectorized fleet-lifetime engine vs the legacy per-channel loop.

Equal populations, same physics: the Figure 3.1 pipeline (sample fault
arrivals, reduce to faulty-page fractions per year) through the
struct-of-arrays :mod:`repro.fleet` engine must beat the original
``FaultEvent``-list Python loop by at least 20x at a 10^5-channel
population — the PR's acceptance bar; in practice the margin is two
orders of magnitude larger. Both timings land in the CI benchmark job's
``BENCH_pr.json`` artifact.

The policy comparison carries an absolute bar instead of a ratio: every
built-in scenario at 10^6 channels, scored under all three policies on
one core, must finish within :data:`COMPARE_BAR_S` (its trajectory is
the ``absolute`` list of ``BENCH_history.json``).
"""

import time

import pytest

from conftest import emit

from repro.faults.lifetime import (
    faulty_page_fraction_timeseries,
    faulty_page_fraction_timeseries_legacy,
)
from repro.fleet import (
    DEFAULT_SCENARIOS,
    POLICY_KEYS,
    plan_fleet_compare,
    run_fleet,
)
from repro.runner import execute_plans

pytestmark = pytest.mark.mc

#: The acceptance-criterion population: paper-grade confidence scale.
CHANNELS = 100_000
#: The legacy loop only sees a fraction of it — its per-channel cost is
#: flat, so its 10^5-channel wall-time extrapolates linearly.
LEGACY_CHANNELS = 10_000
YEARS = 7
#: ``repro fleet --policies arcc,sccdcd,lotecc --channels 1000000``.
COMPARE_CHANNELS = 1_000_000
#: Wall-time bar of that comparison at ``--jobs 1``, in seconds.
COMPARE_BAR_S = 8.0


def test_bench_fleet_vectorized(benchmark):
    series = benchmark(
        faulty_page_fraction_timeseries,
        years=YEARS,
        channels=CHANNELS,
        rate_multiplier=4.0,
    )
    assert len(series) == YEARS


def test_bench_fleet_legacy(benchmark):
    series = benchmark.pedantic(
        faulty_page_fraction_timeseries_legacy,
        kwargs=dict(years=YEARS, channels=LEGACY_CHANNELS, rate_multiplier=4.0),
        rounds=1,
        iterations=1,
    )
    assert len(series) == YEARS


def test_bench_fleet_scenario_100k(benchmark):
    """A heterogeneous 10^5-channel scenario sweep, single core."""
    report = benchmark.pedantic(
        run_fleet,
        kwargs=dict(scenario="mixed-generations", channels=CHANNELS),
        rounds=1,
        iterations=1,
    )
    assert report.total_channels == pytest.approx(CHANNELS, abs=2)


def test_fleet_speedup_at_least_20x(once):
    """The PR's acceptance criterion, asserted directly.

    Measures both engines on the full Figure 3.1 pipeline at equal
    population. The legacy loop runs a smaller population and its
    wall-time is scaled linearly (its cost is per-channel by
    construction: one ``split_rng`` stream, six Poisson draws and an
    event-object loop per channel).
    """
    faulty_page_fraction_timeseries(years=YEARS, channels=64)  # warm dispatch

    def measure():
        started = time.perf_counter()
        vectorized_series = faulty_page_fraction_timeseries(
            years=YEARS, channels=CHANNELS, rate_multiplier=4.0
        )
        vectorized = time.perf_counter() - started
        started = time.perf_counter()
        legacy_series = faulty_page_fraction_timeseries_legacy(
            years=YEARS, channels=LEGACY_CHANNELS, rate_multiplier=4.0
        )
        legacy = (time.perf_counter() - started) * (CHANNELS / LEGACY_CHANNELS)
        return vectorized, legacy, vectorized_series, legacy_series

    vectorized, legacy, vectorized_series, legacy_series = once(measure)
    speedup = legacy / vectorized
    emit(
        "Fleet-lifetime engine speedup (Figure 3.1 pipeline, equal population)",
        f"{CHANNELS} channels x {YEARS}y at 4x rates:\n"
        f"  legacy      {legacy * 1e3:10.1f} ms  (scaled from "
        f"{LEGACY_CHANNELS} channels)\n"
        f"  vectorized  {vectorized * 1e3:10.1f} ms\n"
        f"  speedup     {speedup:10.1f}x  (acceptance bar: 20x)",
    )
    assert speedup >= 20.0
    # Same physics on independent streams: year-7 means agree within a
    # few relative percent at these populations.
    assert vectorized_series[-1] == pytest.approx(legacy_series[-1], rel=0.10)


def test_policy_comparison_1m_within_bar(once):
    """Five scenarios x three policies at 10^6 channels each, one core.

    Mirrors ``repro fleet --policies arcc,sccdcd,lotecc --channels
    1000000 --jobs 1``: one job per (slice, block) samples the block
    once and scores every policy from it.
    """
    plans = [
        plan_fleet_compare(name, policies=POLICY_KEYS, channels=COMPARE_CHANNELS)
        for name in DEFAULT_SCENARIOS
    ]

    def measure():
        started = time.perf_counter()
        reports = execute_plans(plans, max_workers=1)
        return time.perf_counter() - started, reports

    wall, reports = once(measure)
    emit(
        "Policy comparison wall-time (every built-in scenario, 3 policies)",
        f"{len(plans)} scenarios x {COMPARE_CHANNELS} channels, "
        f"{sum(len(plan.jobs) for plan in plans)} jobs, --jobs 1:\n"
        f"  wall  {wall:6.2f} s  (bar: {COMPARE_BAR_S:.0f} s)",
    )
    assert [report.policies for report in reports] == [list(POLICY_KEYS)] * len(plans)
    assert wall <= COMPARE_BAR_S
