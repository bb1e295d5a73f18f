"""Tests of the benchmark itself: metric names, emission, span arithmetic."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import layers
import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _declared(section):
    return [(m["name"], m["unit"]) for m in SPEC[section]]


def test_metric_names_match_the_alphabet():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [name for section in ("end_to_end", "per_layer") for name, _ in _declared(section)]
    assert len(names) == len(set(names))
    for name in names:
        assert layers.METRIC_NAME.fullmatch(name) and len(name) <= 64, name


def test_declared_metrics_are_the_emitted_tables():
    assert _declared("end_to_end") == list(layers.END_TO_END)
    assert _declared("per_layer") == list(layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _measured(layer_values):
    return {
        "walls": [1.0, 1.1, 0.9],
        "kernels": [0.03, 0.04, 0.03, 0.03],
        "attempted": 10,
        "failed": 0,
        "errors": [],
        "provenance": {"replay_engine": "compiled"},
        "numpy": "0",
        "peak_rss_mb": 50.0,
        "sim_instructions": 0,
        "channel_years": 0.0,
        "layers": layer_values,
    }


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_on_every_workload(workload, capsys):
    setup = {
        "setup_s": [0.5, 0.6, 0.7],
        "kernels": [0.03, 0.03, 0.03, 0.03],
        "setup.import_s": 0.4,
        "setup.kernel_load_s": 0.01,
        "setup.kernel_compile_s": 0.2,
    }
    tracer = layers.Tracer()
    with tracer.span("pass"):
        pass
    values = layers.pass_metrics(tracer)
    values.update({"trace.overhead_frac": 0.01, "runner.pool_busy_frac": 0.9})

    untraced = run.report(workload, 0, False, setup, _measured({}))
    traced = run.report(workload, 0, True, setup, _measured(values))
    capsys.readouterr()
    assert list(untraced) == ["correct", "attempted", "failed", "metrics"]
    assert set(untraced["metrics"]) == {name for name, _ in _declared("end_to_end")}
    assert set(traced["metrics"]) == {name for name, _ in _declared("per_layer")}
    for name, unit in _declared("per_layer"):
        assert traced["metrics"][name]["unit"] == unit


def _span(name, start, end, parent):
    return layers.Span(name, start, end, parent)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span("pass", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: union [1, 6]
        _span("c", 8.0, 12.0, 0),  # outlives the parent: clipped to [8, 10]
        _span("d", 2.0, 3.0, 1),
        _span("e", 2.5, 3.5, 1),  # overlaps d: union [2, 3.5]
    ]
    assert layers.self_times(spans) == pytest.approx([3.0, 1.5, 3.0, 4.0, 1.0, 1.0])


def test_covered_handles_nested_and_disjoint_intervals():
    assert layers.covered([], 0.0, 5.0) == 0.0
    assert layers.covered([(1.0, 4.0), (2.0, 3.0)], 0.0, 5.0) == 3.0
    assert layers.covered([(0.0, 1.0), (2.0, 3.0), (-1.0, 0.5)], 0.0, 5.0) == 2.0
    assert layers.covered([(6.0, 7.0)], 0.0, 5.0) == 0.0


def test_tracer_records_nesting_and_self_time_by_name():
    tracer = layers.Tracer()
    with tracer.span("pass"):
        with tracer.span("runner.plan"):
            pass
        tracer.wrap("runner.job", lambda: None)()
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    totals = tracer.self_time_by_name()
    root = tracer.spans[0]
    assert sum(totals.values()) == pytest.approx(root.end - root.start)


def test_percentile_interpolates():
    assert layers.percentile([], 0.5) == 0.0
    assert layers.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert layers.percentile([0.0, 10.0], 0.9) == pytest.approx(9.0)


def test_install_rebinds_every_caller_and_restore_undoes_it():
    from repro.fleet import policies, report
    from repro.perf import _kernel
    from repro.runner import executor
    from repro.runner.job import Job

    originals = (policies.sample_block, report.sample_block, _kernel.replay_compiled,
                 executor.run_jobs, Job.describe)
    patches = layers.install(layers.Tracer())
    try:
        assert policies.sample_block is report.sample_block
        assert policies.sample_block is not originals[0]
        assert _kernel.replay_compiled is not originals[2]
        assert Job.describe is not originals[4]
    finally:
        patches.restore()
    assert (policies.sample_block, report.sample_block, _kernel.replay_compiled,
            executor.run_jobs, Job.describe) == originals


def test_invariants_flag_fractions_and_inverted_intervals():
    from repro.fleet.policies import PolicySliceReport

    good = PolicySliceReport("arcc", "s", 10, 5.0, (0.1, 0.01), (0.0, 0.0), 0.0, 0.0, (0.2, 0.1))
    assert workloads.invariant_errors(good) == []
    bad_fraction = PolicySliceReport("arcc", "s", 10, 5.0, (0.1, 0.01), (0.0, 0.0), 0.0, 0.0,
                                     (1.5, 0.1))
    assert any("outside [0, 1]" in e for e in workloads.invariant_errors(bad_fraction))
    inverted = PolicySliceReport("arcc", "s", 10, 5.0, (0.1, -0.01), (0.0, 0.0), 0.0, 0.0,
                                 (0.2, 0.1))
    assert any("interval" in e for e in workloads.invariant_errors(inverted))


def test_seed_offset_shifts_only_builders_that_take_a_seed():
    def seeded(seed=7, channels=1):
        return seed

    def unseeded(channels=1):
        return channels

    assert workloads._seeded(seeded, {"channels": 2}, 3) == {"channels": 2, "seed": 10}
    assert workloads._seeded(seeded, {"seed": 1}, 3) == {"seed": 4}
    assert workloads._seeded(unseeded, {"channels": 2}, 3) == {"channels": 2}


def test_a_traced_pass_matches_the_untraced_one(tmp_path):
    from repro.perf.engine import resolve_engine

    import measure

    if resolve_engine("auto") != "compiled":
        pytest.skip("the compiled replay tier is unavailable")
    workload = workloads.WORKLOADS["quick-warm"]
    bench = measure.Run(workload, 0, tmp_path, workloads.golden(workload.name))
    bench.one_pass(1)  # fills the cache
    tracer = layers.Tracer()
    bench.one_pass(1, tracer=tracer)
    assert bench.errors == [] and bench.failed == 0
    metrics = layers.pass_metrics(tracer)
    added_by_run = {"setup.import_s", "setup.kernel_load_s", "setup.kernel_compile_s",
                    "trace.overhead_frac", "runner.pool_busy_frac"}
    assert set(metrics) | added_by_run == {name for name, _ in layers.PER_LAYER}
    assert metrics["trace.unattributed_frac"] <= 0.10
    assert metrics["runner.jobs_executed"] > 0 and metrics["perf.kernel_mirror_violations"] == 0
