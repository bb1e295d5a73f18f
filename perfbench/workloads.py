"""The benchmark's three workloads, their seeding and their output checks.

Each workload builds a list of ``(figure key, plan)`` pairs from the
benchmark seed. The seed is an *offset*: every planner that accepts a
``seed=`` keyword receives its repo default plus the offset, so seed 0
reproduces the repo's default outputs, which ``golden.json`` pins.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Trace figures run at full registry scale by ``trace-full``.
TRACE_FIGURES = ("fig7.1", "fig7.2", "sensitivity")

#: ``fleet-policy``: every built-in scenario at this size, these policies.
FLEET_CHANNELS = 100_000
FLEET_POLICIES = ("arcc", "sccdcd", "lotecc")

KeyedPlans = List[Tuple[str, Any]]


@dataclass(frozen=True)
class Workload:
    """One named input set: how to plan a pass and how to run it."""

    name: str
    build: Callable[[int], KeyedPlans]
    #: Worker processes of a timed pass (``--jobs``).
    jobs: int
    #: Every pass reads one result cache, filled by an untimed pass
    #: beforehand; otherwise no result cache.
    warm: bool = False


def _seeded(builder: Callable[..., Any], kwargs: Dict[str, Any], offset: int) -> Dict[str, Any]:
    """``kwargs`` with ``seed`` shifted by ``offset``, if the builder takes one."""
    parameters = inspect.signature(builder).parameters
    if "seed" not in parameters:
        return kwargs
    base = kwargs.get("seed", parameters["seed"].default)
    return {**kwargs, "seed": base + offset}


def _registry_plans(keys, quick: bool, offset: int) -> KeyedPlans:
    from repro.runner.registry import FIGURES

    plans = []
    for key in keys:
        spec = FIGURES[key]
        scale = spec.quick if quick else spec.defaults
        seeded = _seeded(spec.builder, dict(scale), offset)
        overrides = {"seed": seeded["seed"]} if "seed" in seeded else {}
        plans.append((key, spec.plan(quick=quick, **overrides)))
    return plans


def quick_plans(offset: int) -> KeyedPlans:
    """``repro run --quick``: every registry artifact at smoke scale."""
    from repro.runner.registry import FIGURES

    return _registry_plans(list(FIGURES), True, offset)


def trace_full_plans(offset: int) -> KeyedPlans:
    """The three trace-simulation figures at full registry scale."""
    return _registry_plans(TRACE_FIGURES, False, offset)


def fleet_policy_plans(offset: int) -> KeyedPlans:
    """ARCC vs SCCDCD vs LOT-ECC over every built-in scenario."""
    from repro.fleet import DEFAULT_SCENARIOS, plan_fleet_compare

    return [
        (
            "fleet-compare",
            plan_fleet_compare(
                **_seeded(
                    plan_fleet_compare,
                    {
                        "scenario": name,
                        "policies": FLEET_POLICIES,
                        "channels": FLEET_CHANNELS,
                    },
                    offset,
                )
            ),
        )
        for name in DEFAULT_SCENARIOS
    ]


#: No workload writes a cold cache on every pass: that pass's ~350 file
#: writes land on the checkout's shared disk, and on a 2-core x86-64 VM
#: its run-to-run spread was 8-10% even in reference seconds (13-14% in
#: host seconds), against 2-4% for the warm pass over the same plan.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("quick-warm", quick_plans, jobs=1, warm=True),
        Workload("trace-full", trace_full_plans, jobs=1),
        Workload("fleet-policy", fleet_policy_plans, jobs=2),
    )
}


# -- work done, for throughput lines -----------------------------------------


def simulated_instructions(plans: KeyedPlans) -> int:
    """Instructions of the unique trace-replay points (per core x cores)."""
    from repro.perf.engine import simulate_point_job
    from repro.runner import job_identity

    seen = set()
    total = 0
    for _, plan in plans:
        for job in plan.jobs:
            if job.fn is not simulate_point_job:
                continue
            identity = job_identity(job)
            if identity in seen:
                continue
            seen.add(identity)
            config = dict(job.config)
            total += config["instructions_per_core"] * len(config["mix"].profiles)
    return total


def channel_years(workload: Workload) -> float:
    """Σ channels x report years x policies of the policy comparison."""
    if workload.name != "fleet-policy":
        return 0.0
    from repro.fleet import DEFAULT_SCENARIOS

    total = 0.0
    for scenario in DEFAULT_SCENARIOS.values():
        scaled = scenario.scaled_to(FLEET_CHANNELS)
        total += sum(pop.channels * pop.report_years for pop in scaled.populations)
    return total * len(FLEET_POLICIES)


# -- output checks -------------------------------------------------------------


def render(result: Any) -> str:
    """A report as ``repro run`` prints it."""
    return result.to_table() if hasattr(result, "to_table") else str(result)


def digests(plans: KeyedPlans, results: List[Any]) -> Dict[str, str]:
    """SHA-256 of each report table, keyed by figure (and scenario, when
    one figure is planned once per scenario)."""
    keys = [key for key, _ in plans]
    out: Dict[str, str] = {}
    for key, result in zip(keys, results):
        label = f"{key}[{result.scenario}]" if keys.count(key) > 1 else key
        out[label] = hashlib.sha256(render(result).encode()).hexdigest()
    return out


def golden(workload: str) -> Dict[str, str]:
    """Recorded digests of ``workload`` at seed 0 (empty if none)."""
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text()).get(workload, {})


def record_golden(workload: str, recorded: Dict[str, str]) -> None:
    table = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    table[workload] = recorded
    GOLDEN_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def _numbers(value: Any) -> List[float]:
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _numbers(item)]
    if isinstance(value, dict):
        return [x for item in value.values() for x in _numbers(item)]
    return []


def _intervals(value: Any) -> List[Tuple[float, float]]:
    """Every ``(mean, ci half-width)`` pair inside a report field."""
    if isinstance(value, tuple) and len(value) in (2, 3) and len(_numbers(value)) == len(value):
        return [(float(value[0]), float(value[1]))]
    if isinstance(value, (list, tuple)):
        return [pair for item in value for pair in _intervals(item)]
    return []


#: Report classes whose interval fields must satisfy lower <= mean <= upper.
_CI_REPORTS = ("PolicySliceReport", "PolicyFleetSummary", "SubPopulationReport")


def invariant_errors(result: Any) -> List[str]:
    """Report invariants the engines promise, checked on a finished report.

    * every number under a field named ``*fraction*`` lies in [0, 1];
    * fleet report intervals have ``lower <= mean <= upper``;
    * measured profiles stay within their worst-case bounds;
    * a fuzz campaign found no divergence.
    """
    errors: List[str] = []

    def walk(value: Any, path: str) -> None:
        kind = type(value).__name__
        if kind == "MeasuredOverheadProfile":
            try:
                value.validate_bounds()
            except ValueError as exc:
                errors.append(f"{path}: {exc}")
        if kind == "CaseResult" and value.diverged:
            errors.append(f"{path}: fuzz case {value.index} ({value.oracle}) diverged")
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            if kind in ("Job", "MemoryConfig", "FaultRates"):
                return
            for field in dataclasses.fields(value):
                item = getattr(value, field.name)
                where = f"{path}.{field.name}"
                if "fraction" in field.name:
                    bad = [x for x in _numbers(item) if not 0.0 <= x <= 1.0]
                    if bad:
                        errors.append(f"{where}: {bad[0]!r} outside [0, 1]")
                if kind in _CI_REPORTS or field.name == "fleet_by_year":
                    for mean, half in _intervals(item):
                        if not (math.isfinite(mean) and half >= 0.0):
                            errors.append(f"{where}: interval ({mean!r}, ±{half!r})")
                walk(item, where)
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                walk(item, f"{path}[{index}]")
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}[{key!r}]")

    walk(result, type(result).__name__)
    return errors
