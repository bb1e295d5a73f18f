"""Batch job identities and cache keys against the describer they replaced.

The runner keys a batch with one shared description memo
(:func:`repro.runner.job_identities`). The describer it replaced ran
``dataclasses.asdict`` and then a recursive walk, once per job; it is
kept here, and only here, as the oracle. Every identity and every cache
key must match it byte for byte, so no existing cache entry is orphaned
and no two computations start sharing one.
"""

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.types import FaultRates, FaultType
from repro.reliability.analytical import ReliabilityParams, overlap_probability
from repro.runner import Job, ResultCache, job_identities, job_identity
from repro.runner.registry import FIGURES

VERSION = "0123456789abcdef"


def legacy_describe_value(value: Any) -> Any:
    """The per-job describer as it was before batch keying."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.asdict(value)
        return {
            "__dataclass__": type(value).__name__,
            **{k: legacy_describe_value(v) for k, v in sorted(fields.items())},
        }
    if isinstance(value, Mapping):
        return {
            str(legacy_describe_value(k)): legacy_describe_value(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [legacy_describe_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if callable(value):
        return (
            f"{getattr(value, '__module__', '?')}:"
            f"{getattr(value, '__qualname__', repr(value))}"
        )
    return repr(value)


def legacy_description(job: Job) -> dict:
    return {
        "fn": legacy_describe_value(job.fn),
        "seed": job.seed,
        "config": {k: legacy_describe_value(v) for k, v in job.config},
    }


def legacy_identity(job: Job) -> str:
    return json.dumps(legacy_description(job), sort_keys=True, default=repr)


def legacy_key(job: Job, version: str = VERSION) -> str:
    payload = json.dumps(
        {"code": version, "job": legacy_description(job)},
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def fresh(jobs):
    """Equal jobs with no identity computed yet (shared config objects)."""
    return [Job(job.name, job.fn, job.config, job.seed) for job in jobs]


@pytest.fixture(scope="module", params=[True, False], ids=["quick", "full"])
def registry_jobs(request):
    return [
        job
        for spec in FIGURES.values()
        for job in spec.plan(quick=request.param).jobs
    ]


class TestRegistryPlans:
    """Every job of every registry plan, at both scales."""

    def test_batch_identities_match_legacy(self, registry_jobs):
        jobs = fresh(registry_jobs)
        assert job_identities(jobs) == [legacy_identity(job) for job in jobs]

    def test_single_job_identities_match_legacy(self, registry_jobs):
        for job in fresh(registry_jobs):
            assert job_identity(job) == legacy_identity(job)

    def test_identity_is_the_description_without_name(self, registry_jobs):
        for job in fresh(registry_jobs):
            description = job.describe()
            del description["name"]
            assert job_identity(job) == json.dumps(description, sort_keys=True)

    def test_cache_keys_match_legacy(self, registry_jobs):
        cache = ResultCache("unused", version=VERSION)
        jobs = fresh(registry_jobs)
        job_identities(jobs)
        assert [cache.key(job) for job in jobs] == [legacy_key(job) for job in jobs]


class TestPinnedKey:
    """A literal identity and key: any drift in the format shows here."""

    JOB = Job.create(
        "pinned",
        overlap_probability,
        seed=7,
        a=FaultType.ROW,
        params=ReliabilityParams(
            rate_multiplier=2.0, rates=FaultRates(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        ),
        weights={FaultType.LANE: 0.5, "x": (1, None, True, -0.0)},
    )
    IDENTITY = (
        '{"config": {"a": "FaultType.ROW", "params": {"__dataclass__": '
        '"ReliabilityParams", "banks": 8, "columns": 2048, "devices_per_rank": 36, '
        '"ranks": 2, "rate_multiplier": 2.0, "rates": {"bank": 4.0, "bit": 1.0, '
        '"column": 3.0, "device": 5.0, "lane": 6.0, "row": 2.0}, "rows": 16384, '
        '"scrub_interval_hours": 4.0}, "weights": {"FaultType.LANE": 0.5, '
        '"x": [1, null, true, -0.0]}}, '
        '"fn": "repro.reliability.analytical:overlap_probability", "seed": 7}'
    )
    KEY = "b5b5545b0d864296f9d4835f851c7278"

    def test_identity(self):
        assert job_identity(fresh([self.JOB])[0]) == self.IDENTITY

    def test_key(self):
        job = fresh([self.JOB])[0]
        assert ResultCache("unused", version=VERSION).key(job) == self.KEY
        assert legacy_key(job) == self.KEY


# -- memo properties -----------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    a: Any
    b: Any


@dataclass
class Node:
    left: Any
    right: Any
    table: dict


#: Equal-but-distinct scalars a memo keyed by equality would conflate.
TRICKY = [0.0, -0.0, 1, 1.0, True, 0, False, None, "", "1"]

scalars = st.one_of(
    st.sampled_from(TRICKY),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.sampled_from(list(FaultType)),
)
keys = st.one_of(st.sampled_from(list(FaultType)), st.text(max_size=3), st.integers(-3, 3))


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=3),
        st.builds(Leaf, children, children),
        st.builds(Node, children, children, st.dictionaries(keys, children, max_size=2)),
    )


values = st.recursive(scalars, _extend, max_leaves=8)


def _job_fn(**kwargs):
    return kwargs


@st.composite
def batches(draw):
    """Jobs whose configs share objects from one pool, at the top level
    of one job and nested (inside a dataclass or container) in another."""
    pool = draw(st.lists(values, min_size=1, max_size=5))
    pick = st.sampled_from(pool)
    wrapped = st.one_of(
        pick,
        st.builds(Leaf, pick, pick),
        st.builds(Node, pick, pick, st.dictionaries(keys, pick, max_size=2)),
        st.lists(pick, max_size=3).map(tuple),
        st.dictionaries(keys, pick, max_size=2),
    )
    jobs = []
    for index in range(draw(st.integers(1, 6))):
        config = draw(st.dictionaries(st.sampled_from("pqrs"), wrapped, max_size=3))
        seed = draw(st.one_of(st.none(), st.integers(0, 2**64)))
        jobs.append(Job.create(f"j{index}", _job_fn, seed=seed, **config))
    return jobs


class TestMemoProperties:
    @settings(max_examples=200, deadline=None)
    @given(batches())
    def test_batch_identities_equal_per_job_legacy(self, jobs):
        expected = [legacy_identity(job) for job in jobs]
        assert job_identities(jobs) == expected
        # Cached on the jobs, and still right for the keys built from them.
        assert [job_identity(job) for job in jobs] == expected
        assert [ResultCache("unused", version=VERSION).key(job) for job in jobs] == [
            legacy_key(job) for job in jobs
        ]

    def test_instance_top_level_and_nested(self):
        shared = Leaf(FaultType.ROW, (1, 2))
        jobs = [
            Job.create("top", _job_fn, x=shared),
            Job.create("nested", _job_fn, x=Node(shared, shared, {FaultType.BIT: shared})),
            Job.create("again", _job_fn, x=[shared, {"k": shared}]),
        ]
        identities = job_identities(jobs)
        assert identities == [legacy_identity(job) for job in jobs]
        assert '"__dataclass__": "Leaf"' in identities[0]
        assert "Leaf" not in identities[1]

    @pytest.mark.parametrize("a,b", [(0.0, -0.0), (1, 1.0), (1, True), (0, False)])
    def test_equal_but_distinct_values_keep_distinct_identities(self, a, b):
        jobs = [
            Job.create("a", _job_fn, x=a, y=(a,), z={FaultType.ROW: a}),
            Job.create("b", _job_fn, x=b, y=(b,), z={FaultType.ROW: b}),
        ]
        first, second = job_identities(jobs)
        assert first != second
        assert [first, second] == [legacy_identity(job) for job in jobs]
