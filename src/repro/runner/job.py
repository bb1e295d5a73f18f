"""Declarative units of experiment work.

A :class:`Job` is one self-contained computation: a picklable callable, a
frozen keyword configuration, and an explicit RNG seed. Figures and
Monte-Carlo sweeps describe themselves as lists of jobs; the executor
decides whether they run inline or fan out across worker processes, and
the cache decides whether they run at all. Keeping the description inert
(no closures, no live generators) is what makes all three possible.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

#: A batch's description memo: ``(id(value), nested)`` -> ``(value,
#: description)``. Keyed by identity, never equality (``0.0 == -0.0``,
#: ``1 == 1.0 == True``); holding ``value`` keeps its ``id`` from being
#: reused while the memo lives. Valid only while the values it has seen
#: stay unmutated: one per batch, never one per process.
Memo = Dict[Tuple[int, bool], Tuple[Any, Any]]

#: Types that describe as themselves (exact match; subclasses such as
#: enums and NumPy's ``float64`` take the checks below).
_SCALARS = frozenset({str, int, float, bool, type(None)})


def describe_value(value: Any) -> Any:
    """Canonical, hashable-by-JSON description of a config value.

    Used to build cache keys, so it must be stable across processes and
    interpreter runs: enums collapse to their names, dataclasses to a
    sorted field mapping, callables to ``module:qualname``, NumPy arrays
    to dtype, shape and a SHA-256 of their bytes, NumPy integer and bool
    scalars to Python ones. Anything else raises ``TypeError`` — a
    ``repr`` fallback could let distinct values share a key (NumPy
    elides the middle of large arrays) or embed a memory address.
    """
    return _describe(value, False, {})


def _describe(value: Any, nested: bool, memo: Memo) -> Any:
    # ``nested``: inside a dataclass, where (as ``dataclasses.asdict``
    # has it) a dataclass is a plain field mapping without its type name.
    if type(value) in _SCALARS:
        return value
    key = (id(value), nested)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (value, _describe_new(value, nested, memo))
    return hit[1]


def _describe_new(value: Any, nested: bool, memo: Memo) -> Any:
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _describe(getattr(value, f.name), True, memo)
            for f in dataclasses.fields(value)
        }
        if nested:
            return fields
        return {"__dataclass__": type(value).__name__, **dict(sorted(fields.items()))}
    if isinstance(value, dict) or isinstance(value, Mapping):
        return {
            str(_describe(k, nested, memo)): _describe(v, nested, memo)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_describe(v, nested, memo) for v in value]
    if isinstance(value, (str, int, float)):
        return value
    if isinstance(value, np.ndarray) and not value.dtype.hasobject:
        return {
            "__ndarray__": str(value.dtype),
            "shape": list(value.shape),
            "sha256": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest(),
        }
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    if callable(value) and hasattr(value, "__qualname__"):
        return f"{getattr(value, '__module__', '?')}:{value.__qualname__}"
    raise TypeError(
        f"cannot canonicalize a {type(value).__module__}.{type(value).__qualname__}"
        " value for a cache key"
    )


@dataclass(frozen=True)
class Job:
    """One schedulable experiment computation.

    ``fn`` must be an importable module-level callable (pickled by
    reference when shipped to a worker process); ``config`` holds its
    keyword arguments as a sorted tuple so equality is order-insensitive
    (values may themselves be unhashable, e.g. dicts — compare jobs or
    key them via :meth:`describe`, not ``hash``); ``seed`` (when set) is
    passed as the ``seed`` keyword, giving every job its own
    deterministic RNG stream.

    Examples
    --------
    >>> def double(x):
    ...     return 2 * x
    >>> job = Job.create("double[3]", double, x=3)
    >>> job.execute()
    6
    >>> job.describe()["config"]
    {'x': 3}
    """

    name: str
    fn: Callable[..., Any]
    config: Tuple[Tuple[str, Any], ...] = ()
    seed: Optional[int] = None
    #: :func:`job_identities`' result, kept on the instance (never
    #: pickled: a job sent to a worker carries its four fields only).
    _batch_identity: ClassVar[Optional[str]] = None

    @classmethod
    def create(
        cls,
        name: str,
        fn: Callable[..., Any],
        seed: Optional[int] = None,
        **config: Any,
    ) -> "Job":
        """Build a job from plain keyword arguments."""
        return cls(
            name=name,
            fn=fn,
            config=tuple(sorted(config.items())),
            seed=seed,
        )

    @property
    def kwargs(self) -> Dict[str, Any]:
        """Keyword arguments the callable receives (seed included)."""
        kw = dict(self.config)
        if self.seed is not None:
            kw["seed"] = self.seed
        return kw

    def execute(self) -> Any:
        """Run the job in the current process."""
        return self.fn(**self.kwargs)

    def describe(self) -> Dict[str, Any]:
        """Stable description for logging; without ``name``, its JSON is
        the job's identity (:func:`job_identities`)."""
        memo: Memo = {}
        return {
            "name": self.name,
            "fn": _describe(self.fn, False, memo),
            "seed": _describe(self.seed, False, memo),
            "config": {k: _describe(v, False, memo) for k, v in self.config},
        }

    def __reduce__(self) -> Tuple[Any, ...]:
        return (type(self), (self.name, self.fn, self.config, self.seed))


#: A batch's JSON memo: ``id(value)`` -> ``(value, JSON of its description)``.
Texts = Dict[int, Tuple[Any, str]]


def _json_text(value: Any, memo: Memo, texts: Texts) -> str:
    hit = texts.get(id(value))
    if hit is None:
        text = json.dumps(_describe(value, False, memo), sort_keys=True)
        hit = texts[id(value)] = (value, text)
    return hit[1]


def _identity_text(job: Job, memo: Memo, texts: Texts) -> str:
    """``json.dumps`` (``sort_keys=True``) of ``job.describe()`` without
    its ``name``, spliced from the JSON of each top-level value, which
    is encoded once per batch."""
    config = ", ".join(
        f"{_json_text(k, memo, texts)}: {_json_text(v, memo, texts)}"
        for k, v in sorted(dict(job.config).items())
    )
    fn = _json_text(job.fn, memo, texts)
    seed = _json_text(job.seed, memo, texts)
    return f'{{"config": {{{config}}}, "fn": {fn}, "seed": {seed}}}'


def job_identities(jobs: Iterable[Job]) -> List[str]:
    """Canonical identity of each job's *computation* (name excluded).

    Two jobs with the same callable, configuration and seed compute the
    same value no matter what their display names are, so the executor
    runs one and shares the result — e.g. when ``repro run`` flattens
    Figure 7.1, Figures 7.2/7.3 and the sensitivity sweep into one
    batch, each (mix, organization, fraction) simulation runs once.

    The batch shares one description memo, so a config object used by
    many jobs is described and encoded once, and each identity is kept
    on its job: cache lookups, deduplication and cache writes reuse it.
    Configs must therefore not be mutated once their jobs are planned.
    """
    memo: Memo = {}
    texts: Texts = {}
    identities = []
    for job in jobs:
        identity = job._batch_identity
        if identity is None:
            identity = _identity_text(job, memo, texts)
            object.__setattr__(job, "_batch_identity", identity)
        identities.append(identity)
    return identities


def job_identity(job: Job) -> str:
    """One job's identity (see :func:`job_identities`)."""
    return job_identities((job,))[0]


@dataclass
class JobResult:
    """Outcome of one job: its value plus scheduling metadata."""

    name: str
    value: Any
    seconds: float = 0.0
    cached: bool = False


def _identity(values: List[Any]) -> List[Any]:
    return values


@dataclass
class ExperimentPlan:
    """A figure/table reproduction as jobs plus an assembly step.

    ``assemble`` receives the job values in job order and builds the
    figure's result object; it runs in the parent process, so it may be a
    closure over the plan's parameters.

    Examples
    --------
    >>> def double(x):
    ...     return 2 * x
    >>> plan = ExperimentPlan(
    ...     name="demo",
    ...     jobs=[Job.create(f"double[{x}]", double, x=x) for x in (1, 2)],
    ...     assemble=sum,
    ... )
    >>> plan.assemble([job.execute() for job in plan.jobs])
    6
    """

    name: str
    jobs: List[Job] = field(default_factory=list)
    assemble: Callable[[List[Any]], Any] = _identity
