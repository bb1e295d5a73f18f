"""Declarative TOML/JSON fleet-scenario files.

Studies shouldn't require Python: a scenario file names its
sub-populations, rate phases, policies and seed, and ``repro fleet
--scenario-file PATH`` (optionally with ``--policies``) runs the sweep.
The full schema — every key, type, default and unit — is documented in
``docs/scenario-files.md``, with worked examples under
``examples/scenarios/``.

Every file section has one field table (:class:`Field` entries: key,
kind, default, bounds, choices) that drives both directions:
:func:`parse_table` validates a section against it and
:func:`scenario_to_mapping` dumps from it. The study loader
(:mod:`repro.fleet.study`) checks its ``[study]`` section against
:data:`STUDY_FIELDS` the same way. Only rules spanning several keys
(power-of-two sizes, divisibility, name shadowing, unreferenced
organization tables) are written out as code.

Validation is strict and errors are precise: every message carries the
dotted path of the offending key (``populations[1].rate_multiplier``),
unknown keys are rejected with a closest-match suggestion, types are
checked before values, and numbers must be finite.
:func:`scenario_to_mapping` is the exact inverse of
:func:`scenario_from_mapping`, so ``load -> dump -> load`` round-trips
(the round-trip test in ``tests/test_scenario_file.py`` pins this).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import (
    ARCC_MEMORY_CONFIG,
    BASELINE_MEMORY_CONFIG,
    MemoryConfig,
)
from repro.faults.types import DEFAULT_FIT_RATES, FaultRates
from repro.fleet.policies import POLICY_KEYS
from repro.fleet.scenarios import (
    SPATIAL_KINDS,
    FleetScenario,
    RatePhase,
    SpatialFaultModel,
    SubPopulation,
)
from repro.perf.engine import ENGINE_TIERS
from repro.util.bitops import is_power_of_two
from repro.util.suggest import did_you_mean, unknown_key_message
from repro.workloads.spec import ALL_MIXES

#: Named memory organizations a scenario file may reference.
CONFIG_NAMES: Dict[str, MemoryConfig] = {
    "arcc": ARCC_MEMORY_CONFIG,
    "baseline": BASELINE_MEMORY_CONFIG,
}

#: Organization I/O widths with datasheet parameters (x4 or x8).
_SUPPORTED_IO_WIDTHS = (4, 8)

#: Section names that mark a file as a *study* (a campaign over a grid
#: of scenario variants) rather than a plain scenario. Parsed by
#: :mod:`repro.fleet.study`; the plain loader rejects them with a
#: pointer so ``repro fleet`` never silently ignores a declared sweep.
STUDY_SECTION_KEYS = ("study", "sweep")


class ScenarioFileError(ValueError):
    """A scenario file failed validation.

    The message always names the offending key path (and the file, when
    loaded from disk) so a typo in slice three of a forty-line file is a
    one-glance fix.
    """

    @classmethod
    def at(cls, path: str, message: str) -> "ScenarioFileError":
        """The error for the key at dotted ``path`` (``""``: top level)."""
        return cls(f"{path}: {message}" if path else message)


#: The default of a key every section must spell out.
REQUIRED: Any = object()


@dataclass(frozen=True)
class Field:
    """One key of a file section and the rules its value must meet.

    ``kind`` is ``str`` (non-empty), ``text`` (may be empty), ``int``,
    ``float`` (finite; ints are accepted), ``bool``, ``table``, ``any``,
    or ``[kind]`` for a non-empty array of that kind, whose scalar items
    must be distinct. ``low``/``high`` bound numbers (``low`` is
    exclusive when ``open_low``); ``choices`` restricts strings. ``what``
    names an item in choice, duplicate and empty-array messages.
    """

    key: str
    kind: str
    default: Any = REQUIRED
    low: Optional[float] = None
    open_low: bool = False
    high: Optional[float] = None
    choices: Tuple[str, ...] = ()
    what: str = ""


#: The top-level ``policies`` list, shared by the study's policy sets.
POLICY_FIELD = Field("policies", "[str]", None, choices=POLICY_KEYS, what="policy")

SCENARIO_FIELDS = (
    Field("name", "str"),
    Field("description", "text", ""),
    Field("seed", "int", None, low=0),
    Field("channels", "int", None, low=1),
    POLICY_FIELD,
    Field("organizations", "table", {}),
    Field("populations", "[table]", what="sub-population"),
)
POPULATION_FIELDS = (
    Field("name", "str"),
    Field("channels", "int", low=1),
    Field("config", "str", "arcc"),
    Field("rates", "table", {}),
    Field("rate_multiplier", "float", 1.0, low=0.0, open_low=True),
    Field("lifespan_years", "float", 7.0, low=0.0, open_low=True),
    Field("schedule", "[table]", ()),
    Field("spatial", "table", None),
)
RATE_FIELDS = tuple(
    Field(f.name, "float", getattr(DEFAULT_FIT_RATES, f.name), low=0.0)
    for f in fields(FaultRates)
)
PHASE_FIELDS = (
    Field("duration_years", "float", low=0.0, open_low=True),
    Field("multiplier", "float", low=0.0),
)
SPATIAL_FIELDS = (
    Field("kind", "str", choices=SPATIAL_KINDS, what="spatial kind"),
    Field("fraction", "float", 0.5, low=0.0, open_low=True, high=1.0),
    Field("banks", "int", 1, low=1),
    Field("rows", "int", 64, low=1),
    Field("columns", "int", 64, low=1),
)
#: ``[organizations.<name>]``: every :class:`MemoryConfig` field but the
#: name (the table key), with the dataclass defaults.
ORGANIZATION_FIELDS = tuple(
    Field(f.name, "str", "DDR2-667")
    if f.name == "technology"
    else Field(f.name, "int", REQUIRED if f.default is MISSING else f.default, low=1)
    for f in fields(MemoryConfig)
    if f.name != "name"
)
STUDY_FIELDS = (
    Field("description", "text", None),
    Field("measured", "bool", False),
    Field("engine", "str", "auto", choices=ENGINE_TIERS, what="engine tier"),
    Field("mixes", "int", None, low=1, high=len(ALL_MIXES)),
    Field("instruction_scales", "[int]", (), low=1),
    Field("rate_multipliers", "[float]", (1.0,), low=0.0, open_low=True),
    Field("organizations", "[str]", ()),
    Field("policies", "[any]", None),
    Field("upgraded_fractions", "[float]", (), low=0.0, high=1.0),
)


@dataclass(frozen=True)
class ScenarioFile:
    """A parsed scenario file: the scenario plus its run defaults.

    ``seed``/``channels``/``policies`` are optional file-level defaults
    for the corresponding ``repro fleet`` flags; explicit command-line
    flags win over them. ``seed`` and ``channels`` apply only to this
    file's scenario (built-in scenarios named alongside it keep their
    own defaults); ``policies`` selects the run's mode, so it applies
    to the whole invocation. ``organizations`` holds the file's custom
    ``[organizations.<name>]`` tables (the populations, or a study's
    organizations axis, embed the same configs, so this is
    introspection, not extra state).
    """

    scenario: FleetScenario
    seed: Optional[int] = None
    channels: Optional[int] = None
    policies: Optional[Tuple[str, ...]] = None
    organizations: Tuple[MemoryConfig, ...] = ()


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def check_value(value: Any, field: Field, path: str) -> Any:
    """Check one value against ``field``; arrays come back as tuples."""
    kind = field.kind
    fail = ScenarioFileError.at
    if kind.startswith("["):
        if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
            raise fail(path, f"expected an array, got {type(value).__name__}")
        if not value:
            what = field.what
            raise fail(path, f"needs at least one {what}" if what else "must not be empty")
        item = replace(field, kind=kind[1:-1])
        items = tuple(check_value(v, item, f"{path}[{i}]") for i, v in enumerate(value))
        if item.kind not in ("table", "any"):
            for i, v in enumerate(items):
                if v in items[:i]:
                    raise fail(f"{path}[{i}]", f"duplicate {field.what or 'axis value'} {v!r}")
        return items
    if kind == "table" and not isinstance(value, Mapping):
        raise fail(path, f"expected a table/object, got {type(value).__name__}")
    if kind in ("str", "text") and not isinstance(value, str):
        raise fail(path, f"expected str, got {type(value).__name__}")
    if kind == "bool" and not isinstance(value, bool):
        raise fail(path, f"expected bool, got {type(value).__name__}")
    if kind == "str" and not value:
        raise fail(path, "must not be empty")
    if field.choices and value not in field.choices:
        raise fail(path, unknown_key_message(field.what, value, field.choices))
    if kind in ("int", "float"):
        # bool is an int subclass; a scenario never wants `channels = true`.
        numeric = (int, float) if kind == "float" else int
        if isinstance(value, bool) or not isinstance(value, numeric):
            label = "number" if kind == "float" else "int"
            raise fail(path, f"expected {label}, got {type(value).__name__}")
        if kind == "float":
            value = float(value)
            if not math.isfinite(value):
                raise fail(path, f"must be finite, got {value}")
        shown = f"{value:g}" if kind == "float" else value
        low = field.low
        if low is not None and (value <= low if field.open_low else value < low):
            raise fail(path, f"must be {'>' if field.open_low else '>='} {low:g}, got {shown}")
        if field.high is not None and value > field.high:
            raise fail(path, f"must be <= {field.high:g}, got {shown}")
    return value


def parse_table(
    raw: Any, table: Sequence[Field], path: str
) -> Dict[str, Any]:
    """Validate one file section against its field table.

    Checks that ``raw`` is a table, that every key is known (with a
    did-you-mean suggestion), that required keys are present, and each
    present value with :func:`check_value`. Returns every field's value,
    defaults filled in, keyed in table order.

    Examples
    --------
    >>> parse_table({"duration_years": 0.5, "multiplier": 2}, PHASE_FIELDS, "p")
    {'duration_years': 0.5, 'multiplier': 2.0}
    >>> parse_table({"multiplier": -1.0}, PHASE_FIELDS, "schedule[0]")
    Traceback (most recent call last):
    ...
    repro.fleet.scenario_file.ScenarioFileError: schedule[0]: missing required key 'duration_years'
    """
    if not isinstance(raw, Mapping):
        raise ScenarioFileError.at(
            path, f"expected a table/object, got {type(raw).__name__}"
        )
    keys = [field.key for field in table]
    for key in raw:
        if key not in keys:
            raise ScenarioFileError.at(
                _join(path, str(key)),
                f"unknown key{did_you_mean(str(key), keys)}; "
                f"allowed: {', '.join(keys)}",
            )
    for field in table:
        if field.default is REQUIRED and field.key not in raw:
            raise ScenarioFileError.at(
                path, f"missing required key {field.key!r}"
            )
    return {
        field.key: check_value(raw[field.key], field, _join(path, field.key))
        if field.key in raw
        else field.default
        for field in table
    }


def organization_from_mapping(
    name: str, table: Mapping[str, Any], path: str = "organizations"
) -> MemoryConfig:
    """One ``[organizations.<name>]`` table -> :class:`MemoryConfig`.

    The table key is the organization's name (what populations reference
    via ``config`` and what reports print); it must not shadow a
    built-in name. Beyond :data:`ORGANIZATION_FIELDS`, checks the rules
    that span keys: supported I/O widths, power-of-two line/page sizes
    and divisibility. The fuzz sampler (:mod:`repro.fuzz.sampler`)
    builds its random organizations through this function so a sampled
    case can never be schema-invalid.

    Examples
    --------
    >>> config = organization_from_mapping("tiny-x8", {
    ...     "io_width": 8, "channels": 3, "ranks_per_channel": 1,
    ...     "devices_per_rank": 9, "data_devices_per_rank": 8,
    ... })
    >>> (config.channels, config.check_devices_per_rank)
    (3, 1)
    """
    if not name:
        raise ScenarioFileError.at(path, "organization names must not be empty")
    path = f"{path}.{name}"
    if name in CONFIG_NAMES:
        raise ScenarioFileError.at(
            path,
            f"organization name {name!r} shadows a built-in config; "
            f"built-ins: {', '.join(CONFIG_NAMES)}",
        )
    values = parse_table(table, ORGANIZATION_FIELDS, path)
    for key in ("cacheline_bytes", "page_bytes"):
        if not is_power_of_two(values[key]):
            raise ScenarioFileError.at(
                f"{path}.{key}", f"must be a power of two, got {values[key]}"
            )
    io_width = values["io_width"]
    if io_width not in _SUPPORTED_IO_WIDTHS:
        raise ScenarioFileError.at(
            f"{path}.io_width",
            f"no datasheet parameters for x{io_width} devices; "
            f"supported: {', '.join(str(w) for w in _SUPPORTED_IO_WIDTHS)}",
        )
    for key, unit in (
        ("page_bytes", "cacheline_bytes"),
        ("capacity_per_channel_bytes", "page_bytes"),
    ):
        if values[key] % values[unit]:
            raise ScenarioFileError.at(
                f"{path}.{key}",
                f"must be a multiple of {unit} ({values[unit]}), "
                f"got {values[key]}",
            )
    try:
        return MemoryConfig(name=name, **values)
    except ValueError as exc:
        raise ScenarioFileError.at(path, str(exc)) from exc


def _parse_population(
    raw: Any, path: str, configs: Mapping[str, MemoryConfig]
) -> SubPopulation:
    values = parse_table(raw, POPULATION_FIELDS, path)
    if values["config"] not in configs:
        raise ScenarioFileError.at(
            f"{path}.config",
            unknown_key_message("memory config", values["config"], configs),
        )
    values["config"] = configs[values["config"]]
    values["rates"] = FaultRates(
        **parse_table(values["rates"], RATE_FIELDS, f"{path}.rates")
    )
    values["schedule"] = tuple(
        RatePhase(**parse_table(phase, PHASE_FIELDS, f"{path}.schedule[{i}]"))
        for i, phase in enumerate(values["schedule"])
    )
    if values["spatial"] is not None:
        values["spatial"] = SpatialFaultModel(
            **parse_table(values["spatial"], SPATIAL_FIELDS, f"{path}.spatial")
        )
    return SubPopulation(**values)


def scenario_from_mapping(
    raw: Mapping[str, Any],
    source: str = "",
    *,
    axis_organizations: Sequence[str] = (),
) -> ScenarioFile:
    """Validate a parsed TOML/JSON mapping into a :class:`ScenarioFile`.

    ``source`` (usually the file path) prefixes every error message.
    Raises :class:`ScenarioFileError` with the dotted path of the first
    offending key. ``axis_organizations`` names the organizations a
    study's ``organizations`` axis deploys: their tables are legal
    without a referencing population (the study loader passes them).
    """
    try:
        for key in STUDY_SECTION_KEYS:
            if isinstance(raw, Mapping) and key in raw:
                raise ScenarioFileError.at(
                    key,
                    "this file declares a study campaign; run it with "
                    "`repro study` (repro.fleet.study.load_study_file), "
                    "not as a plain scenario",
                )
        values = parse_table(raw, SCENARIO_FIELDS, "")
        organizations = {
            name: organization_from_mapping(name, table)
            for name, table in values["organizations"].items()
        }
        configs = {**CONFIG_NAMES, **organizations}
        populations = tuple(
            _parse_population(pop, f"populations[{i}]", configs)
            for i, pop in enumerate(values["populations"])
        )
        # Strict like everything else — and what keeps load -> dump ->
        # load exact: a dump can only emit organizations its populations
        # reference, so an unreferenced table (usually a typo in some
        # population's `config`) is rejected rather than silently lost.
        referenced = {pop.config.name for pop in populations}
        referenced.update(axis_organizations)
        unused = [name for name in organizations if name not in referenced]
        if unused:
            raise ScenarioFileError.at(
                f"organizations.{unused[0]}",
                "organization is not referenced by any population "
                + ("or the study's organizations axis " if axis_organizations else "")
                + "(reference it via `config = " + repr(unused[0]) + "` "
                "or remove the table)",
            )
        try:
            scenario = FleetScenario(
                name=values["name"],
                description=values["description"],
                populations=populations,
            )
        except ValueError as exc:
            raise ScenarioFileError.at("populations", str(exc)) from exc
    except ScenarioFileError as exc:
        if source:
            raise ScenarioFileError(f"{source}: {exc}") from None
        raise
    return ScenarioFile(
        scenario=scenario,
        seed=values["seed"],
        channels=values["channels"],
        policies=values["policies"],
        organizations=tuple(organizations.values()),
    )


def load_raw_mapping(path: "str | Path") -> Mapping[str, Any]:
    """Parse a ``.toml``/``.json`` file into its raw top-level mapping.

    The shared front half of :func:`load_scenario_file` and the study
    loader (:func:`repro.fleet.study.load_study_file`): extension
    dispatch, parse-error wrapping and the top-level-table check, with
    no schema interpretation.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".toml":
        import tomllib

        try:
            with path.open("rb") as handle:
                raw = tomllib.load(handle)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioFileError(f"{path}: invalid TOML: {exc}") from exc
    elif suffix == ".json":
        try:
            with path.open("r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ScenarioFileError(f"{path}: invalid JSON: {exc}") from exc
    else:
        raise ScenarioFileError(
            f"{path}: unsupported extension {suffix!r} (use .toml or .json)"
        )
    if not isinstance(raw, Mapping):
        raise ScenarioFileError(
            f"{path}: top level must be a table/object, "
            f"got {type(raw).__name__}"
        )
    return raw


def load_scenario_file(path: "str | Path") -> ScenarioFile:
    """Load and validate a ``.toml`` or ``.json`` scenario file.

    The format is chosen by file extension. Raises
    :class:`ScenarioFileError` on validation failures (message prefixed
    with the file path and the offending key path) and ``OSError`` when
    the file cannot be read. Files carrying a ``[study]``/``[sweep]``
    section are rejected with a pointer to ``repro study``.
    """
    path = Path(path)
    return scenario_from_mapping(load_raw_mapping(path), source=str(path))


def _config_name(config: MemoryConfig) -> str:
    for name, known in CONFIG_NAMES.items():
        if known == config:
            return name
    if config.name in CONFIG_NAMES:
        raise ScenarioFileError(
            f"custom memory config is named {config.name!r}, which shadows "
            f"a built-in; built-ins: {', '.join(CONFIG_NAMES)}"
        )
    return config.name


def _dump(value: Any, table: Sequence[Field]) -> Dict[str, Any]:
    """The section of one dataclass value, keyed by its field table."""
    return {field.key: getattr(value, field.key) for field in table}


def scenario_to_mapping(
    scenario: FleetScenario,
    seed: Optional[int] = None,
    channels: Optional[int] = None,
    policies: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The plain-dict form of a scenario — the inverse of
    :func:`scenario_from_mapping`.

    Every population is written out in full (no defaults elided), and
    every non-built-in organization becomes an ``organizations`` table
    keyed by its name, so a dump is self-documenting and round-trips
    exactly.
    """
    organizations = {
        _config_name(config): _dump(config, ORGANIZATION_FIELDS)
        for config in scenario.organizations()
        if config not in CONFIG_NAMES.values()
    }
    populations: List[Dict[str, Any]] = []
    for pop in scenario.populations:
        entry = _dump(pop, POPULATION_FIELDS)
        entry.update(
            config=_config_name(pop.config),
            rates=_dump(pop.rates, RATE_FIELDS),
            schedule=[_dump(phase, PHASE_FIELDS) for phase in pop.schedule],
            spatial=pop.spatial and _dump(pop.spatial, SPATIAL_FIELDS),
        )
        # No schedule and no spatial model are written as absent keys.
        populations.append(
            {key: value for key, value in entry.items() if value not in (None, [])}
        )
    out = {
        "name": scenario.name,
        "description": scenario.description,
        "seed": seed,
        "channels": channels,
        "policies": None if policies is None else list(policies),
        "organizations": organizations or None,
        "populations": populations,
    }
    return {key: value for key, value in out.items() if value is not None}


def dump_scenario_json(
    scenario: FleetScenario,
    path: "str | Path",
    seed: Optional[int] = None,
    channels: Optional[int] = None,
    policies: Optional[Sequence[str]] = None,
) -> None:
    """Write a scenario as a ``.json`` file :func:`load_scenario_file`
    accepts (the stdlib has no TOML writer, so dumps are JSON-only)."""
    mapping = scenario_to_mapping(
        scenario, seed=seed, channels=channels, policies=policies
    )
    Path(path).write_text(
        json.dumps(mapping, indent=2) + "\n", encoding="utf-8"
    )
