"""Run configuration: one JSON document validated into typed configs.

All physical quantities carry units in their field names (``loss_db``,
``dark_count_per_gate``, ``mean_photon_number``).  The master seed drives
every random stream of a run; see :func:`siqrng.pipeline.derive_streams`
for the split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .entropy_math import PARAM_KINDS, ProtocolParams
from .fileio import read_record, record_field
from .photonic_sim import ChannelConfig, DetectorConfig, SourceConfig, SourceMode

SWEEP_KEYS = ("loss_db", "mean_photon_number")
BASIS_CHOICE_MODES = ("active", "passive")


class ConfigError(ValueError):
    """Raised for a structurally or semantically invalid run configuration."""


@dataclass(frozen=True)
class SweepSpec:
    key: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.key not in SWEEP_KEYS:
            raise ConfigError(f"sweep key must be one of {SWEEP_KEYS}, got {self.key!r}")
        if not self.values:
            raise ConfigError("sweep needs at least one value")


@dataclass(frozen=True)
class RunConfig:
    params: ProtocolParams
    source: SourceConfig = field(default_factory=SourceConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    master_seed: int = 0
    sweep: SweepSpec | None = None
    basis_choice: str = "active"
    repetition_rate_hz: float = 1e6
    dead_time_s: float = 50e-9

    def __post_init__(self):
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigError(f"master seed must be a 64-bit value, got {self.master_seed}")
        if self.basis_choice not in BASIS_CHOICE_MODES:
            raise ConfigError(
                f"basis_choice must be one of {BASIS_CHOICE_MODES}, got {self.basis_choice!r}"
            )
        if self.repetition_rate_hz <= 0:
            raise ConfigError(f"repetition rate must be > 0, got {self.repetition_rate_hz}")
        if self.dead_time_s <= 0:
            raise ConfigError(f"dead time must be > 0, got {self.dead_time_s}")

    def with_sweep_value(self, value: float) -> "RunConfig":
        """A copy of this config with the sweep key pinned to one value."""
        if self.sweep is None:
            raise ConfigError("config has no sweep specification")
        if self.sweep.key == "loss_db":
            return replace(self, channel=ChannelConfig(loss_db=value))
        return replace(self, source=replace(self.source, mean_photon_number=value))


# the JSON type of every configuration key; the sections are nested objects
_RUN_KINDS = {"basis_choice": str, "repetition_rate_hz": float, "dead_time_s": float}
_SECTION_KINDS = {
    "source": {"mean_photon_number": float, "misalignment": float, "mode": str},
    "channel": {"loss_db": float},
    "detector": {"efficiency": float, "dark_count_per_gate": float},
}
_SWEEP_KINDS = {"key": str, "values": list}
_TOP_LEVEL_KEYS = {*PARAM_KINDS, *_RUN_KINDS, *_SECTION_KINDS, "master_seed", "sweep"}


def _require_keys(doc: dict, allowed: set, context: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _read(doc: dict, key: str, kind: type, context: str):
    """``doc[key]`` read by :func:`~siqrng.fileio.record_field`; a missing
    key, a wrong type or a number that is not finite is a ConfigError
    naming the key."""
    try:
        return record_field(doc, key, kind)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _fields(doc: dict, kinds: dict, context: str, as_given: bool = False) -> dict:
    """The keys of ``kinds`` present in ``doc``, each read by :func:`_read`.

    Absent keys are left to the defaults of the dataclass that takes them.
    ``as_given`` keeps each checked number as the document gave it (an int
    stays an int) instead of the float the reader returns.
    """
    fields = {}
    for key, kind in kinds.items():
        if key in doc:
            value = _read(doc, key, kind, context)
            fields[key] = doc[key] if as_given else value
    return fields


def _section(doc: dict, name: str) -> dict:
    """The keys of one nested object, checked and kept as given."""
    section = _read(doc, name, dict, "configuration") if name in doc else {}
    _require_keys(section, set(_SECTION_KINDS[name]), name)
    return _fields(section, _SECTION_KINDS[name], name, as_given=True)


def _sweep(doc: dict) -> SweepSpec:
    _require_keys(doc, set(_SWEEP_KINDS), "sweep")
    values = _read(doc, "values", list, "sweep")
    items = {f"values[{i}]": value for i, value in enumerate(values)}
    return SweepSpec(key=_read(doc, "key", str, "sweep"),
                     values=tuple(_read(items, key, float, "sweep") for key in items))


def _master_seed(doc: dict) -> int:
    """A JSON integer, or a string of hex digits."""
    seed = doc["master_seed"]
    if not isinstance(seed, str):
        return _read(doc, "master_seed", int, "configuration")
    try:
        return int(seed, 16)
    except ValueError:
        raise ConfigError(
            f"configuration: key 'master_seed' must be int or hex digits, got {seed!r}"
        ) from None


def config_from_dict(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig.

    Each key must have its JSON type: an integer for the counts, ``t_e``
    and the master seed (which may also be a string of hex digits), a
    number for the other quantities.  Top-level numbers become floats;
    the numbers in ``source``, ``channel`` and ``detector`` are kept as
    given.  Absent keys take the defaults of the dataclasses.

    Raises
    ------
    ConfigError
        On unknown keys, missing required fields, wrong types, or
        out-of-range values, sweep values included (range checks are
        delegated to the typed configs).
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    _require_keys(doc, _TOP_LEVEL_KEYS, "configuration")
    for key in ("total_pulses", "planned_x_count"):
        if key not in doc:
            raise ConfigError(f"missing required field {key!r}")
    params = _fields(doc, PARAM_KINDS, "configuration")
    run = _fields(doc, _RUN_KINDS, "configuration")
    source, channel, detector = (_section(doc, name) for name in _SECTION_KINDS)
    if "dark_count_per_gate" in detector:
        detector["dark_count"] = detector.pop("dark_count_per_gate")
    try:
        if "mode" in source:
            source["mode"] = SourceMode(source["mode"])
        run.update(
            params=ProtocolParams(**params),
            source=SourceConfig(**source),
            channel=ChannelConfig(**channel),
            detector=DetectorConfig(**detector),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if doc.get("sweep") is not None:
        run["sweep"] = _sweep(_read(doc, "sweep", dict, "configuration"))
    if "master_seed" in doc:
        run["master_seed"] = _master_seed(doc)
    config = RunConfig(**run)
    # each sweep point's config passes the same range checks before any session runs
    for i, value in enumerate(config.sweep.values if config.sweep else ()):
        try:
            config.with_sweep_value(value)
        except ValueError as exc:
            raise ConfigError(f"sweep: values[{i}]: {exc}") from None
    return config


def load_config(path: Path, overrides: dict | None = None) -> RunConfig:
    """The configuration in ``path``, with ``overrides`` (the values given on
    the command line) in place of its top-level keys before any key is
    read, so that both pass the same checks.  Errors name the file."""
    return read_record(path, lambda doc: config_from_dict({**doc, **(overrides or {})}))
