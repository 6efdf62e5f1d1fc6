"""Run configuration: one JSON document validated into typed configs.

All physical quantities carry units in their field names (``loss_db``,
``dark_count_per_gate``, ``mean_photon_number``).  The master seed drives
every random stream of a run; see :func:`siqrng.pipeline.derive_streams`
for the split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .entropy_math import ProtocolParams
from .fileio import read_json
from .photonic_sim import ChannelConfig, DetectorConfig, SourceConfig, SourceMode

DEFAULT_REPETITION_RATE_HZ = 1e6
DEFAULT_DEAD_TIME_S = 50e-9

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
    repetition_rate_hz: float = DEFAULT_REPETITION_RATE_HZ
    dead_time_s: float = DEFAULT_DEAD_TIME_S

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


_TOP_LEVEL_KEYS = {
    "total_pulses", "planned_x_count", "eps_theta_exponent", "t_e", "efficiency_ratio",
    "source", "channel", "detector", "master_seed", "sweep", "basis_choice",
    "repetition_rate_hz", "dead_time_s",
}


def _require_keys(doc: dict, allowed: set, context: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def config_from_dict(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig.

    Raises
    ------
    ConfigError
        On unknown keys, missing required fields, or out-of-range values
        (range checks are delegated to the typed configs).
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    _require_keys(doc, _TOP_LEVEL_KEYS, "configuration")
    try:
        params = ProtocolParams(
            total_pulses=int(doc["total_pulses"]),
            planned_x_count=int(doc["planned_x_count"]),
            eps_theta_exponent=float(doc.get("eps_theta_exponent", 100.0)),
            t_e=int(doc.get("t_e", 100)),
            efficiency_ratio=float(doc.get("efficiency_ratio", 1.0)),
        )
    except KeyError as exc:
        raise ConfigError(f"missing required field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    try:
        src_doc = dict(doc.get("source", {}))
        _require_keys(src_doc, {"mean_photon_number", "misalignment", "mode"}, "source")
        if "mode" in src_doc:
            src_doc["mode"] = SourceMode(src_doc["mode"])
        source = SourceConfig(**src_doc)

        ch_doc = dict(doc.get("channel", {}))
        _require_keys(ch_doc, {"loss_db"}, "channel")
        channel = ChannelConfig(**ch_doc)

        det_doc = dict(doc.get("detector", {}))
        _require_keys(det_doc, {"efficiency", "dark_count_per_gate"}, "detector")
        detector = DetectorConfig(
            efficiency=det_doc.get("efficiency", 0.45),
            dark_count=det_doc.get("dark_count_per_gate", 0.002),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    sweep = None
    if "sweep" in doc and doc["sweep"] is not None:
        sw = doc["sweep"]
        _require_keys(sw, {"key", "values"}, "sweep")
        sweep = SweepSpec(key=sw["key"], values=tuple(float(v) for v in sw["values"]))

    seed = doc.get("master_seed", 0)
    if isinstance(seed, str):
        seed = int(seed, 16)

    return RunConfig(
        params=params,
        source=source,
        channel=channel,
        detector=detector,
        master_seed=seed,
        sweep=sweep,
        basis_choice=doc.get("basis_choice", "active"),
        repetition_rate_hz=float(doc.get("repetition_rate_hz", DEFAULT_REPETITION_RATE_HZ)),
        dead_time_s=float(doc.get("dead_time_s", DEFAULT_DEAD_TIME_S)),
    )


def load_config(path: Path) -> RunConfig:
    return config_from_dict(read_json(path))
