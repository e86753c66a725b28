"""Single JSON configuration for the CLI, with production defaults baked in.

Running `generate` with no overrides reproduces the default 250-toy set.
Every default comes from the dataclass that owns the setting; only the
CLI's print limits and output directory are set here. Unknown keys are
rejected so typos fail loudly instead of being ignored, and every value
must have its default's JSON type.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .analysis import GripperModel
from .assembler import GenerationConfig
from .detpool import EncoderConfig
from .errors import ConfigError, IoFailure
from .io import generation_config_from_dict, generation_config_to_dict, is_finite
from .mesh import Tessellation

DEFAULT_CONFIG: dict = {
    "generation": generation_config_to_dict(GenerationConfig()),
    "tessellation": asdict(Tessellation()),
    "gripper": asdict(GripperModel()),
    "print": {"build_edge": 0.256, "min_wall": 0.008},
    "encoder": {**asdict(EncoderConfig()), "seed": 0},
    "output_dir": "out",
}

_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _merge(default, value, path: str):
    """`value` checked against the JSON type of `default`, objects key by key.

    A key that `value` leaves out takes its default, copied by the same walk.
    A list must hold items of its default's first item's type.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config'} must be an object")
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in default:
                raise ConfigError(f"unknown config key '{prefix}{key}'")
        return {
            key: _merge(item, value.get(key, item), prefix + key)
            for key, item in default.items()
        }
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {type(value).__name__}")
        return [_merge(default[0], item, f"{path}[{k}]") for k, item in enumerate(value)]
    kind = type(default)
    accepted = (int, float) if kind is float else kind
    # bool is an int subclass in Python, but never a valid number here.
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path} must be {_KIND_NAMES[kind]}, got {type(value).__name__}")
    if kind is float and not is_finite(value):
        # The repr of a huge integer is long, and past 4300 digits it raises.
        shown = repr(value) if isinstance(value, float) else "an integer too large for a float"
        raise ConfigError(f"{path} must be a finite number, got {shown}")
    return value


def _checked(section: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`; a value it rejects is a ConfigError naming the section."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


@dataclass(frozen=True)
class CliConfig:
    generation: GenerationConfig
    tessellation: Tessellation
    gripper: GripperModel
    build_edge: float
    min_wall: float
    encoder: EncoderConfig
    encoder_seed: int
    output_dir: str


def config_from_dict(raw: dict) -> CliConfig:
    merged = _merge(DEFAULT_CONFIG, raw, "")
    encoder = merged["encoder"]
    encoder_seed = encoder.pop("seed")
    if encoder_seed < 0:
        raise ConfigError("encoder.seed must be >= 0")
    return CliConfig(
        generation=_checked("generation", generation_config_from_dict, merged["generation"]),
        tessellation=_checked("tessellation", Tessellation, **merged["tessellation"]),
        gripper=_checked("gripper", GripperModel, **merged["gripper"]),
        build_edge=float(merged["print"]["build_edge"]),
        min_wall=float(merged["print"]["min_wall"]),
        encoder=_checked("encoder", EncoderConfig, **encoder),
        encoder_seed=encoder_seed,
        output_dir=merged["output_dir"],
    )


def load_config(path: str | Path | None) -> CliConfig:
    """Load and validate a config file; None gives the built-in defaults."""
    if path is None:
        return config_from_dict({})
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)
