"""Single JSON configuration for the CLI, with production defaults baked in.

Running `generate` with no overrides reproduces the default 250-toy set.
Unknown keys are rejected so typos fail loudly instead of being ignored.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

from .analysis import GripperModel
from .assembler import GenerationConfig
from .detpool import EncoderConfig
from .errors import ConfigError, IoFailure
from .io import generation_config_from_dict
from .mesh import Tessellation
from .policy import PolicyConfig

DEFAULT_CONFIG: dict = {
    "generation": {
        "ranges": {
            "cuboid": {
                "width": [0.02, 0.072],
                "height": [0.01, 0.20],
                "length": [0.02, 0.28],
            },
            "sphere": {"diameter": [0.01, 0.08]},
            "cylinder": {"diameter": [0.04, 0.07], "height": [0.04, 0.12]},
            "ring": {
                "outer_diameter": [0.06, 0.20],
                "wall_thickness": [0.006, 0.018],
                "height": [0.02, 0.06],
            },
        },
        "composition": {
            "cuboids": 46,
            "spheres": 18,
            "cylinders": 20,
            "rings": 19,
            "two_part": 27,
            "three_part": 35,
            "four_part": 38,
            "five_part": 47,
        },
        "palette": ["blue", "red", "green", "yellow"],
        "master_seed": 0,
    },
    "tessellation": {"sphere_subdivisions": 3, "radial_segments": 64},
    "gripper": {"max_opening": 0.085, "min_opening": 0.0},
    "print": {"build_edge": 0.256, "min_wall": 0.008},
    "encoder": {
        "image_height": 32,
        "image_width": 32,
        "patch_size": 4,
        "embed_dim": 64,
        "layers": 2,
        "heads": 4,
        "mlp_ratio": 4.0,
        "include_cls": False,
        "debug_disable_attention_mask": False,
        "seed": 0,
    },
    "policy": {
        "history_len": 4,
        "chunk_len": 4,
        "action_dim": 4,
        "proprio_dim": 4,
        "cameras": 1,
        "embed_dim": 8,
        "layers": 2,
        "width": 32,
        "heads": 4,
        "mlp_ratio": 2.0,
        "seed": 0,
    },
    "output_dir": "out",
}


def _merge(defaults, override, path: str):
    if isinstance(defaults, dict):
        if not isinstance(override, dict):
            raise ConfigError(f"{path or 'config'} must be an object")
        for key in override:
            if key not in defaults:
                raise ConfigError(f"unknown config key '{path}{key}'")
        return {
            key: _merge(value, override[key], f"{path}{key}.")
            if key in override
            else copy.deepcopy(value)
            for key, value in defaults.items()
        }
    if isinstance(defaults, bool):
        if not isinstance(override, bool):
            raise ConfigError(f"{path[:-1]} must be a boolean")
    elif isinstance(defaults, (int, float)):
        if isinstance(override, bool) or not isinstance(override, (int, float)):
            raise ConfigError(f"{path[:-1]} must be a number")
    elif isinstance(defaults, str):
        if not isinstance(override, str):
            raise ConfigError(f"{path[:-1]} must be a string")
    return copy.deepcopy(override)


@dataclass(frozen=True)
class CliConfig:
    raw: dict
    generation: GenerationConfig
    tessellation: Tessellation
    gripper: GripperModel
    build_edge: float
    min_wall: float
    encoder: EncoderConfig
    encoder_seed: int
    policy: PolicyConfig
    policy_seed: int
    output_dir: str


def config_from_dict(raw: dict) -> CliConfig:
    merged = _merge(DEFAULT_CONFIG, raw, "")
    try:
        generation = generation_config_from_dict(merged["generation"])
        tessellation = Tessellation(**merged["tessellation"])
        gripper = GripperModel(**merged["gripper"])
        encoder_section = dict(merged["encoder"])
        encoder_seed = encoder_section.pop("seed")
        encoder = EncoderConfig(**encoder_section)
        policy_section = dict(merged["policy"])
        policy_seed = policy_section.pop("seed")
        policy = PolicyConfig(**policy_section)
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
    return CliConfig(
        raw=merged,
        generation=generation,
        tessellation=tessellation,
        gripper=gripper,
        build_edge=float(merged["print"]["build_edge"]),
        min_wall=float(merged["print"]["min_wall"]),
        encoder=encoder,
        encoder_seed=int(encoder_seed),
        policy=policy,
        policy_seed=int(policy_seed),
        output_dir=str(merged["output_dir"]),
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
