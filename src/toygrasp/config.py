"""Single JSON configuration for the CLI, with production defaults baked in.

Running `generate` with no overrides reproduces the default 250-toy set.
Every default comes from the dataclass that owns the setting; only the
CLI's print limits and output directory are set here. Unknown keys are
rejected so typos fail loudly instead of being ignored, and every value
must have its default's JSON type: `DEFAULT_CONFIG` is the shape that
`io.check` reads a config against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from .analysis import GripperModel
from .assembler import GenerationConfig
from .detpool import EncoderConfig
from .errors import ConfigError, SchemaViolation
from .io import check, generation_config_from_dict, generation_config_to_dict, read_document
from .mesh import Tessellation

DEFAULT_CONFIG: dict = {
    "generation": generation_config_to_dict(GenerationConfig()),
    "tessellation": asdict(Tessellation()),
    "gripper": asdict(GripperModel()),
    "print": {"build_edge": 0.256, "min_wall": 0.008},
    "encoder": {**asdict(EncoderConfig()), "seed": 0},
    "output_dir": "out",
}


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
    try:
        merged = check(raw, DEFAULT_CONFIG, root="config", fill=True)
    except SchemaViolation as exc:
        raise ConfigError(str(exc)) from exc
    build_edge, min_wall = merged["print"]["build_edge"], merged["print"]["min_wall"]
    if not build_edge > 0:
        raise ConfigError(f"print.build_edge must be > 0, got {build_edge!r}")
    if min_wall < 0:
        raise ConfigError(f"print.min_wall must be >= 0, got {min_wall!r}")
    encoder = merged["encoder"]
    encoder_seed = encoder.pop("seed")
    if encoder_seed < 0:
        raise ConfigError("encoder.seed must be >= 0")
    return CliConfig(
        generation=_checked("generation", generation_config_from_dict, merged["generation"]),
        tessellation=_checked("tessellation", Tessellation, **merged["tessellation"]),
        gripper=_checked("gripper", GripperModel, **merged["gripper"]),
        build_edge=float(build_edge),
        min_wall=float(min_wall),
        encoder=_checked("encoder", EncoderConfig, **encoder),
        encoder_seed=encoder_seed,
        output_dir=merged["output_dir"],
    )


def load_config(path: str | Path | None) -> CliConfig:
    """Load and validate a config file; None gives the built-in defaults."""
    return config_from_dict({} if path is None else read_document(path, "config"))
