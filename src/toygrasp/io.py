"""File formats: binary STL, ASCII OBJ, JSON manifests, PGM masks, tensor blobs.

All writers emit deterministic bytes for identical inputs, so SHA-256 digests
are comparable across runs.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import min_caliper_width
from .assembler import Color, GenerationConfig, SetComposition, ToySpec
from .errors import EmptyMesh, IoFailure, SchemaViolation
from .mesh import Tessellation, TriMesh, mesh_toy, mesh_volume
from .primitives import (
    DIM_NAMES,
    KIND_ORDER,
    DimensionRanges,
    PlacedPrimitive,
    Pose,
    PrimitiveKind,
    PrimitiveSpec,
)

MANIFEST_FORMAT_VERSION = "2"
_STL_HEADER = b"toygrasp binary STL".ljust(80, b"\x00")
_TENSOR_MAGIC = b"TGTENS01"


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------

def stl_bytes(mesh: TriMesh, *, allow_empty: bool = False) -> bytes:
    """Binary STL: 80-byte header, triangle count, 50-byte little-endian records."""
    if mesh.n_triangles == 0 and not allow_empty:
        raise EmptyMesh("refusing to export an empty mesh (pass allow_empty=True)")
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    v1 = mesh.vertices[mesh.triangles[:, 1]]
    v2 = mesh.vertices[mesh.triangles[:, 2]]
    normals = np.cross(v1 - v0, v2 - v0)
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = np.divide(normals, lengths, out=np.zeros_like(normals), where=lengths > 0)

    record = np.zeros(
        mesh.n_triangles,
        dtype=np.dtype(
            [("normal", "<f4", 3), ("verts", "<f4", (3, 3)), ("attr", "<u2")]
        ),
    )
    record["normal"] = normals.astype(np.float32)
    record["verts"][:, 0] = v0.astype(np.float32)
    record["verts"][:, 1] = v1.astype(np.float32)
    record["verts"][:, 2] = v2.astype(np.float32)
    return _STL_HEADER + struct.pack("<I", mesh.n_triangles) + record.tobytes()


def export_stl(mesh: TriMesh, path: str | Path, *, allow_empty: bool = False) -> None:
    data = stl_bytes(mesh, allow_empty=allow_empty)
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IoFailure(f"cannot write STL to {path}: {exc}") from exc


def obj_bytes(mesh: TriMesh, *, allow_empty: bool = False) -> bytes:
    """ASCII OBJ, one `g part_<k>` group per part label; coordinates round-trip exactly."""
    if mesh.n_triangles == 0 and not allow_empty:
        raise EmptyMesh("refusing to export an empty mesh (pass allow_empty=True)")
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    labels = (
        mesh.part_labels
        if mesh.part_labels is not None
        else np.zeros(mesh.n_triangles, dtype=np.int64)
    )
    for label in np.unique(labels):
        lines.append(f"g part_{label}")
        for a, b, c in (mesh.triangles[labels == label] + 1).tolist():
            lines.append(f"f {a} {b} {c}")
    return ("\n".join(lines) + "\n").encode()


def export_obj(mesh: TriMesh, path: str | Path, *, allow_empty: bool = False) -> None:
    data = obj_bytes(mesh, allow_empty=allow_empty)
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IoFailure(f"cannot write OBJ to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartRecord:
    kind: str
    dims: tuple[tuple[str, float], ...]
    quaternion: tuple[float, float, float, float]
    translation: tuple[float, float, float]


@dataclass(frozen=True)
class DerivedStats:
    aabb_min: tuple[float, float, float]
    aabb_max: tuple[float, float, float]
    volume: float
    min_caliper_width: float


@dataclass(frozen=True)
class ToyRecord:
    id: str
    seed: int
    color: str
    parts: tuple[PartRecord, ...]
    derived: DerivedStats


@dataclass(frozen=True)
class Manifest:
    format_version: str
    config: dict
    toys: tuple[ToyRecord, ...]


def generation_config_to_dict(config: GenerationConfig) -> dict:
    return {
        "ranges": {
            kind.value: {name: list(config.ranges.interval(kind, name)) for name in DIM_NAMES[kind]}
            for kind in KIND_ORDER
        },
        "composition": config.composition.counts(),
        "palette": [c.value for c in config.palette],
        "master_seed": config.master_seed,
    }


def generation_config_from_dict(data: dict) -> GenerationConfig:
    ranges = DimensionRanges(
        {
            PrimitiveKind(kind): {name: tuple(iv) for name, iv in dims.items()}
            for kind, dims in data["ranges"].items()
        }
    )
    return GenerationConfig(
        ranges=ranges,
        composition=SetComposition(**data["composition"]),
        palette=tuple(Color(c) for c in data["palette"]),
        master_seed=data["master_seed"],
    )


def toy_record(toy: ToySpec, mesh: TriMesh) -> ToyRecord:
    """Serialize one toy plus derived statistics of its mesh (from `mesh_toy`)."""
    lo, hi = mesh.aabb()
    volume = mesh_volume(mesh)  # per-part volumes summed; overlaps double count
    width, _ = min_caliper_width(mesh)
    parts = tuple(
        PartRecord(
            kind=p.spec.kind.value,
            dims=tuple((name, p.spec.dims[name]) for name in DIM_NAMES[p.spec.kind]),
            quaternion=tuple(float(v) for v in p.pose.rotation),
            translation=tuple(float(v) for v in p.pose.translation),
        )
        for p in toy.parts
    )
    return ToyRecord(
        id=toy.id,
        seed=toy.seed,
        color=toy.color.value,
        parts=parts,
        derived=DerivedStats(
            aabb_min=tuple(float(v) for v in lo),
            aabb_max=tuple(float(v) for v in hi),
            volume=float(volume),
            min_caliper_width=float(width),
        ),
    )


def record_to_toy(record: ToyRecord) -> ToySpec:
    parts = tuple(
        PlacedPrimitive(
            PrimitiveSpec(PrimitiveKind(p.kind), dict(p.dims)),
            Pose(np.array(p.quaternion), np.array(p.translation)),
        )
        for p in record.parts
    )
    return ToySpec(id=record.id, seed=record.seed, parts=parts, color=Color(record.color))


def manifest_config(config: GenerationConfig, tess: Tessellation) -> dict:
    """The manifest's echo of every setting its records depend on."""
    echo = generation_config_to_dict(config)
    echo["tessellation"] = {
        "sphere_subdivisions": tess.sphere_subdivisions,
        "radial_segments": tess.radial_segments,
    }
    return echo


def build_manifest(
    toys: list[ToySpec],
    config: GenerationConfig,
    tess: Tessellation | None = None,
) -> Manifest:
    tess = tess or Tessellation()
    return Manifest(
        format_version=MANIFEST_FORMAT_VERSION,
        config=manifest_config(config, tess),
        toys=tuple(toy_record(toy, mesh_toy(toy, tess)) for toy in toys),
    )


def manifest_json_bytes(manifest: Manifest) -> bytes:
    doc = {
        "format_version": manifest.format_version,
        "config": manifest.config,
        "toys": [
            {
                "id": t.id,
                "seed": t.seed,
                "color": t.color,
                "parts": [
                    {
                        "kind": p.kind,
                        "dims": dict(p.dims),
                        "quaternion": list(p.quaternion),
                        "translation": list(p.translation),
                    }
                    for p in t.parts
                ],
                "derived": {
                    "aabb_min": list(t.derived.aabb_min),
                    "aabb_max": list(t.derived.aabb_max),
                    "volume": t.derived.volume,
                    "min_caliper_width": t.derived.min_caliper_width,
                },
            }
            for t in manifest.toys
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


def write_manifest(
    toys: list[ToySpec],
    config: GenerationConfig,
    path: str | Path,
    *,
    tess: Tessellation | None = None,
) -> Manifest:
    manifest = build_manifest(toys, config, tess)
    try:
        Path(path).write_bytes(manifest_json_bytes(manifest))
    except OSError as exc:
        raise IoFailure(f"cannot write manifest to {path}: {exc}") from exc
    return manifest


_JSON_TYPES = {
    "an object": dict,
    "a list": list,
    "a string": str,
    "an integer": int,
    "a number": (int, float),
}


#: Largest magnitude, in meters, accepted for a part dimension or
#: translation. A float64 coordinate of magnitude L rounds by about
#: L * 1e-16 m: translating a five-toy coarse set by 1 km moved its exact
#: hull widths by at most 1.5e-13 m, by 1000 km up to 2.3e-10 m, and near
#: 1e306 m the geometry overflows.
LENGTH_LIMIT = 1e3


def _typed(value, path: str, kind: str):
    # bool is an int subclass in Python, but never a valid manifest value.
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise SchemaViolation(f"{path} must be {kind}, got {type(value).__name__}")
    if kind == "a number" and not _finite(value):
        raise SchemaViolation(f"{path} must be a finite number, got {value!r}")
    return value


def _finite(value) -> bool:
    # json accepts NaN, Infinity and integers too large for a float.
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _field(doc: dict, key: str, context: str, kind: str):
    """doc[key], present and of the named JSON type; errors name its path."""
    if key not in doc:
        raise SchemaViolation(f"{context or 'manifest'}: missing field '{key}'")
    return _typed(doc[key], f"{context}.{key}" if context else key, kind)


def _numbers(doc: dict, key: str, context: str, length: int) -> tuple:
    path = f"{context}.{key}"
    values = _field(doc, key, context, "a list")
    if len(values) != length:
        raise SchemaViolation(f"{path} must have {length} entries, got {len(values)}")
    return tuple(_typed(v, f"{path}[{k}]", "a number") for k, v in enumerate(values))


def read_manifest(path: str | Path) -> Manifest:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read manifest {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"manifest is not valid JSON: {exc}") from exc

    _typed(doc, "manifest", "an object")
    version = _field(doc, "format_version", "", "a string")
    if version != MANIFEST_FORMAT_VERSION:
        raise SchemaViolation(f"unknown manifest format_version {version!r}")
    config = _field(doc, "config", "", "an object")
    toys = []
    for i, t in enumerate(_field(doc, "toys", "", "a list")):
        ctx = f"toys[{i}]"
        _typed(t, ctx, "an object")
        toy_id = _field(t, "id", ctx, "a string")
        parts = []
        for j, p in enumerate(_field(t, "parts", ctx, "a list")):
            part_ctx = f"{ctx}.parts[{j}]"
            _typed(p, part_ctx, "an object")
            dims = tuple(
                (name, float(_typed(value, f"{part_ctx}.dims.{name}", "a number")))
                for name, value in _field(p, "dims", part_ctx, "an object").items()
            )
            quaternion = _numbers(p, "quaternion", part_ctx, 4)
            translation = _numbers(p, "translation", part_ctx, 3)
            lengths = [(f"{part_ctx}.dims.{name}", v) for name, v in dims]
            lengths += [(f"{part_ctx}.translation[{k}]", v) for k, v in enumerate(translation)]
            for path, value in lengths:
                if abs(value) > LENGTH_LIMIT:
                    raise SchemaViolation(
                        f"{path} = {value!r} is outside +-{LENGTH_LIMIT:g} m (toy {toy_id!r})"
                    )
            parts.append(
                PartRecord(
                    kind=_field(p, "kind", part_ctx, "a string"),
                    dims=dims,
                    quaternion=quaternion,
                    translation=translation,
                )
            )
        derived = _field(t, "derived", ctx, "an object")
        derived_ctx = f"{ctx}.derived"
        toys.append(
            ToyRecord(
                id=toy_id,
                seed=_field(t, "seed", ctx, "an integer"),
                color=_field(t, "color", ctx, "a string"),
                parts=tuple(parts),
                derived=DerivedStats(
                    aabb_min=_numbers(derived, "aabb_min", derived_ctx, 3),
                    aabb_max=_numbers(derived, "aabb_max", derived_ctx, 3),
                    volume=_field(derived, "volume", derived_ctx, "a number"),
                    min_caliper_width=_field(
                        derived, "min_caliper_width", derived_ctx, "a number"
                    ),
                ),
            )
        )
    return Manifest(format_version=version, config=config, toys=tuple(toys))


# ---------------------------------------------------------------------------
# PGM (P5) segmentation masks
# ---------------------------------------------------------------------------

def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM (P5) file as a boolean mask (nonzero = object)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read PGM {path}: {exc}") from exc

    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise SchemaViolation("truncated PGM header")
        tokens.append(raw[start:pos])
    pos += 1  # single whitespace after maxval

    if tokens[0] != b"P5":
        raise SchemaViolation(f"not a binary PGM (P5) file: magic {tokens[0]!r}")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if not 1 <= maxval <= 65535:
        raise SchemaViolation(f"PGM maxval must be in 1..65535, got {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height
    if len(raw) - pos < count * dtype.itemsize:
        raise SchemaViolation("PGM pixel data is truncated")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    return data.reshape(height, width) > 0


# ---------------------------------------------------------------------------
# named-tensor blobs (used for encoder and policy states)
# ---------------------------------------------------------------------------

def tensor_blob_bytes(tensors: dict[str, np.ndarray], meta: dict) -> bytes:
    """Versioned blob: magic, JSON metadata, then (name, shape, float64 data) rows."""
    parts = [_TENSOR_MAGIC]
    meta_bytes = json.dumps(meta).encode()
    parts.append(struct.pack("<I", len(meta_bytes)))
    parts.append(meta_bytes)
    parts.append(struct.pack("<I", len(tensors)))
    for name, tensor in tensors.items():
        data = np.ascontiguousarray(tensor, dtype="<f8")
        name_bytes = name.encode()
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<B", data.ndim))
        parts.append(struct.pack(f"<{data.ndim}I", *data.shape))
        parts.append(data.tobytes())
    return b"".join(parts)


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    try:
        Path(path).write_bytes(tensor_blob_bytes(tensors, meta))
    except OSError as exc:
        raise IoFailure(f"cannot write tensor blob to {path}: {exc}") from exc


def load_tensors(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read tensor blob {path}: {exc}") from exc
    if raw[:8] != _TENSOR_MAGIC:
        raise SchemaViolation(f"unknown tensor blob magic {raw[:8]!r}")
    try:
        pos = 8
        (meta_len,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        meta = json.loads(raw[pos : pos + meta_len].decode())
        pos += meta_len
        (count,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            name = raw[pos : pos + name_len].decode()
            pos += name_len
            (ndim,) = struct.unpack_from("<B", raw, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, pos)
            pos += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            tensors[name] = (
                np.frombuffer(raw, dtype="<f8", count=size, offset=pos)
                .reshape(shape)
                .astype(np.float64)
            )
            pos += 8 * size
    except (struct.error, ValueError) as exc:
        raise SchemaViolation(f"tensor blob {path} is truncated or corrupt: {exc}") from exc
    return tensors, meta
