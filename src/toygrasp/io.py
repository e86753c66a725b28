"""File formats: binary STL, ASCII OBJ, JSON manifests and PGM masks, plus the
output writer, the document reader, JSON shape check and CSV row reader that
every command shares.

All writers emit deterministic bytes for identical inputs, so SHA-256 digests
are comparable across runs. Every output goes through `write_output`, the
write-side twin of `read_document`, which replaces a file whole and returns
the SHA-256 of the bytes it wrote, and `make_directory` creates the
directories they go in. JSON lists and CSV rows are encoded in
pieces (`json_chunks`, `csv_chunks`), so a schedule is written without ever
being one string.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
import struct
from contextlib import suppress
from dataclasses import asdict, dataclass
from io import StringIO
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .assembler import Color, GenerationConfig, SetComposition, ToySpec
from .errors import InvalidInput, IoFailure
from .mesh import Tessellation, TriMesh
from .primitives import (
    DIM_NAMES,
    KIND_ORDER,
    LENGTH_LIMIT,
    DimensionRanges,
    PlacedPrimitive,
    Pose,
    PrimitiveKind,
    PrimitiveSpec,
)

MANIFEST_FORMAT_VERSION = "4"
_STL_HEADER = b"toygrasp binary STL".ljust(80, b"\x00")


# ---------------------------------------------------------------------------
# the output writer
# ---------------------------------------------------------------------------

def write_output(path: str | Path, chunks: Iterable[bytes], what: str) -> str:
    """Replace the file at `path` whole with the bytes of `chunks`; returns
    their SHA-256 hex digest, hashed as they are written.

    The bytes go to a temporary `.<12 hex>.tmp` beside the target, given the
    target's permissions and then `os.replace`d onto it; on any exception
    the temporary is removed and the old file stays. A symlink is followed
    and stays. A target that exists and is not a regular file (a FIFO, a
    device) is written in place. Every OSError becomes one IoFailure,
    `cannot write <what> <path>: <reason>`, naming `path`, never the temporary.
    """
    # Imported on the first write, not at the top of this module: there it
    # loaded OpenSSL before the encoder's modules and raised the
    # `encoder_verify` benchmark's peak RSS by 0.08 MB in 10 of 10 pairs
    # (`detpool-check` loads it later all the same, through `numpy.random`).
    import hashlib

    digest, target, temp = hashlib.sha256(), os.fspath(path), None
    try:
        if os.path.islink(target):  # `realpath` on every path costs about as much as a write
            target = os.path.realpath(target)
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            file = open(target, "wb")
        else:
            name = os.path.join(os.path.dirname(target), f".{os.urandom(6).hex()}.tmp")
            file, temp = open(name, "xb"), name
        with file:
            if temp is not None and mode is not None:
                os.fchmod(file.fileno(), stat.S_IMODE(mode))
            for chunk in chunks:
                digest.update(chunk)
                file.write(chunk)
        if temp is not None:
            os.replace(temp, target)
    except BaseException as exc:
        if temp is not None:
            with suppress(OSError):
                os.unlink(temp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {what} {path}: {exc.strerror or exc}") from exc
        raise
    return digest.hexdigest()


def make_directory(path: str | Path) -> None:
    """Create the directory `path` and any missing parents; one that exists
    is kept. Every OSError becomes one IoFailure,
    `cannot create directory <path>: <reason>`.
    """
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create directory {path}: {exc.strerror or exc}") from exc


#: Records per block of a JSON list written by `json_chunks`.
JSON_BLOCK = 256


def json_chunks(doc: dict, key: str) -> Iterator[bytes]:
    """The bytes of `json.dumps(doc, indent=2) + "\n"`, in pieces, where
    `doc[key]`, its last entry, is any iterable of records.

    The pieces are the text before the list, then blocks of `JSON_BLOCK`
    records, then the text after it; only one block of records is built
    and encoded at a time. A block is `json.dumps(block, indent=2)` without
    its brackets and indented two more spaces, the list's depth in `doc`
    (the indented encoder puts a newline only between tokens, never inside
    a string).
    """
    head = json.dumps({**{k: v for k, v in doc.items() if k != key}, key: []}, indent=2)
    yield head[: -len("]\n}")].encode()
    records, separator = iter(doc[key]), ""
    while block := list(islice(records, JSON_BLOCK)):
        yield (separator + json.dumps(block, indent=2)[1:-2].replace("\n", "\n  ")).encode()
        separator = ","
    yield ("\n  ]\n}\n" if separator else "]\n}\n").encode()


def csv_chunks(rows: Iterable[Sequence]) -> Iterator[bytes]:
    """Each row as the UTF-8 bytes `csv.writer` writes for it, one row at a time."""
    buffer = StringIO()
    writer = csv.writer(buffer)
    for row in rows:
        writer.writerow(row)
        yield buffer.getvalue().encode()
        buffer.seek(0)
        buffer.truncate()


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------

def stl_bytes(mesh: TriMesh) -> bytes:
    """Binary STL: 80-byte header, triangle count, 50-byte little-endian records."""
    if mesh.n_triangles == 0:
        raise InvalidInput("refusing to export an empty mesh")
    corners = mesh.vertices[mesh.triangles]
    v0, v1, v2 = corners[:, 0], corners[:, 1], corners[:, 2]
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
    record["verts"] = corners.astype(np.float32)
    return _STL_HEADER + struct.pack("<I", mesh.n_triangles) + record.tobytes()


def obj_bytes(mesh: TriMesh) -> bytes:
    """ASCII OBJ, one `g part_<k>` group per part label; coordinates round-trip exactly."""
    if mesh.n_triangles == 0:
        raise InvalidInput("refusing to export an empty mesh")
    blocks = ["v %r %r %r\n" * mesh.n_vertices % tuple(mesh.vertices.ravel().tolist())]
    labels = (
        mesh.part_labels
        if mesh.part_labels is not None
        else np.zeros(mesh.n_triangles, dtype=np.int64)
    )
    for label in np.unique(labels):
        faces = (mesh.triangles[labels == label] + 1).ravel().tolist()
        blocks.append(f"g part_{label}\n" + "f %d %d %d\n" * (len(faces) // 3) % tuple(faces))
    return "".join(blocks).encode()


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Manifest:
    config: dict
    tessellation: Tessellation
    toys: tuple[ToySpec, ...]


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


def toy_record(toy: ToySpec, mesh: TriMesh) -> dict:
    """One toy's manifest entry, with the bounding box of its mesh (from `mesh_toy`)."""
    lo, hi = mesh.aabb()
    return {
        "id": toy.id,
        "seed": toy.seed,
        "color": toy.color.value,
        "parts": [
            {
                "kind": p.spec.kind.value,
                "dims": {name: p.spec.dims[name] for name in DIM_NAMES[p.spec.kind]},
                "quaternion": p.pose.rotation.tolist(),
                "translation": p.pose.translation.tolist(),
            }
            for p in toy.parts
        ],
        "derived": {"aabb_min": lo.tolist(), "aabb_max": hi.tolist()},
    }


def record_to_toy(entry: dict) -> ToySpec:
    """The toy of one checked manifest entry; ToySpec, PrimitiveSpec and Pose
    raise ValueError for a toy they reject."""
    parts = tuple(
        PlacedPrimitive(
            PrimitiveSpec(
                PrimitiveKind(p["kind"]), {name: float(v) for name, v in p["dims"].items()}
            ),
            Pose(np.array(p["quaternion"]), np.array(p["translation"])),
        )
        for p in entry["parts"]
    )
    return ToySpec(id=entry["id"], seed=entry["seed"], parts=parts, color=Color(entry["color"]))


def build_manifest(records: Sequence[dict], config: GenerationConfig, tess: Tessellation) -> dict:
    """The manifest document of `records` (from `toy_record`), echoing every
    setting they depend on: the generation config and the tessellation."""
    echo = generation_config_to_dict(config)
    echo["tessellation"] = {
        "sphere_subdivisions": tess.sphere_subdivisions,
        "radial_segments": tess.radial_segments,
    }
    return {"format_version": MANIFEST_FORMAT_VERSION, "config": echo, "toys": list(records)}


def manifest_json_bytes(doc: dict) -> bytes:
    """The manifest as indented JSON, encoded one block of toys at a time."""
    return b"".join(json_chunks(doc, "toys"))


_LEAF_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number",
    str: "a string", dict: "an object", list: "a list",
}


def is_finite(value) -> bool:
    """True iff a JSON number is finite as a float."""
    # json accepts NaN, Infinity and integers too large for a float.
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check(value, shape, path: str = "", *, root: str, fill: bool = False):
    """`value`, a parsed JSON document, checked against `shape`; errors name its path.

    A dict shape is an object with exactly its keys; with `fill`, a missing
    key takes the shape's value. A list shape is a list of any length whose
    items are like its first item; a tuple shape, a list of exactly that
    many items. A type, or a value of that type, is a leaf: a bool is never
    a number, and a number must be finite.
    Returns the value rebuilt, with any filled-in keys.
    """
    where, kind = path or root, type(shape)
    if kind is dict:
        if not isinstance(value, dict):
            raise InvalidInput(f"{where} must be an object, got {type(value).__name__}")
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in shape:
                raise InvalidInput(f"unknown {root} key '{prefix}{key}'")
        checked = {}
        for key, item in shape.items():
            if key not in value and not fill:
                raise InvalidInput(f"{where}: missing field '{key}'")
            checked[key] = check(value.get(key, item), item, prefix + key, root=root, fill=fill)
        return checked
    if kind is list or kind is tuple:
        if not isinstance(value, list):
            raise InvalidInput(f"{where} must be a list, got {type(value).__name__}")
        if kind is tuple and len(value) != len(shape):
            raise InvalidInput(f"{where} must have {len(shape)} entries, got {len(value)}")
        items = shape if kind is tuple else [shape[0]] * len(value)
        return [
            check(v, s, f"{path}[{k}]", root=root, fill=fill)
            for k, (v, s) in enumerate(zip(value, items))
        ]
    if kind is type:
        kind = shape
    # bool is an int subclass in Python, but never a valid number here.
    if isinstance(value, bool) is not (kind is bool) or not isinstance(
        value, (int, float) if kind is float else kind
    ):
        raise InvalidInput(f"{where} must be {_LEAF_NAMES[kind]}, got {type(value).__name__}")
    if kind is float and not is_finite(value):
        # The repr of a huge integer is long, and past 4300 digits it raises.
        shown = repr(value) if isinstance(value, float) else "an integer too large for a float"
        raise InvalidInput(f"{where} must be a finite number, got {shown}")
    return value


def read_document(path: str | Path, what: str, *, as_json: bool = True):
    """The UTF-8 text of the file at `path`, parsed as JSON when `as_json`.

    A file that cannot be read is an IoFailure; bytes that are not UTF-8, or
    text that is not JSON, are an InvalidInput. Both name `what` and `path`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text) if as_json else text
    except OSError as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8, JSONDecodeError, or an integer past 4300 digits
        form = "JSON" if as_json else "UTF-8 text"
        raise InvalidInput(f"{what} {path} is not valid {form}: {exc}") from exc


def csv_rows(path: str | Path, what: str, columns: tuple[str, ...]):
    """Yield `(line, cells)` for each non-blank row of a UTF-8 CSV file whose
    header starts with `columns`; a row short of a column is rejected.

    Errors reading, decoding or parsing the file name `what` and `path`, as
    in `read_document`.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[: len(columns)]] != list(columns):
                raise InvalidInput(f"{path} must start with header '{','.join(columns)}'")
            for line, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) < len(columns):
                    raise InvalidInput(f"line {line}: missing {', '.join(columns[len(row):])}")
                yield line, row
    except OSError as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: e.g. a field past its size limit
        raise InvalidInput(f"{what} {path} is not valid UTF-8 CSV: {exc}") from exc


def csv_count(line: int, column: str, cell: str) -> int:
    """`cell` read as an integer >= 0 written in ASCII digits, blanks around it
    allowed; anything else is a ValueError naming `line` and `column`."""
    digits = cell.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"line {line}: {column} must be an integer >= 0, got {cell!r}")
    return int(digits)


_PART = {"kind": str, "dims": dict, "quaternion": (float,) * 4, "translation": (float,) * 3}
_MANIFEST = {
    "format_version": str,
    "config": dict,
    "toys": [
        {
            "id": str,
            "seed": int,
            "color": str,
            "parts": [_PART],
            "derived": {"aabb_min": (float,) * 3, "aabb_max": (float,) * 3},
        }
    ],
}


def read_manifest(path: str | Path) -> Manifest:
    """The echoed config, the tessellation the meshes were written at and
    the `ToySpec` of every toy in the manifest at `path`.

    The document is checked field by field first; a tessellation that
    Tessellation rejects fails as `config.tessellation.<field> ...`, and a
    toy that ToySpec, PrimitiveSpec or Pose rejects as `toys[i] ('<id>'): ...`.
    Every error is an InvalidInput or an IoFailure.
    """
    doc = read_document(path, "manifest")

    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version not in (None, MANIFEST_FORMAT_VERSION):
        raise InvalidInput(f"unknown manifest format_version {version!r}")
    check(doc, _MANIFEST, root="manifest")
    tess = check(
        doc["config"].get("tessellation"), asdict(Tessellation()), "config.tessellation",
        root="manifest",
    )
    try:
        tessellation = Tessellation(**tess)
    except ValueError as exc:  # its messages start with the field's name
        raise InvalidInput(f"config.tessellation.{exc}") from exc
    toys = []
    for i, t in enumerate(doc["toys"]):
        for j, p in enumerate(t["parts"]):
            ctx = f"toys[{i}].parts[{j}]"
            if p["quaternion"][0] < 0:
                raise InvalidInput(
                    f"{ctx}.quaternion[0] = {p['quaternion'][0]!r} must be >= 0 (toy {t['id']!r})"
                )
            lengths = [(f"{ctx}.dims.{name}", v) for name, v in p["dims"].items()]
            lengths = [(where, float(check(v, float, where, root="manifest"))) for where, v in lengths]
            lengths += [(f"{ctx}.translation[{k}]", v) for k, v in enumerate(p["translation"])]
            for where, value in lengths:
                if abs(value) > LENGTH_LIMIT:
                    raise InvalidInput(
                        f"{where} = {value!r} is outside +-{LENGTH_LIMIT:g} m (toy {t['id']!r})"
                    )
        try:
            toys.append(record_to_toy(t))
        except ValueError as exc:
            raise InvalidInput(f"toys[{i}] ({t['id']!r}): {exc}") from exc
    return Manifest(config=doc["config"], tessellation=tessellation, toys=tuple(toys))


# ---------------------------------------------------------------------------
# PGM (P5) segmentation masks
# ---------------------------------------------------------------------------

def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM (P5) file as a boolean mask (nonzero = object)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read PGM {path}: {exc}") from exc

    # A `#` starts a comment wherever it stands in the header, also right
    # after a token, and the comment runs to the next LF or CR (Netpbm).
    tokens: list[bytes] = []
    pos = 0
    while True:
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] not in b"\n\r":
                pos += 1
        elif len(tokens) == 4:
            break
        elif raw[pos : pos + 1].isspace():
            pos += 1
        else:
            start = pos
            # A token ends at whitespace (the bytes `isspace` accepts) or `#`.
            while pos < len(raw) and raw[pos] not in b" \t\n\r\x0b\x0c#":
                pos += 1
            if start == pos:
                raise InvalidInput(f"truncated PGM header in {path}")
            tokens.append(raw[start:pos])
    pos += 1  # single whitespace after maxval, or the LF or CR ending its comment

    if tokens[0] != b"P5":
        raise InvalidInput(f"not a binary PGM (P5) file: magic {tokens[0]!r} in {path}")
    for name, token in zip(("width", "height", "maxval"), tokens[1:]):
        # No file holds a 19-digit size, and past 4300 digits int() raises.
        if not token.isdigit() or len(token) > 18 or int(token) < 1:
            shown = repr(token[:18].decode(errors="replace")) + "..." * (len(token) > 18)
            raise InvalidInput(
                f"PGM {name} must be a decimal integer >= 1, got {shown} in {path}"
            )
    width, height, maxval = (int(token) for token in tokens[1:])
    if maxval > 65535:
        raise InvalidInput(f"PGM maxval must be in 1..65535, got {maxval} in {path}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height
    if len(raw) - pos < count * dtype.itemsize:
        raise InvalidInput(f"PGM pixel data is truncated in {path}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    return data.reshape(height, width) > 0
