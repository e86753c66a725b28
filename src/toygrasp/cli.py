"""Command-line entry point.

Subcommands: generate | analyze | detpool-check | schedule | aggregate | report.
Exit codes: 0 success, 1 property-check failure, 2 config/input error,
3 I/O error, 4 internal error (an exception the CLI does not expect; it
prints one `[INTERNAL] <type>: <message>` line and no traceback), 130
interrupted (Ctrl-C; one `interrupted` line, no traceback). Every output
file is replaced whole by `io.write_output`, so a failed command leaves the
old file or none, never a part of one; a failed write prints one
`[IO] cannot write <what> <path>: <reason>` line, and a directory that
cannot be made one `[IO] cannot create directory <path>: <reason>` line.
Printed SHA-256 digests are of the bytes written, so determinism is
auditable from the shell.
The TOYGRASP_OUT environment variable overrides the configured output
directory (the --out flag wins over both).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

from . import analysis as analysis_mod
from . import evalharness
from .assembler import connectivity_check, generate_set
from .checks import FD_ENTRIES_PER_TENSOR, run_detpool_checks
from .config import CliConfig, load_config
from .errors import NotWatertight, SchemaViolation, ToygraspError
from .io import (
    build_manifest,
    csv_count,
    csv_rows,
    make_directory,
    manifest_json_bytes,
    obj_bytes,
    read_document,
    read_manifest,
    read_pgm,
    stl_bytes,
    toy_record,
    write_output,
)
from .mesh import is_watertight, mesh_primitive, mesh_toy

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


#: The mesh files `generate` owns in `meshes/`; it removes those it did not write.
_MESH_NAME = re.compile(r"toy_[0-9]{4}\.(stl|obj)")


def _resolve_out(args_out: str | None, config: CliConfig) -> Path:
    if args_out:
        return Path(args_out)
    env = os.environ.get("TOYGRASP_OUT")
    if env:
        return Path(env)
    return Path(config.output_dir)


def cmd_generate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out_dir = _resolve_out(args.out, config)
    meshes = out_dir / "meshes"
    make_directory(meshes)

    toys = generate_set(config.generation)
    failures = sum(not connectivity_check(toy) for toy in toys)

    # A toy mesh is its parts' meshes side by side, sharing no vertex, and a
    # part's triangle indices depend only on its kind and the tessellation:
    # one mesh per kind present decides watertightness for every toy.
    specs = {part.spec.kind: part.spec for toy in toys for part in toy.parts}
    for kind, spec in specs.items():
        if not is_watertight(mesh_primitive(spec, config.tessellation)):
            raise NotWatertight(f"{kind.value} mesh: an edge is not shared by exactly 2 triangles")

    # The manifest and digest list are written last; remove an earlier
    # set's first, so a run that stops part-way leaves none that lists
    # files it did not write.
    for name in ("manifest.json", "digests.txt"):
        (out_dir / name).unlink(missing_ok=True)

    # Mesh each toy once: its record, STL and OBJ all come from that mesh.
    records, digest_lines, written = [], [], set()
    for toy in toys:
        mesh = mesh_toy(toy, config.tessellation)
        records.append(toy_record(toy, mesh))
        for name, data in (
            (f"{toy.id}.stl", stl_bytes(mesh)),
            (f"{toy.id}.obj", obj_bytes(mesh)),
        ):
            digest_lines.append(f"{write_output(meshes / name, [data], 'mesh')}  meshes/{name}")
            written.add(name)
    # Meshes of an earlier, larger set would sit beside this run's unlisted.
    for name in os.listdir(meshes):
        if _MESH_NAME.fullmatch(name) and name not in written:
            (meshes / name).unlink()

    manifest_bytes = manifest_json_bytes(
        build_manifest(records, config.generation, config.tessellation)
    )
    manifest_sha256 = write_output(out_dir / "manifest.json", [manifest_bytes], "manifest")
    digest_lines.insert(0, f"{manifest_sha256}  manifest.json")
    outputs_sha256 = write_output(
        out_dir / "digests.txt", [("\n".join(digest_lines) + "\n").encode()], "digest list"
    )

    counts = config.generation.composition.counts()
    print(f"generated {len(toys)} toys into {out_dir}")
    print("  categories: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"  connectivity failures: {failures}")
    print(f"  manifest sha256: {manifest_sha256}")
    print(f"  outputs sha256: {outputs_sha256} ({len(digest_lines)} files)")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    manifest = read_manifest(args.manifest)
    out_path = Path(args.out) if args.out else _resolve_out(None, config) / "analysis.csv"
    make_directory(out_path.parent)

    rows = []
    for toy in manifest.toys:
        report = analysis_mod.analyze_toy(
            toy,
            mesh_toy(toy, manifest.tessellation),
            config.gripper,
            build_edge=config.build_edge,
            min_wall=config.min_wall,
        )
        rows.append((toy.id, report))

    csv_sha256 = analysis_mod.write_feasibility_csv(rows, out_path)
    graspable = sum(1 for _, r in rows if r.graspable)
    fits = sum(1 for _, r in rows if r.fits_build_volume)
    thin = sum(1 for _, r in rows if r.thin_wall)
    print(f"analyzed {len(rows)} toys -> {out_path}")
    print(f"  graspable: {graspable}/{len(rows)}, fits build volume: {fits}/{len(rows)}, thin walls: {thin}")
    print(f"  csv sha256: {csv_sha256}")
    return EXIT_OK


def cmd_detpool_check(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    mask = read_pgm(args.mask) if args.mask else None
    results = run_detpool_checks(
        config.encoder,
        seed=config.encoder_seed,
        mask=mask,
        fd_entries_per_tensor=None if args.full_gradients else FD_ENTRIES_PER_TENSOR,
    )
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _read_objects(path: str) -> list[str]:
    """Object ids, one per non-blank line or as a JSON array; each id once."""
    as_json = path.endswith(".json")
    data = read_document(path, "objects", as_json=as_json)
    if as_json:
        if not isinstance(data, list):
            raise SchemaViolation("objects JSON must be an array of ids")
        entries = [(f"item {k}", item) for k, item in enumerate(data)]
        for where, item in entries:
            if not isinstance(item, str) or not item:
                got = repr(item) if isinstance(item, str) else type(item).__name__
                raise SchemaViolation(
                    f"{where}: object id must be a non-empty string, got {got}"
                )
    else:
        entries = [
            (f"line {n}", line.strip())
            for n, line in enumerate(data.splitlines(), start=1)
            if line.strip()
        ]
    first: dict[str, str] = {}
    for where, object_id in entries:
        if object_id in first:
            raise SchemaViolation(
                f"{where}: duplicate object id {object_id!r}, first on {first[object_id]}"
            )
        first[object_id] = where
    return [object_id for _, object_id in entries]


def cmd_schedule(args: argparse.Namespace) -> int:
    protocol = evalharness.Protocol(args.protocol)
    objects = _read_objects(args.objects)
    schedule = evalharness.make_schedule(protocol, objects, args.seed)
    schedule_sha256 = evalharness.write_schedule(schedule, args.out)
    print(
        f"scheduled {len(schedule.trials)} trials for {len(objects)} objects "
        f"({protocol.value}, seed {args.seed}) -> {args.out}"
    )
    print(f"  schedule sha256: {schedule_sha256}")
    return EXIT_OK


def cmd_aggregate(args: argparse.Namespace) -> int:
    outcomes = evalharness.read_outcomes_csv(args.outcomes)
    table = evalharness.aggregate(outcomes)
    print(evalharness.render_success_table(table), end="")
    print(f"overall: {table.overall_display}")
    if args.out:
        evalharness.write_success_csv(table, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    rows = []
    for line, row in csv_rows(args.rows, "rows", ("label", "demos", "success_percent")):
        demos = csv_count(line, "demos", row[1])
        try:
            percent = float(row[2])
        except ValueError:
            percent = math.nan
        if not (row[2].isascii() and "_" not in row[2] and 0.0 <= percent <= 100.0):
            raise ValueError(
                f"line {line}: success_percent must be a number from 0 to 100, got {row[2]!r}"
            )
        rows.append((row[0], demos, percent))
    grid_path, csv_sha256 = evalharness.scaling_report(rows, args.out)
    print(f"wrote {Path(args.out)} and {grid_path} ({len(rows)} rows)")
    print(f"  csv sha256: {csv_sha256}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toygrasp",
        description="Composite-toy generation, grasp/print analysis, encoder checks, and evaluation schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate the toy set, manifest, and STL/OBJ meshes")
    p.add_argument("--config", help="JSON config file (defaults are built in)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="per-toy grasp and print feasibility CSV")
    p.add_argument("--manifest", required=True, help="manifest.json from generate")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("detpool-check", help="run the encoder verification suites")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--mask", help="PGM (P5) segmentation mask to use")
    p.add_argument(
        "--full-gradients",
        action="store_true",
        help="finite-difference every parameter entry (slower)",
    )
    p.set_defaults(func=cmd_detpool_check)

    p = sub.add_parser("schedule", help="emit a deterministic trial schedule")
    p.add_argument(
        "--protocol",
        required=True,
        choices=[proto.value for proto in evalharness.Protocol],
    )
    p.add_argument("--objects", required=True, help="object ids: text lines or JSON array")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="schedule JSON path")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("aggregate", help="aggregate a 0/1 outcomes CSV into success rates")
    p.add_argument("--outcomes", required=True, help="CSV: object,trial_index,success")
    p.add_argument("--out", help="write the success table CSV here")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("report", help="format scaling-study rows as CSV + text grid")
    p.add_argument("--rows", required=True, help="CSV: label,demos,success_percent")
    p.add_argument("--out", required=True, help="output CSV path (.txt written alongside)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # IoFailure subclasses OSError
        print(f"toygrasp: [IO] {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ToygraspError) as exc:
        print(f"toygrasp: [CONFIG] {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"toygrasp: [INTERNAL] {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("toygrasp: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
