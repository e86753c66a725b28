"""Command-line entry point.

Subcommands: generate | analyze | detpool-check | schedule | aggregate | report.
Exit codes: 0 success, 1 property-check failure, 2 config/input error,
3 I/O error, 4 internal error (an exception the CLI does not expect; it
prints one `[INTERNAL] <type>: <message>` line and no traceback). SHA-256
digests of outputs are printed so determinism is auditable from the shell.
The TOYGRASP_OUT environment variable overrides the configured output
directory (the --out flag wins over both).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

from . import analysis as analysis_mod
from . import evalharness
from .assembler import connectivity_check, generate_set
from .checks import run_detpool_checks
from .config import CliConfig, load_config
from .errors import ConfigError, SchemaViolation, ToygraspError
from .io import (
    MANIFEST_FORMAT_VERSION,
    Manifest,
    manifest_config,
    manifest_json_bytes,
    obj_bytes,
    read_manifest,
    read_pgm,
    record_to_toy,
    stl_bytes,
    toy_record,
)
from .mesh import mesh_toy

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    (out_dir / "meshes").mkdir(parents=True, exist_ok=True)

    toys = generate_set(config.generation)
    failures = sum(not connectivity_check(toy) for toy in toys)

    # Mesh each toy once: its record, STL and OBJ all come from that mesh.
    records, digest_lines = [], []
    for toy in toys:
        mesh = mesh_toy(toy, config.tessellation)
        records.append(toy_record(toy, mesh))
        for name, data in (
            (f"meshes/{toy.id}.stl", stl_bytes(mesh)),
            (f"meshes/{toy.id}.obj", obj_bytes(mesh)),
        ):
            (out_dir / name).write_bytes(data)
            digest_lines.append(f"{_sha256(data)}  {name}")

    manifest = Manifest(
        format_version=MANIFEST_FORMAT_VERSION,
        config=manifest_config(config.generation, config.tessellation),
        toys=tuple(records),
    )
    manifest_bytes = manifest_json_bytes(manifest)
    (out_dir / "manifest.json").write_bytes(manifest_bytes)
    digest_lines.insert(0, f"{_sha256(manifest_bytes)}  manifest.json")
    digests_text = "\n".join(digest_lines) + "\n"
    (out_dir / "digests.txt").write_text(digests_text)

    counts = config.generation.composition.counts()
    print(f"generated {len(toys)} toys into {out_dir}")
    print("  categories: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"  connectivity failures: {failures}")
    print(f"  manifest sha256: {_sha256(manifest_bytes)}")
    print(f"  outputs sha256: {_sha256(digests_text.encode())} ({len(digest_lines)} files)")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    manifest = read_manifest(args.manifest)
    out_path = Path(args.out) if args.out else _resolve_out(None, config) / "analysis.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)

    rows = []
    for i, record in enumerate(manifest.toys):
        try:
            toy = record_to_toy(record)
            mesh = mesh_toy(toy, config.tessellation)
            report = analysis_mod.analyze_toy(
                toy, mesh, config.gripper, config.build_edge, config.min_wall
            )
        except ValueError as exc:
            raise SchemaViolation(f"toys[{i}] ({record.id!r}): {exc}") from exc
        rows.append((toy.id, report))

    analysis_mod.write_feasibility_csv(rows, out_path)
    graspable = sum(1 for _, r in rows if r.graspable)
    fits = sum(1 for _, r in rows if r.fits_build_volume)
    thin = sum(1 for _, r in rows if r.thin_wall)
    print(f"analyzed {len(rows)} toys -> {out_path}")
    print(f"  graspable: {graspable}/{len(rows)}, fits build volume: {fits}/{len(rows)}, thin walls: {thin}")
    print(f"  csv sha256: {_sha256(out_path.read_bytes())}")
    return EXIT_OK


def cmd_detpool_check(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    mask = read_pgm(args.mask) if args.mask else None
    results = run_detpool_checks(
        config.encoder,
        seed=config.encoder_seed,
        mask=mask,
        fd_entries_per_tensor=None if args.full_gradients else 8,
    )
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _read_objects(path: str) -> list[str]:
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".json"):
        data = json.loads(text)
        if not isinstance(data, list):
            raise SchemaViolation("objects JSON must be an array of ids")
        return [str(item) for item in data]
    return [line.strip() for line in text.splitlines() if line.strip()]


def cmd_schedule(args: argparse.Namespace) -> int:
    protocol = evalharness.Protocol(args.protocol)
    objects = _read_objects(args.objects)
    schedule = evalharness.make_schedule(protocol, objects, args.seed)
    evalharness.write_schedule(schedule, args.out)
    data = Path(args.out).read_bytes()
    print(
        f"scheduled {len(schedule.trials)} trials for {len(objects)} objects "
        f"({protocol.value}, seed {args.seed}) -> {args.out}"
    )
    print(f"  schedule sha256: {_sha256(data)}")
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
    with open(args.rows, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != [
            "label",
            "demos",
            "success_percent",
        ]:
            raise SchemaViolation(
                "rows file must start with header 'label,demos,success_percent'"
            )
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append((row[0], int(row[1]), float(row[2])))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"line {line_number}: {exc}") from exc
    evalharness.scaling_report(rows, args.out)
    out = Path(args.out)
    print(f"wrote {out} and {out.with_suffix('.txt')} ({len(rows)} rows)")
    print(f"  csv sha256: {_sha256(out.read_bytes())}")
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
    except (ConfigError, SchemaViolation) as exc:
        print(f"toygrasp: [CONFIG] {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # IoFailure subclasses OSError
        print(f"toygrasp: [IO] {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ToygraspError) as exc:
        print(f"toygrasp: [CONFIG] {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"toygrasp: [INTERNAL] {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
