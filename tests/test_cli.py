import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toygrasp import analysis, detpool, evalharness
from toygrasp.analysis import min_caliper_width
from toygrasp.assembler import MAX_TOYS, generate_set
from toygrasp.cli import build_parser, cmd_generate, main
from toygrasp.config import load_config
from toygrasp.errors import InvalidInput
from toygrasp.io import build_manifest, manifest_json_bytes, obj_bytes, read_manifest, toy_record
from toygrasp.mesh import (
    MAX_RADIAL_SEGMENTS,
    MAX_SPHERE_SUBDIVISIONS,
    Tessellation,
    TriMesh,
    mesh_primitive,
    mesh_toy,
)
from toygrasp.primitives import PrimitiveKind

SMALL_COMPOSITION = {
    "cuboids": 1, "spheres": 1, "cylinders": 1, "rings": 1,
    "two_part": 1, "three_part": 0, "four_part": 0, "five_part": 0,
}

NO_TOYS = dict.fromkeys(SMALL_COMPOSITION, 0)
ENCODER_LIMITS = [
    ("image_height", detpool.MAX_IMAGE_SIDE),
    ("image_width", detpool.MAX_IMAGE_SIDE),
    ("embed_dim", detpool.MAX_EMBED_DIM),
    ("layers", detpool.MAX_LAYERS),
    ("heads", detpool.MAX_HEADS),
]
# Configs at the two encoder budgets, with the other fields at their defaults:
# 4 heads x 2048^2 tokens is exactly MAX_ATTENTION_ENTRIES, and a 1024-wide
# 2-layer encoder with a 6124-wide MLP is the widest under MAX_PARAMETERS.
ENCODER_AT_BUDGETS = [
    {"image_height": 1024},
    {"embed_dim": 1024, "mlp_ratio": 6124 / 1024},
]
ATTENTION_SOURCES = "(tokens from image_height, image_width, patch_size and include_cls)"
PARAMETER_SOURCES = "(from embed_dim, layers, mlp_ratio, patch_size and include_cls)"


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "generation": {"composition": SMALL_COMPOSITION, "master_seed": 5},
        "tessellation": {"sphere_subdivisions": 1, "radial_segments": 16},
        "output_dir": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in config:
            config[key].update(value)
        else:
            config[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def printed_digests(out):
    """The `<name> sha256: <hex>` lines a command printed, as name -> hex."""
    return dict(re.findall(r"(\w+) sha256: ([0-9a-f]{64})", out))


def assert_digests_match(out_dir, printed):
    """`digests.txt` lists exactly the files of the run and each one's
    digest, and the printed digests are of the manifest and that list."""
    lines = (out_dir / "digests.txt").read_text().splitlines()
    listed = dict(reversed(line.split("  ", 1)) for line in lines)
    assert len(listed) == len(lines)
    on_disk = {"manifest.json"} | {
        f"meshes/{name}" for name in os.listdir(out_dir / "meshes")
        if re.fullmatch(r"toy_[0-9]{4}\.(stl|obj)", name)
    }
    assert set(listed) == on_disk
    assert {name: sha256_of(out_dir / name) for name in listed} == listed
    assert printed_digests(printed) == {
        "manifest": sha256_of(out_dir / "manifest.json"),
        "outputs": sha256_of(out_dir / "digests.txt"),
    }


class TestGenerate:
    def test_small_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["generate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "generated 5 toys" in out
        assert "connectivity failures: 0" in out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["toys"]) == 5
        assert (tmp_path / "out" / "meshes" / "toy_0000.stl").exists()
        assert (tmp_path / "out" / "meshes" / "toy_0004.obj").exists()
        assert (tmp_path / "out" / "digests.txt").exists()

    @pytest.mark.parametrize("written", [0, 2])
    def test_run_stopped_part_way_leaves_no_manifest(self, tmp_path, capsys, monkeypatch, written):
        # An earlier set is in the directory; a second run stops after
        # `written` toys. Neither the old manifest nor the old digest list
        # may stay to describe meshes the second run replaced.
        config = write_config(tmp_path)
        assert main(["generate", "--config", str(config)]) == 0
        other = write_config(tmp_path, "other.json", generation={"master_seed": 6})
        calls = []

        def obj_bytes_then_fail(mesh):
            if len(calls) == written:
                raise RuntimeError("stopped")
            calls.append(mesh)
            return obj_bytes(mesh)

        monkeypatch.setattr("toygrasp.cli.obj_bytes", obj_bytes_then_fail)
        assert main(["generate", "--config", str(other)]) == 4
        assert "[INTERNAL] RuntimeError: stopped" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not (out / "manifest.json").exists()
        assert not (out / "digests.txt").exists()

    def test_smaller_run_removes_the_meshes_it_did_not_write(self, tmp_path, capsys):
        # A 250-toy set, then a 5-toy set into the same directory: only the
        # second set's meshes stay, and files generate does not own stay too.
        full = write_config(
            tmp_path, "full.json", generation={"composition": {}, "master_seed": 0}
        )
        assert main(["generate", "--config", str(full)]) == 0
        meshes = tmp_path / "out" / "meshes"
        assert len(list(meshes.glob("toy_*"))) == 500
        kept = ["notes.txt", "toy_0300.stl.bak", "toy_12345.obj", "other.stl"]
        for name in kept:
            (meshes / name).write_text("not a mesh of this set")
        assert main(["generate", "--config", str(write_config(tmp_path))]) == 0
        names = sorted(p.name for p in meshes.iterdir())
        assert names == sorted(
            kept + [f"toy_{i:04d}.{ext}" for i in range(5) for ext in ("stl", "obj")]
        )
        assert_digests_match(tmp_path / "out", capsys.readouterr().out)

    def test_every_digest_matches_its_file(self, tmp_path, capsys):
        assert main(["generate", "--config", str(write_config(tmp_path))]) == 0
        assert_digests_match(tmp_path / "out", capsys.readouterr().out)

    def test_manifest_is_build_manifest_of_one_mesh_per_toy(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        config = load_config(path)
        tess = config.tessellation
        records = [toy_record(t, mesh_toy(t, tess)) for t in generate_set(config.generation)]
        expected = manifest_json_bytes(build_manifest(records, config.generation, tess))
        assert (tmp_path / "out" / "manifest.json").read_bytes() == expected

    def test_identical_runs_print_identical_digests(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["generate", "--config", str(config)])
        first = capsys.readouterr().out
        main(["generate", "--config", str(config)])
        second = capsys.readouterr().out
        digest = re.compile(r"(manifest|outputs) sha256: (\w+)")
        assert digest.findall(first) == digest.findall(second)

    def test_empty_composition(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            generation={
                "composition": {k: 0 for k in SMALL_COMPOSITION},
                "master_seed": 1,
            },
        )
        assert main(["generate", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["toys"] == []

    def test_out_flag_overrides(self, tmp_path):
        config = write_config(tmp_path)
        target = tmp_path / "elsewhere"
        assert main(["generate", "--config", str(config), "--out", str(target)]) == 0
        assert (target / "manifest.json").exists()

    def test_env_var_overrides(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        target = tmp_path / "env_out"
        monkeypatch.setenv("TOYGRASP_OUT", str(target))
        assert main(["generate", "--config", str(config)]) == 0
        assert (target / "manifest.json").exists()

    def test_default_composition_full_run(self, tmp_path, capsys):
        # The built-in composition (250 toys) end to end, with a coarse
        # tessellation to keep file sizes small.
        config = tmp_path / "full.json"
        config.write_text(
            json.dumps(
                {
                    "tessellation": {"sphere_subdivisions": 1, "radial_segments": 16},
                    "output_dir": str(tmp_path / "full_out"),
                }
            )
        )
        assert main(["generate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "generated 250 toys" in out
        assert "cuboids=46, spheres=18, cylinders=20, rings=19" in out
        assert "two_part=27, three_part=35, four_part=38, five_part=47" in out
        manifest = json.loads((tmp_path / "full_out" / "manifest.json").read_text())
        assert len(manifest["toys"]) == 250
        stls = list((tmp_path / "full_out" / "meshes").glob("*.stl"))
        assert len(stls) == 250

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"generaton": {}}))
        assert main(["generate", "--config", str(path)]) == 2
        assert "[CONFIG]" in capsys.readouterr().err
        config = write_config(tmp_path, encoder={"debug_disable_attention_mask": True})
        assert main(["detpool-check", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "unknown config key 'encoder.debug_disable_attention_mask'" in err

    def test_removed_config_keys_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, analysis={"n_directions": 64})
        assert main(["generate", "--config", str(config)]) == 2
        assert "unknown config key 'analysis'" in capsys.readouterr().err
        config = write_config(tmp_path, generation={"max_placement_attempts": 32})
        assert main(["generate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "unknown config key 'generation.max_placement_attempts'" in err
        config = write_config(tmp_path, policy={"history_len": 4})
        assert main(["generate", "--config", str(config)]) == 2
        assert "unknown config key 'policy'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, values, path",
        [
            ("generation", {"ranges": {"sphere": {"diameter": 5}}},
             "generation.ranges.sphere.diameter"),
            ("generation", {"ranges": {"sphere": {"diameter": ["a", "b"]}}},
             "generation.ranges.sphere.diameter[0]"),
            ("generation", {"ranges": {"sphere": {"diameter": [0.01, float("inf")]}}},
             "generation.ranges.sphere.diameter[1]"),
            ("generation", {"master_seed": 1.5}, "generation.master_seed"),
            ("generation", {"palette": "blue"}, "generation.palette"),
            ("tessellation", {"radial_segments": 8.5}, "tessellation.radial_segments"),
            ("print", {"build_edge": float("nan")}, "print.build_edge"),
            ("encoder", {"layers": 1.5}, "encoder.layers"),
            ("encoder", {"seed": 1.5}, "encoder.seed"),
            ("encoder", {"seed": -1}, "encoder.seed"),
            ("encoder", {"patch_size": 0}, "encoder: patch_size"),
            ("encoder", {"heads": 0}, "encoder: heads"),
            ("encoder", {"embed_dim": 0}, "encoder: embed_dim"),
            ("generation", {"ranges": {"sphere": {"diameter": [0.01, 0.02, 0.03]}}},
             "generation: sphere.diameter interval must have exactly 2 entries"),
            ("generation", {"ranges": {"sphere": {"diameter": []}}},
             "generation: sphere.diameter interval must have exactly 2 entries"),
            ("print", {"build_edge": -1.0}, "print.build_edge"),
            ("print", {"build_edge": 0}, "print.build_edge"),
            ("print", {"min_wall": -0.001}, "print.min_wall"),
            ("encoder", {"mlp_ratio": 1e-300}, "encoder: mlp_ratio"),
            ("encoder", {"embed_dim": 4, "heads": 1, "mlp_ratio": 0.2}, "encoder: mlp_ratio"),
            ("encoder", {"mlp_ratio": 1e300}, "encoder: mlp_ratio"),
            ("encoder", {"embed_dim": 64, "mlp_ratio": 1e6}, "encoder: mlp_ratio"),
        ],
    )
    def test_malformed_config_values_rejected(self, tmp_path, capsys, section, values, path):
        config = write_config(tmp_path, **{section: values})
        assert main(["generate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"toygrasp: [CONFIG] {path} "), err

    @pytest.mark.parametrize("command", ["generate", "analyze"])
    @pytest.mark.parametrize(
        "field, low, limit",
        [
            ("sphere_subdivisions", 0, MAX_SPHERE_SUBDIVISIONS),
            ("radial_segments", 8, MAX_RADIAL_SEGMENTS),
        ],
    )
    def test_tessellation_above_its_limit_exits_2_before_meshing(
        self, tmp_path, capsys, monkeypatch, command, field, low, limit
    ):
        # A finer tessellation could exhaust memory (exit 4); the config is
        # rejected before any mesh is built, or any manifest is read.
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr("toygrasp.cli.mesh_primitive", no_mesh)
        monkeypatch.setattr("toygrasp.cli.mesh_toy", no_mesh)
        config = write_config(tmp_path, tessellation={field: limit + 1})
        argv = [command, "--config", str(config)]
        if command == "analyze":
            argv += ["--manifest", str(tmp_path / "missing.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"toygrasp: [CONFIG] tessellation: {field} must be from {low} to {limit}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, overrides, message",
        [
            ("encoder", {field: limit + 1}, f"encoder: {field} = {limit + 1} is above the limit of {limit}")
            for field, limit in ENCODER_LIMITS
        ]
        + [
            (
                "generation",
                {"composition": {**NO_TOYS, "cuboids": MAX_TOYS, "rings": 1}},
                f"generation: composition total = {MAX_TOYS + 1} toys is above the limit of {MAX_TOYS}",
            ),
            # `analyze` refuses a manifest part past 1000 m, and past about
            # 1e38 m the STL's float32 overflows.
            (
                "generation",
                {"ranges": {"sphere": {"diameter": [1500, 1500]}}},
                "generation: sphere.diameter interval [1500, 1500] must end at most 250 m",
            ),
            (
                "generation",
                {"ranges": {"cuboid": {"width": [0.02, 1e200]}}},
                "generation: cuboid.width interval [0.02, 1e+200] must end at most 250 m",
            ),
            (
                "encoder",
                {"image_height": 1024, "include_cls": True},
                f"encoder: heads x tokens^2 = 4 x 2049^2 = 16793604 is above the limit of "
                f"{detpool.MAX_ATTENTION_ENTRIES} attention entries {ATTENTION_SOURCES}",
            ),
            (
                "encoder",
                {"image_height": 1024, "image_width": 1024, "patch_size": 2},
                f"encoder: heads x tokens^2 = 4 x 262144^2 = 274877906944 is above the limit of "
                f"{detpool.MAX_ATTENTION_ENTRIES} attention entries {ATTENTION_SOURCES}",
            ),
            (
                "encoder",
                {"embed_dim": 1024, "mlp_ratio": 6125 / 1024},
                f"encoder: parameter count = 33556442 is above the limit of "
                f"{detpool.MAX_PARAMETERS} {PARAMETER_SOURCES}",
            ),
        ],
        ids=[field for field, _ in ENCODER_LIMITS]
        + ["composition", "range-1500m", "range-1e200m", "attention-with-cls",
           "attention-2px-patches", "parameters"],
    )
    @pytest.mark.parametrize("command", ["generate", "detpool-check"])
    def test_size_above_its_limit_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, section, overrides, message
    ):
        # Each size is checked where the config is read: no encoder is
        # initialised and no toy is drawn.
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for target in ("toygrasp.cli.generate_set", "toygrasp.checks.init_encoder"):
            monkeypatch.setattr(target, no_work)
        config = write_config(tmp_path, **{section: overrides})
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"toygrasp: [CONFIG] {message}\n"
        assert not (tmp_path / "out").exists()

    def test_sizes_at_their_limits_load(self, tmp_path):
        # Each encoder size at its limit with the others at their defaults:
        # every per-field limit at once is above both budgets.
        for encoder in [{field: limit} for field, limit in ENCODER_LIMITS] + ENCODER_AT_BUDGETS:
            loaded = load_config(write_config(tmp_path, encoder=encoder))
            assert {field: getattr(loaded.encoder, field) for field in encoder} == encoder
        config = write_config(tmp_path, generation={"composition": {**NO_TOYS, "cuboids": MAX_TOYS}})
        loaded = load_config(config)
        assert sum(loaded.generation.composition.counts().values()) == MAX_TOYS

    @pytest.mark.parametrize(
        "name, data, command",
        [
            ("config.json", b'{"output_dir": "\xff"}', ["generate", "--config"]),
            ("objects.json", b"[1, ", ["schedule", "--protocol", "h12_humanoid", "--objects"]),
            ("objects.txt", b"cup\n\xff\n", ["schedule", "--protocol", "h12_humanoid", "--objects"]),
            ("outcomes.csv", b"object,trial_index,success\ncup,0,1\n\xff,1,0\n",
             ["aggregate", "--outcomes"]),
            ("rows.csv", b"label,demos,success_percent\n\xff,10,50\n", ["report", "--rows"]),
            ("outcomes.csv", b"object,trial_index,success\n" + b"a" * 200_000 + b",0,1\n",
             ["aggregate", "--outcomes"]),
        ],
        ids=["config-not-utf8", "objects-not-json", "objects-not-utf8", "outcomes-not-utf8",
             "rows-not-utf8", "outcomes-field-too-long"],
    )
    def test_undecodable_input_names_the_document(self, tmp_path, capsys, name, data, command):
        path = tmp_path / name
        path.write_bytes(data)
        argv = command + [str(path)]
        if command[0] == "schedule":
            argv += ["--out", str(tmp_path / "s.json")]
        if command[0] == "report":
            argv += ["--out", str(tmp_path / "r.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"toygrasp: [CONFIG] {name.split('.')[0]} {path} is not valid "), err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 3
        assert "[IO]" in capsys.readouterr().err

    def test_broken_part_kind_exits_2_not_watertight(self, tmp_path, capsys, monkeypatch):
        # Drop one triangle from every ring mesh `generate` checks.
        def broken(spec, tess=None):
            mesh = mesh_primitive(spec, tess)
            if spec.kind is PrimitiveKind.RING:
                return TriMesh(mesh.vertices, mesh.triangles[:-1])
            return mesh

        monkeypatch.setattr("toygrasp.cli.mesh_primitive", broken)
        config = write_config(tmp_path)
        args = build_parser().parse_args(["generate", "--config", str(config)])
        with pytest.raises(InvalidInput, match="ring mesh: an edge is not shared"):
            cmd_generate(args)
        assert main(["generate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == "toygrasp: [CONFIG] ring mesh: an edge is not shared by exactly 2 triangles\n"
        assert not (tmp_path / "out" / "manifest.json").exists()


class TestAnalyze:
    def test_csv_rows_match_toys(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["generate", "--config", str(config)])
        capsys.readouterr()
        csv_path = tmp_path / "analysis.csv"
        code = main(
            [
                "analyze",
                "--manifest",
                str(tmp_path / "out" / "manifest.json"),
                "--config",
                str(config),
                "--out",
                str(csv_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 toys
        assert lines[0].startswith("id,min_caliper_width")

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["analyze", "--manifest", str(tmp_path / "none.json")]) == 3

    def _analyze_edited(self, tmp_path, capsys, edit):
        # Generate a small manifest, apply `edit` to its JSON, then analyze it.
        config = write_config(tmp_path)
        assert main(["generate", "--config", str(config)]) == 0
        manifest = tmp_path / "out" / "manifest.json"
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(
            ["analyze", "--manifest", str(manifest), "--config", str(config),
             "--out", str(tmp_path / "analysis.csv")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "[CONFIG]" in err and "Traceback" not in err
        return err

    def test_toys_not_a_list(self, tmp_path, capsys):
        err = self._analyze_edited(tmp_path, capsys, lambda doc: doc.update(toys=5))
        assert "toys must be a list" in err

    def test_dims_not_an_object(self, tmp_path, capsys):
        def edit(doc):
            doc["toys"][0]["parts"][0]["dims"] = [1, 2]

        err = self._analyze_edited(tmp_path, capsys, edit)
        assert "toys[0].parts[0].dims must be an object" in err

    def test_toy_not_an_object(self, tmp_path, capsys):
        def edit(doc):
            doc["toys"][0] = 7

        err = self._analyze_edited(tmp_path, capsys, edit)
        assert "toys[0] must be an object" in err

    def test_quaternion_not_a_list(self, tmp_path, capsys):
        def edit(doc):
            doc["toys"][0]["parts"][0]["quaternion"] = 3

        err = self._analyze_edited(tmp_path, capsys, edit)
        assert "toys[0].parts[0].quaternion must be a list" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_translation_names_toy_and_field(self, tmp_path, capsys):
        def edit(doc):
            doc["toys"][2]["parts"][0]["translation"] = [1e308, 1e308, 1e308]

        err = self._analyze_edited(tmp_path, capsys, edit)
        assert "toys[2].parts[0].translation[0]" in err
        assert "toy_0002" in err

    def test_invalid_part_names_toy(self, tmp_path, capsys):
        def edit(doc):
            dims = doc["toys"][1]["parts"][0]["dims"]
            dims.update({name: -0.01 for name in dims})

        err = self._analyze_edited(tmp_path, capsys, edit)
        assert "toys[1] ('toy_0001'): " in err and "must be positive" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_translation_rejected(self, tmp_path, capsys):
        def edit(doc):
            doc["toys"][1]["parts"][0]["translation"][1] = float("nan")

        err = self._analyze_edited(tmp_path, capsys, edit)
        assert "toys[1].parts[0].translation[1] must be a finite number" in err

    def test_format_version_1_rejected(self, tmp_path, capsys):
        err = self._analyze_edited(
            tmp_path, capsys, lambda doc: doc.update(format_version="1")
        )
        assert "unknown manifest format_version '1'" in err

    def test_format_version_2_rejected(self, tmp_path, capsys):
        for version in ("2", "3"):
            err = self._analyze_edited(
                tmp_path, capsys, lambda doc: doc.update(format_version=version)
            )
            assert f"unknown manifest format_version '{version}'" in err

    def test_one_width_per_toy(self, tmp_path, capsys, monkeypatch):
        original, calls = analysis.min_caliper_width, []

        def counting(mesh):
            calls.append(mesh)
            return original(mesh)

        # Every module that bound the name counts, `from ... import` copies too.
        for name, module in list(sys.modules.items()):
            bound = getattr(module, "min_caliper_width", None)
            if name.startswith("toygrasp") and bound is original:
                monkeypatch.setattr(module, "min_caliper_width", counting)
        config = write_config(tmp_path)
        assert main(["generate", "--config", str(config)]) == 0
        assert len(calls) == 0
        code = main(
            ["analyze", "--manifest", str(tmp_path / "out" / "manifest.json"),
             "--config", str(config), "--out", str(tmp_path / "analysis.csv")]
        )
        assert code == 0
        assert len(calls) == 5

    def test_quaternion_norm_overflow_prints_one_line(self, tmp_path):
        # The squared norm of [1e200, 0, 0, 0] overflows; the run must print
        # its one [CONFIG] line and no numpy warning.
        config = write_config(tmp_path)
        assert main(["generate", "--config", str(config)]) == 0
        manifest = tmp_path / "out" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["toys"][0]["parts"][0]["quaternion"] = [1e200, 0.0, 0.0, 0.0]
        manifest.write_text(json.dumps(doc))
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-W", "default", "-m", "toygrasp.cli", "analyze",
             "--manifest", str(manifest), "--out", str(tmp_path / "analysis.csv")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=600,
        )
        assert result.returncode == 2
        assert result.stderr == (
            "toygrasp: [CONFIG] toys[0] ('toy_0000'): quaternion norm inf is not 1 within 1e-12\n"
        )

    def test_meshes_at_the_manifest_tessellation(self, tmp_path, capsys):
        # Two cylinders meshed at 8 radial segments: analyze measures those
        # meshes, whatever tessellation its own --config names.
        coarse = write_config(
            tmp_path,
            generation={"composition": {**NO_TOYS, "cylinders": 2}},
            tessellation={"sphere_subdivisions": 0, "radial_segments": 8},
        )
        assert main(["generate", "--config", str(coarse)]) == 0
        manifest = str(tmp_path / "out" / "manifest.json")
        fine = write_config(tmp_path, "fine.json", tessellation={"radial_segments": 64})
        outputs = []
        for extra in ([], ["--config", str(coarse)], ["--config", str(fine)]):
            out = tmp_path / f"analysis{len(outputs)}.csv"
            assert main(["analyze", "--manifest", manifest, "--out", str(out), *extra]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        toys = read_manifest(manifest).toys
        widths = [float(line.split(",")[1]) for line in outputs[0].decode().splitlines()[1:]]
        assert widths == [min_caliper_width(mesh_toy(toy, Tessellation(0, 8)))[0] for toy in toys]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.update(radial_segments=7),
             "config.tessellation.radial_segments must be from 8 to 65536"),
            (lambda t: t.update(sphere_subdivisions=MAX_SPHERE_SUBDIVISIONS + 1),
             f"config.tessellation.sphere_subdivisions must be from 0 to {MAX_SPHERE_SUBDIVISIONS}"),
            (lambda t: t.update(radial_segments=16.0),
             "config.tessellation.radial_segments must be an integer, got float"),
            (lambda t: t.pop("radial_segments"),
             "config.tessellation: missing field 'radial_segments'"),
            (lambda t: t.clear() or t.update(x=1), "unknown manifest key 'config.tessellation.x'"),
        ],
        ids=["low", "high", "float", "missing", "unknown"],
    )
    def test_bad_manifest_tessellation_names_the_field(self, tmp_path, capsys, edit, message):
        err = self._analyze_edited(
            tmp_path, capsys, lambda doc: edit(doc["config"]["tessellation"])
        )
        assert err == f"toygrasp: [CONFIG] {message}\n"

    def test_manifest_without_tessellation_rejected(self, tmp_path, capsys):
        err = self._analyze_edited(
            tmp_path, capsys, lambda doc: doc["config"].pop("tessellation")
        )
        assert err == "toygrasp: [CONFIG] config.tessellation must be an object, got NoneType\n"


class TestDetpoolCheck:
    def test_default_config_passes(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            encoder={
                "image_height": 16, "image_width": 16, "embed_dim": 32,
                "mlp_ratio": 2.0,
            },
        )
        assert main(["detpool-check", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        fd = re.search(
            r"(\d+) entries checked \(mean (\d+), cls (\d+), attention (\d+), det (\d+)\), "
            r"worst error at ([\d.]+) of tolerance at (mean|cls|attention|det):[\w.]+\[\d+\]",
            out,
        )
        assert fd, out
        counts = [int(n) for n in fd.groups()[:5]]
        assert counts[0] == sum(counts[1:]) and min(counts[1:]) > 0
        assert float(fd.group(6)) < 1.0
        for name in (
            "background-invariance",
            "single-token-oracle",
            "gradient-exactness",
            "pooling-contrast",
        ):
            assert name in out

    def test_disabled_mask_fails(self, tmp_path, capsys, monkeypatch):
        # Full attention in place of the flag mask: background leaks into
        # Det pooling, so the invariance suite must fail with exit 1.
        monkeypatch.setattr(detpool, "build_attention_mask", lambda flags, include_cls: None)
        config = write_config(
            tmp_path,
            encoder={
                "image_height": 16, "image_width": 16, "embed_dim": 32, "mlp_ratio": 2.0,
            },
        )
        assert main(["detpool-check", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  background-invariance" in out

    def test_float32_requires_float64(self, tmp_path, capsys):
        config = write_config(tmp_path, encoder={"precision": "float32"})
        assert main(["detpool-check", "--config", str(config)]) == 2
        assert "encoder.precision" in capsys.readouterr().err

    def test_mask_flagging_every_patch_exits_2(self, tmp_path, capsys):
        # No background is left to perturb, so invariance would pass vacuously
        # and contrast would fail; like an empty mask, it is an input error.
        config = write_config(
            tmp_path,
            encoder={
                "image_height": 16, "image_width": 16, "embed_dim": 32,
                "mlp_ratio": 2.0,
            },
        )
        mask_path = tmp_path / "mask.pgm"
        mask_path.write_bytes(b"P5\n16 16\n255\n" + b"\x01" * 256)
        assert main(["detpool-check", "--config", str(config), "--mask", str(mask_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("toygrasp: [CONFIG] mask flags all 16 patches"), captured.err

    @pytest.mark.parametrize("height, width", [(1, 8), (8, 1)], ids=["one-row", "one-column"])
    def test_a_side_of_one_pixel_is_checked(self, tmp_path, capsys, height, width):
        # The default mask's corner on a side 1 pixel long is its first row
        # or column, not a draw from an empty range.
        encoder = {
            "image_height": height, "image_width": width, "patch_size": 1, "embed_dim": 8,
            "heads": 1,
        }
        config = write_config(tmp_path, encoder=encoder)
        assert main(["detpool-check", "--config", str(config)]) in (0, 1)
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.splitlines()) == 5, captured

    @pytest.mark.parametrize("seed", range(4))
    def test_a_2x2_patch_grid_is_checked(self, tmp_path, capsys, seed):
        # The default rectangle flags all 4 patches at some seeds; it is
        # trimmed to the patch that holds its corner.
        config = write_config(tmp_path, encoder={"image_height": 8, "image_width": 8, "seed": seed})
        assert main(["detpool-check", "--config", str(config)]) in (0, 1)
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.splitlines()) == 5, captured

    def test_a_one_patch_encoder_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, encoder={"image_height": 4, "image_width": 4})
        assert main(["detpool-check", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "toygrasp: [CONFIG] the encoder has 1 patch, so no background patch is left to "
            "perturb\n"
        )

    def test_pgm_mask_accepted(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            encoder={
                "image_height": 16, "image_width": 16, "embed_dim": 32,
                "mlp_ratio": 2.0,
            },
        )
        mask_path = tmp_path / "mask.pgm"
        pixels = np.zeros((16, 16), dtype=np.uint8)
        pixels[4:9, 2:7] = 255
        mask_path.write_bytes(b"P5\n16 16\n255\n" + pixels.tobytes())
        assert main(["detpool-check", "--config", str(config), "--mask", str(mask_path)]) == 0


class TestSchedule:
    def test_sim_65_objects_1040_trials(self, tmp_path, capsys):
        objects = tmp_path / "objects.txt"
        objects.write_text("".join(f"ycb_{i:03d}\n" for i in range(65)))
        out = tmp_path / "schedule.json"
        code = main(
            [
                "schedule", "--protocol", "sim_maniskill",
                "--objects", str(objects), "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        assert "scheduled 1040 trials for 65 objects" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert len(doc["trials"]) == 1040

    def test_json_object_list(self, tmp_path, capsys):
        objects = tmp_path / "objects.json"
        objects.write_text(json.dumps(["cup", "ball"]))
        out = tmp_path / "schedule.json"
        code = main(
            [
                "schedule", "--protocol", "h12_humanoid",
                "--objects", str(objects), "--out", str(out),
            ]
        )
        assert code == 0
        assert len(json.loads(out.read_text())["trials"]) == 10

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("objects.txt", "a\nb\n\na\n", "line 4: duplicate object id 'a', first on line 1"),
            ("objects.json", '["a", "b", "a"]', "item 2: duplicate object id 'a', first on item 0"),
        ],
    )
    def test_duplicate_object_exit_2(self, tmp_path, capsys, name, text, where):
        objects = tmp_path / name
        objects.write_text(text)
        out = tmp_path / "schedule.json"
        code = main(
            [
                "schedule", "--protocol", "sim_maniskill",
                "--objects", str(objects), "--out", str(out),
            ]
        )
        assert code == 2
        assert f"[CONFIG] {where}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "item, got",
        [(2, "int"), (None, "NoneType"), ({"a": 1}, "dict"), ([1], "list"), ("", "''")],
        ids=["int", "null", "object", "array", "empty"],
    )
    def test_non_string_json_item_exit_2(self, tmp_path, capsys, item, got):
        objects = tmp_path / "objects.json"
        objects.write_text(json.dumps(["cup", item]))
        out = tmp_path / "schedule.json"
        code = main(
            [
                "schedule", "--protocol", "h12_humanoid",
                "--objects", str(objects), "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"[CONFIG] item 1: object id must be a non-empty string, got {got}" in err
        assert not out.exists()

    def test_objects_directory_exit_3(self, tmp_path, capsys):
        code = main(
            [
                "schedule", "--protocol", "h12_humanoid",
                "--objects", str(tmp_path), "--out", str(tmp_path / "s.json"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "[IO]" in err and "Traceback" not in err


class TestAggregate:
    def test_humanoid_table_average(self, tmp_path, capsys):
        rates = [60, 40, 60, 40, 60, 60, 60, 60, 60, 20, 60, 60, 20]
        lines = ["object,trial_index,success"]
        for i, rate in enumerate(rates):
            wins = rate // 20
            for t in range(5):
                lines.append(f"object_{i:02d},{t},{1 if t < wins else 0}")
        outcomes = tmp_path / "outcomes.csv"
        outcomes.write_text("\n".join(lines) + "\n")
        assert main(["aggregate", "--outcomes", str(outcomes)]) == 0
        assert "overall: 50.77" in capsys.readouterr().out

    def test_non_binary_value_exit_2_with_line(self, tmp_path, capsys):
        outcomes = tmp_path / "outcomes.csv"
        outcomes.write_text("object,trial_index,success\na,0,1\na,1,yes\n")
        assert main(["aggregate", "--outcomes", str(outcomes)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "index", ["x", "-1", "1.5", ""], ids=["letter", "negative", "fraction", "empty"]
    )
    def test_bad_trial_index_exit_2_with_line(self, tmp_path, capsys, index):
        outcomes = tmp_path / "outcomes.csv"
        outcomes.write_text(f"object,trial_index,success\na,0,1\na,{index},0\n")
        assert main(["aggregate", "--outcomes", str(outcomes)]) == 2
        err = capsys.readouterr().err
        assert f"[CONFIG] line 3: trial_index must be an integer >= 0, got {index!r}" in err

    def test_duplicate_trial_exit_2_naming_first_line(self, tmp_path, capsys):
        outcomes = tmp_path / "outcomes.csv"
        outcomes.write_text("object,trial_index,success\na,0,1\nb,0,1\na,1,0\na,0,1\n")
        assert main(["aggregate", "--outcomes", str(outcomes)]) == 2
        err = capsys.readouterr().err
        assert "[CONFIG] line 5: duplicate trial_index 0 for object 'a', first on line 2" in err

    def test_empty_object_id_exit_2_with_line(self, tmp_path, capsys):
        outcomes = tmp_path / "outcomes.csv"
        outcomes.write_text("object,trial_index,success\n,0,1\n,1,0\n")
        assert main(["aggregate", "--outcomes", str(outcomes)]) == 2
        captured = capsys.readouterr()
        assert "[CONFIG] line 2: object id must be non-empty" in captured.err
        assert captured.out == ""


class TestReport:
    def test_shuffled_rows_identical_bytes(self, tmp_path, capsys):
        sorted_rows = tmp_path / "sorted.csv"
        sorted_rows.write_text(
            "label,demos,success_percent\nmain,250,56.63\nmain,2500,80.0\n"
        )
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(
            "label,demos,success_percent\nmain,2500,80.0\nmain,250,56.63\n"
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["report", "--rows", str(sorted_rows), "--out", str(a)]) == 0
        assert main(["report", "--rows", str(shuffled), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_signed_zero_prints_unsigned(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("label,demos,success_percent\nm,1,-0\nm,2,-0.0\n")
        out = tmp_path / "out.csv"
        assert main(["report", "--rows", str(rows), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "label,demos,success_percent", "m,1,0.00", "m,2,0.00"
        ]
        assert "-0" not in out.with_suffix(".txt").read_text()

    def test_bad_header(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("foo,bar\n1,2\n")
        out = tmp_path / "out.csv"
        assert main(["report", "--rows", str(rows), "--out", str(out)]) == 2

    @pytest.mark.parametrize("percent", ["inf", "1e400", "nan"])
    def test_non_finite_percent_exit_2_with_line(self, tmp_path, capsys, percent):
        rows = tmp_path / "rows.csv"
        rows.write_text(f"label,demos,success_percent\nmain,250,56.63\nmain,2500,{percent}\n")
        out = tmp_path / "out.csv"
        assert main(["report", "--rows", str(rows), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[CONFIG] line 3" in err and "success_percent" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("main,-3,50", "line 3: demos must be an integer >= 0, got '-3'"),
            ("main,x,50", "line 3: demos must be an integer >= 0, got 'x'"),
            ("main,1_0,50", "line 3: demos must be an integer >= 0, got '1_0'"),
            ("main,\u0663,50", "line 3: demos must be an integer >= 0, got '\u0663'"),
            ("main,3,abc", "line 3: success_percent must be a number from 0 to 100, got 'abc'"),
            ("main,3,1e30", "line 3: success_percent must be a number from 0 to 100, got '1e30'"),
            ("main,3", "line 3: missing success_percent"),
            ("main", "line 3: missing demos, success_percent"),
        ],
    )
    def test_bad_row_exit_2_naming_the_column(self, tmp_path, capsys, row, message):
        rows = tmp_path / "rows.csv"
        rows.write_text(f"label,demos,success_percent\nmain,250,56.63\n{row}\n")
        out = tmp_path / "out.csv"
        assert main(["report", "--rows", str(rows), "--out", str(out)]) == 2
        assert f"[CONFIG] {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_txt_out_exit_2_naming_the_path(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("label,demos,success_percent\nmain,250,56.63\n")
        out = tmp_path / "x.txt"
        assert main(["report", "--rows", str(rows), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"[CONFIG] report CSV path {out} ends in .txt" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_rows_directory_exit_3(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["report", "--rows", str(tmp_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "[IO]" in err and "Traceback" not in err


def single_output_command(tmp_path, command):
    """The argv of a `schedule`, `analyze` or `report` run writing one file,
    with its inputs written; that file; and the module and name of its chunk
    source."""
    if command == "schedule":
        objects = tmp_path / "objects.txt"
        objects.write_text("cup\nball\n")
        out = tmp_path / "result.json"
        argv = ["schedule", "--protocol", "sim_maniskill", "--objects", str(objects)]
        return argv + ["--out", str(out)], out, (evalharness, "json_chunks")
    out = tmp_path / "result.csv"
    if command == "analyze":
        config = write_config(tmp_path)
        assert main(["generate", "--config", str(config)]) == 0
        manifest = str(tmp_path / "out" / "manifest.json")
        argv = ["analyze", "--manifest", manifest, "--config", str(config), "--out", str(out)]
        return argv, out, (analysis, "csv_chunks")
    rows = tmp_path / "rows.csv"
    rows.write_text("label,demos,success_percent\nm,10,50\nm,20,60\n")
    return ["report", "--rows", str(rows), "--out", str(out)], out, (evalharness, "csv_chunks")


class TestOutputs:
    """Each single-file output is replaced whole, and the digest a command
    prints is of the bytes it wrote."""

    @pytest.mark.parametrize("command", ["schedule", "analyze", "report"])
    def test_printed_digest_is_of_the_file(self, tmp_path, capsys, command):
        argv, out, _ = single_output_command(tmp_path, command)
        capsys.readouterr()
        assert main(argv) == 0
        assert list(printed_digests(capsys.readouterr().out).values()) == [sha256_of(out)]

    @pytest.mark.parametrize("chunks", [0, 1, 2])
    @pytest.mark.parametrize("command", ["schedule", "analyze", "report"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, capsys, monkeypatch, command, chunks):
        argv, out, (module, name) = single_output_command(tmp_path, command)
        out.write_bytes(b"an earlier run's output\n")
        original = getattr(module, name)

        def failing(*args):
            for k, chunk in enumerate(original(*args)):
                if k == chunks:
                    raise RuntimeError("stopped")
                yield chunk

        monkeypatch.setattr(module, name, failing)
        capsys.readouterr()
        assert main(argv) == 4
        assert "[INTERNAL] RuntimeError: stopped" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier run's output\n"
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_failed_rename_exits_3_and_leaves_no_temporary(self, tmp_path, capsys, monkeypatch):
        argv, out, _ = single_output_command(tmp_path, "schedule")

        def refuse(source, target):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), source, None, target)

        monkeypatch.setattr(os, "replace", refuse)
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"toygrasp: [IO] cannot write schedule {out}: {os.strerror(errno.EXDEV)}"
        ]
        assert not out.exists() and list(tmp_path.rglob("*.tmp")) == []

    def test_a_name_of_250_bytes_is_written(self, tmp_path, capsys):
        argv, _, _ = single_output_command(tmp_path, "schedule")
        out = tmp_path / ("s" * 245 + ".json")
        argv[-1] = str(out)
        assert main(argv) == 0
        assert list(printed_digests(capsys.readouterr().out).values()) == [sha256_of(out)]
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("command", ["generate", "analyze", "schedule", "aggregate", "report"])
    def test_a_failed_write_prints_one_line_naming_the_target(self, tmp_path, capsys, command):
        # Each command's first output is an existing directory.
        if command == "generate":
            argv = ["generate", "--config", str(write_config(tmp_path))]
            target = tmp_path / "out" / "meshes" / "toy_0000.stl"
        elif command == "aggregate":
            outcomes = tmp_path / "outcomes.csv"
            outcomes.write_text("object,trial_index,success\ncup,0,1\n")
            target = tmp_path / "table.csv"
            argv = ["aggregate", "--outcomes", str(outcomes), "--out", str(target)]
        else:
            argv, target, _ = single_output_command(tmp_path, command)
        target.mkdir(parents=True)
        capsys.readouterr()
        assert main(argv) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("toygrasp: [IO] cannot write ")
        assert str(target) in lines[0] and ".tmp" not in lines[0]

    @pytest.mark.parametrize("command", ["generate", "analyze"])
    def test_a_directory_that_cannot_be_made_prints_one_line(self, tmp_path, capsys, command):
        # A regular file stands where the command's output directory goes.
        if command == "generate":
            argv = ["generate", "--config", str(write_config(tmp_path))]
            directory = tmp_path / "out" / "meshes"
        else:
            argv, _, _ = single_output_command(tmp_path, "analyze")
            directory = tmp_path / "blocked"
            argv[-1] = str(directory / "result.csv")
        directory.parent.mkdir(exist_ok=True)
        directory.write_text("a file\n")
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"toygrasp: [IO] cannot create directory {directory}: {os.strerror(errno.EEXIST)}"
        ]
        assert directory.read_text() == "a file\n"


class TestInternalError:
    @pytest.mark.parametrize(
        "error, line",
        [
            (RuntimeError("boom"), "toygrasp: [INTERNAL] RuntimeError: boom"),
            # A config inside the size budgets on a host with too little free memory.
            (MemoryError("Unable to allocate 128. MiB"),
             "toygrasp: [INTERNAL] MemoryError: Unable to allocate 128. MiB"),
        ],
        ids=["runtime-error", "memory-error"],
    )
    def test_unexpected_exception_exits_4_without_traceback(self, monkeypatch, capsys, error, line):
        def broken(args):
            raise error

        monkeypatch.setattr("toygrasp.cli.cmd_aggregate", broken)
        assert main(["aggregate", "--outcomes", "unused.csv"]) == 4
        err = capsys.readouterr().err
        assert err.splitlines() == [line]

    def test_interrupt_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("toygrasp.cli.cmd_aggregate", interrupted)
        assert main(["aggregate", "--outcomes", "unused.csv"]) == 130
        err = capsys.readouterr().err
        assert err.splitlines() == ["toygrasp: interrupted"]


#: Runs every command but `analyze` in one interpreter, then `analyze`, and
#: prints the exit codes and the scipy modules loaded before `analyze`.
IMPORT_BOUNDARY_SCRIPT = """
import json, sys
from pathlib import Path
from toygrasp.cli import main

tmp, config = Path(sys.argv[1]), sys.argv[2]
(tmp / "objects.txt").write_text("cup\\nball\\n")
(tmp / "outcomes.csv").write_text("object,trial_index,success\\ncup,0,1\\nball,0,0\\n")
(tmp / "rows.csv").write_text("label,demos,success_percent\\nm,10,50\\n")
codes = [
    main(["detpool-check"]),
    main(["generate", "--config", config]),
    main(["schedule", "--protocol", "sim_maniskill", "--objects", str(tmp / "objects.txt"),
          "--out", str(tmp / "schedule.json")]),
    main(["aggregate", "--outcomes", str(tmp / "outcomes.csv")]),
    main(["report", "--rows", str(tmp / "rows.csv"), "--out", str(tmp / "report.csv")]),
]
before = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
codes.append(main(["analyze", "--manifest", str(tmp / "out" / "manifest.json"),
                   "--config", config, "--out", str(tmp / "analysis.csv")]))
print(json.dumps({"codes": codes, "scipy_before_analyze": before}))
"""


def run_python(*argv):
    """`python *argv` in a fresh interpreter that imports this checkout's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result


def test_only_analyze_loads_scipy(tmp_path):
    # GELU's erf is in-tree, so only analyze's convex hull needs scipy.
    result = run_python("-c", IMPORT_BOUNDARY_SCRIPT, str(tmp_path), str(write_config(tmp_path)))
    report = json.loads(result.stdout.splitlines()[-1])
    assert report == {"codes": [0] * 6, "scipy_before_analyze": []}
    assert len((tmp_path / "analysis.csv").read_text().splitlines()) == 1 + 5


def test_importing_the_cli_does_not_import_hashlib():
    # `io.write_output` imports hashlib when it first writes: imported at the
    # top of `io`, it loaded OpenSSL ahead of the encoder and raised the
    # `encoder_verify` benchmark's peak RSS.
    result = run_python("-c", "import sys, toygrasp.cli; print('hashlib' in sys.modules)")
    assert result.stdout.split() == ["False"]
