import json
import re

import numpy as np
import pytest

from toygrasp.cli import main

SMALL_COMPOSITION = {
    "cuboids": 1, "spheres": 1, "cylinders": 1, "rings": 1,
    "two_part": 1, "three_part": 0, "four_part": 0, "five_part": 0,
}


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

    def test_removed_config_keys_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, analysis={"n_directions": 64})
        assert main(["generate", "--config", str(config)]) == 2
        assert "unknown config key 'analysis'" in capsys.readouterr().err
        config = write_config(tmp_path, generation={"max_placement_attempts": 32})
        assert main(["generate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "unknown config key 'generation.max_placement_attempts'" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 3
        assert "[IO]" in capsys.readouterr().err


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
        assert out.count("PASS") == 4
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

    def test_disabled_mask_fails(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            encoder={
                "image_height": 16, "image_width": 16, "embed_dim": 32,
                "mlp_ratio": 2.0, "debug_disable_attention_mask": True,
            },
        )
        assert main(["detpool-check", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  background-invariance" in out

    def test_float32_requires_float64(self, tmp_path, capsys):
        config = write_config(tmp_path, encoder={"precision": "float32"})
        assert main(["detpool-check", "--config", str(config)]) == 2
        assert "encoder.precision" in capsys.readouterr().err

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

    def test_bad_header(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("foo,bar\n1,2\n")
        out = tmp_path / "out.csv"
        assert main(["report", "--rows", str(rows), "--out", str(out)]) == 2

    def test_rows_directory_exit_3(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["report", "--rows", str(tmp_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "[IO]" in err and "Traceback" not in err


class TestInternalError:
    def test_unexpected_exception_exits_4_without_traceback(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr("toygrasp.cli.cmd_aggregate", broken)
        assert main(["aggregate", "--outcomes", "unused.csv"]) == 4
        err = capsys.readouterr().err
        assert "toygrasp: [INTERNAL] RuntimeError: boom" in err
        assert "Traceback" not in err
