import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_binary_stl, parse_obj
from test_config import JSON_VALUES
from toygrasp.assembler import GenerationConfig, SetComposition, generate_set
from toygrasp.errors import EmptyMesh, SchemaViolation
from toygrasp.io import (
    JSON_BLOCK,
    MANIFEST_FORMAT_VERSION,
    build_manifest,
    generation_config_from_dict,
    generation_config_to_dict,
    json_chunks,
    manifest_json_bytes,
    obj_bytes,
    read_manifest,
    read_pgm,
    record_to_toy,
    stl_bytes,
    toy_record,
    write_output,
)
from toygrasp.mesh import Tessellation, TriMesh, mesh_primitive, mesh_toy
from toygrasp.primitives import PrimitiveKind, PrimitiveSpec


def small_set():
    config = GenerationConfig(
        composition=SetComposition(1, 1, 1, 1, 1, 1, 0, 0), master_seed=11
    )
    return generate_set(config), config


def manifest_of(toys, config):
    tess = Tessellation()
    return build_manifest([toy_record(t, mesh_toy(t, tess)) for t in toys], config, tess)


def write_manifest(toys, config, path):
    path.write_bytes(manifest_json_bytes(manifest_of(toys, config)))


CUBOID = PrimitiveSpec(
    PrimitiveKind.CUBOID, {"width": 0.02, "length": 0.28, "height": 0.20}
)


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestOutputFile:
    """`write_output`: a file replaced whole, with the digest of its bytes."""

    def test_replaces_the_file_whole_and_hashes_what_it_wrote(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"an older and longer file")
        digest = write_output(path, [b"new ", b"bytes"], "output")
        assert path.read_bytes() == b"new bytes"
        assert digest == sha256_of(path)
        assert os.listdir(tmp_path) == ["out.bin"]

    @pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
    def test_an_error_keeps_the_old_file_and_no_temporary(self, tmp_path, exists):
        path = tmp_path / "out.bin"
        if exists:
            path.write_bytes(b"old")

        def chunks():
            yield b"part of a new file"
            raise RuntimeError("stopped")

        with pytest.raises(RuntimeError, match="stopped"):
            write_output(path, chunks(), "output")
        assert os.listdir(tmp_path) == (["out.bin"] if exists else [])
        if exists:
            assert path.read_bytes() == b"old"

    def test_a_replaced_file_keeps_its_permissions(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        path.chmod(0o640)
        write_output(path, [b"new"], "output")
        assert path.stat().st_mode & 0o777 == 0o640

    def test_a_symlink_stays_and_its_target_is_replaced(self, tmp_path):
        target = tmp_path / "data" / "real.csv"
        target.parent.mkdir()
        target.write_bytes(b"old")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        digest = write_output(link, [b"new"], "output")
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == b"new"
        assert digest == sha256_of(target)
        assert sorted(os.listdir(target.parent)) == ["real.csv"]

    def test_a_target_that_is_not_a_regular_file_is_written_in_place(self, tmp_path):
        # A FIFO stands in for any special file (such as /dev/null), which
        # must be written, never replaced. Its read end is opened first and
        # without blocking, so the write does not wait for a reader.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            digest = write_output(fifo, [b"through the pipe"], "output")
            assert os.read(reader, 100) == b"through the pipe"
        finally:
            os.close(reader)
        assert digest == hashlib.sha256(b"through the pipe").hexdigest()
        assert os.listdir(tmp_path) == ["pipe"]
        assert not fifo.is_file() and fifo.exists()

    def test_a_name_of_250_bytes_is_written(self, tmp_path):
        # The temporary's name has a fixed length, so any name the file
        # system accepts for the target can be written.
        path = tmp_path / ("n" * 245 + ".json")
        path.touch()
        assert write_output(path, [b"long"], "output") == hashlib.sha256(b"long").hexdigest()
        assert os.listdir(tmp_path) == [path.name] and path.read_bytes() == b"long"


#: Values whose JSON text is easy to get wrong: non-ASCII and escaped
#: characters, a negative zero, the least subnormal and integers past 2**53.
AWKWARD = {
    "text": "caf\u00e9 \u2603 \"q\" \\ /\n\t\x00\x1f \ud800 \U0001f600",
    "zero": -0.0,
    "tiny": 5e-324,
    "big": [2**53 + 1, -(2**64), 10**30],
}


class TestJsonChunks:
    @pytest.mark.parametrize("count", [0, 1, JSON_BLOCK - 1, JSON_BLOCK, JSON_BLOCK + 1])
    @settings(max_examples=25, deadline=None)
    @given(
        pool=st.lists(JSON_VALUES, max_size=4),
        head=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=3),
    )
    def test_chunks_join_to_one_indented_dump(self, count, pool, head):
        pool = [AWKWARD, *pool]
        records = [pool[k % len(pool)] for k in range(count)]
        doc = {**{k: v for k, v in head.items() if k != "records"}, "records": records}
        chunks = list(json_chunks({**doc, "records": iter(records)}, "records"))
        assert len(chunks) == 2 + -(-count // JSON_BLOCK)
        assert b"".join(chunks) == (json.dumps(doc, indent=2) + "\n").encode()


class TestStl:
    def test_cuboid_file_size(self, tmp_path):
        path = tmp_path / "box.stl"
        path.write_bytes(stl_bytes(mesh_primitive(CUBOID)))
        # 80-byte header + 4-byte count + 12 triangles * 50 bytes
        assert path.stat().st_size == 684

    def test_roundtrip_against_independent_reader(self):
        mesh = mesh_primitive(
            PrimitiveSpec(PrimitiveKind.CYLINDER, {"diameter": 0.06, "height": 0.10}),
            Tessellation(radial_segments=16),
        )
        normals, triangles = parse_binary_stl(stl_bytes(mesh))
        assert triangles.shape[0] == mesh.n_triangles
        expected = mesh.vertices[mesh.triangles].astype(np.float32)
        np.testing.assert_array_equal(triangles, expected)
        lengths = np.linalg.norm(normals, axis=1)
        np.testing.assert_allclose(lengths, 1.0, atol=1e-6)

    def test_deterministic_bytes(self):
        mesh = mesh_primitive(CUBOID)
        assert stl_bytes(mesh) == stl_bytes(mesh_primitive(CUBOID))

    def test_empty_mesh_default_error(self):
        empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(EmptyMesh):
            stl_bytes(empty)


class TestObj:
    def test_roundtrip_exact(self):
        mesh = mesh_primitive(
            PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.07}),
            Tessellation(sphere_subdivisions=1),
        )
        vertices, faces, _ = parse_obj(obj_bytes(mesh).decode())
        np.testing.assert_array_equal(vertices, mesh.vertices)
        np.testing.assert_array_equal(faces, mesh.triangles)

    def test_groups_per_part(self, tmp_path):
        toys, _ = small_set()
        toy = toys[-1]  # three parts
        mesh = mesh_toy(toy)
        path = tmp_path / "toy.obj"
        path.write_bytes(obj_bytes(mesh))
        _, faces, groups = parse_obj(path.read_text())
        assert set(groups) == {"part_0", "part_1", "part_2"}
        assert len(faces) == mesh.n_triangles


class TestManifest:
    def test_roundtrip_structural_equality(self, tmp_path):
        # The toys read back, meshed and written again with the echoed
        # config, give the same bytes.
        toys, config = small_set()
        path = tmp_path / "manifest.json"
        write_manifest(toys, config, path)
        loaded = read_manifest(path)
        tess = Tessellation(**loaded.config["tessellation"])
        rewritten = build_manifest(
            [toy_record(t, mesh_toy(t, tess)) for t in loaded.toys],
            generation_config_from_dict(loaded.config),
            tess,
        )
        assert manifest_json_bytes(rewritten) == path.read_bytes()

    def test_unknown_version_rejected(self, tmp_path):
        toys, config = small_set()
        path = tmp_path / "manifest.json"
        write_manifest(toys, config, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = "999"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolation):
            read_manifest(path)

    def test_formats_doc_names_the_current_version(self):
        doc = Path(__file__).resolve().parents[1] / "docs" / "formats.md"
        assert re.findall(r'currently `"(\w+)"`', doc.read_text(encoding="utf-8")) == [
            MANIFEST_FORMAT_VERSION
        ]

    def test_derived_volume_is_an_unknown_key(self, tmp_path):
        # Format "3" carried `derived.volume`; format "4" rejects it.
        toys, config = small_set()
        path = tmp_path / "manifest.json"
        write_manifest(toys, config, path)
        doc = json.loads(path.read_text())
        doc["toys"][0]["derived"]["volume"] = 0.001
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolation, match=re.escape("key 'toys[0].derived.volume'")):
            read_manifest(path)

    def test_missing_field_rejected(self, tmp_path):
        toys, config = small_set()
        path = tmp_path / "manifest.json"
        write_manifest(toys, config, path)
        doc = json.loads(path.read_text())
        del doc["toys"][0]["seed"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolation):
            read_manifest(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{ not json")
        with pytest.raises(SchemaViolation):
            read_manifest(path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda t: t["parts"][0]["quaternion"].__setitem__(1, "x"),
             "toys[0].parts[0].quaternion[1] must be a number"),
            (lambda t: t["parts"][0]["translation"].pop(), "translation must have 3 entries"),
            (lambda t: t.update(seed=True), "toys[0].seed must be an integer"),
            (lambda t: t["derived"]["aabb_min"].__setitem__(0, None),
             "toys[0].derived.aabb_min[0] must be a number"),
            (lambda t: t["parts"][0]["dims"].update(width="1"), "dims.width must be a number"),
            # A unit quaternion whose sign breaks the format's w >= 0.
            (lambda t: t["parts"][0].update(quaternion=[-1.0, 0.0, 0.0, 0.0]),
             "toys[0].parts[0].quaternion[0] = -1.0 must be >= 0 (toy 'toy_0000')"),
            # Well-typed, but ToySpec, PrimitiveSpec or Pose rejects the toy.
            (lambda t: t["parts"][0].update(quaternion=[2.0, 0.0, 0.0, 0.0]),
             "toys[0] ('toy_0000'): quaternion norm 2.0 is not 1"),
            (lambda t: t.update(parts=t["parts"] * 6),
             "toys[0] ('toy_0000'): toy must have 1-5 parts, got 6"),
            (lambda t: t["parts"][0].update(kind="cone"),
             "toys[0] ('toy_0000'): 'cone' is not a valid PrimitiveKind"),
        ],
    )
    def test_wrong_json_type_names_field(self, tmp_path, edit, field):
        toys, config = small_set()
        path = tmp_path / "manifest.json"
        write_manifest(toys, config, path)
        doc = json.loads(path.read_text())
        edit(doc["toys"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolation, match=re.escape(field)):
            read_manifest(path)

    def test_records_regenerable(self):
        # A record reconstructs the exact toy that produced it.
        toys, config = small_set()
        for toy in toys:
            record = toy_record(toy, mesh_toy(toy))
            rebuilt = record_to_toy(record)
            assert rebuilt.id == toy.id and rebuilt.seed == toy.seed
            assert rebuilt.color == toy.color
            for a, b in zip(rebuilt.parts, toy.parts):
                assert a.spec == b.spec
                assert np.array_equal(a.pose.rotation, b.pose.rotation)
                assert np.array_equal(a.pose.translation, b.pose.translation)

    def test_config_dict_roundtrip(self):
        _, config = small_set()
        data = generation_config_to_dict(config)
        rebuilt = generation_config_from_dict(data)
        assert generation_config_to_dict(rebuilt) == data

    def test_record_regenerated_from_manifest_config_and_seed(self, tmp_path):
        # The manifest's config echo plus a toy's index reproduce its JSON
        # entry exactly, derived stats included.
        from toygrasp.assembler import assemble_toy, category_plan, derive_seed

        toys, config, = small_set()
        path = tmp_path / "manifest.json"
        write_manifest(toys, config, path)
        manifest = read_manifest(path)
        rebuilt_config = generation_config_from_dict(manifest.config)
        plan = category_plan(rebuilt_config.composition)
        for index in (0, 4, 5):
            n_parts, kinds = plan[index]
            seed = derive_seed(rebuilt_config.master_seed, index)
            toy = assemble_toy(
                n_parts,
                rebuilt_config,
                np.random.default_rng(seed),
                kinds=kinds,
                toy_id=f"toy_{index:04d}",
                seed=seed,
            )
            assert toy_record(toy, mesh_toy(toy)) == json.loads(path.read_text())["toys"][index]

    def test_deterministic_bytes(self):
        toys, config = small_set()
        a = manifest_json_bytes(manifest_of(toys, config))
        toys2, config2 = small_set()
        b = manifest_json_bytes(manifest_of(toys2, config2))
        assert a == b

    def test_derived_stats_present(self):
        toys, config = small_set()
        doc = json.loads(manifest_json_bytes(manifest_of(toys, config)))
        assert len(doc["toys"]) == 6
        for toy in doc["toys"]:
            assert sorted(toy["derived"]) == ["aabb_max", "aabb_min"]
            derived = toy["derived"]
            assert all(lo <= hi for lo, hi in zip(derived["aabb_min"], derived["aabb_max"]))


class TestPgm:
    def test_read_with_comment(self, tmp_path):
        path = tmp_path / "mask.pgm"
        pixels = bytes([0, 255, 0, 0, 128, 0])
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + pixels)
        mask = read_pgm(path)
        assert mask.shape == (2, 3)
        assert mask.tolist() == [[False, True, False], [False, True, False]]

    @pytest.mark.parametrize(
        "header",
        [
            b"P5#c\n4 4\n255\n",
            b"P5\n4#w\n4 255\n",
            b"P5#a\r4#b\n4#c\r\n255\n",
            b"P5 4 4 255#maxval\n",
            b"P5 4 4 255#maxval\r",
        ],
        ids=["on-magic", "on-width", "cr-and-lf", "on-maxval-lf", "on-maxval-cr"],
    )
    def test_a_comment_glued_to_a_token_ends_it(self, tmp_path, header):
        path = tmp_path / "glued.pgm"
        path.write_bytes(header + bytes([0, 9] + [0] * 13 + [1]))
        mask = read_pgm(path)
        assert mask.shape == (4, 4)
        assert np.flatnonzero(mask).tolist() == [1, 15]

    def test_sixteen_bit(self, tmp_path):
        path = tmp_path / "mask16.pgm"
        payload = np.array([[0, 500], [65535, 0]], dtype=">u2").tobytes()
        path.write_bytes(b"P5 2 2 65535\n" + payload)
        mask = read_pgm(path)
        assert mask.tolist() == [[False, True], [True, False]]

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        message = f"not a binary PGM (P5) file: magic b'P2' in {path}"
        with pytest.raises(SchemaViolation, match=re.escape(message)):
            read_pgm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        message = f"PGM pixel data is truncated in {path}"
        with pytest.raises(SchemaViolation, match=re.escape(message)):
            read_pgm(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P5\n4 4\n", "truncated PGM header"),
            (b"P5\n2 2\n65536\n" + b"\x00" * 8, "PGM maxval must be in 1..65535, got 65536"),
        ],
        ids=["cut-header", "maxval-65536"],
    )
    def test_header_error_names_the_file(self, tmp_path, data, message):
        path = tmp_path / "header.pgm"
        path.write_bytes(data)
        with pytest.raises(SchemaViolation, match=re.escape(f"{message} in {path}")):
            read_pgm(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"-1 1", "PGM width must be a decimal integer >= 1, got '-1'"),
            (b"0 2", "PGM width must be a decimal integer >= 1, got '0'"),
            (b"2 0", "PGM height must be a decimal integer >= 1, got '0'"),
            (b"2 0x2", "PGM height must be a decimal integer >= 1, got '0x2'"),
            (b"+2 2", "PGM width must be a decimal integer >= 1, got '+2'"),
            (b"1" * 5000 + b" 2", "PGM width must be a decimal integer >= 1, "
             "got '111111111111111111'..."),
        ],
        ids=[
            "width-negative", "width-zero", "height-zero", "height-hex", "width-signed",
            "width-5000-digits",
        ],
    )
    def test_bad_width_or_height_names_the_field(self, tmp_path, header, message):
        path = tmp_path / "size.pgm"
        path.write_bytes(b"P5\n" + header + b"\n255\n" + b"\x00" * 8)
        with pytest.raises(SchemaViolation, match=re.escape(f"{message} in {path}")):
            read_pgm(path)

    @pytest.mark.parametrize("maxval", [0, 65536, 70000])
    def test_maxval_out_of_range(self, tmp_path, maxval):
        path = tmp_path / "maxval.pgm"
        path.write_bytes(b"P5\n2 2\n%d\n" % maxval + b"\x00" * 8)
        with pytest.raises(SchemaViolation, match="maxval"):
            read_pgm(path)
