"""Every JSON reader returns or raises SchemaViolation, never another
exception: given a valid document with any one node replaced by any JSON
value, or a document that does not parse."""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_config import JSON_VALUES
from toygrasp.assembler import GenerationConfig, SetComposition, generate_set
from toygrasp.errors import SchemaViolation
from toygrasp.evalharness import Protocol, make_schedule, read_schedule, write_schedule
from toygrasp.io import build_manifest, manifest_json_bytes, read_manifest, toy_record
from toygrasp.mesh import Tessellation, mesh_toy


def _node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


_GENERATION = GenerationConfig(composition=SetComposition(1, 0, 0, 1, 1, 0, 0, 0), master_seed=3)
_RECORDS = [toy_record(t, mesh_toy(t, Tessellation())) for t in generate_set(_GENERATION)]
MANIFEST = json.loads(
    manifest_json_bytes(build_manifest(_RECORDS, _GENERATION, Tessellation()))
)
with tempfile.TemporaryDirectory() as _tmp:
    write_schedule(make_schedule(Protocol.H12_HUMANOID, ["a"], seed=0), Path(_tmp) / "s.json")
    SCHEDULE = json.loads((Path(_tmp) / "s.json").read_text())


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "doc.json"


def _read_edited(reader, path, doc):
    path.write_text(json.dumps(doc))
    try:
        reader(path)
    except SchemaViolation:
        pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_node_paths(MANIFEST))), JSON_VALUES)
def test_any_manifest_node_gives_a_manifest_or_a_schema_violation(doc_path, path, value):
    _read_edited(read_manifest, doc_path, _replaced(MANIFEST, path, value))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_node_paths(SCHEDULE))), JSON_VALUES)
def test_any_schedule_node_gives_a_schedule_or_a_schema_violation(doc_path, path, value):
    _read_edited(read_schedule, doc_path, _replaced(SCHEDULE, path, value))


@pytest.mark.parametrize(
    "data", [b'{"seed": ' + b"1" * 5000 + b"}", b'{"seed": "\xff"}'], ids=["huge-int", "not-utf8"]
)
@pytest.mark.parametrize("reader", [read_manifest, read_schedule], ids=["manifest", "schedule"])
def test_unparseable_document_is_a_schema_violation(tmp_path, reader, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(SchemaViolation, match="not valid JSON"):
        reader(path)
