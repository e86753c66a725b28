"""The manifest reader returns or raises SchemaViolation, never another
exception: given a valid document with any one node replaced by any JSON
value, or a document that does not parse."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_config import JSON_VALUES
from toygrasp.assembler import GenerationConfig, SetComposition, generate_set
from toygrasp.errors import SchemaViolation
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


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "doc.json"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_node_paths(MANIFEST))), JSON_VALUES)
def test_any_manifest_node_gives_a_manifest_or_a_schema_violation(doc_path, path, value):
    doc_path.write_text(json.dumps(_replaced(MANIFEST, path, value)))
    try:
        read_manifest(doc_path)
    except SchemaViolation:
        pass


@pytest.mark.parametrize(
    "data", [b'{"seed": ' + b"1" * 5000 + b"}", b'{"seed": "\xff"}'], ids=["huge-int", "not-utf8"]
)
def test_unparseable_document_is_a_schema_violation(tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(SchemaViolation, match="not valid JSON"):
        read_manifest(path)
