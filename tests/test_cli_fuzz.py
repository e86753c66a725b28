"""The evaluation-harness commands read generated input files and exit 0
(accepted), 2 (rejected input) or 3 (I/O error), never 4 and never with a
traceback: `aggregate --outcomes`, `report --rows` and `schedule --objects`,
the last as text and as JSON. `analyze` reads generated manifests the same
way. `detpool-check --mask` reads generated PGM files the same way, and may
also exit 1 (a property failed)."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_config import JSON_VALUES
from test_readers import MANIFEST, _node_paths, _replaced
from toygrasp.cli import main
from toygrasp.errors import ToygraspError
from toygrasp.io import read_pgm

#: Cells that sit on the edge of a reader's rules.
EDGE_CELLS = [
    "", " ", "0", "1", "2", "-3", "100", "50.5", "1e30", "-1e30", "1e400", "inf", "nan", "-0",
    "1_0", "٣", "１", "x", '"', "'", '"1"', " 7 ", "0x1",
]
CELLS = st.one_of(
    st.sampled_from(EDGE_CELLS),
    st.integers(-(10**30), 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
#: Rows of zero to four cells: short rows miss columns, long rows carry extras.
ROWS = st.lists(st.lists(CELLS, max_size=4), max_size=5)
#: Seconds the three tests add to the suite stay small at this many examples.
FUZZ_EXAMPLES = 100


def _exit_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _run_on_file(command, flag, suffix, text, extra=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_text(text, encoding="utf-8")
        code, err = _exit_and_stderr(
            [command, flag, str(path), *extra, "--out", str(Path(tmp) / "out.csv")]
        )
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


def _csv(header, rows):
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(ROWS)
@example([["a", "0", "1"], ["a", "1_0", "0"], ["b", "٣", "1"]])
def test_aggregate_outcomes(rows):
    _run_on_file("aggregate", "--outcomes", ".csv", _csv("object,trial_index,success", rows))


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(ROWS)
@example([["x", "3", "1e30"]])
@example([["main", "1_0", "50"], ["main", "3", "abc"]])
def test_report_rows(rows):
    _run_on_file("report", "--rows", ".csv", _csv("label,demos,success_percent", rows))


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(
    st.booleans(),
    st.lists(st.one_of(CELLS, st.integers(), st.floats(), st.none()), max_size=5),
)
@example(True, ["a", "a"])
@example(False, ["a", "", "1e30"])
def test_schedule_objects(as_json, items):
    if as_json:
        suffix, text = ".json", json.dumps(items)
    else:
        suffix, text = ".txt", "\n".join(map(str, items))
    _run_on_file("schedule", "--objects", suffix, text, ("--protocol", "sim_maniskill"))


#: An encoder small enough that a run on an accepted mask takes about 0.2 s.
TINY_ENCODER = {
    "image_height": 8, "image_width": 8, "patch_size": 4, "embed_dim": 8, "layers": 1,
    "heads": 2,
}
#: Header fields with the edge cases of the reader's rules: other magics,
#: signs, leading zeros, non-ASCII digits, sizes past 18 digits, maxvals on
#: either side of 255 and 65535, and whitespace with `#` comments or none;
#: `pgm_headers` also glues comments to the magic and the numbers.
PGM_MAGIC = st.sampled_from([b"P5", b"P2", b"P6", b"p5", b"P55", b""])
PGM_NUMBER = st.one_of(
    st.sampled_from(
        [b"08", b"4", b"16", b"0", b"-8", b"+8", b"8.0", b"x", "٣".encode(), b"9" * 19]
    ),
    st.integers(0, 70000).map(lambda n: str(n).encode()),
)
PGM_MAXVAL = st.one_of(st.sampled_from([b"1", b"256", b"65535", b"65536"]), PGM_NUMBER)
PGM_SPACE = st.lists(
    st.one_of(
        st.sampled_from([b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c"]),
        st.binary(max_size=6).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n"),
    ),
    max_size=3,
).map(b"".join)
#: The fields of an 8 x 8 mask's header, in order, and what may replace each.
PGM_FIELDS = [
    (b"P5", PGM_MAGIC), (b"\n", PGM_SPACE), (b"8", PGM_NUMBER), (b" ", PGM_SPACE),
    (b"8", PGM_NUMBER), (b"\n", PGM_SPACE), (b"255", PGM_MAXVAL), (b"\n", PGM_SPACE),
]
#: The fields that hold the magic and the three numbers.
PGM_TOKENS = [0, 2, 4, 6]
#: The text of a comment glued to a token: any bytes but the LF and CR that end it.
PGM_COMMENT = st.binary(max_size=6).map(lambda text: text.translate(None, b"\n\r"))
#: Mostly background pixels, so that some masks flag some patches and not all.
PGM_PIXELS = st.one_of(
    st.lists(st.sampled_from([0] * 9 + [255]), min_size=56, max_size=136).map(bytes),
    st.binary(max_size=136),
)
#: About one example in nine reaches the encoder, at about 0.2 s a run, so
#: this many keep the test near 2 s.
PGM_EXAMPLES = 40


@st.composite
def pgm_headers(draw):
    """An 8 x 8 mask's header with up to three of its fields replaced and
    `#` comments glued to some of its tokens, and its twin with each glued
    comment replaced by the LF or CR that ends it."""
    fields = [field for field, _ in PGM_FIELDS]
    for k in sorted(draw(st.sets(st.integers(0, len(fields) - 1), max_size=3))):
        fields[k] = draw(PGM_FIELDS[k][1])
    glued, spaced = list(fields), list(fields)
    for k in sorted(draw(st.sets(st.sampled_from(PGM_TOKENS), max_size=2))):
        end = draw(st.sampled_from([b"\n", b"\r"]))
        glued[k] += b"#" + draw(PGM_COMMENT) + end
        spaced[k] += end
    return b"".join(glued), b"".join(spaced)


def _read_mask(path, data):
    """The mask `read_pgm` reads from `data`, or the message it rejects it with."""
    path.write_bytes(data)
    try:
        return read_pgm(path).tolist()
    except ToygraspError as exc:
        return str(exc)


@settings(max_examples=PGM_EXAMPLES, deadline=None)
@given(pgm_headers(), PGM_PIXELS)
@example((b"P5\n8 8\n255\n",) * 2, bytes(36) + b"\xff" + bytes(27))
@example((b"P5\n# a comment\n8 8\n65535\n",) * 2, bytes(127) + b"\x01")
@example((b"P5#c\n8 8\n255\n", b"P5\n8 8\n255\n"), bytes(36) + b"\xff" + bytes(27))
@example((b"P5\n8#w\r8 255#m\n", b"P5\n8\r8 255\n"), bytes(9) + b"\xff" + bytes(54))
def test_detpool_check_mask(headers, pixels):
    header, spaced = headers
    with tempfile.TemporaryDirectory() as tmp:
        config, mask = Path(tmp) / "config.json", Path(tmp) / "mask.pgm"
        # A glued comment reads as the whitespace byte that ends it.
        assert _read_mask(mask, header + pixels) == _read_mask(mask, spaced + pixels)
        config.write_text(json.dumps({"encoder": TINY_ENCODER}))
        mask.write_bytes(header + pixels)
        code, err = _exit_and_stderr(
            ["detpool-check", "--config", str(config), "--mask", str(mask)]
        )
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


#: Every number in the manifest outside its tessellation: a tessellation
#: within the admitted limits can still make `analyze` run for hours.
MANIFEST_NUMBERS = [
    path
    for path in _node_paths(MANIFEST)
    if "tessellation" not in path
    and isinstance(_node(MANIFEST, path), (int, float))
    and not isinstance(_node(MANIFEST, path), bool)
]
#: Numbers on either side of the readers' and the geometry's limits, then
#: any number, then any JSON value.
MANIFEST_VALUES = st.one_of(
    st.sampled_from([0, -1, 1, 2**63, 2**64, -0.0, 1e-300, 1e300, 5, 0.5, -0.5]),
    st.integers(),
    st.floats(),
    JSON_VALUES,
)


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(MANIFEST_NUMBERS), MANIFEST_VALUES),
        min_size=1,
        max_size=2,
        unique_by=lambda edit: edit[0],
    )
)
def test_analyze_manifest(edits):
    doc = MANIFEST
    for path, value in edits:
        doc = _replaced(doc, path, value)
    _run_on_file("analyze", "--manifest", ".json", json.dumps(doc))
