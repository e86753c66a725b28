"""The evaluation-harness commands read generated input files and exit 0
(accepted), 2 (rejected input) or 3 (I/O error), never 4 and never with a
traceback: `aggregate --outcomes`, `report --rows` and `schedule --objects`,
the last as text and as JSON."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from toygrasp.cli import main

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
