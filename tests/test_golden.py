"""Golden outputs: the command outputs that do not depend on the BLAS kernel,
regenerated in-process and compared with `tests/golden.json`.

The entries are the three schedules for the 250 default toy ids at seed 7,
`aggregate`'s stdout on seeded outcomes, `report`'s CSV and grid on fixed
rows, `detpool-check`'s five verdicts with its finite-difference entry
counts (its float details depend on the kernel, so they are left out), and
the tiny policy's steps to its training target on seeds 0 and 1, and the
exact minimum caliper width of each of the 250 default toys. The widths are
compared within 1e-15 m, a few ulps: their last bits, like the geometry
digests, still depend on the BLAS kernel, and those digests wait until
`generate` and `analyze` give the same bytes on every kernel.

A change that moves an entry on purpose rewrites the file and says why:

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from toygrasp import OptimizerConfig, PolicyConfig, StepObservation, init_policy, train_step
from toygrasp.analysis import min_caliper_width
from toygrasp.assembler import GenerationConfig, generate_set
from toygrasp.cli import main
from toygrasp.evalharness import Protocol
from toygrasp.mesh import mesh_toy

GOLDEN = Path(__file__).with_name("golden.json")
DEFAULT_IDS = [f"toy_{i:04d}" for i in range(250)]


def _run(*argv: str) -> str:
    """`main(argv)`'s stdout; the command must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, (argv, out.getvalue())
    return out.getvalue()


def schedules(work: Path) -> dict:
    objects = work / "objects.txt"
    objects.write_text("\n".join(DEFAULT_IDS) + "\n")
    digests = {}
    for protocol in Protocol:
        out = _run("schedule", "--protocol", protocol.value, "--objects", str(objects),
                   "--seed", "7", "--out", str(work / f"{protocol.value}.json"))
        digests[protocol.value] = re.search(r"schedule sha256: (\w+)", out).group(1)
    return digests


def aggregate_stdout(work: Path) -> list[str]:
    rng = np.random.default_rng(7)
    lines = ["object,trial_index,success"]
    for k in range(6):
        p = rng.uniform(0.0, 1.0)
        lines += [f"obj_{k},{t},{int(rng.random() < p)}" for t in range(16)]
    path = work / "outcomes.csv"
    path.write_text("\n".join(lines) + "\n")
    return _run("aggregate", "--outcomes", str(path)).splitlines()


def report(work: Path) -> dict:
    rows = work / "rows.csv"
    rows.write_text(
        "label,demos,success_percent\n"
        "mean_pooling,250,32.98\ndet_pooling,2500,80\ndet_pooling,250,56.625\n"
        "cls_pooling,50,0.005\ncls_pooling,10,-0.0\n"
    )
    out = work / "report.csv"
    _run("report", "--rows", str(rows), "--out", str(out))
    return {
        "csv": out.read_text().splitlines(),
        "grid": out.with_suffix(".txt").read_text().splitlines(),
    }


def detpool_check(work: Path) -> dict:
    lines = _run("detpool-check").splitlines()
    entries = re.search(r"\d+ entries checked \([^)]*\)", "\n".join(lines))
    return {
        "verdicts": [line.split(":")[0] for line in lines],
        "entries": entries.group(0) if entries else None,
    }


def steps_to_target(work: Path) -> dict:
    """Steps for the tiny policy to bring its loss to a tenth of the first,
    on the inputs of `bench/workloads.py`'s `policy_loop` (seed, index 2)."""
    tiny = PolicyConfig.tiny()
    steps = {}
    for seed in (0, 1):
        rng = np.random.default_rng([seed, 2])
        matrix = rng.normal(size=(4, 16)) * 0.5
        embeddings = rng.normal(size=(16, 4, 1, 8))
        proprio = rng.uniform(-1.0, 1.0, (16, 4, 4))
        data = []
        for emb, prop in zip(embeddings, proprio):
            history = [StepObservation(e, p) for e, p in zip(emb, prop)]
            data.append((history, (history[-1].proprio @ matrix).reshape(tiny.chunk_len, -1)))
        state, opt = init_policy(tiny, seed), OptimizerConfig(learning_rate=1e-3)
        first = None
        for step in range(1, 501):
            _, loss = train_step(data, state, opt)
            first = loss if first is None else first
            if loss <= 0.1 * first:
                break
        steps[str(seed)] = step
    return steps


def default_widths(work: Path) -> dict:
    """Each default toy's exact minimum width at the default tessellation."""
    return {toy.id: min_caliper_width(mesh_toy(toy))[0] for toy in generate_set(GenerationConfig())}


ENTRIES = {
    "schedules": schedules,
    "aggregate_stdout": aggregate_stdout,
    "report": report,
    "detpool_check": detpool_check,
    "steps_to_target": steps_to_target,
    "default_widths": default_widths,
}
#: `default_widths` is compared within this many meters, all else exactly.
WIDTH_TOLERANCE = 1e-15


def regenerate(work: Path) -> dict:
    return {name: make(work) for name, make in ENTRIES.items()}


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return regenerate(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_holds_every_entry(golden):
    assert list(golden) == list(ENTRIES)


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_entry_matches_golden(current, golden, entry):
    if entry != "default_widths":
        assert current[entry] == golden[entry]
        return
    assert list(current[entry]) == list(golden[entry])
    off = {key: abs(current[entry][key] - value) for key, value in golden[entry].items()}
    assert max(off.values()) <= WIDTH_TOLERANCE, max(off, key=off.get)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        sys.stdout.write(json.dumps(regenerate(Path(work)), indent=2) + "\n")
