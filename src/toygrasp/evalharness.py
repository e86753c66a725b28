"""Deterministic evaluation trial schedules and success-rate aggregation.

Three placement protocols are supported; schedules are pure functions of
(protocol, object list, seed). Outcomes are external inputs: this module
never simulates trials, it only schedules them and aggregates 0/1 results.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidInput
from .io import csv_chunks, csv_count, csv_rows, json_chunks, write_output


class Protocol(enum.Enum):
    SIM_MANISKILL = "sim_maniskill"
    FRANKA_REAL = "franka_real"
    H12_HUMANOID = "h12_humanoid"


@dataclass(frozen=True)
class TrialRecord:
    object_id: str
    x: float
    y: float
    theta: float
    index: int


@dataclass(frozen=True)
class TrialSchedule:
    protocol: Protocol
    seed: int
    trials: tuple[TrialRecord, ...]


@dataclass(frozen=True)
class ProtocolSpec:
    """A placement protocol: workspace extents (m), the placement cells in
    schedule order, trials per object, and the lift threshold (m) carried
    as metadata for whoever executes the trials."""

    workspace_m: tuple[float, float]
    cells: tuple[tuple[float, float], ...]
    trials: int
    lift_threshold_m: float | None


def _cell_centers(extent: float, cells: int) -> list[float]:
    """Centers of an even partition of [-extent/2, extent/2] into `cells`."""
    return [(extent / cells) * (k + 0.5) - extent / 2.0 for k in range(cells)]


_SIM_AXIS = (-0.075, -0.025, 0.025, 0.075)
_FRANKA_XS, _FRANKA_YS = _cell_centers(0.5, 4), _cell_centers(0.28, 4)
_H12_XS, _H12_YS = _cell_centers(0.40, 3), _cell_centers(0.36, 2)

#: Simulation: the exact 4x4 Cartesian product of `_SIM_AXIS`, x-major.
#: Franka: the centers of a 4x4 partition of its workspace, x-major. H1-2:
#: 5 of the 6 centers of a 3x2 partition (columns across 0.40 m, rows
#: across 0.36 m), row-major, drawn per object without replacement.
PROTOCOLS: dict[Protocol, ProtocolSpec] = {
    Protocol.SIM_MANISKILL: ProtocolSpec(
        (0.15, 0.15), tuple((x, y) for x in _SIM_AXIS for y in _SIM_AXIS), 16, 0.3
    ),
    Protocol.FRANKA_REAL: ProtocolSpec(
        (0.5, 0.28), tuple((x, y) for x in _FRANKA_XS for y in _FRANKA_YS), 16, 0.2
    ),
    Protocol.H12_HUMANOID: ProtocolSpec(
        (0.40, 0.36), tuple((x, y) for y in _H12_YS for x in _H12_XS), 5, None
    ),
}


def make_schedule(
    protocol: Protocol, objects: Sequence[str], seed: int
) -> TrialSchedule:
    """Deterministic trial list: the protocol's cells in order, or, where it
    has fewer trials than cells (H1-2), that many distinct cells drawn per
    object; z-rotations uniform in [0, 2pi).
    """
    if not objects:
        raise InvalidInput("schedule requires at least one object id")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    spec = PROTOCOLS[protocol]
    rng = np.random.default_rng(seed)
    trials: list[TrialRecord] = []
    for object_id in objects:
        chosen = spec.cells
        if spec.trials < len(spec.cells):
            chosen = [spec.cells[i] for i in rng.permutation(len(spec.cells))[: spec.trials]]
        for index, (x, y) in enumerate(chosen):
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            trials.append(TrialRecord(object_id, x, y, theta, index))
    return TrialSchedule(protocol=protocol, seed=seed, trials=tuple(trials))


def write_schedule(schedule: TrialSchedule, path: str | Path) -> str:
    """Write the schedule as indented JSON, building its trial records one
    block at a time; returns the SHA-256 of the bytes written."""
    spec = PROTOCOLS[schedule.protocol]
    doc = {
        "protocol": schedule.protocol.value,
        "seed": schedule.seed,
        "workspace_m": list(spec.workspace_m),
        "lift_threshold_m": spec.lift_threshold_m,
        "trials": (
            {"object": t.object_id, "x": t.x, "y": t.y, "theta": t.theta, "index": t.index}
            for t in schedule.trials
        ),
    }
    return write_output(path, json_chunks(doc, "trials"), "schedule")


# ---------------------------------------------------------------------------
# success aggregation
# ---------------------------------------------------------------------------

def _round_half_up(value: float) -> str:
    """`value` to two decimal places, halves rounded up; a zero of either
    sign reads 0.00 (adding 0.0 turns -0.0 into 0.0 and leaves any other
    value as it is)."""
    return str(Decimal(repr(value + 0.0)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class SuccessTable:
    """Per-object 0/1 outcomes with exact rates; display rounds half-up."""

    outcomes: dict[str, tuple[int, ...]]

    def rate(self, object_id: str) -> float:
        trials = self.outcomes[object_id]
        return 100.0 * sum(trials) / len(trials)

    @property
    def overall(self) -> float:
        rates = [self.rate(o) for o in self.outcomes]
        return sum(rates) / len(rates)

    def rate_display(self, object_id: str) -> str:
        return _round_half_up(self.rate(object_id))

    @property
    def overall_display(self) -> str:
        return _round_half_up(self.overall)


def aggregate(outcomes: Mapping[str, Sequence[int]]) -> SuccessTable:
    """Per-object success percentages and their unweighted mean."""
    if not outcomes:
        raise InvalidInput("no objects to aggregate")
    table: dict[str, tuple[int, ...]] = {}
    for object_id, trials in outcomes.items():
        if len(trials) == 0:
            raise InvalidInput(f"object {object_id!r} has no outcomes")
        for value in trials:
            if value not in (0, 1):
                raise ValueError(f"outcome for {object_id!r} is not 0/1: {value!r}")
        table[object_id] = tuple(int(v) for v in trials)
    return SuccessTable(outcomes=table)


def _grid(rows: list[tuple[str, ...]]) -> str:
    """Rows of cells as aligned plain text, each column as wide as its widest cell."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n" for row in rows)


def _success_rows(table: SuccessTable) -> list[tuple[str, ...]]:
    """Header, one row per object, then the overall mean."""
    rows = [("object", "trials", "successes", "rate_percent")]
    rows += [
        (object_id, str(len(trials)), str(sum(trials)), table.rate_display(object_id))
        for object_id, trials in table.outcomes.items()
    ]
    rows.append(("overall", "", "", table.overall_display))
    return rows


def render_success_table(table: SuccessTable) -> str:
    """Aligned plain-text grid, one row per object plus the overall mean."""
    return _grid(_success_rows(table))


def write_success_csv(table: SuccessTable, path: str | Path) -> None:
    write_output(path, csv_chunks(_success_rows(table)), "success table")


def read_outcomes_csv(path: str | Path) -> dict[str, list[int]]:
    """Outcomes file: header `object,trial_index,success`, success in {0, 1}.

    Each `(object, trial_index)` pair appears once, with a non-empty object
    id and `trial_index` an integer >= 0. Raises ValueError with the 1-based
    line number on a row that breaks a rule.
    """
    outcomes: dict[str, list[int]] = {}
    first: dict[tuple[str, int], int] = {}
    for line, row in csv_rows(path, "outcomes", ("object", "trial_index", "success")):
        if not row[0]:
            raise ValueError(f"line {line}: object id must be non-empty")
        key = (row[0], csv_count(line, "trial_index", row[1]))
        if key in first:
            raise ValueError(
                f"line {line}: duplicate trial_index {key[1]} for object "
                f"{key[0]!r}, first on line {first[key]}"
            )
        first[key] = line
        if row[2].strip() not in ("0", "1"):
            raise ValueError(f"line {line}: success must be 0 or 1, got {row[2]!r}")
        outcomes.setdefault(row[0], []).append(int(row[2]))
    return outcomes


# ---------------------------------------------------------------------------
# scaling-study report
# ---------------------------------------------------------------------------

def scaling_report(
    rows: Sequence[tuple[str, int, float]], csv_path: str | Path
) -> tuple[Path, str]:
    """Write (label, demos, success) rows as CSV plus an aligned text grid
    beside it (`.txt`), sorted by whole row so output bytes are
    order-insensitive; returns the grid's path and the SHA-256 of the CSV
    bytes written. A `csv_path` ending in `.txt` is rejected, because the
    grid would overwrite it, and so is a success that is not a finite
    number from 0 to 100, naming its row.
    """
    for row in rows:
        try:
            valid = 0.0 <= row[2] <= 100.0  # False for a NaN
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"row {row!r}: success must be a number from 0 to 100")
    csv_path = Path(csv_path)
    grid_path = csv_path.with_suffix(".txt")
    if grid_path == csv_path:
        raise ValueError(
            f"report CSV path {csv_path} ends in .txt, so the text grid would overwrite it"
        )
    cells = [("label", "demos", "success_percent")]
    cells += [
        (label, str(demos), _round_half_up(success))
        for label, demos, success in sorted(rows)
    ]
    csv_sha256 = write_output(csv_path, csv_chunks(cells), "report CSV")
    write_output(grid_path, [_grid(cells).encode()], "report grid")
    return grid_path, csv_sha256
