import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toygrasp.errors import InvalidInput
from toygrasp.evalharness import (
    PROTOCOLS,
    Protocol,
    aggregate,
    make_schedule,
    read_outcomes_csv,
    render_success_table,
    scaling_report,
    write_schedule,
    write_success_csv,
)

# Per-object success percentages from the 13-object humanoid comparison.
H12_OURS = [60, 40, 60, 40, 60, 60, 60, 60, 60, 20, 60, 60, 20]
H12_OPENVLA_OFT = [0, 0, 40, 20, 20, 0, 40, 60, 0, 0, 60, 0, 0]
H12_PI0_FAST = [20, 20, 0, 20, 20, 20, 40, 60, 40, 40, 40, 20, 0]

# The simulation grid's axis values as the paper quotes them (meters).
SIM_AXIS_VALUES = (-0.075, -0.025, 0.025, 0.075)


def outcomes_from_rates(rates, trials=5):
    return {
        f"object_{i:02d}": [1] * round(rate * trials / 100)
        + [0] * (trials - round(rate * trials / 100))
        for i, rate in enumerate(rates)
    }


class TestMakeSchedule:
    def test_sim_equals_quoted_cartesian_product(self):
        schedule = make_schedule(Protocol.SIM_MANISKILL, ["ycb_001"], seed=9)
        placements = [(t.x, t.y) for t in schedule.trials]
        expected = [(x, y) for x in SIM_AXIS_VALUES for y in SIM_AXIS_VALUES]
        assert placements == expected  # float-exact, zero tolerance

    def test_franka_cell_centers(self):
        schedule = make_schedule(Protocol.FRANKA_REAL, ["a"], seed=0)
        xs = sorted({t.x for t in schedule.trials})
        ys = sorted({t.y for t in schedule.trials})
        assert xs == [-0.1875, -0.0625, 0.0625, 0.1875]  # dyadic: exact
        for got, want in zip(ys, (-0.105, -0.035, 0.035, 0.105)):
            assert got == pytest.approx(want, abs=1e-15)
        # Independent cell-center arithmetic oracle: (W/4)(k+0.5) - W/2.
        for k, x in enumerate(xs):
            assert x == pytest.approx((0.5 / 4) * (k + 0.5) - 0.25, abs=1e-15)
        assert [(t.x, t.y) for t in schedule.trials] == [(x, y) for x in xs for y in ys]

    def test_h12_five_distinct_squares_and_determinism(self, tmp_path):
        a = make_schedule(Protocol.H12_HUMANOID, ["cup", "ball"], seed=5)
        b = make_schedule(Protocol.H12_HUMANOID, ["cup", "ball"], seed=5)
        write_schedule(a, tmp_path / "a.json")
        write_schedule(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        for object_id in ("cup", "ball"):
            placements = {
                (t.x, t.y) for t in a.trials if t.object_id == object_id
            }
            assert len(placements) == 5
            assert placements <= set(PROTOCOLS[Protocol.H12_HUMANOID].cells)

    def test_h12_cells_are_3x2_partition_centers(self):
        centers = PROTOCOLS[Protocol.H12_HUMANOID].cells
        assert len(centers) == 6
        xs = sorted({x for x, _ in centers})
        ys = sorted({y for _, y in centers})
        assert [round(v, 12) for v in xs] == [
            round((0.40 / 3) * (k + 0.5) - 0.20, 12) for k in range(3)
        ]
        assert ys == [pytest.approx((0.36 / 2) * (k + 0.5) - 0.18) for k in range(2)]
        assert list(centers) == [(x, y) for y in ys for x in xs]  # row-major

    def test_trial_counts_per_protocol(self):
        objects = ["a", "b", "c"]
        for protocol in Protocol:
            schedule = make_schedule(protocol, objects, seed=1)
            assert len(schedule.trials) == PROTOCOLS[protocol].trials * len(objects)

    def test_placements_inside_workspace(self):
        for protocol in Protocol:
            wx, wy = PROTOCOLS[protocol].workspace_m
            schedule = make_schedule(protocol, ["a"], seed=2)
            for t in schedule.trials:
                assert abs(t.x) <= wx / 2 and abs(t.y) <= wy / 2

    def test_only_h12_draws_cells_from_the_generator(self):
        # Sim and Franka take every cell in order, so their rotations are the
        # generator's first draws; H1-2 permutes its 6 cells before each
        # object's 5 rotations.
        for protocol in Protocol:
            rng = np.random.default_rng(4)
            cells = PROTOCOLS[protocol].cells
            expected = []
            for _ in range(2):
                if protocol is Protocol.H12_HUMANOID:
                    cells = [PROTOCOLS[protocol].cells[i] for i in rng.permutation(6)[:5]]
                expected += [(x, y, rng.uniform(0.0, 2.0 * math.pi)) for x, y in cells]
            schedule = make_schedule(protocol, ["a", "b"], seed=4)
            assert [(t.x, t.y, t.theta) for t in schedule.trials] == expected

    def test_rotations_uniform_range_and_seed_dependence(self):
        a = make_schedule(Protocol.SIM_MANISKILL, ["a"], seed=1)
        b = make_schedule(Protocol.SIM_MANISKILL, ["a"], seed=2)
        assert all(0.0 <= t.theta < 2 * math.pi for t in a.trials)
        assert [t.theta for t in a.trials] != [t.theta for t in b.trials]

    def test_empty_object_list(self):
        with pytest.raises(InvalidInput, match="at least one object id"):
            make_schedule(Protocol.SIM_MANISKILL, [], seed=0)

    def test_negative_seed_names_the_seed(self):
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
            make_schedule(Protocol.SIM_MANISKILL, ["a"], seed=-1)

    def test_json_roundtrip_and_metadata(self, tmp_path):
        schedule = make_schedule(Protocol.FRANKA_REAL, ["a", "b"], seed=3)
        path = tmp_path / "schedule.json"
        write_schedule(schedule, path)
        doc = json.loads(path.read_text())
        assert list(doc) == ["protocol", "seed", "workspace_m", "lift_threshold_m", "trials"]
        assert doc["protocol"] == "franka_real" and doc["seed"] == 3
        assert doc["lift_threshold_m"] == 0.2
        assert doc["workspace_m"] == [0.5, 0.28]
        assert len(doc["trials"]) == len(schedule.trials)
        for record, trial in zip(doc["trials"], schedule.trials):
            assert record == {
                "object": trial.object_id, "x": trial.x, "y": trial.y,
                "theta": trial.theta, "index": trial.index,
            }

    def test_write_memory_does_not_grow_with_the_trials(self, tmp_path):
        # The trial records are built and encoded one block at a time, so the
        # traced peak inside `write_schedule` is about the same at 4,000 and
        # at 40,000 trials; one document string would take ten times more.
        peaks = []
        for objects in (250, 2500):
            schedule = make_schedule(
                Protocol.SIM_MANISKILL, [f"toy_{i:04d}" for i in range(objects)], seed=0
            )
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                write_schedule(schedule, tmp_path / "schedule.json")
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert (tmp_path / "schedule.json").read_bytes().count(b'"index"') == 40_000
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestAggregate:
    def test_openvla_oft_average(self):
        table = aggregate(outcomes_from_rates(H12_OPENVLA_OFT))
        assert table.overall_display == "18.46"

    def test_ours_average(self):
        table = aggregate(outcomes_from_rates(H12_OURS))
        assert table.overall_display == "50.77"

    def test_pi0_fast_average(self):
        table = aggregate(outcomes_from_rates(H12_PI0_FAST))
        assert table.overall_display == "26.15"

    def test_single_perfect_object(self):
        table = aggregate({"obj": [1, 1, 1]})
        assert table.rate_display("obj") == "100.00"
        assert table.overall_display == "100.00"

    def test_rates_rounding_half_up(self):
        # 1/16 = 6.25 -> displays 6.25; 1/3 = 33.33... -> 33.33
        table = aggregate({"a": [1] + [0] * 15, "b": [1, 0, 0]})
        assert table.rate_display("a") == "6.25"
        assert table.rate_display("b") == "33.33"

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput, match="no objects to aggregate"):
            aggregate({})
        with pytest.raises(InvalidInput, match="'a' has no outcomes"):
            aggregate({"a": []})

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            aggregate({"a": [0, 2]})

    @settings(max_examples=60, deadline=None)
    @given(
        n_objects=st.integers(1, 8),
        trials=st.integers(1, 10),
        seed=st.integers(0, 10**6),
    )
    def test_equal_trial_counts_match_per_trial_mean(self, n_objects, trials, seed):
        rng = np.random.default_rng(seed)
        outcomes = {
            f"o{i}": [int(v) for v in rng.integers(0, 2, trials)]
            for i in range(n_objects)
        }
        table = aggregate(outcomes)
        flat = [v for tr in outcomes.values() for v in tr]
        assert table.overall == pytest.approx(100.0 * np.mean(flat), abs=1e-9)

    def test_render_and_csv(self, tmp_path):
        table = aggregate(outcomes_from_rates(H12_OURS))
        text = render_success_table(table)
        assert text.splitlines()[-1].startswith("overall")
        assert "50.77" in text
        path = tmp_path / "success.csv"
        write_success_csv(table, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 15  # header + 13 objects + overall


class TestOutcomesCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "outcomes.csv"
        path.write_text(
            "object,trial_index,success\napple,0,1\napple,1,0\npear,0,1\n"
        )
        outcomes = read_outcomes_csv(path)
        assert outcomes == {"apple": [1, 0], "pear": [1]}

    def test_non_binary_reports_line_number(self, tmp_path):
        path = tmp_path / "outcomes.csv"
        path.write_text("object,trial_index,success\napple,0,1\napple,1,0.5\n")
        with pytest.raises(ValueError, match="line 3"):
            read_outcomes_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "outcomes.csv"
        path.write_text("apple,0,1\n")
        with pytest.raises(InvalidInput, match="must start with header"):
            read_outcomes_csv(path)


class TestScalingReport:
    ROWS = [
        ("det_pooling", 2500, 80.0),
        ("det_pooling", 250, 56.63),
        ("mean_pooling", 250, 32.98),
    ]

    def test_sorted_output(self, tmp_path):
        csv_path = tmp_path / "report.csv"
        scaling_report(self.ROWS, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "label,demos,success_percent"
        assert lines[1] == "det_pooling,250,56.63"
        assert lines[2] == "det_pooling,2500,80.00"
        assert lines[3] == "mean_pooling,250,32.98"
        text = csv_path.with_suffix(".txt").read_text()
        assert "det_pooling" in text and "80.00" in text

    def test_shuffle_invariance(self, tmp_path):
        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        scaling_report(self.ROWS, a_path)
        scaling_report(list(reversed(self.ROWS)), b_path)
        assert a_path.read_bytes() == b_path.read_bytes()
        assert a_path.with_suffix(".txt").read_bytes() == b_path.with_suffix(
            ".txt"
        ).read_bytes()

    def test_shuffle_invariance_with_a_repeated_label_and_demos(self, tmp_path):
        rows = [*self.ROWS, ("det_pooling", 250, 50.0), ("det_pooling", 250, 60.0)]
        outputs = set()
        for order in range(6):
            shuffled = list(rows)
            random.Random(order).shuffle(shuffled)
            csv_path = tmp_path / f"{order}.csv"
            scaling_report(shuffled, csv_path)
            outputs.add((csv_path.read_bytes(), csv_path.with_suffix(".txt").read_bytes()))
        assert len(outputs) == 1
        lines = outputs.pop()[0].decode().splitlines()
        assert lines[1:4] == ["det_pooling,250,50.00", "det_pooling,250,56.63", "det_pooling,250,60.00"]

    @pytest.mark.parametrize("success", [1e30, -1.0, 100.5, float("inf"), float("nan"), "50"])
    def test_success_out_of_range_names_the_row(self, tmp_path, success):
        path = tmp_path / "report.csv"
        row = ("x", 3, success)
        with pytest.raises(ValueError, match=re.escape(f"row {row!r}: success must be")):
            scaling_report([*self.ROWS, row], path)
        assert not path.exists()

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        scaling_report([], path)
        assert path.read_text().strip() == "label,demos,success_percent"
