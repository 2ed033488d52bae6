"""Tests for repro.core.io (CSV/JSON matrix exchange)."""

import io

import numpy as np
import pytest

from repro.core.io import from_csv, from_json, to_csv, to_json
from repro.core.matrix import CounterMatrix


def sample_matrix(with_series=True):
    rng = np.random.default_rng(0)
    series = {}
    events = ("cpu-cycles", "LLC-loads")
    if with_series:
        series = {
            "cpu-cycles": [rng.uniform(0, 10, 5) for _ in range(3)],
        }
    return CounterMatrix(
        workloads=("a", "b", "c"),
        events=events,
        values=rng.uniform(0, 1e9, size=(3, 2)),
        series=series,
        suite_name="demo",
    )


class TestCsv:
    def test_roundtrip_values(self):
        m = sample_matrix(with_series=False)
        text = to_csv(m)
        back = from_csv(io.StringIO(text), suite_name="demo")
        assert back.workloads == m.workloads
        assert back.events == m.events
        np.testing.assert_allclose(back.values, m.values)
        assert back.suite_name == "demo"

    def test_file_roundtrip(self, tmp_path):
        m = sample_matrix(with_series=False)
        path = tmp_path / "matrix.csv"
        to_csv(m, str(path))
        back = from_csv(str(path))
        np.testing.assert_allclose(back.values, m.values)

    def test_exact_float_precision(self):
        m = CounterMatrix(
            workloads=("w",), events=("e",),
            values=np.array([[1.0 / 3.0]]),
        )
        back = from_csv(io.StringIO(to_csv(m)))
        assert back.values[0, 0] == m.values[0, 0]  # repr round-trips

    def test_header_validation(self):
        with pytest.raises(ValueError, match="workload"):
            from_csv(io.StringIO("name,e0\nw,1\n"))
        with pytest.raises(ValueError, match="header"):
            from_csv(io.StringIO("workload,e0\n"))
        with pytest.raises(ValueError, match="event columns"):
            from_csv(io.StringIO("workload\nw\nv\n"))

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="fields"):
            from_csv(io.StringIO("workload,e0,e1\nw,1\n"))

    @pytest.mark.parametrize("cell, shown", [("", "''"), ("12x", "'12x'"),
                                             (" ", "' '")])
    def test_bad_cell_names_line_and_column(self, cell, shown):
        text = f"workload,e0,e1\nw0,1,2\nw1,3,{cell}\n"
        with pytest.raises(ValueError) as exc:
            from_csv(io.StringIO(text))
        assert str(exc.value) == (f"CSV line 3, column 'e1': {shown} is "
                                  f"not a number")

    def test_header_with_only_blank_rows_rejected(self):
        with pytest.raises(ValueError,
                           match="^CSV has a header but no workload rows$"):
            from_csv(io.StringIO("workload,e0\n\n\n"))

    def test_series_not_in_csv(self):
        m = sample_matrix(with_series=True)
        back = from_csv(io.StringIO(to_csv(m)))
        assert not back.has_series


class TestJson:
    def test_roundtrip_with_series(self):
        m = sample_matrix(with_series=True)
        back = from_json(to_json(m))
        assert back.workloads == m.workloads
        assert back.suite_name == "demo"
        np.testing.assert_allclose(back.values, m.values)
        for a, b in zip(back.series["cpu-cycles"], m.series["cpu-cycles"]):
            np.testing.assert_allclose(a, b)

    def test_file_roundtrip(self, tmp_path):
        m = sample_matrix()
        path = tmp_path / "matrix.json"
        to_json(m, path=str(path))
        back = from_json(str(path))
        np.testing.assert_allclose(back.values, m.values)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing keys"):
            from_json('{"workloads": ["a"]}')

    def test_indent_option(self):
        text = to_json(sample_matrix(), indent=2)
        assert "\n" in text

    def test_scores_survive_roundtrip(self):
        """Scoring an imported matrix equals scoring the original."""
        from repro.core.coverage_score import coverage_score

        m = sample_matrix()
        back = from_json(to_json(m))
        assert coverage_score(back).value == pytest.approx(
            coverage_score(m).value
        )
