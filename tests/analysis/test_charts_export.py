"""Tests for CSV export."""

import io

import pytest

from repro.analysis.export import csv_to_rows, experiment_to_csv
from repro.errors import SimulationError
from repro.harness.experiments import ExperimentResult


class TestCsvExport:
    def make_result(self):
        return ExperimentResult(
            experiment="Fig. X",
            headers=["workload", "value"],
            rows=[["IPGEO", 1.5], ["DICT", 2]],
            notes="a note",
        )

    def test_round_trip(self):
        text = experiment_to_csv(self.make_result())
        headers, rows = csv_to_rows(text)
        assert headers == ["workload", "value"]
        assert rows == [["IPGEO", 1.5], ["DICT", 2]]

    def test_comment_lines(self):
        text = experiment_to_csv(self.make_result())
        assert text.startswith("# experiment: Fig. X")
        assert "# notes: a note" in text

    def test_write_to_file_object(self):
        buffer = io.StringIO()
        experiment_to_csv(self.make_result(), buffer)
        assert "IPGEO" in buffer.getvalue()

    def test_write_to_path(self, tmp_path):
        path = str(tmp_path / "fig.csv")
        experiment_to_csv(self.make_result(), path)
        headers, rows = csv_to_rows(open(path).read())
        assert len(rows) == 2

    def test_bad_rows_rejected(self):
        bad = ExperimentResult("X", ["a", "b"], [["only-one"]])
        with pytest.raises(SimulationError):
            experiment_to_csv(bad)

    def test_empty_csv_rejected(self):
        with pytest.raises(SimulationError):
            csv_to_rows("# just a comment\n")
