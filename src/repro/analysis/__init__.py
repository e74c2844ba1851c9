"""Post-processing of experiment results: charts and CSV export.

Campaign reports live in :mod:`repro.experiments.report`.
"""

from repro.analysis.charts import bar_chart, speedup_chart
from repro.analysis.export import csv_to_rows, experiment_to_csv

__all__ = [
    "bar_chart",
    "csv_to_rows",
    "experiment_to_csv",
    "speedup_chart",
]
