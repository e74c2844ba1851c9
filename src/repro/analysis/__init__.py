"""Post-processing of experiment results: CSV export.

Campaign reports live in :mod:`repro.experiments.report`.
"""

from repro.analysis.export import csv_to_rows, experiment_to_csv

__all__ = [
    "csv_to_rows",
    "experiment_to_csv",
]
