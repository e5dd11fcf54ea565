import csv
import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def prabhakar_table():
    """Rows of the frozen high-precision oracle table."""
    with (FIXTURES / "prabhakar_oracle.csv").open(newline="") as fh:
        return [
            {k: float(v) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]


@pytest.fixture(scope="session")
def near_one_table():
    """Frozen oracle values near order one, keyed by (kind, order, x)."""
    with (FIXTURES / "near_one_oracle.csv").open(newline="") as fh:
        return {
            (row["kind"], float(row["order"]), float(row["x"])): float(row["value"])
            for row in csv.DictReader(fh)
        }
