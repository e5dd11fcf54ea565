"""Emission of the artifact's file formats, and parsing of events and
reports.

Curves CSV:         t, mc_mean, mc_se, exact, ilt      (blank = absent)
Distributions CSV:  t, k, freq, p_hat, p_ref
Events CSV:         replica, k, T_k
Reports:            JSON

Floats are written with round-trippable repr, so every table reads back to
the same values.  Events and reports parse back through this module;
curves and distributions have no parser here, and any CSV reader that
takes a blank cell for NaN reads them back exactly.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib

import numpy as np

__all__ = [
    "read_events_csv",
    "read_report_json",
    "write_curves_csv",
    "write_dist_csv",
    "write_events_csv",
    "write_report_json",
]

CURVE_COLUMNS = ("t", "mc_mean", "mc_se", "exact", "ilt")
DIST_COLUMNS = ("t", "k", "freq", "p_hat", "p_ref")
EVENT_COLUMNS = ("replica", "k", "T_k")


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def write_curves_csv(path, table: dict) -> None:
    """``table`` maps curve column names to equal-length arrays; missing
    columns are written blank."""
    t = np.asarray(table["t"], dtype=float)
    cols = {k: np.asarray(v, dtype=float) for k, v in table.items() if v is not None}
    with pathlib.Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CURVE_COLUMNS)
        for i in range(t.size):
            w.writerow(
                [_fmt(cols[c][i]) if c in cols else "" for c in CURVE_COLUMNS]
            )


def write_dist_csv(path, records) -> None:
    """``records`` is an iterable of (t, k, freq, p_hat, p_ref) tuples."""
    with pathlib.Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DIST_COLUMNS)
        for t, k, freq, p_hat, p_ref in records:
            w.writerow([repr(float(t)), int(k), int(freq), _fmt(p_hat), _fmt(p_ref)])


def write_events_csv(path, sequences) -> None:
    """Serialize event sequences as (replica, k, T_k) rows."""
    with pathlib.Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EVENT_COLUMNS)
        for seq in sequences:
            for k, epoch in enumerate(seq.epochs, start=1):
                w.writerow([seq.replica, k, repr(float(epoch))])


def read_events_csv(path) -> dict:
    """Parse back into ``{replica: array_of_epochs}``."""
    out: dict[int, list[float]] = {}
    with pathlib.Path(path).open(newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if tuple(header) != EVENT_COLUMNS:
            raise ValueError(f"unexpected events header {header!r}")
        for row in r:
            out.setdefault(int(row[0]), []).append(float(row[2]))
    return {rep: np.asarray(v) for rep, v in out.items()}


def write_report_json(path, report: dict) -> None:
    pathlib.Path(path).write_text(json.dumps(report, indent=2, sort_keys=True))


def read_report_json(path) -> dict:
    return json.loads(pathlib.Path(path).read_text())
