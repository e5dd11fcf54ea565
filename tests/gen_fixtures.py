#!/usr/bin/env python3
"""Regenerate the high-precision oracle tables used by the test suite.

Maintenance tool, not part of the package:

    python3 tests/gen_fixtures.py [--table prabhakar_oracle] [--out PATH]
    python3 tests/gen_fixtures.py --table near_one_oracle

``prabhakar_oracle`` is the main table.  Combinations whose series route
would need extreme working precision and that have no integral route are
skipped; the suite covers those bands by cross-validating independent
evaluation regimes instead.  ``near_one_oracle`` holds the references of
the checks near order one, where the oracle takes seconds per value:
E_{a,a}(z) at a = 0.9999 beyond the series range, and the kernel density
at gamma = 1.  ``--out`` defaults to ``tests/fixtures/<table>.csv``.
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import sys

import mpmath as mp

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import oracle  # noqa: E402

A_GRID = [0.3, 0.5, 0.7, 0.9, 0.99, 1.0]
BC_GRID = [("one", 1.0), ("kernel", 1.0), (2.0, 1.0), (1.3, 2.0), (0.7, 1.5)]
Z_GRID = [
    0.0, -1e-3, -0.1, -0.5, -1.0, -2.0, -3.0, -4.5, -5.0, -5.5, -8.0, -12.0,
    -20.0, -50.0, -100.0, -1e3, -1e4, -1e6, 0.5, 2.0, 5.0,
]
# corner cases: very small order, shapes reachable only through the
# recurrence, large third parameter
EXTRA = [
    (0.08, 0.08, 1.0, -20.0), (0.08, 0.08, 1.0, -1e4),
    (0.08, 1.0, 1.0, -20.0), (0.08, 1.0, 1.0, -1e4),
    (0.12, 1.0, 1.0, -5e5), (0.12, 0.12, 1.0, -5e5),
    (0.75, 2.48, 1.0, -50.0), (0.75, 2.48, 1.0, -1e5),
    (0.86, 1.0, 4.86, -4.98), (0.86, 1.0, 4.86, -60.0),
    (0.999, 1.0, 1.0, -30.0), (0.999, 0.999, 1.0, -30.0),
]
MAX_SERIES_DPS = 1200
# (a, z) of E_{a,a}(z), and (beta, t) of the kernel density at gamma = 1
NEAR_ONE_PRABHAKAR = [(0.9999, -33.0), (0.9999, -37.17)]
NEAR_ONE_DENSITY = [
    (beta, t)
    for beta in (0.999, 0.9999)
    for t in (0.05, 0.5, 2.0, 4.5, 8.0, 20.0, 100.0, 1e3, 1e4)
]


def _prabhakar_rows():
    combos = [
        (a, {"one": 1.0, "kernel": a}.get(b_tag, b_tag), c, z)
        for a in A_GRID
        for b_tag, c in BC_GRID
        for z in Z_GRID
    ] + EXTRA
    for a, b, c, z in combos:
        try:
            val = oracle.prabhakar_oracle(a, b, c, z, max_series_dps=MAX_SERIES_DPS)
        except RuntimeError:
            continue
        yield a, b, c, z, mp.nstr(val, 22, strip_zeros=False)


def _near_one_rows():
    for a, z in NEAR_ONE_PRABHAKAR:
        val = oracle.prabhakar_oracle(a, a, 1.0, z)
        yield "prabhakar", a, z, mp.nstr(val, 22, strip_zeros=False)
    for beta, t in NEAR_ONE_DENSITY:
        val = oracle.ml_density_oracle(t, beta, 1.0)
        yield "ml_density", beta, t, mp.nstr(val, 22, strip_zeros=False)


TABLES = {
    "prabhakar_oracle": (["a", "b", "c", "z", "value"], _prabhakar_rows),
    "near_one_oracle": (["kind", "order", "x", "value"], _near_one_rows),
}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--table", choices=list(TABLES), default="prabhakar_oracle")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    header, make_rows = TABLES[args.table]

    rows = []
    for row in make_rows():
        rows.append(row)
        print(", ".join(map(str, row)), flush=True)

    out = pathlib.Path(
        args.out or pathlib.Path(__file__).parent / "fixtures" / f"{args.table}.csv"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")


if __name__ == "__main__":
    main()
