#!/usr/bin/env python3
"""Sample paths from the two independent simulators.

The thinning engine works from the conditional intensity; the cluster
engine builds the same law from Poisson immigrants with recursive
kernel-delayed offspring.  This script draws a handful of paths from each,
with one ``sample_paths`` call per engine, prints the event times of one
path next to the conditional intensity just after each event, and writes
all paths as (replica, k, T_k) rows.
"""

import pathlib

import numpy as np

from fhawkes import ModelParams, intensity, sample_paths
from fhawkes.io import write_events_csv

OUT = pathlib.Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

p = ModelParams(lambda0=1.0, alpha=0.5, beta=0.5, gamma=1.0)
HORIZON = 10.0

paths = sample_paths(p, HORIZON, seed=42, replicas=range(5), engine="thinning")
write_events_csv(OUT / "paths_thinning.csv", paths)
cluster_paths = sample_paths(p, HORIZON, seed=42, replicas=range(5), engine="cluster")
write_events_csv(OUT / "paths_cluster.csv", cluster_paths)

seq = paths[0]
print(f"thinning path, {len(seq)} events on (0, {HORIZON:g}]")
print(f"{'k':>3} {'T_k':>8} {'intensity at T_k (left limit)':>30}")
for k, epoch in enumerate(seq.epochs, start=1):
    lam = intensity(epoch, seq, p)
    print(f"{k:3d} {epoch:8.4f} {lam:30.4f}")

counts = [len(s) for s in paths]
ccounts = [len(s) for s in cluster_paths]
print(f"\nevent counts, thinning: {counts}")
print(f"event counts, cluster:  {ccounts}")
print(f"paths written to {OUT}")
