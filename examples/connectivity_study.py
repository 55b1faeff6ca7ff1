#!/usr/bin/env python
"""Connectivity study: how disconnected is a Manhattan MANET, and where?

Reproduces the paper's Section-1 picture interactively: a stationary
snapshot's disk graph across radio ranges, with the Central Zone / Suburb
split of Definition 4, an ASCII map of where the isolated agents live, and
the empirical connectivity thresholds.

Run:  python examples/connectivity_study.py
"""

import math

import numpy as np

from repro.core.flooding import build_zone_partition
from repro.mobility.stationary import PalmStationarySampler
from repro.network.connectivity import batch_connectivity_threshold, uniform_connectivity_threshold
from repro.network.disk_graph import DiskGraph
from repro.viz.ascii import render_heatmap
from repro.viz.tables import format_table


def main() -> int:
    n = 4_000
    side = math.sqrt(n)
    rng = np.random.default_rng(7)
    positions = PalmStationarySampler(side).sample(n, rng).positions
    base = math.sqrt(math.log(n))
    zones = build_zone_partition(n, side, 1.3 * base)
    in_cz = zones.in_central_zone(positions)

    rows = []
    isolated_map = None
    for factor in (0.5, 0.8, 1.2, 2.0):
        radius = factor * base
        graph = DiskGraph(positions, radius, side=side)
        deg = graph.degrees()
        rows.append(
            [
                round(radius, 2),
                # float(): Python's round, not numpy's half-to-even.
                round(float(deg.mean()), 1),
                round(float(deg[in_cz].mean()), 1),
                round(float(deg[~in_cz].mean()), 1),
                graph.n_components(),
                round(graph.giant_component_fraction(), 4),
                round(float(np.mean(deg == 0)), 4),
            ]
        )
        if factor == 0.8:
            # Where do the isolated agents live?  Bin them over the square.
            isolated = positions[graph.isolated_mask()]
            bins = 12
            hist, _, _ = np.histogram2d(
                isolated[:, 0], isolated[:, 1], bins=bins, range=[[0, side], [0, side]]
            )
            isolated_map = render_heatmap(hist)

    print(f"stationary snapshot, n={n}, L={side:.0f}\n")
    print(
        format_table(
            [
                "R",
                "mean degree",
                "CZ mean degree",
                "suburb mean degree",
                "components",
                "giant fraction",
                "isolated fraction",
            ],
            rows,
            title="disk-graph structure vs radio range",
        )
    )
    if isolated_map:
        print("\nwhere the isolated agents sit (R = 0.8 sqrt(log n)) — the corners:")
        print(isolated_map)

    full_thr = batch_connectivity_threshold(positions[None], side)[0]
    cz_thr = batch_connectivity_threshold(positions[in_cz][None], side)[0]
    print(f"\nconnectivity thresholds: full graph {full_thr:.2f}, "
          f"Central Zone only {cz_thr:.2f}, "
          f"uniform benchmark {uniform_connectivity_threshold(n, side):.2f}")
    print("The Central Zone connects near the uniform threshold; the corners push")
    print("the full graph's threshold far above it (ref [13]) — yet flooding stays")
    print("fast there (the paper's Theorem 3).")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
