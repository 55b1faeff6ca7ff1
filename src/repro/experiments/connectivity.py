"""Connectivity: connected Central Zone, disconnected corners, growing gap.

Section 1's setup: under MRWP the connectivity threshold of the full
snapshot is exponentially above the uniform-case ``Theta(sqrt(log n))``
(ref [13]), because the corners are nearly empty — yet the Central Zone
sub-network connects at small radii.  Two measurements:

1. a giant-component / isolation profile of stationary snapshots across a
   radius sweep (the connectivity transition);
2. empirical connectivity thresholds across ``n`` — full graph vs CZ-only
   vs the Gupta-Kumar uniform benchmark.  The deepest occupied corner
   point sits at depth ``~ (L^3/n)^(1/3)``, so the full/uniform threshold
   ratio grows like ``n^(1/6) / sqrt(log n)`` — the finite-``n`` footprint
   of ref [13]'s "some root of n".

Both panels run through the batched network-analytics layer: each
panel's snapshots are stacked into one tensor and answered by a single
tiled enumeration + incremental union-find replay
(:func:`~repro.network.connectivity.batch_connectivity_profile`,
:func:`~repro.network.connectivity.batch_connectivity_threshold`).
``jobs > 1`` fans the per-``n`` threshold estimations over a
crash-surviving :class:`~repro.simulation.parallel.WorkerPool`.  Snapshots
are sampled before any analysis, so the tables are identical for every
job count.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.flooding import build_zone_partition
from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.mobility.stationary import PalmStationarySampler
from repro.network.connectivity import (
    batch_connectivity_profile,
    batch_connectivity_threshold,
    uniform_connectivity_threshold,
)
from repro.simulation.parallel import WorkerPool

EXPERIMENT_ID = "connectivity"


def _mean_thresholds(n: int, snapshots: int, rng) -> tuple:
    """Mean empirical thresholds (full, CZ-only) over stationary snapshots.

    Snapshots are sampled up front (estimation draws nothing from
    ``rng``); the full-graph thresholds then run through one batched MST
    pass, while the CZ-only thresholds run one snapshot at a time (the
    masked sub-populations are ragged).
    """
    side = math.sqrt(n)
    sampler = PalmStationarySampler(side)
    zones = build_zone_partition(n, side, 1.3 * math.sqrt(math.log(n)))
    snapshot_positions = [sampler.sample(n, rng).positions for _ in range(snapshots)]
    full = batch_connectivity_threshold(np.stack(snapshot_positions, axis=0), side)
    cz = []
    if zones is not None:
        for positions in snapshot_positions:
            mask = zones.in_central_zone(positions)
            cz.append(batch_connectivity_threshold(positions[mask][None], side)[0])
    return (float(np.mean(full)), float(np.mean(cz)) if cz else float("nan"))


def _threshold_job(args) -> tuple:
    """Picklable per-``n`` threshold job for the worker pool."""
    n, snapshots, job_seed = args
    return _mean_thresholds(n, snapshots, np.random.default_rng(job_seed))


def run(scale: str = "quick", seed: int = 0, jobs: int = 1) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"profile_n": 2_000, "snapshots": 2, "threshold_ns": [500, 2_000, 8_000]},
        full={"profile_n": 16_000, "snapshots": 4, "threshold_ns": [500, 2_000, 8_000, 32_000]},
    )
    rng = np.random.default_rng(seed)

    # Panel 1: transition profile at one n.
    n = params["profile_n"]
    side = math.sqrt(n)
    base = math.sqrt(math.log(n))
    sampler = PalmStationarySampler(side)
    radii = [0.4 * base, 0.6 * base, 0.8 * base, 1.2 * base, 2.0 * base]
    snapshot_positions = [
        sampler.sample(n, rng).positions for _ in range(params["snapshots"])
    ]
    profile = batch_connectivity_profile(np.stack(snapshot_positions, axis=0), side, radii)
    rows = [["-- profile --", f"n={n}", "", "", ""]]
    for k, radius in enumerate(radii):
        rows.append(
            [
                round(radius / base, 2),
                round(radius, 2),
                round(float(np.mean(profile["giant_fraction"][:, k])), 4),
                round(float(np.mean(profile["isolated_fraction"][:, k])), 4),
                round(float(np.mean(profile["connected"][:, k])), 2),
            ]
        )

    # Panel 2: threshold scaling across n, fanned over the worker pool.
    rows.append(["-- thresholds --", "full", "CZ-only", "uniform benchmark", "full/uniform"])
    threshold_jobs = [
        (tn, params["snapshots"], seed + 10 + k)
        for k, tn in enumerate(params["threshold_ns"])
    ]
    with WorkerPool(max_workers=jobs or 1) as pool:
        thresholds = pool.map(
            _threshold_job, threshold_jobs, labels=[f"n={tn}" for tn, *_rest in threshold_jobs]
        )
    ratios = []
    cz_below_full = []
    for (tn, *_rest), (full_thr, cz_thr) in zip(threshold_jobs, thresholds):
        uniform_thr = uniform_connectivity_threshold(tn, math.sqrt(tn))
        ratio = full_thr / uniform_thr
        ratios.append(ratio)
        cz_below_full.append(not math.isfinite(cz_thr) or cz_thr <= full_thr)
        rows.append(
            [f"n={tn}", round(full_thr, 2), round(cz_thr, 2), round(uniform_thr, 2), round(ratio, 2)]
        )

    ratio_grows = all(b >= a * 0.95 for a, b in zip(ratios, ratios[1:])) and ratios[-1] > ratios[0]
    passed = ratios[-1] >= 1.5 and ratio_grows and all(cz_below_full)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Connectivity profile: Central Zone vs full square",
        paper_ref="Section 1 / ref [13] / refs [18, 27]",
        headers=[
            "R / sqrt(log n)",
            "R",
            "mean giant fraction",
            "mean isolated fraction",
            "fraction connected",
        ],
        rows=rows,
        notes=[
            "the giant component saturates long before full connectivity: the last",
            "holdouts are deep-corner agents — the Suburb of Definition 4;",
            "the full/uniform threshold ratio grows with n (~ n^(1/6)/sqrt(log n)),",
            "the finite-n footprint of ref [13]'s exponentially-higher threshold;",
            "thresholds are exact MST bottlenecks (scipy MST or Borůvka fallback).",
        ],
        passed=passed,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Connectivity profile: Central Zone vs full square",
    paper_ref="Section 1 / ref [13] / refs [18, 27]",
    description="Connectivity transition profile and threshold scaling (full vs CZ vs uniform).",
    runner=run,
)
