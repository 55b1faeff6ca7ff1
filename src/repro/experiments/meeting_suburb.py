"""Lemma 16: suburban agents are met by Central-Zone emissaries.

The engine of the Suburb analysis: an agent in the (Extended) Suburb is,
w.h.p., met within ``tau = 590 S/v`` steps by an agent that was in the
Central Zone at the window's start.  The paper's ``tau`` constant is
proof-driven; we measure the actual first-meeting-time distribution and
check (a) that every suburban agent is met well within the paper's window
and (b) the ``1/v`` scaling of meeting times.

A sweep-scheduler cross-check runs live central-source flooding at each
speed and reports the mean Suburb completion time next to the raw meeting
medians — the protocol-level consequence of the lemma, batched through
``engine="auto"``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.flooding import build_zone_partition
from repro.core.meetings import first_meeting_times_from_zone
from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.kernels import use_kernel_tier
from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.simulation.config import FloodingConfig
from repro.simulation.results import summarize
from repro.simulation.sweep import SweepPlan

EXPERIMENT_ID = "meeting_suburb"


def run(scale: str, seed: int, sweep) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"n": 2_000, "radius_factor": 1.3, "fractions": [0.25, 0.1], "window_factor": 40,
               "flood_trials": 6},
        full={
            "n": 16_000,
            "radius_factor": 1.3,
            "fractions": [0.25, 0.1, 0.04],
            "window_factor": 60,
            "flood_trials": 4,
        },
    )
    n = params["n"]
    side = math.sqrt(n)
    radius = params["radius_factor"] * math.sqrt(math.log(n))
    zones = build_zone_partition(n, side, radius)

    # End-to-end cross-check of Lemma 16 through the sweep scheduler: the
    # Suburb completion time of live central-source flooding runs is the
    # protocol-level shadow of the meeting-time mechanism, and should show
    # the same 1/v stretch measured below.
    plan = SweepPlan()
    for k, fraction in enumerate(params["fractions"]):
        plan.add(
            FloodingConfig(
                n=n,
                side=side,
                radius=radius,
                speed=fraction * radius,
                max_steps=30_000,
                source="central",
                seed=seed + 500 + k,
            ),
            params["flood_trials"],
            key=fraction,
        )
    flood_points = {p.key: p for p in sweep(plan)}

    rows = []
    medians = []
    checks = []
    for k, fraction in enumerate(params["fractions"]):
        speed = fraction * radius
        flood = flood_points[fraction]
        suburb = summarize(r.suburb_completion_time for r in flood.results)
        suburb_cell = round(suburb.mean, 1) if suburb.n_finite else "never"
        model = ManhattanRandomWaypoint(n, side, speed, rng=np.random.default_rng(seed + k))
        positions = model.positions
        suburb_agents = np.nonzero(zones.in_suburb(positions))[0]
        if suburb_agents.size == 0:
            rows.append([round(fraction, 3), 0, "-", "-", "-", "-", "no suburb agents"])
            continue
        # Window: enough steps for an emissary to cross the empirical suburb
        # extent several times over (paper's 590 S/v is far larger).
        extent = max(zones.suburb_corner_extent(), radius)
        window = int(params["window_factor"] * extent / speed)
        # The tier a flooding config's default kernels="auto" would pick:
        # compiled MRWP steps and meeting counts when a provider builds.
        with use_kernel_tier("auto"):
            times = first_meeting_times_from_zone(
                model, zones, radius, suburb_agents, window
            )
        met = np.isfinite(times)
        met_fraction = float(np.mean(met))
        median = float(np.median(times[met])) if np.any(met) else math.inf
        medians.append((speed, median))
        paper_tau = 590.0 * zones.suburb_bound / speed
        ok = met_fraction >= 0.95
        checks.append(ok)
        rows.append(
            [
                round(fraction, 3),
                int(suburb_agents.size),
                window,
                round(met_fraction, 4),
                round(median, 1),
                round(paper_tau, 0),
                suburb_cell,
            ]
        )

    # 1/v scaling: median meeting time should grow as speed drops.
    scaling_ok = all(
        m2 >= m1 * 0.8
        for (v1, m1), (v2, m2) in zip(medians, medians[1:])
        if math.isfinite(m1) and math.isfinite(m2)
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Suburb meeting times with CZ emissaries (Lemma 16)",
        paper_ref="Lemma 16 / Claim 17",
        headers=[
            "v / R",
            "suburb agents",
            "window (steps)",
            "fraction met",
            "median meeting step",
            "paper tau = 590 S/v",
            "mean suburb completion (flooding)",
        ],
        rows=rows,
        notes=[
            "meeting = distance <= (3/4) R to an agent that was in the CZ at step 0;",
            "the paper's tau constant is enormously conservative — the measured",
            "medians sit orders of magnitude below it;",
            "the last column is live central-source flooding via the sweep",
            "scheduler: the Suburb completion time is the protocol-level shadow",
            "of the same meeting mechanism (and stretches as v drops).",
        ],
        passed=bool(checks) and all(checks) and scaling_ok,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Suburb meeting times with CZ emissaries (Lemma 16)",
    paper_ref="Lemma 16 / Claim 17",
    description="First-meeting times of suburban agents with Central-Zone agents.",
    runner=run,
)
