"""Transit backbone: scheduled vehicles vs the paper's homogeneous regimes.

The paper's flooding bound holds for a *homogeneous* MRWP population; its
engineering counterpart for the disconnected-Suburb problem is a scheduled
transit backbone (paper ref [30], message ferries).  This experiment runs
the same flooding workload under four regimes on one sweep plan:

* ``mrwp`` — the paper's homogeneous population (the baseline);
* ``random-direction`` — the uniform-density comparison regime of the
  paper's earlier companions (no corner penalty);
* ``composite`` — MRWP pedestrians plus a zero-dwell ferry patrol;
* ``timetable`` — scheduled vehicles with dwell and capacity, plus a
  rider population that boards/alights (the PR 9 timetable family).

All four mobilities are batch-native, so ``engine="auto"`` vectorizes the
whole plan; ``--jobs`` fans the arms out across processes.  The question
the table answers: does a small scheduled backbone (~0.5% of agents)
change flooding time at the paper's canonical density?  The measured
answer is *no* — the MRWP crowd is already an ample information carrier,
so the backbone's main effect is that wall-hugging vehicles join the
flood last (a mild slowdown, bounded by the soft gate below).  The
backbone story is about *delivery guarantees* in disconnected regimes,
not about speeding up an already-supercritical flood — exactly the
contrast the paper draws with ref [30].
"""

from __future__ import annotations

import math

from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.simulation.config import FloodingConfig
from repro.simulation.sweep import SweepPlan

EXPERIMENT_ID = "transit_backbone"


def run(scale: str, seed: int, sweep) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"n": 2_000, "radius_factor": 1.3, "trials": 3, "vehicles": 10},
        full={"n": 8_000, "radius_factor": 1.3, "trials": 10, "vehicles": 40},
    )
    n = params["n"]
    vehicles = params["vehicles"]
    side = math.sqrt(n)
    radius = params["radius_factor"] * math.sqrt(math.log(n))
    speed = 0.25 * radius

    # The backbone patrols near the walls — where MRWP density (and hence
    # flooding progress) is lowest.  Dwell is a couple of steps so riders
    # can board; capacity keeps single vehicles from carrying whole crowds.
    arms = [
        ("mrwp", "mrwp", {}),
        ("random-direction", "random-direction", {}),
        ("composite", "composite", {"ferries": vehicles, "inset": side / 8.0}),
        (
            "timetable",
            "timetable",
            {
                "riders": n - vehicles,
                "dwell": 2.0,
                "capacity": 8,
                "board_radius": radius,
            },
        ),
    ]

    plan = SweepPlan()
    for key, mobility, options in arms:
        plan.add(
            FloodingConfig(
                n=n,
                side=side,
                radius=radius,
                speed=speed,
                max_steps=30_000,
                mobility=mobility,
                mobility_options=options,
                seed=seed,
                track_zones=(mobility == "mrwp"),
            ),
            params["trials"],
            key=key,
        )
    points = sweep(plan)

    rows = []
    means = {}
    for point in points:
        summary = point.summary
        means[point.key] = summary.mean
        rows.append(
            [
                point.key,
                round(summary.mean, 1) if summary.n_finite else "never",
                round(summary.std, 1),
                round(summary.minimum, 1) if summary.n_finite else "-",
                round(summary.maximum, 1) if summary.n_finite else "-",
                summary.n_finite,
            ]
        )
    for row in rows:
        key = row[0]
        if key == "mrwp" or not means.get(key) or not means.get("mrwp"):
            row.append("-")
        else:
            row.append(round(means["mrwp"] / means[key], 2))

    # Soft gate: a 0.5% scheduled backbone must not materially hurt — both
    # transit arms finish within 50% of the homogeneous MRWP baseline
    # (measured: ~1.0-1.2x, the excess being wall-hugging vehicles joining
    # the flood last; the slack absorbs quick-scale variance).
    transit_ok = all(
        means[key] <= 1.5 * means["mrwp"]
        for key in ("composite", "timetable")
        if means.get(key) and means.get("mrwp")
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Flooding time: transit backbone vs homogeneous mobility",
        paper_ref="Section 1 / ref [30]",
        headers=[
            "regime",
            "mean T_flood",
            "std",
            "min",
            "max",
            "completed trials",
            "speedup vs mrwp",
        ],
        rows=rows,
        notes=[
            f"identical (n, L, R, v) = ({n}, {side:.1f}, {radius:.2f}, {speed:.3f});",
            f"backbone = {vehicles} scheduled vehicles ({vehicles / n:.2%} of agents)",
            "patrolling the wall loop; the timetable arm adds dwell=2,",
            "capacity=8 stops with a boarding rider population.",
            "At this supercritical density the crowd itself carries the",
            "flood, so the backbone is delivery insurance, not a speedup",
            "(wall-hugging vehicles are the last agents informed).",
        ],
        passed=transit_ok,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Flooding time: transit backbone vs homogeneous mobility",
    paper_ref="Section 1 / ref [30]",
    description="Flooding over transit+pedestrian composites vs the paper's homogeneous regimes.",
    runner=run,
)
