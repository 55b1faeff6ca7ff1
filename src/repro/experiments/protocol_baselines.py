"""Protocol baselines: flooding against bandwidth/energy-limited variants.

Flooding is the maximal-speed broadcast (Section 1: "a natural lower bound
for any broadcast protocol").  The comparison quantifies the cost of the
standard relaxations on the *same* mobility traces' distribution: push
gossip (bounded fanout), parsimonious flooding (bounded active window,
ref [3]), probabilistic flooding (duty cycling), and SIR epidemic
(permanent recovery — may die out in the Suburb).

Every variant is one point of a sweep-scheduler plan, keyed by its label.
The default ``engine="auto"`` runs each variant's trials in lock-step on
the batch engine; ``--engine scalar`` produces identical results
(seed-for-seed parity, ``tests/test_protocol_batch_parity.py``) and only
changes the engine the note names.
"""

from __future__ import annotations

import math

from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.simulation.config import FloodingConfig
from repro.simulation.sweep import SweepPlan

EXPERIMENT_ID = "protocol_baselines"

_VARIANTS = [
    ("flooding", "flooding", {}),
    ("gossip k=1", "gossip", {"fanout": 1}),
    ("gossip k=3", "gossip", {"fanout": 3}),
    ("push-pull", "push-pull", {}),
    ("parsimonious w=2", "parsimonious", {"active_window": 2}),
    ("parsimonious w=8", "parsimonious", {"active_window": 8}),
    ("probabilistic p=0.25", "probabilistic", {"p": 0.25}),
    ("SIR recovery=0.05", "sir", {"recovery_prob": 0.05}),
]


def run(scale: str, seed: int, sweep) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"n": 2_000, "radius_factor": 1.4, "trials": 3},
        full={"n": 8_000, "radius_factor": 1.4, "trials": 10},
    )
    n = params["n"]
    side = math.sqrt(n)
    radius = params["radius_factor"] * math.sqrt(math.log(n))
    speed = 0.25 * radius
    plan = SweepPlan()
    for label, protocol, options in _VARIANTS:
        plan.add(
            FloodingConfig(
                n=n,
                side=side,
                radius=radius,
                speed=speed,
                max_steps=20_000,
                protocol=protocol,
                protocol_options=options,
                seed=seed,  # same seed -> same mobility/trial structure per variant
            ),
            params["trials"],
            key=label,
        )
    points = sweep(plan)

    rows = []
    flooding_mean = None
    for point in points:
        results = point.results
        summary = point.summary
        coverage = sum(r.final_coverage for r in results) / len(results)
        stalled = sum(1 for r in results if r.stalled)
        if point.key == "flooding":
            flooding_mean = summary.mean
        rows.append(
            [
                point.key,
                round(summary.mean, 1) if summary.n_finite else "never",
                summary.n_finite,
                stalled,
                round(coverage, 4),
                round(summary.mean / flooding_mean, 2)
                if flooding_mean and summary.n_finite
                else "-",
            ]
        )

    flooding_fastest = all(
        not isinstance(row[5], float) or row[5] >= 0.99 for row in rows
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Flooding vs baseline broadcast protocols",
        paper_ref="Section 1 context / ref [3]",
        headers=[
            "protocol",
            "mean completion time",
            "completed trials",
            "stalled trials",
            "mean final coverage",
            "slowdown vs flooding",
        ],
        rows=rows,
        notes=[
            "identical trial seeds across variants: differences are protocol-only;",
            "flooding lower-bounds every variant's completion time (slowdown >= 1);",
            f"all variants executed by the {points[0].engine} engine "
            "(scalar-parity enforced in tests).",
        ],
        passed=flooding_fastest,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Flooding vs baseline broadcast protocols",
    paper_ref="Section 1 context / ref [3]",
    description="Completion time / coverage of gossip, parsimonious, probabilistic, SIR vs flooding.",
    runner=run,
)
