"""Extension: flooding under crash faults — where does the bound degrade?

Agents crash-stop (radio death) independently each step.  The paper's
mechanism predicts asymmetric damage: the Central Zone's path redundancy
shrugs off crashes, while the Suburb hangs on individual Lemma-16
emissaries.  We measure completion (over survivors), the time cost, and
*where* the never-informed survivors sit when the run ends.

Each crash rate is one point of a sweep-scheduler plan.  The default
``engine="auto"`` advances a rate's trials in lock-step on the batch
engine under the ``crash-flooding`` protocol, with the per-replica crash
draws replaying the scalar streams (parity enforced in
``tests/test_protocol_batch_parity.py``), so ``--engine scalar`` changes
only the engine the note names.  The zone-resolved damage comes from the
protocol's ``final_metrics`` extras instead of a hand-rolled simulation
loop.
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.simulation.config import FloodingConfig
from repro.simulation.sweep import SweepPlan

EXPERIMENT_ID = "fault_tolerance"


def run(scale: str, seed: int, sweep) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"n": 2_000, "crash_probs": [0.0, 0.002, 0.01], "trials": 3},
        full={"n": 8_000, "crash_probs": [0.0, 0.001, 0.005, 0.02], "trials": 8},
    )
    n = params["n"]
    side = math.sqrt(n)
    radius = 1.4 * math.sqrt(math.log(n))
    speed = 0.25 * radius
    plan = SweepPlan()
    for crash_prob in params["crash_probs"]:
        plan.add(
            FloodingConfig(
                n=n,
                side=side,
                radius=radius,
                speed=speed,
                max_steps=5_000,
                protocol="crash-flooding",
                protocol_options={"crash_prob": crash_prob},
                seed=seed,  # same seed across rates -> same mobility traces
            ),
            params["trials"],
            key=crash_prob,
        )
    points = sweep(plan)

    rows = []
    mean_times = []
    for point in points:
        results = point.results
        finite = [r.flooding_time for r in results if math.isfinite(r.flooding_time)]
        mean = float(np.mean(finite)) if finite else math.inf
        mean_times.append(mean)
        crashed_total = sum(r.extras["crashed"] for r in results)
        missed_cz = sum(r.extras.get("uninformed_survivors_cz", 0) for r in results)
        missed_suburb = sum(
            r.extras.get("uninformed_survivors_suburb", 0) for r in results
        )
        rows.append(
            [
                point.key,
                round(mean, 1) if finite else "never",
                len(finite),
                round(crashed_total / point.n_trials, 0),
                missed_cz,
                missed_suburb,
            ]
        )

    baseline = mean_times[0]
    graceful = all(
        math.isfinite(m) and m <= 4.0 * baseline for m in mean_times[:-1]
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Flooding under crash faults (robustness extension)",
        paper_ref="extension of Theorem 3 (not in paper)",
        headers=[
            "per-step crash prob",
            "mean completion (survivors)",
            "completed trials",
            "mean crashed agents",
            "uninformed survivors in CZ",
            "uninformed survivors in Suburb",
        ],
        rows=rows,
        notes=[
            "crashed agents stop relaying but completion only counts survivors;",
            "graceful degradation: the Central Zone's path redundancy absorbs",
            "crashes (any uninformed-survivor mass concentrates in the Suburb;",
            "zeros in both columns mean full coverage despite the losses);",
            f"identical mobility seeds across crash rates, {points[0].engine} engine.",
        ],
        passed=graceful,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Flooding under crash faults (robustness extension)",
    paper_ref="extension of Theorem 3 (not in paper)",
    description="Completion over survivors and zone-wise damage across crash rates.",
    runner=run,
)
