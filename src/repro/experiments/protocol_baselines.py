"""Protocol baselines: flooding against bandwidth/energy-limited variants.

Flooding is the maximal-speed broadcast (Section 1: "a natural lower bound
for any broadcast protocol").  The comparison quantifies the cost of the
standard relaxations on the *same* mobility traces' distribution: push
gossip (bounded fanout), parsimonious flooding (bounded active window,
ref [3]), probabilistic flooding (duty cycling), and SIR epidemic
(permanent recovery — may die out in the Suburb).

Since PR 3 every variant runs through the **batch engine** at both scales
(all trials of a variant in lock-step); the scalar path produces identical
results (seed-for-seed parity, ``tests/test_protocol_batch_parity.py``)
and remains selectable via ``run(..., engine="scalar")``.
"""

from __future__ import annotations

import math

from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.simulation.config import FloodingConfig
from repro.simulation.results import summarize
from repro.simulation.runner import run_trials

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


def variant_configs(scale: str = "quick", seed: int = 0, engine: str = "batch") -> list:
    """The experiment's ``(label, config, trials)`` workload, one entry per
    variant."""
    params = scale_params(
        scale,
        quick={"n": 2_000, "radius_factor": 1.4, "trials": 3},
        full={"n": 8_000, "radius_factor": 1.4, "trials": 10},
    )
    n = params["n"]
    side = math.sqrt(n)
    radius = params["radius_factor"] * math.sqrt(math.log(n))
    speed = 0.25 * radius
    return [
        (
            label,
            FloodingConfig(
                n=n,
                side=side,
                radius=radius,
                speed=speed,
                max_steps=20_000,
                protocol=protocol,
                protocol_options=options,
                seed=seed,  # same seed -> same mobility/trial structure per variant
                engine=engine,
            ),
            params["trials"],
        )
        for label, protocol, options in _VARIANTS
    ]


def run(scale: str = "quick", seed: int = 0, engine: str = "batch") -> ExperimentResult:
    rows = []
    flooding_mean = None
    for label, config, trials in variant_configs(scale, seed, engine):
        results = run_trials(config, trials)
        summary = summarize(r.flooding_time for r in results)
        coverage = sum(r.final_coverage for r in results) / len(results)
        stalled = sum(1 for r in results if r.stalled)
        if label == "flooding":
            flooding_mean = summary.mean
        rows.append(
            [
                label,
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
            f"all variants executed by the {engine} engine (scalar-parity enforced in tests).",
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
