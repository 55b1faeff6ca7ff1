"""Theorem 3, speed sweep: where flooding time depends on ``v`` — and where not.

The bound ``O(L/R + S/v)`` has two regimes, both probed here:

* **optimal window** (Section 1: ``v`` in ``[S R / L, R]``, realized at
  laptop scale by ``R = Theta(sqrt(log n))``): the Central-Zone term
  dominates, the bound is ``Theta(L/R)``, and measured flooding time is
  flat in ``v``;
* **sparse regime** (``R`` near the Theorem-18 scale, below the corner
  connectivity level): suburban agents are genuinely isolated, and
  flooding time fits ``a + b/v`` with ``b > 0`` — the paper's "flooding
  time must depend on v".

Both panels ride a single sweep-scheduler plan (``engine="auto"`` batch
dispatch, optional ``jobs=`` fan-out) with the pre-scheduler seed schedule
— the sparse panel's long horizons are where the batching pays most.
"""

from __future__ import annotations

import math

from repro.analysis.scaling import fit_affine_inverse
from repro.core import theory
from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.simulation.config import FloodingConfig
from repro.simulation.sweep import SweepPlan

EXPERIMENT_ID = "thm3_speed"


def _panel_points(plan, panel, n, side, radius, fractions, trials, seed, max_steps):
    """Queue one panel's speed sweep on the shared plan (keyed by panel)."""
    for k, fraction in enumerate(fractions):
        plan.add(
            FloodingConfig(
                n=n,
                side=side,
                radius=radius,
                speed=fraction * radius,
                max_steps=max_steps,
                seed=seed + 1000 * k,
                track_zones=False,
            ),
            trials,
            key=(panel, fraction),
        )


def _panel_rows(points, panel):
    speeds = []
    means = []
    rows = []
    for point in points:
        if point.key[0] != panel:
            continue
        summary = point.summary
        speeds.append(point.config.speed)
        means.append(summary.mean)
        rows.append(
            [
                round(point.key[1], 3),
                round(point.config.speed, 4),
                round(summary.mean, 1),
                round(summary.minimum, 1),
                round(summary.maximum, 1),
                summary.n_finite,
            ]
        )
    return speeds, means, rows


def run(scale: str, seed: int, sweep) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={
            "n": 4_000,
            "fractions": [0.05, 0.15, 0.45],
            "trials": 3,
            "dense_factor": 1.3,
            "sparse_radius_scale": 0.3,
        },
        full={
            "n": 8_000,
            "fractions": [0.03, 0.06, 0.12, 0.25, 0.45],
            "trials": 8,
            "dense_factor": 1.3,
            "sparse_radius_scale": 0.3,
        },
    )
    n = params["n"]
    side = math.sqrt(n)

    # Both panels ride one sweep plan: the scheduler batches every point
    # through engine="auto" and can fan the points out over processes.
    dense_radius = params["dense_factor"] * math.sqrt(math.log(n))
    sparse_radius = params["sparse_radius_scale"] * side / n ** (1.0 / 3.0)
    plan = SweepPlan()
    # Panel A: assumption regime (optimal window) — flat in v.
    _panel_points(
        plan, "dense", n, side, dense_radius, params["fractions"], params["trials"], seed, 30_000
    )
    # Panel B: sparse regime — a + b/v.  Radius at the Theorem-18 scale
    # (a fraction of d = L / n^(1/3), below corner connectivity).
    _panel_points(
        plan, "sparse", n, side, sparse_radius, params["fractions"], params["trials"],
        seed + 7, 200_000,
    )
    points = sweep(plan)

    _, dense_means, dense_rows = _panel_rows(points, "dense")
    dense_spread = max(dense_means) / max(min(dense_means), 1.0)
    speeds, sparse_means, sparse_rows = _panel_rows(points, "sparse")
    fit = fit_affine_inverse(speeds, sparse_means)

    rows = [["-- optimal window --", f"R={dense_radius:.2f}", "", "", "", ""]]
    rows += dense_rows
    rows += [["-- sparse regime --", f"R={sparse_radius:.2f}", "", "", "", ""]]
    rows += sparse_rows

    notes = [
        f"optimal window: max/min flooding-time ratio across speeds = {dense_spread:.2f} "
        "(flat: the bound is Theta(L/R) there);",
        f"sparse regime fit: T ~ {fit.constant:.1f} + {fit.slope:.2f}/v, R^2 = {fit.r2:.4f};",
        "Theorem 3's Suburb term S/v is visible exactly where snapshots are",
        "disconnected; above the connectivity level the CZ term dominates.",
        f"reference 18 L/R: dense {theory.cz_flooding_bound(side, dense_radius):.0f}, "
        f"sparse {theory.cz_flooding_bound(side, sparse_radius):.0f}.",
    ]
    passed = dense_spread <= 2.0 and fit.slope > 0 and fit.r2 >= 0.85 and (
        sparse_means[0] > 1.5 * sparse_means[-1]
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Flooding time vs agent speed (Theorem 3)",
        paper_ref="Theorem 3 / Section 1 discussion",
        headers=["v/R", "v", "mean T_flood", "min", "max", "completed trials"],
        rows=rows,
        notes=notes,
        passed=passed,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Flooding time vs agent speed (Theorem 3)",
    paper_ref="Theorem 3 / Section 1 discussion",
    description="Speed sweeps in the optimal window (flat) and the sparse regime (a + b/v).",
    runner=run,
)
