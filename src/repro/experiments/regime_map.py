"""Regime map: where each term of the bound dominates (Sections 1 & 5).

Rasterizes the ``(R, v/R)`` plane into the paper's regimes (trivial /
no-suburb / CZ-dominated / suburb-dominated / outside-hypotheses) and
spot-checks the classification against simulation: a point labeled
``cz-dominated`` must show speed-flat flooding times; a ``suburb-dominated``
point must slow down when ``v`` drops.

Spot-check means come from the sweep scheduler and are **masked below a
finite-trial floor**: a point where fewer than half the trials finished
reports "masked" plus its ``n_finite/n_trials`` count instead of a mean of
the surviving subset (which is NaN when nothing finishes and biased when
only the easy trials do).
"""

from __future__ import annotations

import math

from repro.core.regimes import classify_regime, regime_map
from repro.experiments.base import (
    ExperimentResult,
    ExperimentSpec,
    adaptive_note,
    scale_params,
)
from repro.simulation.config import FloodingConfig
from repro.simulation.sweep import SweepPlan, run_sweep

EXPERIMENT_ID = "regime_map"

#: Spot-check means are only trusted when at least this fraction of the
#: point's trials finished — below it the "mean" is a moment of whatever
#: subset happened to complete, and the cell is masked instead of plotted.
MIN_FINITE_FRACTION = 0.5


def _spot_config(n, side, radius, speed, seed, max_steps=150_000):
    return FloodingConfig(
        n=n, side=side, radius=radius, speed=speed, max_steps=max_steps,
        seed=seed, track_zones=False,
    )


def run(
    scale: str = "quick",
    seed: int = 0,
    engine: str | None = None,
    jobs: int = 1,
    stopping=None,
    checkpoint: str | None = None,
    resume: bool = False,
    max_retries: int | None = None,
) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"n": 4_000, "resolution": 20, "trials": 3},
        full={"n": 16_000, "resolution": 32, "trials": 6},
    )
    n = params["n"]
    side = math.sqrt(n)
    base = math.sqrt(math.log(n))

    grid = regime_map(
        n,
        side,
        radius_range=(0.3 * base, 2.0 * side),
        speed_fractions=(0.002, 0.5),
        resolution=params["resolution"],
    )
    # The same map at asymptotic n (closed forms only — free): here the
    # paper-constant optimal window 'C' opens up, showing the bound's full
    # regime structure.
    n_big = 10**14
    side_big = math.sqrt(n_big)
    base_big = math.sqrt(math.log(n_big))
    grid_big = regime_map(
        n_big,
        side_big,
        radius_range=(0.3 * base_big, 2.0 * side_big),
        speed_fractions=(0.002, 0.5),
        resolution=params["resolution"],
    )

    # Spot-check one point per measurable regime — all four simulation
    # points ride one sweep-scheduler plan.
    # (a) R comfortably above the calibrated assumption: measured behaviour
    # is CZ-dominated (flat in v).  The *paper-constant* classification may
    # still label this suburb-dominated because its S constant is enormous;
    # the discrepancy is reported as the constant-slack finding.
    r_cz = 2.6 * base
    paper_label = classify_regime(n, side, r_cz, 0.08 * r_cz)
    # (b) suburb-dominated surrogate: sparse radius (below assumption — the
    #     v-dependence regime Theorem 18 talks about).
    r_sparse = 0.3 * side / n ** (1.0 / 3.0)
    trials = params["trials"]
    plan = SweepPlan()
    plan.add(_spot_config(n, side, r_cz, 0.08 * r_cz, seed), trials, key="cz_fast")
    plan.add(_spot_config(n, side, r_cz, 0.02 * r_cz, seed + 1), trials, key="cz_slow")
    plan.add(_spot_config(n, side, r_sparse, 0.45 * r_sparse, seed + 2), trials, key="sp_fast")
    plan.add(_spot_config(n, side, r_sparse, 0.05 * r_sparse, seed + 3), trials, key="sp_slow")
    executed = run_sweep(
        plan,
        engine=engine or "auto",
        jobs=jobs,
        stopping=stopping,
        checkpoint=checkpoint,
        resume=resume,
        max_retries=max_retries,
    )
    points = {p.key: p for p in executed}

    # Means are masked (NaN) below MIN_FINITE_FRACTION completion instead of
    # silently reporting moments of the finite subset; the completion column
    # surfaces n_finite/n_trials for every cell.
    def cell(point):
        mean = point.masked_mean(MIN_FINITE_FRACTION)
        return round(mean, 1) if math.isfinite(mean) else "masked"

    rows = []
    checks = []
    fast, slow = points["cz_fast"], points["cz_slow"]
    measurable = min(fast.finite_fraction, slow.finite_fraction) >= MIN_FINITE_FRACTION
    flat = measurable and slow.masked_mean() <= 2.0 * fast.masked_mean()
    checks.append(flat)
    finding = (
        "flat (measured: cz-dominated)" if flat
        else "NOT FLAT" if measurable
        else "insufficient completions (masked)"
    )
    rows.append([f"{paper_label} (paper label)", round(r_cz, 2), "v=0.02R vs 0.08R",
                 cell(slow), cell(fast),
                 f"{slow.completion_label} | {fast.completion_label}", finding])
    fast, slow = points["sp_fast"], points["sp_slow"]
    measurable = min(fast.finite_fraction, slow.finite_fraction) >= MIN_FINITE_FRACTION
    speed_dependent = measurable and slow.masked_mean() >= 1.5 * fast.masked_mean()
    checks.append(speed_dependent)
    finding = (
        "1/v visible" if speed_dependent
        else "NO v-dependence" if measurable
        else "insufficient completions (masked)"
    )
    rows.append(["sparse (v-dependent)", round(r_sparse, 2), "v=0.05R vs 0.45R",
                 cell(slow), cell(fast),
                 f"{slow.completion_label} | {fast.completion_label}", finding])

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Parameter-regime map of the bound",
        paper_ref="Section 1 discussion / Section 5 / Theorem 18",
        headers=["regime", "R", "comparison", "slow-v time", "fast-v time",
                 "completed (slow | fast)", "finding"],
        rows=rows,
        artifacts={
            f"regime map at n={n} (x: R growing right, y: v/R growing up)": grid["ascii"],
            "regime map at n=1e14 (paper-constant optimal window 'C' opens)": grid_big["ascii"],
        },
        notes=[
            "map uses the calibrated c1 = sqrt5 assumption constant (lemma6_rows)",
            "but the paper's Suburb constant for the S R/L speed boundary — which",
            "is so conservative that the 'C' (optimal-window) band only opens at",
            "much larger n; the spot checks show the *measured* boundary: flat",
            "in v above the assumption radius, 1/v-dependent in the sparse regime.",
        ]
        + ([adaptive_note(executed, plan)] if stopping is not None else []),
        passed=all(checks),
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Parameter-regime map of the bound",
    paper_ref="Section 1 discussion / Section 5 / Theorem 18",
    description="ASCII regime map of the (R, v) plane with simulation spot checks.",
    runner=run,
)
