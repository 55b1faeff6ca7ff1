"""Registry of all experiments (one per paper artifact).

Modules self-describe via a module-level ``EXPERIMENT`` spec; the registry
imports them lazily so that ``import repro`` stays fast.
"""

from __future__ import annotations

import importlib

from repro.experiments.base import ExperimentResult, ExperimentSpec

__all__ = ["EXPERIMENT_MODULES", "all_ids", "get_spec", "run_experiment", "run_all"]

#: Experiment id -> module path.  Ordered as in DESIGN.md's index.
EXPERIMENT_MODULES = {
    "fig1_spatial": "repro.experiments.fig1_spatial",
    "fig1_destination": "repro.experiments.fig1_destination",
    "thm1_spatial": "repro.experiments.thm1_spatial",
    "thm2_destination": "repro.experiments.thm2_destination",
    "lemma6_rows": "repro.experiments.lemma6_rows",
    "lemma7_density": "repro.experiments.lemma7_density",
    "cor12_large_r": "repro.experiments.cor12_large_r",
    "thm3_radius": "repro.experiments.thm3_radius",
    "thm3_speed": "repro.experiments.thm3_speed",
    "thm3_scaling": "repro.experiments.thm3_scaling",
    "suburb_vs_cz": "repro.experiments.suburb_vs_cz",
    "connectivity": "repro.experiments.connectivity",
    "lemma13_turns": "repro.experiments.lemma13_turns",
    "lemma14_segments": "repro.experiments.lemma14_segments",
    "lemma15_suburb": "repro.experiments.lemma15_suburb",
    "thm18_lower": "repro.experiments.thm18_lower",
    "meeting_suburb": "repro.experiments.meeting_suburb",
    "protocol_baselines": "repro.experiments.protocol_baselines",
    "mobility_ablation": "repro.experiments.mobility_ablation",
    "transit_backbone": "repro.experiments.transit_backbone",
    "init_bias": "repro.experiments.init_bias",
    "thm10_growth": "repro.experiments.thm10_growth",
    "regime_map": "repro.experiments.regime_map",
    "trip_lengths": "repro.experiments.trip_lengths",
    "pause_extension": "repro.experiments.pause_extension",
    "speed_decay": "repro.experiments.speed_decay",
    "fault_tolerance": "repro.experiments.fault_tolerance",
}


def all_ids() -> list:
    """All experiment ids, in index order."""
    return list(EXPERIMENT_MODULES)


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Load the spec for an experiment id."""
    if experiment_id not in EXPERIMENT_MODULES:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENT_MODULES)}"
        )
    module = importlib.import_module(EXPERIMENT_MODULES[experiment_id])
    return module.EXPERIMENT


def run_experiment(
    experiment_id: str,
    scale: str = "quick",
    seed: int = 0,
    engine: str | None = None,
    jobs: int = 1,
    stopping=None,
    checkpoint: str | None = None,
    resume: bool = False,
    max_retries: int | None = None,
) -> ExperimentResult:
    """Run one experiment by id.

    The options are those of
    :meth:`~repro.experiments.base.ExperimentSpec.run`; requesting one the
    experiment does not take (see ``ExperimentSpec.options``) raises.
    """
    return get_spec(experiment_id).run(
        scale=scale,
        seed=seed,
        engine=engine,
        jobs=jobs,
        stopping=stopping,
        checkpoint=checkpoint,
        resume=resume,
        max_retries=max_retries,
    )


def run_all(
    scale: str = "quick",
    seed: int = 0,
    engine: str | None = None,
    jobs: int = 1,
    stopping=None,
    experiment_ids=None,
):
    """Run every registered experiment (or those in ``experiment_ids``),
    yielding each result, in index order, as it finishes.

    Each option reaches only the experiments whose ``spec.options`` hold
    it, so a whole-suite run does not fail because closed-form experiments
    have no engine.  An experiment that still refuses to run (e.g.
    ``engine="batch"`` on an observer point) yields a failed result noted
    ``not run: ...`` and the suite goes on.  Checkpoints are per sweep,
    so there is no checkpoint parameter.
    """
    for experiment_id in all_ids() if experiment_ids is None else experiment_ids:
        spec = get_spec(experiment_id)
        options = spec.options
        try:
            result = spec.run(
                scale=scale,
                seed=seed,
                engine=engine if "engine" in options else None,
                jobs=jobs if "jobs" in options else 1,
                stopping=stopping if "stopping" in options else None,
            )
        except ValueError as error:
            result = ExperimentResult(
                experiment_id=experiment_id,
                title=spec.title,
                paper_ref=spec.paper_ref,
                headers=[],
                rows=[],
                notes=[f"not run: {error}"],
                passed=False,
            )
        yield result
