"""Sweep-scheduler experiments: engine/jobs invariance and framework threading.

The migration acceptance gate: for every experiment moved onto
:func:`repro.simulation.sweep.run_sweep`, the scalar-engine run *is* the
pre-migration point-by-point computation (identical seed schedule), so
``engine="auto" == engine="scalar"`` means the migrated table equals the
unmigrated one — checked here on the full rendered report.
"""

import dataclasses
import inspect

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import all_ids, get_spec

#: Every experiment migrated onto the sweep scheduler in PR 4 (plus the
#: PR 3 batch-engine experiments keep their own engine knob).
SWEEP_EXPERIMENTS = [
    "thm3_scaling",
    "thm3_radius",
    "thm3_speed",
    "regime_map",
    "mobility_ablation",
    "suburb_vs_cz",
    "pause_extension",
    "init_bias",
    "meeting_suburb",
    "thm10_growth",
]

#: Cheap members re-run under process fan-out (jobs=2).
JOBS_EXPERIMENTS = ["thm3_radius", "mobility_ablation", "thm10_growth"]


class TestEngineParity:
    @pytest.mark.parametrize("experiment_id", SWEEP_EXPERIMENTS)
    def test_auto_equals_scalar(self, experiment_id):
        spec = get_spec(experiment_id)
        auto = spec.run(scale="quick", seed=0, engine="auto")
        scalar = spec.run(scale="quick", seed=0, engine="scalar")
        assert auto.to_text() == scalar.to_text()

    @pytest.mark.parametrize("experiment_id", JOBS_EXPERIMENTS)
    def test_jobs_invariant(self, experiment_id):
        spec = get_spec(experiment_id)
        serial = spec.run(scale="quick", seed=0, engine="auto", jobs=1)
        fanned = spec.run(scale="quick", seed=0, engine="auto", jobs=2)
        assert serial.to_text() == fanned.to_text()

    @pytest.mark.parametrize("experiment_id", ["connectivity", "thm18_lower"])
    def test_jobs_invariant_without_engine(self, experiment_id):
        # These fan their per-n / per-speed jobs over the worker pool but
        # have one execution path, so jobs is their only option.
        spec = get_spec(experiment_id)
        serial = spec.run(scale="quick", seed=0, jobs=1)
        fanned = spec.run(scale="quick", seed=0, jobs=2)
        assert serial.to_text() == fanned.to_text()


class TestFrameworkThreading:
    def test_sweep_experiments_advertise_support(self):
        for experiment_id in SWEEP_EXPERIMENTS:
            spec = get_spec(experiment_id)
            assert spec.accepts_engine and spec.accepts_jobs, experiment_id

    @pytest.mark.parametrize("experiment_id", ["fig1_spatial", "connectivity", "thm18_lower"])
    def test_non_scheduler_experiment_rejects_engine(self, experiment_id):
        spec = get_spec(experiment_id)
        assert not spec.accepts_engine
        with pytest.raises(ValueError, match="no engine selection"):
            spec.run(scale="quick", seed=0, engine="auto")
        if experiment_id == "fig1_spatial":
            with pytest.raises(ValueError, match="fan-out"):
                spec.run(scale="quick", seed=0, jobs=2)

    def test_support_flags_resolve_for_every_experiment(self):
        # The signature inspection must not blow up on any registered
        # runner; unrequested engine/jobs are legal everywhere.
        for experiment_id in all_ids():
            spec = get_spec(experiment_id)
            assert isinstance(spec.accepts_engine, bool)
            assert isinstance(spec.accepts_jobs, bool)

    def test_max_retries_reaches_the_runner_or_is_refused(self):
        # Every experiment either hands max_retries to its runner or refuses
        # it with a ValueError naming the experiment; it is never dropped.
        reached = []
        for experiment_id in all_ids():
            spec = get_spec(experiment_id)
            calls = []

            def recording_runner(**kwargs):
                calls.append(kwargs)
                return ExperimentResult(
                    spec.id, spec.title, spec.paper_ref, headers=[], rows=[]
                )

            recording_runner.__signature__ = inspect.signature(spec.runner)
            stub = dataclasses.replace(spec, runner=recording_runner)
            try:
                stub.run(max_retries=2)
            except ValueError as error:
                assert experiment_id in str(error)
                assert calls == [], experiment_id
                continue
            assert [call["max_retries"] for call in calls] == [2], experiment_id
            reached.append(experiment_id)
        assert {"thm3_radius", "thm3_speed", "thm3_scaling", "regime_map"} <= set(reached)

    def test_report_survives_unsatisfiable_engine(self):
        # engine="batch" cannot run thm10_growth's observer point; the
        # whole-suite report must record the failure, not crash.
        from repro.viz.report import generate_report

        text = generate_report(
            scale="quick", experiment_ids=["thm10_growth"], engine="batch"
        )
        assert "not run:" in text and "FAIL" in text

    def test_pr3_experiments_keep_engine_defaults(self):
        # protocol_baselines defaults to engine="batch"; an unrequested
        # engine (None) must not clobber that default.
        spec = get_spec("protocol_baselines")
        assert spec.accepts_engine and not spec.accepts_jobs
