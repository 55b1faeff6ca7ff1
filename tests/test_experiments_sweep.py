"""Flooding experiments on the sweep scheduler: one option rule for all.

A flooding runner takes ``(scale, seed, sweep)`` and
:meth:`~repro.experiments.base.ExperimentSpec.run` binds ``sweep`` to
``run_sweep`` with the run's options, so every flooding experiment takes
all of them.  The scalar-engine run *is* the point-by-point computation
(identical seed schedule), so ``engine="auto" == engine="scalar"`` means
the batched table equals the unbatched one — checked here on the full
rendered report, as is invariance under ``jobs``.
"""

import inspect

import pytest

import repro.experiments.base as base
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import all_ids, get_spec
from repro.simulation.sweep import StoppingRule, SweepPlan

#: Every experiment whose runner takes ``sweep``.
SWEEP_EXPERIMENTS = [eid for eid in all_ids() if get_spec(eid).options == base.SWEEP_OPTIONS]

#: Experiments that fan their own jobs over the worker pool: ``jobs`` is
#: their only option.
JOBS_EXPERIMENTS = [eid for eid in all_ids() if get_spec(eid).options == {"jobs"}]


def same_table(expected, actual):
    """Whether two runs print the same report, bar the engine named by the
    notes of ``protocol_baselines`` and ``fault_tolerance``."""
    engine_free = [
        result.to_text().replace("scalar engine", "ENGINE").replace("batch engine", "ENGINE")
        for result in (expected, actual)
    ]
    return engine_free[0] == engine_free[1]


class TestEngineParity:
    @pytest.mark.parametrize("experiment_id", SWEEP_EXPERIMENTS)
    def test_auto_equals_scalar(self, experiment_id):
        spec = get_spec(experiment_id)
        auto = spec.run(scale="quick", seed=0, engine="auto")
        scalar = spec.run(scale="quick", seed=0, engine="scalar")
        assert same_table(auto, scalar)

    @pytest.mark.parametrize("experiment_id", SWEEP_EXPERIMENTS)
    def test_jobs_invariant(self, experiment_id):
        spec = get_spec(experiment_id)
        serial = spec.run(scale="quick", seed=0, engine="auto", jobs=1)
        fanned = spec.run(scale="quick", seed=0, engine="auto", jobs=2)
        assert serial.to_text() == fanned.to_text()

    @pytest.mark.parametrize("experiment_id", JOBS_EXPERIMENTS)
    def test_jobs_invariant_without_engine(self, experiment_id):
        # These fan their per-n / per-speed jobs over the worker pool but
        # have one execution path, so jobs is their only option.
        spec = get_spec(experiment_id)
        serial = spec.run(scale="quick", seed=0, jobs=1)
        fanned = spec.run(scale="quick", seed=0, jobs=2)
        assert serial.to_text() == fanned.to_text()


class TestFrameworkThreading:
    def test_options_partition_the_suite(self):
        # 14 flooding runners take sweep, 2 fan out their own jobs, and
        # the 11 closed-form runners take (scale, seed) alone; no runner
        # takes a scheduler option itself.
        parameters = {
            eid: set(inspect.signature(get_spec(eid).runner).parameters) for eid in all_ids()
        }

        def taking(*names):
            return [eid for eid in all_ids() if parameters[eid] == {"scale", "seed", *names}]

        assert taking("sweep") == SWEEP_EXPERIMENTS
        assert taking("jobs") == JOBS_EXPERIMENTS
        closed_form = taking()
        assert (len(SWEEP_EXPERIMENTS), len(JOBS_EXPERIMENTS), len(closed_form)) == (14, 2, 11)
        assert set(JOBS_EXPERIMENTS) == {"connectivity", "thm18_lower"}
        assert not any(get_spec(eid).options for eid in closed_form)

    @pytest.mark.parametrize("experiment_id", ["fig1_spatial", "connectivity", "thm18_lower"])
    def test_non_scheduler_experiment_rejects_engine(self, experiment_id):
        spec = get_spec(experiment_id)
        assert "engine" not in spec.options
        with pytest.raises(ValueError, match=f"'{experiment_id}' does not take engine"):
            spec.run(scale="quick", seed=0, engine="auto")
        if experiment_id == "fig1_spatial":
            with pytest.raises(ValueError, match="does not take jobs"):
                spec.run(scale="quick", seed=0, jobs=2)

    def test_every_option_reaches_run_sweep_or_is_refused(self, monkeypatch):
        # A flooding runner's sweep carries every requested option to
        # run_sweep; any other runner refuses, naming the experiment and
        # each option it lacks, before it runs.
        received = []

        def recording_sweep(plan, **options):
            received.append(options)
            return []

        monkeypatch.setattr(base, "run_sweep", recording_sweep)
        rule = StoppingRule(ci_width=0.1)
        requested = {
            "engine": "scalar", "jobs": 2, "stopping": rule, "checkpoint": "ck",
            "resume": True, "max_retries": 2,
        }
        for experiment_id in all_ids():
            spec = get_spec(experiment_id)
            ran = []

            def stub_runner(scale, seed, **kwargs):
                ran.append(kwargs)
                if "sweep" in kwargs:
                    kwargs["sweep"](SweepPlan())
                return ExperimentResult(
                    spec.id, spec.title, spec.paper_ref, headers=[], rows=[]
                )

            stub_runner.__signature__ = inspect.signature(spec.runner)
            stub = base.ExperimentSpec(
                spec.id, spec.title, spec.paper_ref, spec.description, stub_runner
            )
            received.clear()
            if spec.options != base.SWEEP_OPTIONS:
                with pytest.raises(ValueError) as info:
                    stub.run(**requested)
                refused = sorted(base.SWEEP_OPTIONS - spec.options)
                assert str(info.value) == (
                    f"experiment {experiment_id!r} does not take "
                    + ", ".join(name for name in requested if name in refused)
                )
                assert ran == [] and received == [], experiment_id
                continue
            result = stub.run(**requested)
            assert received == [requested], experiment_id
            assert result.notes == ["adaptive stopping: 0 trials vs 0 fixed budget"]

    def test_report_survives_unsatisfiable_engine(self):
        # engine="batch" cannot run thm10_growth's observer point; the
        # whole-suite report must record the failure, not crash.
        from repro.viz.report import generate_report

        text = generate_report(
            scale="quick", experiment_ids=["thm10_growth"], engine="batch"
        )
        assert "not run:" in text and "FAIL" in text

    def test_pr3_experiments_keep_engine_defaults(self):
        # protocol_baselines and fault_tolerance ran on the batch engine
        # before they took sweep; an unrequested engine still resolves
        # there, and their notes name the engine that ran.
        for experiment_id in ("protocol_baselines", "fault_tolerance"):
            spec = get_spec(experiment_id)
            default = spec.run(scale="quick", seed=0)
            scalar = spec.run(scale="quick", seed=0, engine="scalar")
            assert "batch engine" in default.notes[-1], experiment_id
            assert "scalar engine" in scalar.notes[-1], experiment_id


class TestFaultToleranceUnderStopping:
    def test_crash_column_divides_by_the_trials_run(self):
        # A rule that stops every point at 2 of its 3 planned trials: the
        # mean crashed agents averages the two trials that ran.
        from repro.experiments import fault_tolerance
        from repro.simulation.sweep import run_sweep

        rule = StoppingRule(min_trials=2, max_trials=2)
        swept = []

        def sweep(plan):
            points = run_sweep(plan, engine="auto", stopping=rule)
            swept.extend(zip(plan, points))
            return points

        result = fault_tolerance.run("quick", 0, sweep)
        planned = []
        for row, (point, executed) in zip(result.rows, swept):
            crashed = sum(r.extras["crashed"] for r in executed.results)
            assert executed.n_trials == 2 < point.n_trials
            assert row[3] == round(crashed / 2, 0)
            planned.append(round(crashed / point.n_trials, 0))
        # The planned count would understate the mean at the crash rates.
        assert planned != [row[3] for row in result.rows]
