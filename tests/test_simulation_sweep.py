"""Sweep scheduler: seed-for-seed parity, dedup, observers, fan-out."""

import sys
import types

import numpy as np
import pytest

import repro.simulation.sweep as sweep_mod
from repro.simulation.config import FloodingConfig, standard_config
from repro.simulation.metrics import InformedRecorder
from repro.simulation.sweep import SweepPlan, SweepPoint, run_sweep

BASE = standard_config(140, radius_factor=1.1, max_steps=600, seed=5)


def fingerprint(results):
    """The full observable outcome of a trial list."""
    return [
        (
            r.flooding_time,
            r.completed,
            r.stalled,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
            r.cz_completion_time,
            r.suburb_completion_time,
            r.source_in_central_zone,
        )
        for r in results
    ]


def small_plan():
    plan = SweepPlan()
    plan.add(BASE, 3, key="base")
    plan.add(BASE.with_options(radius=BASE.radius * 1.5), 2, key="wide")
    plan.add(BASE.with_options(seed=11), 4, key="reseeded")
    return plan


class TestPlan:
    def test_add_returns_point(self):
        plan = SweepPlan()
        point = plan.add(BASE, 2, key="k")
        assert isinstance(point, SweepPoint)
        assert len(plan) == 1 and list(plan)[0].key == "k"

    def test_over_parameter_keys_by_value(self):
        plan = SweepPlan.over_parameter(BASE, "radius", [2.0, 3.0], n_trials=2)
        assert [p.key for p in plan] == [2.0, 3.0]
        assert [p.config.radius for p in plan] == [2.0, 3.0]

    def test_tuple_points(self):
        plan = SweepPlan([(BASE, 2), (BASE, 1, "labelled")])
        assert [p.key for p in plan] == [None, "labelled"]

    @pytest.mark.parametrize("n_trials", [0, -1, True, False, 2.5, 2.0, "2", None])
    def test_rejects_bad_trials(self, n_trials):
        with pytest.raises(ValueError, match="n_trials"):
            SweepPoint(BASE, n_trials)

    def test_accepts_numpy_integer_trials(self):
        assert SweepPoint(BASE, np.int64(2)).n_trials == 2

    def test_rejects_non_config(self):
        with pytest.raises(TypeError):
            SweepPoint("not a config", 1)

    def test_rejects_non_callable_factory(self):
        with pytest.raises(TypeError):
            SweepPoint(BASE, 1, observer_factory="not callable")


class TestParityAgainstHandLoop:
    """The acceptance gate: scheduling == hand-looping run_flooding."""

    @pytest.mark.parametrize("engine", ["scalar", "batch", "auto"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bit_identical_per_point(self, engine, jobs, hand_loop):
        points = run_sweep(small_plan(), engine=engine, jobs=jobs)
        assert [p.key for p in points] == ["base", "wide", "reseeded"]
        for point, source in zip(points, small_plan().points):
            expected = hand_loop(source.config.with_options(engine=engine), source.n_trials)
            assert fingerprint(point.results) == fingerprint(expected), (engine, jobs, point.key)
            assert point.n_trials == source.n_trials == len(point.results)
            assert point.engine in ("scalar", "batch")

    def test_engine_none_keeps_config_engine(self, hand_loop):
        config = BASE.with_options(engine="batch")
        (point,) = run_sweep([SweepPoint(config, 2)])
        assert point.engine == "batch"
        assert fingerprint(point.results) == fingerprint(hand_loop(config, 2))

    def test_batch_size_slicing_is_invisible(self):
        reference = run_sweep(small_plan(), engine="batch")
        sliced = run_sweep(small_plan(), engine="batch", batch_size=1)
        for a, b in zip(reference, sliced):
            assert fingerprint(a.results) == fingerprint(b.results)

    def test_over_parameter_plan_matches_hand_loop(self, hand_loop):
        points = run_sweep(SweepPlan.over_parameter(BASE, "radius", [2.5, 3.5], n_trials=2))
        assert [point.key for point in points] == [2.5, 3.5]
        for point in points:
            expected = hand_loop(BASE.with_options(radius=point.key), 2)
            assert fingerprint(point.results) == fingerprint(expected)
            assert point.summary.n_trials == 2


class TestModuleBinding:
    def test_import_as_binds_the_module(self):
        # `import a.b.c as m` reads the package attribute, so a public name
        # `sweep` in repro.simulation would shadow the submodule.
        import repro.simulation.sweep as bound

        assert isinstance(bound, types.ModuleType)
        assert bound is sys.modules["repro.simulation.sweep"]


class TestDedup:
    def test_duplicate_configs_execute_once(self, monkeypatch):
        calls = []
        original = sweep_mod._run_sweep_job

        def counting(args):
            calls.append(args)
            return original(args)

        monkeypatch.setattr(sweep_mod, "_run_sweep_job", counting)
        plan = SweepPlan()
        plan.add(BASE, 3, key="a")
        plan.add(BASE, 2, key="b")  # same config, fewer trials
        points = run_sweep(plan, engine="batch")
        # One deduplicated batch job serves both points.
        assert len(calls) == 1
        assert fingerprint(points[1].results) == fingerprint(points[0].results)[:2]

    def test_prefix_matches_standalone_run(self, hand_loop):
        plan = SweepPlan()
        plan.add(BASE, 2, key="short")
        plan.add(BASE, 4, key="long")
        short, long = run_sweep(plan, engine="scalar")
        assert fingerprint(short.results) == fingerprint(hand_loop(BASE, 2))
        assert fingerprint(long.results) == fingerprint(hand_loop(BASE, 4))


class TestPointResult:
    def test_completion_fractions(self):
        # A horizon of 1 step cannot complete flooding at this scale.
        hopeless = BASE.with_options(max_steps=1)
        done, not_done = run_sweep([SweepPoint(BASE, 2, "ok"), SweepPoint(hopeless, 2, "no")])
        assert done.completed_fraction == 1.0 and done.finite_fraction == 1.0
        assert done.completion_label == "2/2"
        assert not_done.completed_fraction == 0.0 and not_done.finite_fraction == 0.0
        assert not_done.completion_label == "0/2"
        assert np.isnan(not_done.masked_mean())
        assert np.isfinite(done.masked_mean())

    def test_masked_mean_threshold(self):
        (point,) = run_sweep([SweepPoint(BASE, 2)])
        assert point.masked_mean(min_finite_fraction=1.0) == point.summary.mean

    def test_empty_plan(self):
        assert run_sweep(SweepPlan()) == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"jobs": True},
            {"jobs": 2.0},
            {"batch_size": -3},
            {"batch_size": False},
            {"batch_size": 2.5},
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"max_retries": True},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v!r}" for k, v in kwargs.items()),
    )
    def test_rejects_bad_jobs(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            run_sweep(small_plan(), **kwargs)

    def test_accepts_numpy_integer_knobs(self):
        (point,) = run_sweep(
            [SweepPoint(BASE, 2)],
            jobs=np.int64(1),
            batch_size=np.int64(0),
            trial_budget=np.int64(4),
            max_retries=np.int64(0),
        )
        assert point.n_trials == 2


def _recorder_factory(config):
    """Top-level so worker processes can pickle it."""
    return [InformedRecorder()]


class TestObservers:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_observers_returned_per_trial(self, jobs):
        plan = SweepPlan()
        plan.add(BASE, 2, key="obs", observer_factory=_recorder_factory)
        (point,) = run_sweep(plan, engine="auto", jobs=jobs)
        assert point.engine == "scalar"  # observers force the scalar engine
        recorders = point.observers()
        assert len(recorders) == 2
        for recorder, result in zip(recorders, point.results):
            assert recorder.informed_history().tolist() == result.informed_history.tolist()

    def test_observer_results_match_plain_runs(self, hand_loop):
        plan = SweepPlan()
        plan.add(BASE, 2, observer_factory=_recorder_factory)
        (point,) = run_sweep(plan, engine="auto")
        expected = hand_loop(BASE.with_options(engine="scalar"), 2)
        assert fingerprint(point.results) == fingerprint(expected)

    def test_explicit_batch_engine_rejected(self):
        plan = SweepPlan()
        plan.add(BASE, 1, key="obs", observer_factory=_recorder_factory)
        with pytest.raises(ValueError, match="scalar"):
            run_sweep(plan, engine="batch")

    def test_plain_runs_carry_no_observers(self):
        (point,) = run_sweep([SweepPoint(BASE, 1)])
        assert "observers" not in point.results[0].extras


class TestInitValidation:
    """The build_model init bugfix: unknown inits fail loudly, uniformly."""

    def test_unknown_init_rejected_at_construction(self):
        for mobility in ("mrwp", "mrwp-pause", "rwp"):
            with pytest.raises(ValueError, match="init"):
                FloodingConfig(
                    n=50, side=7.0, radius=2.0, speed=0.5, mobility=mobility, init="warp"
                )

    def test_valid_inits_accepted(self):
        for init in ("stationary", "closed-form", "uniform"):
            config = BASE.with_options(init=init)
            assert config.init == init

    def test_closed_form_is_mrwp_only(self):
        from repro.simulation.runner import build_model

        config = BASE.with_options(init="closed-form")
        assert build_model(config, np.random.default_rng(0)).n == BASE.n
        for mobility in ("rwp", "mrwp-pause"):
            narrow = config.with_options(mobility=mobility)
            with pytest.raises(ValueError, match="init"):
                build_model(narrow, np.random.default_rng(0))

    def test_uniform_init_not_coerced_for_pause(self):
        # Pre-fix, mrwp-pause silently coerced anything unknown to
        # "stationary"; "uniform" must reach the model untouched.
        from repro.simulation.runner import build_model

        config = BASE.with_options(mobility="mrwp-pause", init="uniform")
        model = build_model(config, np.random.default_rng(0))
        assert model.n == BASE.n
