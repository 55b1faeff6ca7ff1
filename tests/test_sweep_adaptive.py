"""Adaptive sequential stopping: rule properties, prefix exactness, budget.

Property-tests the :class:`StoppingRule` (deterministic stop trial at a
fixed seed, never below the minimum, monotone in the CI target) and the
scheduler's core adaptive guarantees: adaptive results are **bit-exact
prefixes** of the fixed-budget run, identical across engines and ``jobs``,
and a fixed-budget plan reproduces the hand-looped trials exactly.  The
trial-budget reallocation (TOPSIS) and the masked-mean
behaviour under adaptive stopping round out the suite.
"""

import math

import numpy as np
import pytest

from repro.experiments.registry import all_ids, get_spec
from repro.simulation.config import standard_config
from repro.simulation.parallel import _child_states, _child_states_range
from repro.simulation.results import summarize
from repro.simulation.runner import run_trials
from repro.simulation.sweep import (
    StoppingRule,
    SweepPlan,
    SweepPoint,
    _reallocation_scores,
    _topsis,
    run_sweep,
)

BASE = standard_config(140, radius_factor=1.1, max_steps=600, seed=5)

#: The experiments that take a stopping rule: every runner that takes ``sweep``.
SWEEP_EXPERIMENTS = [eid for eid in all_ids() if "stopping" in get_spec(eid).options]


def fingerprint(results):
    return [
        (
            r.flooding_time,
            r.completed,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
        )
        for r in results
    ]


class TestRuleValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch", True),
            ("batch", 1.5),
            ("batch", 2.0),
            ("min_trials", True),
            ("min_trials", 2.5),
            ("max_trials", False),
            ("max_trials", 4.0),
        ],
    )
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            StoppingRule(**{field: value})

    def test_accepts_numpy_integer_counts(self):
        rule = StoppingRule(batch=np.int64(3), min_trials=np.int32(2), max_trials=np.int64(6))
        assert rule.bounds(10) == (2, 6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StoppingRule(ci_width=0.0)
        with pytest.raises(ValueError):
            StoppingRule(ci_width=-0.1)
        with pytest.raises(ValueError):
            StoppingRule(batch=0)
        with pytest.raises(ValueError):
            StoppingRule(min_trials=0)
        with pytest.raises(ValueError):
            StoppingRule(max_trials=0)
        with pytest.raises(ValueError):
            StoppingRule(min_trials=5, max_trials=3)
        with pytest.raises(ValueError):
            StoppingRule(confidence=1.0)
        # summarize() tables only 0.90, 0.95 and 0.99; any other level
        # would stop on an interval other than the one requested.
        with pytest.raises(ValueError, match="confidence must be one of"):
            StoppingRule(confidence=0.8)

    def test_accepts_tabled_confidence(self):
        for confidence in (0.90, 0.95, 0.99):
            assert StoppingRule(confidence=confidence).confidence == confidence

    def test_point_rejects_non_rule(self):
        with pytest.raises(TypeError):
            SweepPoint(BASE, 2, stopping="adaptive")

    def test_run_sweep_rejects_non_rule(self):
        with pytest.raises(TypeError):
            run_sweep([SweepPoint(BASE, 2)], stopping="adaptive")

    def test_bounds_default_to_fixed_budget(self):
        rule = StoppingRule()
        assert rule.bounds(6) == (2, 6)
        assert rule.bounds(1) == (1, 1)  # min(2, n) never exceeds the budget
        assert StoppingRule(min_trials=3).bounds(6) == (3, 6)
        assert StoppingRule(max_trials=4).bounds(6) == (2, 4)
        # Explicit bounds beyond the budget are honored (opt-in growth).
        assert StoppingRule(max_trials=50).bounds(6) == (2, 50)


class TestShouldStop:
    def test_never_below_minimum(self):
        rule = StoppingRule(ci_width=1e6)  # absurdly loose: stop ASAP
        assert not rule.should_stop(summarize([5.0]), lo=2, hi=10)
        assert rule.should_stop(summarize([5.0, 5.0]), lo=2, hi=10)

    def test_always_stops_at_cap(self):
        rule = StoppingRule(ci_width=1e-12)  # unreachable target
        values = [3.0, 9.0, 4.0, 8.0, 5.0]
        assert rule.should_stop(summarize(values), lo=2, hi=5)

    def test_keeps_sampling_without_two_finite_trials(self):
        rule = StoppingRule(ci_width=1e6)
        inf = float("inf")
        assert not rule.should_stop(summarize([inf, inf]), lo=2, hi=10)
        assert not rule.should_stop(summarize([5.0, inf]), lo=2, hi=10)

    def test_relative_width_criterion(self):
        # 0.95 CI half-width of [4, 6] is ~1.96 -> relative ~0.39.
        summary = summarize([4.0, 6.0])
        half = (summary.ci_high - summary.ci_low) / 2.0
        relative = half / summary.mean
        assert StoppingRule(ci_width=relative * 1.01).should_stop(summary, 2, 10)
        assert not StoppingRule(ci_width=relative * 0.99).should_stop(summary, 2, 10)


class TestTrialsUntilStop:
    """The rule as a pure function of a value stream — the property surface."""

    STREAMS = [
        [5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0],       # zero variance
        [4.0, 6.0, 5.0, 5.0, 4.5, 5.5, 5.0, 5.0],       # shrinking CI
        [1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0],        # high variance
        [float("inf"), 5.0, 6.0, 5.0, 4.0, 5.0, 6.0, 5.0],  # a timeout
    ]

    @pytest.mark.parametrize("values", STREAMS)
    def test_deterministic(self, values):
        rule = StoppingRule(ci_width=0.25, batch=1)
        assert rule.trials_until_stop(values) == rule.trials_until_stop(values)

    @pytest.mark.parametrize("values", STREAMS)
    def test_never_below_minimum_never_above_cap(self, values):
        for min_trials in (1, 3, 5):
            rule = StoppingRule(ci_width=0.25, batch=1, min_trials=min_trials)
            stop = rule.trials_until_stop(values)
            assert min_trials <= stop <= len(values)

    @pytest.mark.parametrize("values", STREAMS)
    def test_monotone_in_target_width(self, values):
        """A looser CI target never stops later."""
        stops = [
            StoppingRule(ci_width=w, batch=1).trials_until_stop(values)
            for w in (0.05, 0.1, 0.25, 0.5, 1.0)
        ]
        assert stops == sorted(stops, reverse=True)

    def test_batch_granularity(self):
        # With batch=3 the stop count lands on min + k*batch (or the cap).
        values = [4.0, 6.0, 5.0, 5.0, 4.5, 5.5, 5.0, 5.0, 5.0]
        rule = StoppingRule(ci_width=0.2, batch=3, min_trials=2)
        stop = rule.trials_until_stop(values)
        assert stop == 2 or (stop - 2) % 3 == 0 or stop == len(values)

    def test_needs_enough_values(self):
        with pytest.raises(ValueError, match="at least"):
            StoppingRule().trials_until_stop([5.0], n_trials=4)


class TestSeedSchedulePrefix:
    """The construction that makes resume/adaptive bit-exact."""

    @pytest.mark.parametrize("start", [0, 1, 3, 5])
    def test_ranged_states_are_suffixes_of_the_full_schedule(self, start):
        full = _child_states(BASE, 8)
        assert _child_states_range(BASE, start, 8) == full[start:]

    def test_schedule_independent_of_total(self):
        assert _child_states(BASE, 3) == _child_states(BASE, 8)[:3]


class TestAdaptiveIsAPrefix:
    """Adaptive results == a prefix of the fixed-budget run, always."""

    @pytest.mark.parametrize("engine", ["scalar", "batch", "auto"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_prefix_across_engines_and_jobs(self, engine, jobs, hand_loop):
        rule = StoppingRule(ci_width=0.5, batch=1)
        (point,) = run_sweep(
            [SweepPoint(BASE, 6)], engine=engine, jobs=jobs, stopping=rule
        )
        fixed = hand_loop(BASE.with_options(engine=engine), 6)
        assert point.n_trials <= 6
        assert fingerprint(point.results) == fingerprint(fixed)[: point.n_trials]
        assert point.summary.n_trials == point.n_trials

    def test_stop_trial_deterministic_across_engines(self):
        rule = StoppingRule(ci_width=0.5, batch=1)
        counts = {
            engine: run_sweep([SweepPoint(BASE, 6)], engine=engine, stopping=rule)[0].n_trials
            for engine in ("scalar", "batch", "auto")
        }
        assert len(set(counts.values())) == 1, counts

    def test_per_point_rule_overrides_sweep_rule(self):
        # Zero-variance points satisfy any ci_width, so force the cap
        # through min_trials instead.
        tight = StoppingRule(ci_width=1e-12, batch=1, min_trials=5)
        loose = StoppingRule(ci_width=1e6, batch=1)  # stops at the minimum
        plan = SweepPlan()
        plan.add(BASE, 5, key="tight", stopping=tight)
        plan.add(BASE.with_options(seed=11), 5, key="inherits")
        tight_point, loose_point = run_sweep(plan, stopping=loose)
        assert tight_point.n_trials == 5
        assert loose_point.n_trials == 2

    def test_run_trials_stopping_delegates(self, hand_loop):
        rule = StoppingRule(ci_width=0.5, batch=1)
        adaptive = run_trials(BASE, 6, stopping=rule)
        fixed = hand_loop(BASE, 6)
        assert len(adaptive) < 6
        assert fingerprint(adaptive) == fingerprint(fixed)[: len(adaptive)]

    def test_fixed_budget_mode_is_unchanged(self, hand_loop):
        """No rule anywhere: the scheduler runs one round and reproduces
        the hand-looped trials exactly."""
        plan = SweepPlan()
        plan.add(BASE, 3, key="a")
        plan.add(BASE.with_options(seed=11), 4, key="b")
        for point, source in zip(run_sweep(plan), plan):
            assert fingerprint(point.results) == fingerprint(
                hand_loop(source.config, source.n_trials)
            )
            assert point.n_trials == source.n_trials

    def test_adaptive_saves_trials_when_converged(self):
        # Zero-variance flooding times at this scale: the rule fires at
        # the 2-trial minimum instead of burning the full budget.
        rule = StoppingRule(ci_width=0.5, batch=1)
        (point,) = run_sweep([SweepPoint(BASE, 6)], stopping=rule)
        assert point.n_trials < 6


class TestTrialBudget:
    def test_minimums_always_funded(self):
        # Budget below the summed minimums: every point still reaches its
        # floor (a stopping rule can't be evaluated below it).
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=2)
        plan = SweepPlan()
        plan.add(BASE, 5, key="a")
        plan.add(BASE.with_options(seed=11), 5, key="b")
        points = run_sweep(plan, stopping=rule, trial_budget=1)
        assert [p.n_trials for p in points] == [2, 2]

    def test_budget_caps_total(self):
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=2)
        plan = SweepPlan()
        plan.add(BASE, 10, key="a")
        plan.add(BASE.with_options(seed=11), 10, key="b")
        points = run_sweep(plan, stopping=rule, trial_budget=7)
        assert sum(p.n_trials for p in points) == 7

    def test_budget_allocation_deterministic(self):
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=2)
        plan = SweepPlan()
        for k, seed in enumerate((5, 11, 17)):
            plan.add(BASE.with_options(seed=seed), 8, key=k)
        a = run_sweep(plan, stopping=rule, trial_budget=15)
        b = run_sweep(plan, stopping=rule, trial_budget=15)
        assert [p.n_trials for p in a] == [p.n_trials for p in b]
        assert [fingerprint(p.results) for p in a] == [fingerprint(p.results) for p in b]

    def test_budget_points_are_prefixes(self, hand_loop):
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=2)
        plan = SweepPlan()
        plan.add(BASE, 8, key="a")
        plan.add(BASE.with_options(seed=11), 8, key="b")
        for point, source in zip(run_sweep(plan, stopping=rule, trial_budget=9), plan):
            fixed = hand_loop(source.config, 8)
            assert fingerprint(point.results) == fingerprint(fixed)[: point.n_trials]

    @pytest.mark.parametrize("budget", [0, True, 2.5, 4.0])
    def test_rejects_bad_budget(self, budget):
        with pytest.raises(ValueError, match="trial_budget"):
            run_sweep([SweepPoint(BASE, 2)], trial_budget=budget)


class TestTopsis:
    def test_scores_in_unit_interval(self):
        matrix = [[0.9, 0.5, 10.0], [0.1, 0.0, 100.0], [0.5, 0.3, 50.0]]
        scores = _topsis(np.asarray(matrix), benefit=(True, True, False))
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_dominating_candidate_wins(self):
        # Row 0 is better on every criterion (high need, high deficit,
        # low cost) -> highest closeness score.
        matrix = [[1.0, 1.0, 1.0], [0.2, 0.1, 50.0], [0.5, 0.5, 25.0]]
        scores = _topsis(np.asarray(matrix), benefit=(True, True, False))
        assert scores[0] == scores.max()
        assert scores[1] == scores.min()

    def test_identical_candidates_tie(self):
        scores = _topsis(np.asarray([[0.5, 0.5, 5.0]] * 3), benefit=(True, True, False))
        assert np.allclose(scores, scores[0])

    def test_reallocation_prefers_uncertain_groups(self):
        flat = run_trials(BASE, 4)  # zero-variance flooding times
        noisy = list(flat)
        spread = run_trials(BASE.with_options(seed=11), 4)
        groups = [
            {"results": flat},
            {"results": spread},
        ]
        scores = _reallocation_scores(groups)
        flat_summary = summarize(r.flooding_time for r in flat)
        spread_summary = summarize(r.flooding_time for r in spread)
        if flat_summary.std < spread_summary.std:
            assert scores[1] >= scores[0]

    def test_no_trusted_ci_means_maximal_need(self):
        hopeless = BASE.with_options(max_steps=1)
        nothing_finished = run_trials(hopeless, 2)
        converged = run_trials(BASE, 4)
        scores = _reallocation_scores(
            [{"results": nothing_finished}, {"results": converged}]
        )
        assert scores[0] > scores[1]


class TestMaskedMeanUnderAdaptive:
    """Satellite: no NaN leakage into tables in low-completion regimes."""

    def test_zero_finite_point_stays_masked(self):
        hopeless = BASE.with_options(max_steps=1)
        rule = StoppingRule(ci_width=0.5, batch=1)
        (point,) = run_sweep([SweepPoint(hopeless, 4)], stopping=rule)
        # Infinite values never produce a trusted CI: the rule runs the
        # point to its cap rather than stopping on garbage.
        assert point.n_trials == 4
        assert point.summary.n_finite == 0
        assert math.isnan(point.masked_mean())
        assert point.completion_label == "0/4"
        assert point.finite_fraction == 0.0

    def test_completion_label_reflects_adaptive_count(self):
        rule = StoppingRule(ci_width=0.5, batch=1)
        (point,) = run_sweep([SweepPoint(BASE, 6)], stopping=rule)
        assert point.completion_label == f"{point.summary.n_finite}/{point.n_trials}"

    def test_rendered_table_has_no_nan(self):
        from repro.viz.tables import format_table

        hopeless = BASE.with_options(max_steps=1)
        rule = StoppingRule(ci_width=0.5, batch=1)
        points = run_sweep(
            [SweepPoint(BASE, 3, "ok"), SweepPoint(hopeless, 3, "masked")],
            stopping=rule,
        )
        rows = []
        for point in points:
            mean = point.masked_mean()
            rows.append(
                [
                    point.key,
                    round(mean, 1) if math.isfinite(mean) else "masked",
                    point.completion_label,
                ]
            )
        text = format_table(["key", "mean", "completed"], rows)
        assert "nan" not in text.lower()
        assert "masked" in text


class TestExperimentAdaptiveArm:
    """The adaptive acceptance path: unchanged verdict, fewer trials."""

    @pytest.mark.parametrize("experiment_id", SWEEP_EXPERIMENTS)
    def test_adaptive_verdict_and_note(self, experiment_id):
        from repro.experiments.registry import run_experiment

        fixed = run_experiment(experiment_id, scale="quick", seed=0)
        adaptive = run_experiment(
            experiment_id, scale="quick", seed=0,
            stopping=StoppingRule(ci_width=0.15, min_trials=2),
        )
        assert adaptive.passed == fixed.passed
        note = adaptive.notes[-1]
        executed, budget = (
            int(note.split()[2]), int(note.split()[5])
        )
        assert note.startswith("adaptive stopping: ") and executed <= budget
        # The fixed run carries no adaptive note.
        assert not any("adaptive stopping" in n for n in fixed.notes)

    def test_non_scheduler_experiment_refuses_stopping(self):
        from repro.experiments.registry import run_experiment

        with pytest.raises(ValueError, match="adaptive|stopping"):
            run_experiment("lemma6_rows", stopping=StoppingRule())

    def test_run_all_hands_each_option_to_the_experiments_that_take_it(self):
        # The suite loop: a closed-form experiment runs without the
        # options, a flooding one takes them all, and one that still
        # refuses (batch engine on an observer point) yields a failed
        # result instead of ending the suite.
        from repro.experiments.registry import run_all

        with pytest.raises(TypeError):
            run_all(chekpoint="ck")  # a misspelt option is never dropped
        results = run_all(
            engine="batch", jobs=2, stopping=StoppingRule(ci_width=0.15, min_trials=2),
            experiment_ids=["lemma6_rows", "thm3_radius", "thm10_growth"],
        )
        closed_form, flooding, observer = results
        assert closed_form.passed is True
        assert not any("adaptive stopping" in n for n in closed_form.notes)
        assert flooding.notes[-1].startswith("adaptive stopping: ")
        assert observer.passed is False and observer.rows == []
        assert observer.notes == [
            "not run: point 'growth' attaches observers, which require the scalar "
            "engine; use engine='auto' or 'scalar' for observer points"
        ]
