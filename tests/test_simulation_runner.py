"""Tests of the run/trial/sweep drivers and result containers."""

import math

import numpy as np
import pytest

from repro.core.flooding import select_source
from repro.simulation.config import FloodingConfig, standard_config
from repro.simulation.results import FloodingResult, summarize
from repro.simulation.runner import build_model, build_protocol, run_flooding, run_trials
from repro.simulation.sweep import SweepPlan, run_sweep

QUICK = dict(n=300, side=15.0, radius=2.5, speed=0.5, max_steps=500, seed=1)


class TestSelectSource:
    def test_explicit_index(self, rng):
        positions = rng.uniform(0, 10, (20, 2))
        assert select_source(positions, 10.0, 7, rng) == 7

    def test_explicit_index_out_of_range(self, rng):
        positions = rng.uniform(0, 10, (20, 2))
        with pytest.raises(ValueError):
            select_source(positions, 10.0, 20, rng)

    def test_central_picks_closest_to_center(self, rng):
        positions = np.array([[1.0, 1.0], [5.1, 5.0], [9.0, 2.0]])
        assert select_source(positions, 10.0, "central", rng) == 1

    def test_suburb_picks_closest_to_corner(self, rng):
        positions = np.array([[1.0, 1.0], [5.0, 5.0], [9.9, 9.8]])
        assert select_source(positions, 10.0, "suburb", rng) == 2

    def test_uniform_in_range(self, rng):
        positions = rng.uniform(0, 10, (20, 2))
        assert 0 <= select_source(positions, 10.0, "uniform", rng) < 20

    def test_unknown_mode(self, rng):
        positions = rng.uniform(0, 10, (20, 2))
        with pytest.raises(ValueError):
            select_source(positions, 10.0, "edge", rng)


class TestBuilders:
    def test_build_all_models(self):
        for name in ("mrwp", "mrwp-pause", "rwp", "random-walk", "random-direction"):
            config = FloodingConfig(mobility=name, **QUICK)
            model = build_model(config, np.random.default_rng(0))
            assert model.n == QUICK["n"]

    def test_mobility_options_forwarded(self):
        config = FloodingConfig(
            mobility="mrwp-pause", mobility_options={"pause_time": 5.0}, **QUICK
        )
        model = build_model(config, np.random.default_rng(0))
        assert model.pause_time == 5.0

    def test_flooding_under_pause_mobility(self):
        config = FloodingConfig(
            mobility="mrwp-pause", mobility_options={"pause_time": 3.0}, **QUICK
        )
        result = run_flooding(config)
        assert result.completed

    def test_unknown_model(self):
        config = FloodingConfig(**QUICK)
        object.__setattr__(config, "mobility", "teleport")
        with pytest.raises(ValueError):
            build_model(config, np.random.default_rng(0))

    def test_build_all_protocols(self):
        for name, options in [
            ("flooding", {}),
            ("gossip", {"fanout": 2}),
            ("parsimonious", {"active_window": 3}),
            ("probabilistic", {"p": 0.5}),
            ("sir", {"recovery_prob": 0.1}),
        ]:
            config = FloodingConfig(protocol=name, protocol_options=options, **QUICK)
            protocol = build_protocol(config, 0, np.random.default_rng(0))
            assert protocol.name in (name, "flooding")

    def test_multi_hop_forwarded(self):
        config = FloodingConfig(multi_hop=True, **QUICK)
        protocol = build_protocol(config, 0, np.random.default_rng(0))
        assert protocol.multi_hop


class TestRunFlooding:
    def test_complete_run(self):
        result = run_flooding(FloodingConfig(**QUICK))
        assert result.completed
        assert math.isfinite(result.flooding_time)
        assert result.informed_history[0] == 1
        assert result.informed_history[-1] == QUICK["n"]
        assert result.final_coverage == 1.0

    def test_determinism(self):
        a = run_flooding(FloodingConfig(**QUICK))
        b = run_flooding(FloodingConfig(**QUICK))
        assert a.flooding_time == b.flooding_time
        assert a.source == b.source
        assert np.array_equal(a.informed_history, b.informed_history)

    def test_history_monotone(self):
        result = run_flooding(FloodingConfig(**QUICK))
        assert np.all(np.diff(result.informed_history) >= 0)

    def test_zone_metrics_present(self):
        result = run_flooding(FloodingConfig(**QUICK))
        assert result.cz_completion_time is not None
        assert result.suburb_completion_time is not None
        assert isinstance(result.source_in_central_zone, bool)

    def test_zone_tracking_disabled(self):
        config = FloodingConfig(**QUICK).with_options(track_zones=False)
        result = run_flooding(config)
        assert result.cz_completion_time is None

    def test_horizon_exhaustion(self):
        config = FloodingConfig(**{**QUICK, "max_steps": 1, "radius": 0.9, "n": 500})
        result = run_flooding(config)
        if not result.completed:
            assert math.isinf(result.flooding_time)
            assert result.n_steps == 1

    def test_coverage_helpers(self):
        result = run_flooding(FloodingConfig(**QUICK))
        assert result.coverage_at(0) == pytest.approx(1.0 / QUICK["n"])
        assert result.time_to_coverage(1.0) == result.flooding_time
        assert result.time_to_coverage(0.5) <= result.flooding_time


class TestTrialsAndSweep:
    def test_run_trials_independent_but_reproducible(self):
        config = FloodingConfig(**QUICK)
        first = run_trials(config, 3)
        second = run_trials(config, 3)
        assert [r.flooding_time for r in first] == [r.flooding_time for r in second]
        # Different trials usually differ (different seeds).
        sources = {r.source for r in first}
        assert len(sources) >= 2 or len(first) < 3

    def test_run_trials_validation(self):
        with pytest.raises(ValueError):
            run_trials(FloodingConfig(**QUICK), 0)

    @pytest.mark.parametrize("n_trials", [True, 2.5])
    def test_run_trials_rejects_non_integer_counts(self, n_trials):
        with pytest.raises(ValueError, match="n_trials"):
            run_trials(FloodingConfig(**QUICK), n_trials)

    def test_sweep_structure(self):
        config = FloodingConfig(**QUICK)
        points = run_sweep(SweepPlan.over_parameter(config, "radius", [2.0, 3.0], n_trials=2))
        assert [point.key for point in points] == [2.0, 3.0]
        for point in points:
            assert point.summary.n_trials == 2
            assert len(point.results) == 2

    def test_sweep_radius_monotone_tendency(self):
        config = FloodingConfig(**QUICK)
        narrow, wide = run_sweep(
            SweepPlan.over_parameter(config, "radius", [2.0, 4.0], n_trials=3)
        )
        assert wide.summary.mean <= narrow.summary.mean * 1.3


class TestSummarize:
    def test_basic_stats(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.ci_low < summary.mean < summary.ci_high

    def test_infinities_excluded(self):
        summary = summarize([1.0, math.inf, 3.0])
        assert summary.n_trials == 3
        assert summary.n_finite == 2
        assert summary.mean == pytest.approx(2.0)

    def test_all_infinite(self):
        summary = summarize([math.inf, math.inf])
        assert summary.n_finite == 0
        assert math.isnan(summary.mean)
        assert "no finite" in summary.format()

    def test_format_contains_mean(self):
        text = summarize([2.0, 2.0, 2.0]).format("steps")
        assert "2.0" in text
        assert "steps" in text

    def test_single_value(self):
        summary = summarize([5.0])
        assert summary.std == 0.0
        assert summary.ci_low == summary.ci_high == 5.0

    @pytest.mark.parametrize(
        "values",
        [
            [7.0],
            [3.0, 1.0, 2.0],
            [4.0, 1.0, 3.0, 2.0],
            [2.0, 2.0, 5.0, 5.0],
            [9.0, 9.0, 9.0],
            [0.1, 0.2],
            [3.0, math.inf, 1.0, 2.0, math.inf],
            list(np.random.default_rng(3).normal(size=101)),
            list(np.random.default_rng(4).exponential(size=64)),
        ],
        ids=["single", "odd", "even", "ties", "constant", "rounding", "with-inf",
             "random-odd", "random-even"],
    )
    def test_median_matches_numpy_bit_for_bit(self, values):
        finite = np.asarray(values)[np.isfinite(values)]
        assert summarize(values).median == float(np.median(finite))

    @pytest.mark.parametrize("confidence, z", [(0.90, 1.6449), (0.95, 1.9600), (0.99, 2.5758)])
    def test_tabled_levels_set_the_interval(self, confidence, z):
        values = [1.0, 2.0, 3.0, 4.0]
        summary = summarize(values, confidence=confidence)
        half = z * np.std(values, ddof=1) / math.sqrt(len(values))
        assert summary.ci_high - summary.mean == pytest.approx(half, rel=1e-12)

    @pytest.mark.parametrize("confidence", [0.80, 0.951, 0.5, 1.0, 95])
    def test_untabled_level_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence must be one of"):
            summarize([1.0, 2.0, 3.0, 4.0], confidence=confidence)
        with pytest.raises(ValueError, match="confidence must be one of"):
            summarize([], confidence=confidence)
