"""Tests of the random-speed MRWP variant and the speed-decay phenomenon."""

import numpy as np
import pytest

import mobility_oracles
from repro.analysis.validation import spatial_distribution_tv
from repro.geometry.points import in_square
from repro.mobility.speed_range import (
    BatchRandomSpeedManhattanWaypoint,
    RandomSpeedManhattanWaypoint,
    cold_start_speed_decay,
    sample_stationary_speeds,
    stationary_mean_speed,
)

SIDE = 20.0


class TestStationarySpeedLaw:
    def test_mean_formula(self):
        v = stationary_mean_speed(1.0, np.e)  # ln(e) = 1
        assert v == pytest.approx(np.e - 1.0)

    def test_degenerate_range(self):
        assert stationary_mean_speed(2.0, 2.0) == 2.0

    def test_below_uniform_mean(self):
        assert stationary_mean_speed(0.5, 2.0) < (0.5 + 2.0) / 2

    def test_sampler_matches_one_over_v(self, rng):
        speeds = sample_stationary_speeds(200_000, 0.5, 2.0, rng)
        assert speeds.min() >= 0.5
        assert speeds.max() <= 2.0
        assert speeds.mean() == pytest.approx(stationary_mean_speed(0.5, 2.0), rel=0.01)
        # Median of the 1/v law: geometric mean of the endpoints.
        assert np.median(speeds) == pytest.approx(np.sqrt(0.5 * 2.0), rel=0.01)

    def test_vmin_zero_rejected(self, rng):
        with pytest.raises(ValueError):
            stationary_mean_speed(0.0, 1.0)
        with pytest.raises(ValueError):
            sample_stationary_speeds(10, 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            RandomSpeedManhattanWaypoint(10, SIDE, 0.0, 1.0)


class TestModel:
    def test_stays_in_square(self):
        model = RandomSpeedManhattanWaypoint(
            200, SIDE, 0.2, 1.0, rng=np.random.default_rng(0)
        )
        for _ in range(30):
            assert in_square(model.step(), SIDE, tol=1e-9).all()

    def test_displacement_within_trip_speed(self):
        model = RandomSpeedManhattanWaypoint(
            300, SIDE, 0.2, 1.0, rng=np.random.default_rng(1)
        )
        before = model.positions
        speeds = model.trip_speeds
        after = model.step()
        manhattan = np.abs(after - before).sum(axis=1)
        # Each agent moves at most its own trip speed (new trips may draw a
        # different speed mid-step — bounded by v_max).
        assert np.all(manhattan <= np.maximum(speeds, 1.0) + 1e-9)

    def test_spatial_law_still_theorem1(self):
        """Speed randomization leaves the spatial stationary law unchanged."""
        model = RandomSpeedManhattanWaypoint(
            25_000, SIDE, 0.1, 1.0, rng=np.random.default_rng(2)
        )
        model.advance(20)
        assert spatial_distribution_tv(model.positions, SIDE, bins=8) < 0.04

    def test_stationary_mean_speed_preserved(self):
        """Perfect-simulation start: the time-average speed stays at the
        harmonic-style mean under stepping (no transient)."""
        model = RandomSpeedManhattanWaypoint(
            30_000, SIDE, 0.2, 2.0, rng=np.random.default_rng(3)
        )
        expected = stationary_mean_speed(0.2, 2.0)
        assert model.mean_current_speed == pytest.approx(expected, rel=0.02)
        model.advance(25)
        assert model.mean_current_speed == pytest.approx(expected, rel=0.02)

    def test_invalid_init(self):
        with pytest.raises(ValueError):
            RandomSpeedManhattanWaypoint(10, SIDE, 0.5, 1.0, init="hot")


class TestSpeedDecay:
    def test_cold_start_decays_toward_stationary(self):
        report = cold_start_speed_decay(
            20_000, SIDE, 0.05, 1.0, steps=250, rng=np.random.default_rng(4), every=50
        )
        series = report["mean_speed"]
        assert series[0] == pytest.approx(report["uniform_mean"], rel=0.02)
        # Decay is monotone-ish and clearly below the starting value.
        assert series[-1] < series[0]
        # Converging toward (not past) the stationary mean.
        assert series[-1] > report["stationary_mean"] * 0.9
        gap0 = series[0] - report["stationary_mean"]
        gap_end = series[-1] - report["stationary_mean"]
        assert gap_end < 0.5 * gap0

    def test_report_structure(self):
        report = cold_start_speed_decay(
            500, SIDE, 0.5, 1.0, steps=10, rng=np.random.default_rng(5), every=5
        )
        assert report["steps"][0] == 0
        assert report["steps"][-1] == 10
        assert report["mean_speed"].shape == report["steps"].shape


class TestOracleParity:
    """The view and a 3-replica batch model follow the historical scalar
    model of ``tests/mobility_oracles.py``, trip speeds included."""

    SEEDS = (5, 6, 7)

    @pytest.mark.parametrize("init", ["stationary", "uniform"])
    def test_view_and_batch_follow_the_oracle(self, init):
        oracles = [
            mobility_oracles.RandomSpeedManhattanWaypoint(
                80, SIDE, 0.3, 2.5, rng=np.random.default_rng(s), init=init
            )
            for s in self.SEEDS
        ]
        view = RandomSpeedManhattanWaypoint(
            80, SIDE, 0.3, 2.5, rng=np.random.default_rng(self.SEEDS[0]), init=init
        )
        batch = BatchRandomSpeedManhattanWaypoint(
            80, SIDE, 0.3, 2.5, [np.random.default_rng(s) for s in self.SEEDS], init=init
        )
        assert view.speed == oracles[0].speed == batch.speed
        for _ in range(12):
            expected = np.stack([m.step() for m in oracles])
            assert np.array_equal(view.step(), expected[0])
            assert np.array_equal(batch.step(), expected)
            assert np.array_equal(view.trip_speeds, oracles[0].trip_speeds)
            assert np.array_equal(batch.trip_speeds, np.stack([m.trip_speeds for m in oracles]))
            assert type(view.mean_current_speed) is float
            assert view.mean_current_speed == oracles[0].mean_current_speed

