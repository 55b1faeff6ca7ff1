"""Tests of the pause-time MRWP variant and its mixed stationary law."""

import numpy as np
import pytest

import mobility_oracles
from repro.analysis.empirical import (
    analytic_cell_probabilities,
    histogram_density,
    total_variation,
)
from repro.geometry.points import in_square
from repro.mobility.pause import (
    BatchManhattanRandomWaypointWithPause,
    ManhattanRandomWaypointWithPause,
    moving_probability,
    spatial_pdf_with_pause,
)
from repro.mobility.distributions import spatial_pdf

SIDE = 20.0


class TestMovingProbability:
    def test_no_pause_always_moving(self):
        assert moving_probability(SIDE, 1.0, 0.0) == 1.0

    def test_formula(self):
        speed, pause = 0.5, 10.0
        trip_time = (2 * SIDE / 3) / speed
        assert moving_probability(SIDE, speed, pause) == pytest.approx(
            trip_time / (trip_time + pause)
        )

    def test_long_pause_mostly_parked(self):
        assert moving_probability(SIDE, 1.0, 1e6) < 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            moving_probability(SIDE, 0.0, 1.0)
        with pytest.raises(ValueError):
            moving_probability(SIDE, 1.0, -1.0)


class TestMixedPdf:
    def test_zero_pause_reduces_to_theorem1(self):
        x = np.linspace(0.1, SIDE - 0.1, 20)
        assert np.allclose(
            spatial_pdf_with_pause(x, x, SIDE, 1.0, 0.0), spatial_pdf(x, x, SIDE)
        )

    def test_infinite_pause_limit_is_uniform(self):
        value = spatial_pdf_with_pause(3.0, 7.0, SIDE, 1.0, 1e9)
        assert float(value) == pytest.approx(1.0 / SIDE**2, rel=1e-3)

    def test_integrates_to_one(self):
        grid = np.linspace(0, SIDE, 201)
        centers = 0.5 * (grid[:-1] + grid[1:])
        xg, yg = np.meshgrid(centers, centers, indexing="ij")
        h = grid[1] - grid[0]
        total = np.sum(spatial_pdf_with_pause(xg, yg, SIDE, 0.5, 7.0)) * h * h
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_corners_not_empty_under_pause(self):
        """Pausing adds uniform mass: corners are no longer density-zero."""
        assert spatial_pdf_with_pause(0.0, 0.0, SIDE, 1.0, 10.0) > 0.0
        assert spatial_pdf(0.0, 0.0, SIDE) == 0.0


class TestPauseModel:
    def test_stays_in_square(self):
        model = ManhattanRandomWaypointWithPause(
            200, SIDE, 0.5, pause_time=3.0, rng=np.random.default_rng(0)
        )
        for _ in range(30):
            assert in_square(model.step(), SIDE, tol=1e-9).all()

    def test_initial_moving_fraction(self):
        speed, pause = 0.5, 15.0
        model = ManhattanRandomWaypointWithPause(
            30_000, SIDE, speed, pause_time=pause, rng=np.random.default_rng(1)
        )
        expected = moving_probability(SIDE, speed, pause)
        assert model.moving_fraction == pytest.approx(expected, abs=0.01)

    def test_moving_fraction_stays_stationary(self):
        speed, pause = 0.5, 10.0
        model = ManhattanRandomWaypointWithPause(
            20_000, SIDE, speed, pause_time=pause, rng=np.random.default_rng(2)
        )
        model.advance(20)
        expected = moving_probability(SIDE, speed, pause)
        assert model.moving_fraction == pytest.approx(expected, abs=0.02)

    def test_paused_agents_do_not_move(self):
        model = ManhattanRandomWaypointWithPause(
            500, SIDE, 0.5, pause_time=50.0, rng=np.random.default_rng(3)
        )
        paused_before = model.paused_mask
        before = model.positions
        after = model.step()
        still_paused = paused_before & model.paused_mask
        assert np.allclose(before[still_paused], after[still_paused])

    def test_zero_pause_behaves_like_mrwp_statistically(self):
        """pause_time=0: the spatial law stays Theorem 1 under stepping."""
        model = ManhattanRandomWaypointWithPause(
            20_000, SIDE, 0.4, pause_time=0.0, rng=np.random.default_rng(4)
        )
        model.advance(15)
        bins = 8
        empirical = histogram_density(model.positions, SIDE, bins) * (SIDE / bins) ** 2
        analytic = analytic_cell_probabilities(
            lambda x, y: spatial_pdf(x, y, SIDE), SIDE, bins
        )
        assert total_variation(empirical, analytic) < 0.05

    @pytest.mark.slow
    def test_mixture_law_under_stepping(self):
        speed, pause = 0.4, 12.0
        model = ManhattanRandomWaypointWithPause(
            30_000, SIDE, speed, pause_time=pause, rng=np.random.default_rng(5)
        )
        model.advance(15)
        bins = 8
        empirical = histogram_density(model.positions, SIDE, bins) * (SIDE / bins) ** 2
        analytic = analytic_cell_probabilities(
            lambda x, y: spatial_pdf_with_pause(x, y, SIDE, speed, pause), SIDE, bins
        )
        assert total_variation(empirical, analytic) < 0.04

    def test_validation(self):
        with pytest.raises(ValueError):
            ManhattanRandomWaypointWithPause(10, SIDE, 0.5, pause_time=-1.0)
        with pytest.raises(ValueError):
            ManhattanRandomWaypointWithPause(10, SIDE, 0.0, pause_time=1.0)
        with pytest.raises(ValueError):
            ManhattanRandomWaypointWithPause(10, SIDE, 0.5, pause_time=1.0, init="warp")
        model = ManhattanRandomWaypointWithPause(
            10, SIDE, 0.5, pause_time=1.0, rng=np.random.default_rng(6)
        )
        with pytest.raises(ValueError):
            model.step(0.0)

    def test_uniform_init(self):
        model = ManhattanRandomWaypointWithPause(
            100, SIDE, 0.5, pause_time=2.0, rng=np.random.default_rng(7), init="uniform"
        )
        assert model.moving_fraction == 1.0  # cold start: everyone mid-trip


class TestOracleParity:
    """The view and a 3-replica batch model follow the historical scalar
    model of ``tests/mobility_oracles.py``, pause state included."""

    SEEDS = (5, 6, 7)

    @pytest.mark.parametrize("init", ["stationary", "uniform"])
    @pytest.mark.parametrize("pause", [0.0, 2.5])
    def test_view_and_batch_follow_the_oracle(self, init, pause):
        oracles = [
            mobility_oracles.ManhattanRandomWaypointWithPause(
                80, SIDE, 0.9, pause_time=pause, rng=np.random.default_rng(s), init=init
            )
            for s in self.SEEDS
        ]
        view = ManhattanRandomWaypointWithPause(
            80, SIDE, 0.9, pause_time=pause, rng=np.random.default_rng(self.SEEDS[0]),
            init=init,
        )
        batch = BatchManhattanRandomWaypointWithPause(
            80, SIDE, 0.9, [np.random.default_rng(s) for s in self.SEEDS],
            pause_time=pause, init=init,
        )
        for _ in range(12):
            expected = np.stack([m.step() for m in oracles])
            assert np.array_equal(view.step(), expected[0])
            assert np.array_equal(batch.step(), expected)
            assert np.array_equal(view.paused_mask, oracles[0].paused_mask)
            assert np.array_equal(batch.paused_mask, np.stack([m.paused_mask for m in oracles]))
            assert type(view.moving_fraction) is float
            assert view.moving_fraction == oracles[0].moving_fraction
            assert batch.moving_fraction == pytest.approx(
                [m.moving_fraction for m in oracles], abs=1e-12
            )
        assert view.pause_time == oracles[0].pause_time == pause

