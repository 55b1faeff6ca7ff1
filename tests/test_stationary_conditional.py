"""Tests of conditional perfect simulation (sample_at)."""

import numpy as np
import pytest

from repro.analysis.validation import (
    destination_cross_errors,
    destination_quadrant_errors,
)
from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.mobility.stationary import ClosedFormStationarySampler

SIDE = 10.0


class TestSampleAt:
    def test_positions_preserved(self, rng):
        sampler = ClosedFormStationarySampler(SIDE)
        positions = rng.uniform(0, SIDE, (100, 2))
        state = sampler.sample_at(positions, rng)
        assert np.allclose(state.positions, positions)

    def test_destination_law_at_fixed_point(self, rng):
        """Conditioned at one position, destinations follow Theorem 2."""
        sampler = ClosedFormStationarySampler(SIDE)
        point = np.array([SIDE / 3, SIDE / 4])
        positions = np.tile(point, (30_000, 1))
        state = sampler.sample_at(positions, rng)
        quad = destination_quadrant_errors(point, state.destinations, SIDE)
        cross = destination_cross_errors(point, state.destinations, SIDE)
        assert quad["max_error"] < 0.012
        assert cross["max_error"] < 0.012
        assert np.mean(state.on_second_leg) == pytest.approx(0.5, abs=0.015)

    def test_leg_state_consistent(self, rng):
        sampler = ClosedFormStationarySampler(SIDE)
        positions = rng.uniform(0, SIDE, (500, 2))
        state = sampler.sample_at(positions, rng)
        second = state.on_second_leg
        assert np.allclose(state.targets[second], state.destinations[second])
        delta = state.targets - state.positions
        aligned = np.isclose(delta[:, 0], 0, atol=1e-9) | np.isclose(delta[:, 1], 0, atol=1e-9)
        assert aligned.all()

    def test_feeds_model_initialization(self, rng):
        sampler = ClosedFormStationarySampler(SIDE)
        positions = rng.uniform(0, 1.0, (50, 2))  # corner-conditioned
        state = sampler.sample_at(positions, rng)
        model = ManhattanRandomWaypoint(50, SIDE, 0.2, rng=rng, init=state)
        model.step()
        assert model.positions.shape == (50, 2)

    def test_validation(self, rng):
        sampler = ClosedFormStationarySampler(SIDE)
        with pytest.raises(ValueError):
            sampler.sample_at(np.zeros((0, 2)), rng)
        with pytest.raises(ValueError):
            sampler.sample_at(np.zeros((5, 3)), rng)

