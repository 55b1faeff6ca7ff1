"""Tests of the perfect-simulation samplers (the heart of the reproduction).

The two independent constructions (Palm trip sampler and closed-form
sampler) must each match Theorems 1-2 and must match each other.
"""

import numpy as np
import pytest

from repro.analysis.empirical import ks_critical_value, ks_statistic
from repro.analysis.validation import (
    destination_cross_errors,
    destination_quadrant_errors,
    spatial_distribution_tv,
)
from repro.geometry.points import in_square
from repro.mobility.distributions import spatial_marginal_cdf
from repro.mobility.stationary import (
    ClosedFormStationarySampler,
    KinematicState,
    PalmStationarySampler,
    sample_destination_given_position,
    sample_stationary_positions,
)

SIDE = 10.0
N = 40_000


@pytest.fixture(params=["palm", "closed"])
def sampler(request):
    if request.param == "palm":
        return PalmStationarySampler(SIDE)
    return ClosedFormStationarySampler(SIDE)


class TestKinematicState:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            KinematicState(
                np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((3, 2)), np.zeros(3, dtype=bool)
            )
        with pytest.raises(ValueError):
            KinematicState(
                np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(4, dtype=bool)
            )

    def test_copy_is_deep(self, rng):
        state = PalmStationarySampler(SIDE).sample(10, rng)
        clone = state.copy()
        clone.positions[0] = [99.0, 99.0]
        assert state.positions[0, 0] != 99.0


class TestSamplerValidity:
    def test_state_in_square(self, sampler, rng):
        state = sampler.sample(5000, rng)
        assert state.n == 5000
        assert in_square(state.positions, SIDE, tol=1e-9).all()
        assert in_square(state.destinations, SIDE, tol=1e-9).all()
        assert in_square(state.targets, SIDE, tol=1e-9).all()

    def test_target_consistency(self, sampler, rng):
        """Second-leg targets equal destinations; first-leg targets share a
        coordinate with both position and destination (Manhattan corner)."""
        state = sampler.sample(5000, rng)
        second = state.on_second_leg
        assert np.allclose(state.targets[second], state.destinations[second])
        first = ~second
        corner = state.targets[first]
        pos = state.positions[first]
        dest = state.destinations[first]
        shares_pos = np.isclose(corner[:, 0], pos[:, 0]) | np.isclose(corner[:, 1], pos[:, 1])
        shares_dest = np.isclose(corner[:, 0], dest[:, 0]) | np.isclose(corner[:, 1], dest[:, 1])
        assert shares_pos.all()
        assert shares_dest.all()

    def test_position_on_current_leg(self, sampler, rng):
        """The position lies on the axis-aligned segment toward the target."""
        state = sampler.sample(5000, rng)
        delta = state.targets - state.positions
        aligned = np.isclose(delta[:, 0], 0.0, atol=1e-9) | np.isclose(
            delta[:, 1], 0.0, atol=1e-9
        )
        assert aligned.all()

    def test_second_leg_fraction_is_half(self, sampler, rng):
        """Half the stationary mass is on the second leg (== the cross atoms)."""
        state = sampler.sample(N, rng)
        assert np.mean(state.on_second_leg) == pytest.approx(0.5, abs=0.01)

    def test_invalid_n(self, sampler, rng):
        with pytest.raises(ValueError):
            sampler.sample(0, rng)


class TestAgainstTheorem1:
    def test_tv_distance_small(self, sampler, rng):
        state = sampler.sample(N, rng)
        tv = spatial_distribution_tv(state.positions, SIDE, bins=10)
        # Noise floor for 40k samples on 100 bins is ~0.02.
        assert tv < 0.05

    def test_marginal_ks(self, sampler, rng):
        state = sampler.sample(N, rng)
        for axis in (0, 1):
            stat = ks_statistic(
                state.positions[:, axis], lambda x: spatial_marginal_cdf(x, SIDE)
            )
            assert stat < ks_critical_value(N, alpha=1e-4)

    def test_direct_position_sampler(self, rng):
        positions = sample_stationary_positions(N, SIDE, rng)
        tv = spatial_distribution_tv(positions, SIDE, bins=10)
        assert tv < 0.05


class TestSamplersAgree:
    def test_cross_sampler_agreement(self, rng):
        """Palm and closed-form samplers produce the same position law."""
        palm = PalmStationarySampler(SIDE).sample(N, rng).positions
        closed = ClosedFormStationarySampler(SIDE).sample(N, rng).positions
        bins = 8
        h_palm, _, _ = np.histogram2d(palm[:, 0], palm[:, 1], bins=bins, range=[[0, SIDE]] * 2)
        h_closed, _, _ = np.histogram2d(
            closed[:, 0], closed[:, 1], bins=bins, range=[[0, SIDE]] * 2
        )
        p = h_palm.ravel() / h_palm.sum()
        q = h_closed.ravel() / h_closed.sum()
        assert 0.5 * np.abs(p - q).sum() < 0.03

    def test_second_leg_destination_on_cross(self, rng):
        """Palm second-leg destinations share a coordinate with the position
        (they sit on the cross — the bridge between the two constructions)."""
        state = PalmStationarySampler(SIDE).sample(10_000, rng)
        second = state.on_second_leg
        pos = state.positions[second]
        dest = state.destinations[second]
        on_cross = np.isclose(pos[:, 0], dest[:, 0]) | np.isclose(pos[:, 1], dest[:, 1])
        assert on_cross.all()


class TestDestinationConditional:
    def test_against_theorem2_at_position(self, rng):
        position = np.array([SIDE / 3, SIDE / 4])
        positions = np.tile(position, (N, 1))
        destinations, on_cross = sample_destination_given_position(positions, SIDE, rng)
        quad = destination_quadrant_errors(position, destinations, SIDE)
        cross = destination_cross_errors(position, destinations, SIDE)
        assert quad["max_error"] < 4.0 / np.sqrt(N)
        assert cross["max_error"] < 4.0 / np.sqrt(N)
        assert cross["total_empirical"] == pytest.approx(0.5, abs=0.01)
        assert np.mean(on_cross) == pytest.approx(0.5, abs=0.01)

    def test_destinations_in_square(self, rng):
        positions = sample_stationary_positions(2000, SIDE, rng)
        destinations, _ = sample_destination_given_position(positions, SIDE, rng)
        assert in_square(destinations, SIDE, tol=1e-9).all()

    def test_cross_destinations_beyond_position(self, rng):
        """On-cross destinations lie strictly along one axis of the position."""
        positions = sample_stationary_positions(5000, SIDE, rng)
        destinations, on_cross = sample_destination_given_position(positions, SIDE, rng)
        pos = positions[on_cross]
        dest = destinations[on_cross]
        aligned = np.isclose(pos[:, 0], dest[:, 0]) | np.isclose(pos[:, 1], dest[:, 1])
        assert aligned.all()
