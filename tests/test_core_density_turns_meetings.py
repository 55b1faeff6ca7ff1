"""Tests of the density condition, turn statistics, and meeting machinery."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.cells import CellGrid
from repro.core.density import DensityCondition, core_occupancy_of_central_cells
from repro.core.meetings import first_meeting_times_from_zone, meeting_radius
from repro.core.turns import (
    count_turns_in_window,
    longest_inward_run,
    longest_inward_runs_from_frames,
    max_turns_in_window,
)
from repro.core.zones import ZonePartition
from repro.mobility.base import record_trajectory
from repro.mobility.mrwp import ManhattanRandomWaypoint

SIDE = 40.0
N = 2000


def make_zone_setup(radius=6.0, threshold_factor=0.375):
    grid = CellGrid.for_radius(SIDE, radius)
    zones = ZonePartition(grid, N, threshold_factor=threshold_factor)
    return grid, zones


class TestDensityCondition:
    def test_core_occupancy_shape(self, rng):
        grid, zones = make_zone_setup()
        positions = rng.uniform(0, SIDE, (N, 2))
        occ = core_occupancy_of_central_cells(grid, zones, positions)
        assert occ.shape == (zones.n_central_cells,)

    def test_check_with_zero_required(self, rng):
        grid, zones = make_zone_setup()
        condition = DensityCondition(grid, zones, eta=1e-9)
        # Even the emptiest core trivially satisfies eta ~ 0... unless it is
        # exactly empty; place a full uniform cloud so cores are populated.
        positions = rng.uniform(0, SIDE, (50_000, 2))
        assert condition.check(positions)

    def test_min_core_occupancy_counts(self):
        grid, zones = make_zone_setup()
        # Put one agent in the core of every CZ cell.
        ids = zones.central_cell_ids()
        ix, iy = ids // grid.m, ids % grid.m
        centers = grid.cell_center(ix, iy)
        condition = DensityCondition(grid, zones)
        assert condition.min_core_occupancy(centers) == 1

    def test_monitor_series_length(self):
        grid, zones = make_zone_setup()
        model = ManhattanRandomWaypoint(N, SIDE, 0.5, rng=np.random.default_rng(0))
        condition = DensityCondition(grid, zones)
        report = condition.monitor(model, steps=5)
        assert report["min_occupancy"].shape == (6,)
        assert 0.0 <= report["holds_fraction"] <= 1.0

    def test_invalid_eta(self):
        grid, zones = make_zone_setup()
        with pytest.raises(ValueError):
            DensityCondition(grid, zones, eta=0.0)


class TestTurns:
    def test_count_turns_window(self):
        model = ManhattanRandomWaypoint(100, SIDE, 2.0, rng=np.random.default_rng(1))
        counts = count_turns_in_window(model, 20)
        assert counts.shape == (100,)
        assert np.all(counts >= 0)
        assert counts.sum() > 0

    def test_max_turns_consistent(self):
        model = ManhattanRandomWaypoint(100, SIDE, 2.0, rng=np.random.default_rng(2))
        state = model.get_state()
        counts_model = ManhattanRandomWaypoint(
            100, SIDE, 2.0, rng=np.random.default_rng(2), init=state
        )
        assert max_turns_in_window(counts_model, 10) >= 0

    def test_turn_rate_matches_trip_length(self):
        """Turns per step ~ 2 direction changes per trip of mean length 2L/3
        => rate ~ 2 v / (2L/3) = 3v/L."""
        model = ManhattanRandomWaypoint(5000, SIDE, 1.0, rng=np.random.default_rng(3))
        steps = 200
        counts = count_turns_in_window(model, steps)
        rate = counts.mean() / steps
        assert rate == pytest.approx(3.0 / SIDE, rel=0.15)

    def test_inward_run_synthetic(self):
        """Hand-built SW-corner trajectory: east 3 units, then north 2."""
        traj = np.array(
            [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [4.0, 1.0], [4.0, 2.0], [4.0, 3.0]]
        )
        assert longest_inward_run(traj, SIDE) == pytest.approx(3.0)

    def test_inward_run_folds_corners(self):
        """Movement toward the center from the NE corner counts as inward."""
        traj = np.array([[39.0, 39.0], [38.0, 39.0], [37.0, 39.0]])
        assert longest_inward_run(traj, SIDE) == pytest.approx(2.0)

    def test_outward_run_not_counted(self):
        traj = np.array([[5.0, 5.0], [4.0, 5.0], [3.0, 5.0]])
        assert longest_inward_run(traj, SIDE) == pytest.approx(0.0)

    def test_frames_vectorized_matches_single(self):
        model = ManhattanRandomWaypoint(20, SIDE, 1.0, rng=np.random.default_rng(4))
        frames = record_trajectory(model, 30)
        bulk = longest_inward_runs_from_frames(frames, SIDE)
        for agent in range(20):
            single = longest_inward_run(frames[:, agent, :], SIDE)
            assert bulk[agent] == pytest.approx(single)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            longest_inward_run(np.zeros((5, 3)), SIDE)
        with pytest.raises(ValueError):
            longest_inward_runs_from_frames(np.zeros((5, 3)), SIDE)


class TestMeetings:
    def test_meeting_radius(self):
        assert meeting_radius(4.0) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            meeting_radius(-1.0)

    def test_meeting_times_basic(self):
        grid, zones = make_zone_setup()
        model = ManhattanRandomWaypoint(N, SIDE, 1.0, rng=np.random.default_rng(5))
        suburb = np.nonzero(zones.in_suburb(model.positions))[0][:20]
        times = first_meeting_times_from_zone(model, zones, radius=6.0, targets=suburb, window=60)
        assert times.shape == (suburb.size,)
        met = np.isfinite(times)
        assert met.mean() > 0.8  # dense-ish setting: nearly everyone is met

    def test_meeting_time_zero_when_adjacent(self):
        """A target already within 3/4 R of a CZ agent meets at step 0."""
        grid, zones = make_zone_setup()
        model = ManhattanRandomWaypoint(N, SIDE, 1.0, rng=np.random.default_rng(6))
        positions = model.positions
        cz_agents = np.nonzero(zones.in_central_zone(positions))[0]
        # Find any agent within 3/4 * R of a CZ agent (not itself).
        target = None
        for candidate in range(N):
            dists = np.linalg.norm(positions[cz_agents] - positions[candidate], axis=1)
            dists = dists[dists > 0]
            if dists.size and dists.min() <= meeting_radius(6.0):
                target = candidate
                break
        assert target is not None
        times = first_meeting_times_from_zone(
            model, zones, radius=6.0, targets=np.array([target]), window=0
        )
        assert times[0] == 0.0

    def test_no_emissaries_never_meets(self):
        """With an empty Central Zone the meeting time is infinite."""
        grid = CellGrid.for_radius(SIDE, 6.0)
        zones = ZonePartition(grid, N, threshold_factor=1e9)  # everything suburb
        model = ManhattanRandomWaypoint(50, SIDE, 1.0, rng=np.random.default_rng(7))
        times = first_meeting_times_from_zone(
            model, zones, radius=6.0, targets=np.arange(5), window=5
        )
        assert np.isinf(times).all()

    def test_window_validation(self):
        grid, zones = make_zone_setup()
        model = ManhattanRandomWaypoint(50, SIDE, 1.0, rng=np.random.default_rng(8))
        with pytest.raises(ValueError):
            first_meeting_times_from_zone(
                model, zones, radius=6.0, targets=np.arange(3), window=-1
            )

    def test_zero_radius_rejected(self):
        """Meetings count through a batch query, which refuses R = 0."""
        grid, zones = make_zone_setup()
        model = ManhattanRandomWaypoint(N, SIDE, 1.0, rng=np.random.default_rng(10))
        suburb = np.nonzero(zones.in_suburb(model.positions))[0][:5]
        with pytest.raises(ValueError, match="radius"):
            first_meeting_times_from_zone(model, zones, radius=0.0, targets=suburb, window=3)

    def test_meeting_times_match_brute_force(self, neighbor_path):
        """First meetings against a full distance scan of the same trajectory:
        emissaries frozen at step 0, ``d <= (3/4) R``, nobody meets itself.
        The radius and window leave some targets met at each of several
        steps and some never met."""
        grid, zones = make_zone_setup(radius=3.0, threshold_factor=0.3)
        window = 8
        model = ManhattanRandomWaypoint(N, SIDE, 1.0, rng=np.random.default_rng(9))
        frames = record_trajectory(
            ManhattanRandomWaypoint(N, SIDE, 1.0, rng=np.random.default_rng(9)), window
        )
        in_cz = zones.in_central_zone(frames[0])
        # Suburb targets, plus Central-Zone targets that are emissaries themselves.
        targets = np.concatenate([np.nonzero(~in_cz)[0][:40], np.nonzero(in_cz)[0][:10]])
        emissaries = np.nonzero(in_cz)[0]
        expected = np.full(targets.size, np.inf)
        for t, positions in enumerate(frames):
            diff = positions[targets][:, None, :] - positions[emissaries][None, :, :]
            near = np.sum(diff * diff, axis=-1) <= meeting_radius(3.0) ** 2
            met = (near & (targets[:, None] != emissaries[None, :])).any(axis=1)
            expected[met & np.isinf(expected)] = t

        times = first_meeting_times_from_zone(
            model, zones, radius=3.0, targets=targets, window=window
        )
        assert np.array_equal(times, expected)
        assert np.isfinite(expected).any() and np.isinf(expected).any()

    def test_emissary_target_does_not_meet_itself(self):
        """A Central-Zone target is met only by a *second* emissary within (3/4) R."""
        grid, zones = make_zone_setup()
        centre = SIDE / 2
        for offset, expected in ((5.0, np.inf), (4.0, 0.0)):
            # A frozen snapshot: with window=0 the model is never stepped.
            positions = np.array([[centre, centre], [centre + offset, centre], [0.5, 0.5]])
            snapshot = SimpleNamespace(n=3, side=SIDE, positions=positions)
            assert zones.in_central_zone(positions).tolist() == [True, True, False]
            times = first_meeting_times_from_zone(
                snapshot, zones, radius=6.0, targets=np.array([0]), window=0
            )
            assert times.tolist() == [expected]
