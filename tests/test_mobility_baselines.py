"""Tests of the baseline mobility models (RWP, random walk, random direction)."""

import numpy as np
import pytest

import mobility_oracles
from repro.geometry.points import in_square
from repro.mobility.random_direction import BatchRandomDirection, RandomDirection
from repro.mobility.random_walk import BatchRandomWalk, RandomWalk
from repro.mobility.rwp import BatchRandomWaypoint, RandomWaypoint

SIDE = 10.0


class TestRandomWaypoint:
    def test_stays_in_square(self, rng):
        model = RandomWaypoint(100, SIDE, 0.5, rng=rng)
        for _ in range(40):
            assert in_square(model.step(), SIDE, tol=1e-9).all()

    def test_displacement_bounded_by_speed(self, rng):
        model = RandomWaypoint(200, SIDE, 0.3, rng=rng)
        prev = model.positions
        for _ in range(20):
            cur = model.step()
            assert np.all(np.sqrt(((cur - prev) ** 2).sum(1)) <= 0.3 + 1e-9)
            prev = cur

    def test_straight_line_motion(self, rng):
        """Between arrivals, three consecutive positions are collinear."""
        model = RandomWaypoint(100, SIDE, 0.05, rng=rng)  # slow: rare arrivals
        p0 = model.positions
        p1 = model.step()
        p2 = model.step()
        v1 = p1 - p0
        v2 = p2 - p1
        cross = np.abs(v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
        # Nearly all agents did not arrive in 2 slow steps.
        assert np.mean(cross < 1e-9) > 0.9

    def test_stationary_init_center_biased(self, rng):
        """RWP's stationary law is denser at the center than uniform."""
        model = RandomWaypoint(50_000, SIDE, 0.5, rng=rng, init="stationary")
        positions = model.positions
        center = np.all(np.abs(positions - SIDE / 2) < SIDE / 4, axis=1)
        # Center quarter-area square holds 25% under uniform, more under RWP.
        assert center.mean() > 0.30

    def test_pause_time(self, rng):
        model = RandomWaypoint(50, SIDE, 1.0, rng=rng, pause_time=1000.0, init="uniform")
        # Drive every agent to its destination; afterwards all are paused.
        for _ in range(50):
            model.step()
        paused_before = model.positions
        model.step()
        # Agents that have arrived sit still during their pause.
        still = np.isclose(model.positions, paused_before).all(axis=1)
        assert still.mean() > 0.5

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            RandomWaypoint(10, SIDE, 0.5, rng=rng, pause_time=-1.0)
        with pytest.raises(ValueError):
            RandomWaypoint(10, SIDE, 0.5, rng=rng, init="bogus")
        with pytest.raises(ValueError):
            RandomWaypoint(10, SIDE, 0.5, rng=rng).step(-1.0)

    def test_arrival_counts_grow(self, rng):
        model = RandomWaypoint(100, SIDE, 5.0, rng=rng)
        model.advance(30)
        assert model.arrival_counts.sum() > 0


class TestRandomWalk:
    def test_stays_in_square(self, rng):
        model = RandomWalk(200, SIDE, move_radius=1.0, rng=rng)
        for _ in range(30):
            assert in_square(model.step(), SIDE, tol=1e-9).all()

    def test_jump_bounded(self, rng):
        model = RandomWalk(300, SIDE, move_radius=0.7, rng=rng)
        prev = model.positions
        cur = model.step()
        # A single reflection preserves displacement <= 2 * move_radius.
        assert np.all(np.sqrt(((cur - prev) ** 2).sum(1)) <= 2 * 0.7 + 1e-9)

    def test_stationary_is_uniform(self, rng):
        """Reflected disk-jump walk keeps the uniform law (refs [10, 11])."""
        model = RandomWalk(50_000, SIDE, move_radius=1.5, rng=rng)
        model.advance(20)
        positions = model.positions
        # Corner boxes hold their fair share (contrast with MRWP's empty corners).
        corner = np.all(positions < SIDE / 10, axis=1)
        assert corner.mean() == pytest.approx(0.01, abs=0.003)

    def test_clip_boundary_mode(self, rng):
        model = RandomWalk(100, SIDE, move_radius=1.0, rng=rng, boundary="clip")
        for _ in range(20):
            assert in_square(model.step(), SIDE).all()

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            RandomWalk(10, SIDE, move_radius=0.0, rng=rng)
        with pytest.raises(ValueError):
            RandomWalk(10, SIDE, move_radius=SIDE + 1, rng=rng)
        with pytest.raises(ValueError):
            RandomWalk(10, SIDE, move_radius=1.0, rng=rng, boundary="wrap")


class TestRandomDirection:
    def test_stays_in_square(self, rng):
        model = RandomDirection(200, SIDE, 0.8, rng=rng)
        for _ in range(40):
            assert in_square(model.step(), SIDE, tol=1e-9).all()

    def test_constant_speed_between_reflections(self, rng):
        model = RandomDirection(300, SIDE, 0.4, rng=rng, mean_leg=100.0)
        prev = model.positions
        cur = model.step()
        disp = np.sqrt(((cur - prev) ** 2).sum(1))
        # No reflection and no redraw -> displacement exactly v.
        interior = np.all((prev > 0.5) & (prev < SIDE - 0.5), axis=1)
        assert np.allclose(disp[interior], 0.4, atol=1e-9)

    def test_stationary_is_uniform(self, rng):
        model = RandomDirection(50_000, SIDE, 1.0, rng=rng)
        model.advance(20)
        corner = np.all(model.positions < SIDE / 10, axis=1)
        assert corner.mean() == pytest.approx(0.01, abs=0.003)

    def test_speed_above_side(self, rng):
        """Multiple reflections per step are folded correctly."""
        model = RandomDirection(50, SIDE, 3.5 * SIDE, rng=rng)
        for _ in range(10):
            assert in_square(model.step(), SIDE, tol=1e-9).all()

    def test_invalid_mean_leg(self, rng):
        with pytest.raises(ValueError):
            RandomDirection(10, SIDE, 1.0, rng=rng, mean_leg=0.0)


#: (view, batch model, third positional argument, options) per case.
ORACLE_CASES = {
    "rwp": (RandomWaypoint, BatchRandomWaypoint, 0.7, {}),
    "rwp-pause-uniform": (
        RandomWaypoint, BatchRandomWaypoint, 0.7, {"pause_time": 1.5, "init": "uniform"}
    ),
    "random-walk": (RandomWalk, BatchRandomWalk, 0.7, {}),
    "random-walk-clip": (RandomWalk, BatchRandomWalk, 0.7, {"boundary": "clip"}),
    "random-direction": (RandomDirection, BatchRandomDirection, 0.7, {"mean_leg": 2.0}),
    "random-direction-fast": (RandomDirection, BatchRandomDirection, 3.5 * SIDE, {}),
}


class TestOracleParity:
    """The views and 3-replica batch models follow the historical scalar
    models of ``tests/mobility_oracles.py``, also while batch replicas are
    frozen."""

    SEEDS = (5, 6, 7)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_view_and_batch_follow_the_oracle(self, case):
        view_cls, batch_cls, arg, options = ORACLE_CASES[case]
        oracle_cls = getattr(mobility_oracles, view_cls.__name__)
        oracles = [
            oracle_cls(60, SIDE, arg, rng=np.random.default_rng(s), **options)
            for s in self.SEEDS
        ]
        view = view_cls(60, SIDE, arg, rng=np.random.default_rng(self.SEEDS[0]), **options)
        batch = batch_cls(60, SIDE, arg, [np.random.default_rng(s) for s in self.SEEDS], **options)
        actives = [np.ones(3, dtype=bool)] * 6 + [np.array([True, False, True])] * 4
        for active in actives:
            expected = [m.step() if a else m.positions for m, a in zip(oracles, active)]
            assert np.array_equal(batch.step(active=active), np.stack(expected))
            assert np.array_equal(view.step(), expected[0])
        for attribute in ("arrival_counts", "destinations"):
            if hasattr(oracles[0], attribute):
                assert np.array_equal(getattr(view, attribute), getattr(oracles[0], attribute))

