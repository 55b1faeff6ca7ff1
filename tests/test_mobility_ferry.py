"""Tests of ferry-patrol mobility and model composition."""

import numpy as np
import pytest

import mobility_oracles
from repro.geometry.points import in_square
from repro.mobility.ferry import (
    CompositeMobility,
    FerryPatrol,
    batch_composite_with_ferries,
    composite_with_ferries,
    rectangle_route,
)
from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.mobility.random_walk import RandomWalk

SIDE = 10.0


class TestRectangleRoute:
    def test_route_shape(self):
        route = rectangle_route(SIDE, 1.0)
        assert route.shape == (4, 2)
        assert route.min() == pytest.approx(1.0)
        assert route.max() == pytest.approx(SIDE - 1.0)

    def test_invalid_inset(self):
        with pytest.raises(ValueError):
            rectangle_route(SIDE, SIDE)


class TestFerryPatrol:
    def test_positions_on_route(self):
        route = rectangle_route(SIDE, 2.0)
        ferry = FerryPatrol(3, SIDE, speed=0.5, route=route)
        for _ in range(50):
            positions = ferry.step()
            # Every ferry sits on the rectangle's perimeter.
            on_edge = (
                np.isclose(positions[:, 0], 2.0)
                | np.isclose(positions[:, 0], SIDE - 2.0)
                | np.isclose(positions[:, 1], 2.0)
                | np.isclose(positions[:, 1], SIDE - 2.0)
            )
            assert on_edge.all()

    def test_even_spacing_preserved(self):
        route = rectangle_route(SIDE, 1.0)
        ferry = FerryPatrol(4, SIDE, speed=0.7, route=route)
        length = ferry.route_length
        for _ in range(20):
            ferry.step()
        arcs = np.sort(np.mod(ferry._arc, length))
        gaps = np.diff(np.concatenate([arcs, [arcs[0] + length]]))
        assert np.allclose(gaps, length / 4)

    def test_loop_closure(self):
        """After travelling exactly one loop, a ferry returns to its start."""
        route = rectangle_route(SIDE, 1.0)
        ferry = FerryPatrol(1, SIDE, speed=1.0, route=route)
        start = ferry.positions.copy()
        steps = int(round(ferry.route_length))
        for _ in range(steps):
            ferry.step()
        assert np.allclose(ferry.positions, start, atol=1e-9)

    def test_deterministic(self):
        route = rectangle_route(SIDE, 1.0)
        a = FerryPatrol(2, SIDE, speed=0.3, route=route)
        b = FerryPatrol(2, SIDE, speed=0.3, route=route)
        for _ in range(10):
            assert np.allclose(a.step(), b.step())

    def test_invalid_route(self):
        with pytest.raises(ValueError):
            FerryPatrol(1, SIDE, 1.0, route=np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            FerryPatrol(1, SIDE, 1.0, route=np.array([[1.0, 1.0], [SIDE + 1, 1.0]]))
        with pytest.raises(ValueError):
            FerryPatrol(1, SIDE, 1.0, route=np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_duplicate_waypoints_anywhere_in_route(self):
        # A consecutive duplicate mid-route is a zero-length segment too.
        with pytest.raises(ValueError, match="zero-length"):
            FerryPatrol(
                1, SIDE, 1.0,
                route=np.array([[1.0, 1.0], [5.0, 1.0], [5.0, 1.0], [1.0, 5.0]]),
            )
        # An implied closing segment of length zero (last point == first).
        with pytest.raises(ValueError, match="zero-length"):
            FerryPatrol(
                1, SIDE, 1.0,
                route=np.array([[1.0, 1.0], [5.0, 1.0], [1.0, 1.0]]),
            )

    def test_waypoint_on_boundary_is_valid(self):
        # The square is closed: way-points may sit exactly on the walls
        # (inset 0 is the boundary patrol).
        route = np.array([[0.0, 0.0], [SIDE, 0.0], [SIDE, SIDE], [0.0, SIDE]])
        ferry = FerryPatrol(2, SIDE, 1.0, route=route)
        positions = ferry.step()
        assert in_square(positions, SIDE).all()


class TestCompositeMobility:
    def test_concatenates_populations(self, rng):
        walk = RandomWalk(30, SIDE, 0.5, rng=rng)
        ferry = FerryPatrol(2, SIDE, 0.5, route=rectangle_route(SIDE, 1.0))
        combo = CompositeMobility([walk, ferry])
        assert combo.n == 32
        assert combo.positions.shape == (32, 2)

    def test_step_advances_all(self, rng):
        walk = RandomWalk(10, SIDE, 0.5, rng=rng)
        ferry = FerryPatrol(1, SIDE, 0.5, route=rectangle_route(SIDE, 1.0))
        combo = CompositeMobility([walk, ferry])
        before = combo.positions
        after = combo.step()
        assert not np.allclose(before, after)
        assert in_square(after, SIDE).all()

    def test_block_slices(self, rng):
        walk = RandomWalk(10, SIDE, 0.5, rng=rng)
        ferry = FerryPatrol(3, SIDE, 0.5, route=rectangle_route(SIDE, 1.0))
        combo = CompositeMobility([walk, ferry])
        slices = combo.block_slices()
        assert slices[0] == slice(0, 10)
        assert slices[1] == slice(10, 13)

    def test_side_mismatch_rejected(self, rng):
        walk = RandomWalk(10, SIDE, 0.5, rng=rng)
        other = RandomWalk(10, SIDE + 1, 0.5, rng=rng)
        with pytest.raises(ValueError):
            CompositeMobility([walk, other])

    def test_side_mismatch_tolerance(self, rng):
        # Float noise below the 1e-9 documented tolerance composes; above
        # it is rejected.
        walk = RandomWalk(4, SIDE, 0.5, rng=rng)
        near = RandomWalk(4, SIDE + 0.5e-9, 0.5, rng=rng)
        combo = CompositeMobility([walk, near])
        assert combo.n == 8
        beyond = RandomWalk(4, SIDE + 1e-8, 0.5, rng=rng)
        with pytest.raises(ValueError, match="side"):
            CompositeMobility([walk, beyond])

    def test_single_model_composition(self, rng):
        walk = RandomWalk(7, SIDE, 0.5, rng=rng)
        combo = CompositeMobility([walk])
        assert combo.n == 7
        assert combo.block_slices() == [slice(0, 7)]
        assert np.array_equal(combo.positions, walk.positions)
        combo.step()
        assert np.array_equal(combo.positions, walk.positions)

    def test_block_slices_under_nested_composites(self, rng):
        inner = CompositeMobility(
            [
                RandomWalk(5, SIDE, 0.5, rng=rng),
                FerryPatrol(2, SIDE, 0.5, route=rectangle_route(SIDE, 1.0)),
            ]
        )
        outer = CompositeMobility([inner, RandomWalk(3, SIDE, 0.5, rng=rng)])
        # The outer composition sees the inner composite as one 7-agent
        # block; the inner split is still available on the inner model.
        assert outer.n == 10
        assert outer.block_slices() == [slice(0, 7), slice(7, 10)]
        assert inner.block_slices() == [slice(0, 5), slice(5, 7)]
        after = outer.step()
        assert after.shape == (10, 2)
        assert in_square(after, SIDE).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeMobility([])


class TestOracleParity:
    """Ferries and compositions follow the historical scalar models of
    ``tests/mobility_oracles.py``; a composite's members stay live views."""

    @pytest.mark.parametrize("jitter", [0.0, 0.5])
    def test_ferry_follows_the_oracle(self, jitter):
        route = np.array([[1.0, 1.0], [8.0, 2.0], [4.0, 7.0]])
        oracle = mobility_oracles.FerryPatrol(
            4, SIDE, 0.7, route=route, rng=np.random.default_rng(2), jitter=jitter
        )
        view = FerryPatrol(4, SIDE, 0.7, route=route, rng=np.random.default_rng(2), jitter=jitter)
        assert np.array_equal(view.route, oracle.route)
        assert view.route_length == oracle.route_length
        for dt in (1.0, 0.37, 2.5) * 20:
            assert np.array_equal(view.step(dt), oracle.step(dt))
        assert np.array_equal(view._arc, oracle._arc)

    def test_nested_composite_follows_the_oracle(self):
        def build(walk, ferry, composite, mrwp):
            inner = composite(
                [
                    walk(5, SIDE, 0.5, rng=np.random.default_rng(1)),
                    ferry(2, SIDE, 0.5, route=rectangle_route(SIDE, 1.0)),
                ]
            )
            background = mrwp(6, SIDE, 0.5, rng=np.random.default_rng(2))
            return inner, background, composite([inner, background])

        o = mobility_oracles
        _, _, oracle = build(
            o.RandomWalk, o.FerryPatrol, o.CompositeMobility, o.ManhattanRandomWaypoint
        )
        inner, background, view = build(
            RandomWalk, FerryPatrol, CompositeMobility, ManhattanRandomWaypoint
        )
        assert view.block_slices() == oracle.block_slices()
        assert [type(m) for m in view.models] == [CompositeMobility, ManhattanRandomWaypoint]
        for _ in range(15):
            assert np.array_equal(view.step(), oracle.step())
            # The members read the twins the composite steps.
            assert np.array_equal(inner.positions, view.positions[:7])
            assert np.array_equal(background.positions, view.positions[7:])
            assert background.time == inner.time == view.time
        assert np.array_equal(background.turn_counts, oracle.models[1].turn_counts)

    @pytest.mark.parametrize("init", ["stationary", "uniform"])
    def test_registered_composite_follows_the_oracle(self, init):
        seeds = (3, 4)
        oracles = [
            mobility_oracles.composite_with_ferries(
                30, SIDE, 0.6, rng=np.random.default_rng(s), ferries=3, init=init
            )
            for s in seeds
        ]
        view = composite_with_ferries(
            30, SIDE, 0.6, rng=np.random.default_rng(seeds[0]), ferries=3, init=init
        )
        batch = batch_composite_with_ferries(
            30, SIDE, 0.6, [np.random.default_rng(s) for s in seeds], ferries=3, init=init
        )
        assert view.block_slices() == oracles[0].block_slices() == [slice(0, 27), slice(27, 30)]
        for _ in range(15):
            expected = np.stack([m.step() for m in oracles])
            assert np.array_equal(batch.step(), expected)
            assert np.array_equal(view.step(), expected[0])

