"""Timetable mobility: value-object validation, transit dynamics, and the
ferry-refactor regression.

The load-bearing test here is :class:`TestFerryRegression`: ``FerryPatrol``
is now a zero-dwell single-route ``TimetableMobility``, and its positions
must match the pre-refactor arc-length implementation (pinned below as
``_LegacyFerryPatrol``) bit for bit at every step, for every route shape,
fleet size, and step size.
"""

import numpy as np
import pytest

import mobility_oracles
from repro.mobility import (
    BatchTimetableMobility,
    FerryPatrol,
    Timetable,
    TimetableMobility,
    grid_shuttle_timetable,
    loop_timetable,
    rectangle_route,
)

SIDE = 10.0
SPEED = 1.0


class _LegacyFerryPatrol:
    """The pre-PR 9 ``FerryPatrol`` arc-length implementation, verbatim.

    Pinned here so the refactored ferry (timetable zero-dwell fast path)
    is provably bit-exact against the historical trajectories.
    """

    def __init__(self, n, side, speed, route=None, inset=None):
        if route is None:
            route = rectangle_route(side, side / 8.0 if inset is None else inset)
        route = np.asarray(route, dtype=np.float64)
        self.route = route
        segments = np.diff(np.vstack([route, route[:1]]), axis=0)
        self._seg_lengths = np.sqrt(np.sum(segments * segments, axis=1))
        self._cum = np.concatenate([[0.0], np.cumsum(self._seg_lengths)])
        self.route_length = float(self._cum[-1])
        self._arc = (np.arange(n) / n) * self.route_length
        self.speed = speed

    def _positions_at_arc(self, arc):
        arc = np.mod(arc, self.route_length)
        seg = np.clip(
            np.searchsorted(self._cum, arc, side="right") - 1,
            0,
            len(self._seg_lengths) - 1,
        )
        offset = arc - self._cum[seg]
        start = self.route[seg]
        nxt = self.route[(seg + 1) % self.route.shape[0]]
        direction = (nxt - start) / self._seg_lengths[seg][:, None]
        return start + direction * offset[:, None]

    @property
    def positions(self):
        return self._positions_at_arc(self._arc)

    def step(self, dt=1.0):
        self._arc = np.mod(self._arc + self.speed * dt, self.route_length)
        return self.positions


class TestTimetableValidation:
    def test_single_route_accepted_as_bare_array(self):
        tt = Timetable(np.array([[1.0, 1.0], [9.0, 1.0], [5.0, 8.0]]))
        assert tt.n_routes == 1
        assert tt.lengths[0] > 0

    def test_single_route_accepted_as_waypoint_list(self):
        tt = Timetable([[1.0, 1.0], [9.0, 1.0]])
        assert tt.n_routes == 1

    def test_multiple_routes(self):
        tt = Timetable([[[1, 1], [9, 1]], [[1, 2], [9, 2], [5, 8]]], dwell=1.0)
        assert tt.n_routes == 2
        assert [len(d) for d in tt.dwell] == [2, 3]

    def test_bad_route_shapes_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Timetable(np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError, match="shape"):
            Timetable(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]))

    def test_zero_length_segment_rejected(self):
        with pytest.raises(ValueError, match="zero-length"):
            Timetable(np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]))

    def test_empty_routes_rejected(self):
        with pytest.raises(ValueError, match="at least one route"):
            Timetable([])

    def test_dwell_broadcast_and_per_stop(self):
        route = np.array([[1.0, 1.0], [9.0, 1.0], [5.0, 8.0]])
        assert np.array_equal(Timetable([route], dwell=2.0).dwell[0], [2.0, 2.0, 2.0])
        tt = Timetable([route], dwell=[[1.0, 0.0, 3.0]])
        assert np.array_equal(tt.dwell[0], [1.0, 0.0, 3.0])

    def test_bad_dwell_rejected(self):
        route = np.array([[1.0, 1.0], [9.0, 1.0]])
        with pytest.raises(ValueError, match="non-negative"):
            Timetable([route], dwell=-1.0)
        with pytest.raises(ValueError, match="shape"):
            Timetable([route], dwell=[[1.0, 2.0, 3.0]])

    def test_headway_and_capacity_validated(self):
        route = np.array([[1.0, 1.0], [9.0, 1.0]])
        with pytest.raises(ValueError, match="headway"):
            Timetable([route], headway=0.0)
        with pytest.raises(ValueError, match="capacity"):
            Timetable([route], capacity=0)

    def test_zero_dwell_flag_and_period(self):
        route = np.array([[2.0, 5.0], [8.0, 5.0]])  # out-and-back, length 12
        assert Timetable([route]).zero_dwell
        tt = Timetable([route], dwell=2.0)
        assert not tt.zero_dwell
        assert tt.period(1.0) == pytest.approx(12.0 + 4.0)


class TestBuilders:
    def test_loop_timetable_subsumes_rectangle_route(self):
        tt = loop_timetable(SIDE, inset=2.0, dwell=1.5)
        assert np.array_equal(tt.routes[0], rectangle_route(SIDE, 2.0))
        assert np.array_equal(tt.dwell[0], [1.5] * 4)

    def test_loop_timetable_default_inset(self):
        assert np.array_equal(
            loop_timetable(SIDE).routes[0], rectangle_route(SIDE, SIDE / 8.0)
        )

    def test_grid_shuttle_layout(self):
        tt = grid_shuttle_timetable(SIDE, lines=2, inset=1.0)
        assert tt.n_routes == 4  # 2 horizontal + 2 vertical
        for stops in tt.routes:
            assert stops.shape == (2, 2)
            assert np.all(stops >= 1.0) and np.all(stops <= SIDE - 1.0)

    def test_grid_shuttle_single_line_centered(self):
        tt = grid_shuttle_timetable(SIDE, lines=1, inset=1.0)
        assert tt.n_routes == 2
        assert tt.routes[0][0, 1] == pytest.approx(SIDE / 2.0)

    def test_grid_shuttle_validation(self):
        with pytest.raises(ValueError, match="lines"):
            grid_shuttle_timetable(SIDE, lines=0)
        with pytest.raises(ValueError, match="inset"):
            grid_shuttle_timetable(SIDE, inset=SIDE)


class TestVehicleCycles:
    def test_route_outside_square_rejected(self):
        route = np.array([[1.0, 1.0], [SIDE + 1.0, 1.0]])
        with pytest.raises(ValueError, match="inside the square"):
            TimetableMobility(2, SIDE, SPEED, routes=[route])

    def test_rider_bounds_validated(self):
        with pytest.raises(ValueError, match="riders"):
            TimetableMobility(4, SIDE, SPEED, riders=4)
        with pytest.raises(ValueError, match="riders"):
            TimetableMobility(4, SIDE, SPEED, riders=-1)

    def test_dwell_cycle_rests_at_each_stop(self):
        # One vehicle, square loop of perimeter 16, speed 1, dwell 2: the
        # cycle is 4x (4 moving steps + 2 dwelling steps) = period 24.
        tt = loop_timetable(8.0, inset=2.0, dwell=2.0)
        model = TimetableMobility(1, 8.0, 1.0, timetable=tt)
        assert tt.period(1.0) == pytest.approx(24.0)
        start = model.positions
        dwell_steps = 0
        stop_hits = set()
        for _ in range(24):
            model.step(1.0)
            if model.dwelling_mask[0]:
                dwell_steps += 1
                stop_hits.add(tuple(np.round(model.vehicle_positions[0], 9)))
        assert np.allclose(model.positions, start, atol=1e-9)
        assert dwell_steps == 8  # 2 dwell steps at each of the 4 stops
        assert stop_hits == {tuple(p) for p in tt.routes[0]}

    def test_zero_dwell_never_dwells(self):
        model = TimetableMobility(3, SIDE, SPEED, timetable=loop_timetable(SIDE))
        for _ in range(40):
            model.step(1.0)
            assert not model.dwelling_mask.any()

    def test_headway_staggers_vehicles(self):
        tt = loop_timetable(SIDE, inset=2.0, headway=3.0)
        model = TimetableMobility(2, SIDE, SPEED, timetable=tt)
        p = model.vehicle_positions
        # Second vehicle starts headway*speed = 3 arc units behind the first.
        assert not np.allclose(p[0], p[1])
        legacy_gap = np.linalg.norm(p[1] - np.array([2.0 + 3.0, 2.0]))
        assert p[1][1] == pytest.approx(2.0) and legacy_gap == pytest.approx(0.0)

    def test_vehicles_split_across_routes(self):
        tt = grid_shuttle_timetable(SIDE, lines=2, inset=1.0)
        model = TimetableMobility(6, SIDE, SPEED, timetable=tt)
        # 6 vehicles over 4 routes: route-major 2/2/1/1.
        assert model.n_vehicles == 6
        counts = np.bincount(model.batch._engine.veh_route, minlength=4)
        assert counts.tolist() == [2, 2, 1, 1]

    def test_speed_zero_vehicles_stay_put(self):
        model = TimetableMobility(2, SIDE, 0.0, timetable=loop_timetable(SIDE, dwell=1.0))
        start = model.positions
        for _ in range(5):
            model.step(1.0)
        assert np.array_equal(model.positions, start)


class TestRiders:
    def transit(self, seed=0, **overrides):
        kwargs = dict(
            riders=6,
            timetable=Timetable(
                [np.array([[2.0, 5.0], [8.0, 5.0]])], dwell=2.0, capacity=1
            ),
            board_radius=20.0,  # everyone is always in range
        )
        kwargs.update(overrides)
        return TimetableMobility(8, SIDE, SPEED, rng=np.random.default_rng(seed), **kwargs)

    def test_boarding_alighting_and_capacity(self):
        model = self.transit()
        boarded = alighted = False
        prev = model.riding_mask
        for _ in range(200):
            model.step(1.0)
            now = model.riding_mask
            boarded |= bool(np.any(~prev & now))
            alighted |= bool(np.any(prev & ~now))
            # Capacity respected and loads consistent at every step.
            assert model.vehicle_loads.max() <= 1
            assert model.vehicle_loads.sum() == now.sum()
            prev = now
        assert boarded and alighted

    def test_deterministic_tie_break_lowest_agent_id(self):
        # board_radius covers the whole square, so every walking rider is
        # eligible the moment the single vehicle dwells: capacity 1 must go
        # to the lowest agent id.
        model = self.transit(riders=7)
        for _ in range(200):
            model.step(1.0)
            riding = np.nonzero(model.riding_mask)[0]
            if riding.size:
                assert riding.tolist() == [0]
                break
        else:
            pytest.fail("no rider ever boarded")

    def test_riders_track_their_vehicle(self):
        model = self.transit()
        for _ in range(200):
            model.step(1.0)
            riding = np.nonzero(model.riding_mask)[0]
            if riding.size:
                rider_pos = model.positions[riding[0]]
                # r_vehicle holds flat vehicle indices (0..V-1 for B=1).
                vehicle_pos = model.vehicle_positions[model.batch._engine.r_vehicle[riding[0]]]
                assert np.array_equal(rider_pos, vehicle_pos)

    def test_zero_dwell_service_never_boards(self):
        # Ferries never stop, so nobody can board them.
        model = self.transit(
            timetable=Timetable([np.array([[2.0, 5.0], [8.0, 5.0]])], capacity=1)
        )
        for _ in range(100):
            model.step(1.0)
            assert not model.riding_mask.any()

    def test_same_seed_reproducible(self):
        a, b = self.transit(seed=11), self.transit(seed=11)
        for _ in range(60):
            assert np.array_equal(a.step(1.0), b.step(1.0))


class TestFerryRegression:
    """Refactored FerryPatrol == pre-refactor arc-length implementation."""

    CASES = [
        dict(n=1, route=None, inset=None),
        dict(n=3, route=None, inset=1.9),
        dict(n=5, route=None, inset=0.0),
        dict(n=4, route=np.array([[1.0, 1.0], [8.0, 2.0], [4.0, 7.0]])),
        dict(n=7, route=np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])),
    ]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("dt", [1.0, 0.37, 2.5])
    def test_positions_bit_exact_vs_legacy(self, case, dt):
        legacy = _LegacyFerryPatrol(case["n"], SIDE, 0.7, route=case.get("route"), inset=case.get("inset"))
        ferry = FerryPatrol(case["n"], SIDE, 0.7, route=case.get("route"), inset=case.get("inset"))
        assert np.array_equal(ferry.positions, legacy.positions)
        for _ in range(150):
            assert np.array_equal(ferry.step(dt), legacy.step(dt))
        assert np.array_equal(ferry._arc, legacy._arc)

    def test_batch_ferry_bit_exact_vs_legacy(self):
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(9).spawn(3)]
        from repro.mobility import BatchFerryPatrol

        batch = BatchFerryPatrol(4, SIDE, 0.7, rngs, inset=1.9)
        legacy = _LegacyFerryPatrol(4, SIDE, 0.7, inset=1.9)
        for _ in range(100):
            expected = legacy.step(1.0)
            got = batch.step(1.0)
            for b in range(3):
                assert np.array_equal(got[b], expected)

    def test_jitter_honors_rng(self):
        # Same seed -> same jittered phases; different seed -> different.
        a = FerryPatrol(4, SIDE, 0.7, rng=np.random.default_rng(5), jitter=0.5)
        b = FerryPatrol(4, SIDE, 0.7, rng=np.random.default_rng(5), jitter=0.5)
        c = FerryPatrol(4, SIDE, 0.7, rng=np.random.default_rng(6), jitter=0.5)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)

    def test_no_jitter_ignores_rng_state(self):
        a = FerryPatrol(4, SIDE, 0.7, rng=np.random.default_rng(5))
        b = FerryPatrol(4, SIDE, 0.7, rng=np.random.default_rng(99))
        assert np.array_equal(a.positions, b.positions)

    def test_jitter_validated(self):
        with pytest.raises(ValueError, match="jitter"):
            FerryPatrol(4, SIDE, 0.7, jitter=1.5)


class TestBatchTimetable:
    def test_batch_matches_scalar_with_riders(self):
        children = np.random.SeedSequence(31).spawn(3)
        kwargs = dict(riders=20, dwell=2.0, capacity=3)
        scalars = [
            TimetableMobility(26, SIDE, SPEED, rng=np.random.default_rng(s), **kwargs)
            for s in children
        ]
        batch = BatchTimetableMobility(
            26, SIDE, SPEED, [np.random.default_rng(s) for s in children], **kwargs
        )
        assert np.array_equal(
            batch.positions, np.stack([m.positions for m in scalars])
        )
        for _ in range(80):
            expected = np.stack([m.step(1.0) for m in scalars])
            assert np.array_equal(batch.step(1.0), expected)

    def test_frozen_replicas_do_not_move_or_draw(self):
        def build():
            rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(7).spawn(3)]
            return BatchTimetableMobility(
                20, SIDE, SPEED, rngs, riders=15, dwell=2.0, capacity=2
            )

        frozen = build()
        reference = build()
        active = np.array([True, False, True])
        for _ in range(40):
            frozen.step(1.0, active=active)
            reference.step(1.0)
        pristine = build()
        assert np.array_equal(frozen.positions[1], pristine.positions[1])
        for b in (0, 2):
            assert np.array_equal(frozen.positions[b], reference.positions[b])


class TestOracleParity:
    """The view and a 2-replica batch model follow the historical scalar
    model of ``tests/mobility_oracles.py``: positions and every transit
    read-out, step by step."""

    SEEDS = (5, 6)
    CASES = {
        "riders": dict(
            riders=30, timetable=grid_shuttle_timetable(SIDE, lines=2, dwell=2.0, capacity=3),
            board_radius=1.5,
        ),
        "headway-jitter": dict(
            riders=12, dwell=1.5, headway=4.0, capacity=2, jitter=0.5, init="uniform",
        ),
        "vehicles-only": dict(riders=0, dwell=1.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_view_and_batch_follow_the_oracle(self, case):
        options = self.CASES[case]
        oracles = [
            mobility_oracles.TimetableMobility(
                40, SIDE, SPEED, rng=np.random.default_rng(s), **options
            )
            for s in self.SEEDS
        ]
        view = TimetableMobility(
            40, SIDE, SPEED, rng=np.random.default_rng(self.SEEDS[0]), **options
        )
        batch = BatchTimetableMobility(
            40, SIDE, SPEED, [np.random.default_rng(s) for s in self.SEEDS], **options
        )
        assert (view.n_riders, view.n_vehicles) == (oracles[0].n_riders, oracles[0].n_vehicles)
        for _ in range(40):
            expected = np.stack([m.step() for m in oracles])
            assert np.array_equal(batch.step(), expected)
            assert np.array_equal(view.step(), expected[0])
            for read_out in (
                "vehicle_positions", "riding_mask", "vehicle_loads", "dwelling_mask",
            ):
                assert np.array_equal(getattr(view, read_out), getattr(oracles[0], read_out))

