"""Independent per-model oracles: the historical scalar mobility models.

The mobility models of ``repro.mobility`` have one implementation each, a
batch model, and the scalar engine runs one-replica views of it.  The
classes below are the scalar models that ran before that, kept unchanged
as the reference: their own state set-up (one replica's arrays, built and
stored by the scalar class) and their own ``step`` shells.  They share the
carry-over loops (``mrwp._advance_trips``, ``_advance_pause_mrwp``,
``_advance_random_speed``, ``_advance_rwp``, ``_TimetableEngine``) and the
initial-state samplers with the batch models, as they did then; the random
walk and the random direction step with their own code.

:func:`oracle_model` is the twin of ``runner.build_model``, and
:func:`oracle_trials` runs ``run_flooding`` once per seed child with the
mobility model swapped for its oracle, so its results line up with
``run_trials(config, k)`` trial for trial, on either engine.
"""

from __future__ import annotations

import abc
from unittest import mock

import numpy as np

from repro.geometry.sampling import sample_uniform_disk
from repro.kernels import TripWork
from repro.mobility.base import check_dt
from repro.mobility.kinematics import DenseLegScratch, reflect_into_square
from repro.mobility.mrwp import _advance_trips, _initial_state
from repro.mobility.pause import _advance_pause_mrwp, _initial_pause_state
from repro.mobility.random_direction import _initial_direction_state, _redraw_headings
from repro.mobility.rwp import _advance_rwp, _sample_length_biased_segments
from repro.mobility.speed_range import (
    _advance_random_speed,
    _initial_speed_state,
    _validate_range,
    stationary_mean_speed,
)
from repro.mobility.stationary import KinematicState
from repro.mobility.timetable import (
    Timetable,
    _resolve_timetable,
    _route_positions_at_arc,
    _TimetableEngine,
    rectangle_route,
)
from repro.simulation import runner

__all__ = ["ORACLES", "oracle_model", "oracle_trials"]


class MobilityModel(abc.ABC):
    """Abstract base for synchronous agent-mobility processes.

    Args:
        n: number of agents (positive).
        side: side length ``L`` of the square region (positive).
        speed: distance travelled by an agent per unit time (``v`` in the
            paper).  Models that are not constant-speed (e.g. the random
            walk) document their own interpretation.
        rng: numpy random generator; a fresh default generator is created
            when omitted, but experiments should always pass a seeded one.
    """

    def __init__(self, n: int, side: float, speed: float, rng: np.random.Generator = None):
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        if speed < 0:
            raise ValueError(f"speed must be non-negative, got {speed}")
        self.n = int(n)
        self.side = float(side)
        self.speed = float(speed)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.time = 0.0

    @property
    @abc.abstractmethod
    def positions(self) -> np.ndarray:
        """Copy of the current agent positions, shape ``(n, 2)``."""

    @abc.abstractmethod
    def step(self, dt: float = 1.0) -> np.ndarray:
        """Advance all agents by ``dt`` time units; returns the new positions."""

    def advance(self, steps: int, dt: float = 1.0) -> np.ndarray:
        """Run ``steps`` consecutive steps; returns the final positions."""
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        out = self.positions
        for _ in range(steps):
            out = self.step(dt)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, side={self.side}, "
            f"speed={self.speed}, time={self.time})"
        )


class ManhattanRandomWaypoint(MobilityModel):
    """MRWP mobility over ``[0, side]^2`` (the paper's model).

    Args:
        n: number of agents.
        side: square side length ``L``.
        speed: agent speed ``v`` (distance per time step).
        rng: seeded numpy generator.
        init: initial-state mode —

            * ``"stationary"`` (default): perfect simulation via the Palm
              sampler, so the very first snapshot is already stationary;
            * ``"closed-form"``: perfect simulation via the closed-form
              sampler (Theorems 1-2) — statistically identical, kept as an
              independent implementation;
            * ``"uniform"``: uniform positions with a fresh trip each — the
              *biased* cold start, exposed to quantify warm-up effects;
            * a :class:`~repro.mobility.stationary.KinematicState` to resume
              from an explicit state.

    Attributes:
        turn_counts: cumulative number of direction-change events per agent
            (Manhattan-corner turns plus trip arrivals), as counted by the
            paper's ``H_{t,tau}`` statistic.
        arrival_counts: cumulative number of completed trips per agent.
    """

    def __init__(
        self,
        n: int,
        side: float,
        speed: float,
        rng: np.random.Generator = None,
        init="stationary",
    ):
        super().__init__(n, side, speed, rng)
        self._init_spec = init
        state = self._make_initial_state(init)
        self._pos = state.positions
        self._dest = state.destinations
        self._target = state.targets
        self._on_second_leg = state.on_second_leg
        self.turn_counts = np.zeros(self.n, dtype=np.int64)
        self.arrival_counts = np.zeros(self.n, dtype=np.int64)
        self._eps = 1e-9 * max(self.side, 1.0)
        self._active = np.ones(1, dtype=bool)
        self._budget = np.empty(self.n, dtype=np.float64)
        self._scratch = DenseLegScratch(self.n)
        self._trip_work = TripWork(self.n)

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def _make_initial_state(self, init) -> KinematicState:
        return _initial_state(self.n, self.side, init, self.rng)

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def positions(self) -> np.ndarray:
        return self._pos.copy()

    @property
    def destinations(self) -> np.ndarray:
        """Copy of the agents' current final destinations."""
        return self._dest.copy()

    @property
    def on_second_leg(self) -> np.ndarray:
        """Copy of the per-agent second-leg flags."""
        return self._on_second_leg.copy()

    def get_state(self) -> KinematicState:
        """Snapshot of the full kinematic state (deep copy)."""
        return KinematicState(
            self._pos.copy(), self._dest.copy(), self._target.copy(), self._on_second_leg.copy()
        )

    def set_state(self, state: KinematicState) -> None:
        """Restore a previously captured kinematic state (deep copy)."""
        if state.n != self.n:
            raise ValueError(f"state has {state.n} agents, model expects {self.n}")
        self._pos = state.positions.copy()
        self._dest = state.destinations.copy()
        self._target = state.targets.copy()
        self._on_second_leg = state.on_second_leg.copy()

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self, dt: float = 1.0) -> np.ndarray:
        """Advance every agent by ``dt`` time units along its Manhattan path.

        Handles leg completion with distance carry-over: when an agent
        reaches its corner (or destination) mid-step, the residual travel
        budget is spent on the next leg (or a freshly sampled trip).
        """
        check_dt(dt)
        _advance_trips(self, [self.rng], dt, self._active)
        self.time += dt
        return self.positions

    def reset(self, rng: np.random.Generator = None) -> None:
        """Re-draw the initial state (optionally with a new generator)."""
        if rng is not None:
            self.rng = rng
        state = self._make_initial_state(self._init_spec)
        self.set_state(state)
        self.turn_counts[:] = 0
        self.arrival_counts[:] = 0
        self.time = 0.0


class ManhattanRandomWaypointWithPause(MobilityModel):
    """MRWP where agents rest ``pause_time`` time units at every way-point.

    Args:
        n, side, speed, rng: see :class:`~repro.mobility.base.MobilityModel`.
        pause_time: deterministic rest duration at each destination.
        init: ``"stationary"`` (perfect simulation of the mixed law, default)
            or ``"uniform"`` (cold start, all agents mid-trip).
    """

    def __init__(
        self,
        n: int,
        side: float,
        speed: float,
        pause_time: float,
        rng: np.random.Generator = None,
        init: str = "stationary",
    ):
        super().__init__(n, side, speed, rng)
        if pause_time < 0:
            raise ValueError(f"pause_time must be non-negative, got {pause_time}")
        if speed <= 0:
            raise ValueError("pause-MRWP requires positive speed")
        self.pause_time = float(pause_time)
        self._eps = 1e-9 * max(self.side, 1.0)
        (
            self._pos,
            self._dest,
            self._target,
            self._on_second_leg,
            self._pause_left,
        ) = _initial_pause_state(self.n, self.side, self.speed, self.pause_time, init, self.rng)
        self._scratch = DenseLegScratch(self.n)

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def positions(self) -> np.ndarray:
        return self._pos.copy()

    @property
    def paused_mask(self) -> np.ndarray:
        """Agents currently resting at a way-point."""
        return self._pause_left > 0

    @property
    def moving_fraction(self) -> float:
        """Fraction of agents mid-trip (stationary expectation:
        :func:`moving_probability`)."""
        return 1.0 - float(np.count_nonzero(self.paused_mask)) / self.n

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self, dt: float = 1.0) -> np.ndarray:
        check_dt(dt)
        time_budget = np.full(self.n, float(dt))
        _advance_pause_mrwp(
            self._pos, self._dest, self._target, self._on_second_leg,
            self._pause_left, time_budget,
            self.side, self.speed, self.pause_time, self._eps, [self.rng], self.n,
            scratch=self._scratch,
        )
        self.time += dt
        return self.positions


class RandomSpeedManhattanWaypoint(MobilityModel):
    """MRWP where each trip draws a fresh speed from ``Uniform[v_min, v_max]``.

    Args:
        n, side, rng: as usual.
        v_min, v_max: per-trip speed range (``v_min > 0`` required — see
            module docstring).
        init: ``"stationary"`` (perfect simulation: duration-biased speeds,
            default) or ``"uniform"`` (cold start: uniform speeds — exhibits
            the speed-decay transient).

    The base-class ``speed`` attribute reports the stationary mean speed.
    """

    def __init__(
        self,
        n: int,
        side: float,
        v_min: float,
        v_max: float,
        rng: np.random.Generator = None,
        init: str = "stationary",
    ):
        _validate_range(v_min, v_max)
        super().__init__(n, side, stationary_mean_speed(v_min, v_max), rng)
        self.v_min = float(v_min)
        self.v_max = float(v_max)
        self._eps = 1e-9 * max(self.side, 1.0)
        (
            self._pos,
            self._dest,
            self._target,
            self._on_second_leg,
            self._trip_speed,
        ) = _initial_speed_state(self.n, self.side, self.v_min, self.v_max, init, self.rng)
        self._scratch = DenseLegScratch(self.n)

    @property
    def positions(self) -> np.ndarray:
        return self._pos.copy()

    @property
    def trip_speeds(self) -> np.ndarray:
        """Copy of the per-agent current-trip speeds."""
        return self._trip_speed.copy()

    @property
    def mean_current_speed(self) -> float:
        """Population-average current speed (the speed-decay observable)."""
        return float(self._trip_speed.mean())

    def step(self, dt: float = 1.0) -> np.ndarray:
        check_dt(dt)
        time_budget = np.full(self.n, float(dt))
        _advance_random_speed(
            self._pos, self._dest, self._target, self._on_second_leg,
            self._trip_speed, time_budget,
            self.side, self.v_min, self.v_max, self._eps, [self.rng], self.n,
            scratch=self._scratch,
        )
        self.time += dt
        return self.positions


class RandomWaypoint(MobilityModel):
    """Straight-line RWP over ``[0, side]^2``.

    Args:
        n, side, speed, rng: see :class:`~repro.mobility.base.MobilityModel`.
        pause_time: time units an agent rests at each way-point before
            starting the next trip (default 0 — the paper's regime).
        init: ``"stationary"`` (Palm perfect simulation; exact only for
            ``pause_time == 0``) or ``"uniform"`` (cold start).
    """

    def __init__(
        self,
        n: int,
        side: float,
        speed: float,
        rng: np.random.Generator = None,
        pause_time: float = 0.0,
        init: str = "stationary",
    ):
        super().__init__(n, side, speed, rng)
        if pause_time < 0:
            raise ValueError(f"pause_time must be non-negative, got {pause_time}")
        self.pause_time = float(pause_time)
        if init == "stationary":
            starts, dests = _sample_length_biased_segments(self.n, self.side, self.rng)
            frac = self.rng.uniform(size=self.n)
            self._pos = starts + frac[:, None] * (dests - starts)
            self._dest = dests
        elif init == "uniform":
            self._pos = self.rng.uniform(0.0, self.side, size=(self.n, 2))
            self._dest = self.rng.uniform(0.0, self.side, size=(self.n, 2))
        else:
            raise ValueError(f"init must be 'stationary' or 'uniform', got {init!r}")
        self._pause_left = np.zeros(self.n, dtype=np.float64)
        self.arrival_counts = np.zeros(self.n, dtype=np.int64)
        self._eps = 1e-9 * max(self.side, 1.0)

    @property
    def positions(self) -> np.ndarray:
        return self._pos.copy()

    @property
    def destinations(self) -> np.ndarray:
        """Copy of the agents' current destinations."""
        return self._dest.copy()

    def step(self, dt: float = 1.0) -> np.ndarray:
        check_dt(dt)
        time_budget = np.full(self.n, float(dt))
        _advance_rwp(
            self._pos, self._dest, self._pause_left, self.arrival_counts, time_budget,
            self.side, self.speed, self.pause_time, self._eps, [self.rng], self.n,
        )
        self.time += dt
        return self.positions


class RandomWalk(MobilityModel):
    """Disk-jump random walk over ``[0, side]^2``.

    Args:
        n, side: as usual.
        move_radius: the per-step jump radius ``rho`` (plays the role of the
            agent speed: the maximum distance travelled per time step).
        rng: seeded generator.
        boundary: ``"reflect"`` (default) folds jumps at the walls, which
            preserves the uniform stationary distribution; ``"clip"`` clamps
            to the walls (slight corner bias, kept for comparison).
    """

    def __init__(
        self,
        n: int,
        side: float,
        move_radius: float,
        rng: np.random.Generator = None,
        boundary: str = "reflect",
    ):
        super().__init__(n, side, speed=move_radius, rng=rng)
        if move_radius <= 0:
            raise ValueError(f"move_radius must be positive, got {move_radius}")
        if move_radius > side:
            raise ValueError(f"move_radius must not exceed side ({side}), got {move_radius}")
        if boundary not in ("reflect", "clip"):
            raise ValueError(f"boundary must be 'reflect' or 'clip', got {boundary!r}")
        self.move_radius = float(move_radius)
        self.boundary = boundary
        # Uniform is the stationary law for the reflected walk.
        self._pos = self.rng.uniform(0.0, self.side, size=(self.n, 2))

    @property
    def positions(self) -> np.ndarray:
        return self._pos.copy()

    def _fold(self, pos: np.ndarray) -> np.ndarray:
        """Reflect positions into ``[0, side]`` (single reflection suffices
        because ``move_radius <= side``)."""
        pos = np.where(pos < 0.0, -pos, pos)
        pos = np.where(pos > self.side, 2.0 * self.side - pos, pos)
        return pos

    def step(self, dt: float = 1.0) -> np.ndarray:
        check_dt(dt)
        jump = sample_uniform_disk(self.n, self.move_radius, self.rng)
        new_pos = self._pos + jump
        if self.boundary == "reflect":
            new_pos = self._fold(new_pos)
        else:
            np.clip(new_pos, 0.0, self.side, out=new_pos)
        self._pos = new_pos
        self.time += dt
        return self.positions


class RandomDirection(MobilityModel):
    """Constant-speed billiard motion with exponential leg lengths.

    Args:
        n, side, speed, rng: see :class:`~repro.mobility.base.MobilityModel`.
        mean_leg: expected distance travelled between heading redraws;
            defaults to ``side / 2``.
    """

    def __init__(
        self,
        n: int,
        side: float,
        speed: float,
        rng: np.random.Generator = None,
        mean_leg: float = None,
    ):
        super().__init__(n, side, speed, rng)
        self.mean_leg = float(mean_leg) if mean_leg is not None else self.side / 2.0
        if self.mean_leg <= 0:
            raise ValueError(f"mean_leg must be positive, got {self.mean_leg}")
        self._pos, self._heading, self._leg_left = _initial_direction_state(
            self.n, self.side, self.mean_leg, self.rng
        )

    @property
    def positions(self) -> np.ndarray:
        return self._pos.copy()

    def step(self, dt: float = 1.0) -> np.ndarray:
        check_dt(dt)
        travel = self.speed * dt
        self._pos = self._pos + self._heading * travel
        reflect_into_square(self._pos, self._heading, self.side)
        self._leg_left -= travel
        expired = np.nonzero(self._leg_left <= 0)[0]
        if expired.size:
            _redraw_headings(
                self._heading, self._leg_left, expired, self.mean_leg, [self.rng], self.n
            )
        self.time += dt
        return self.positions


class TimetableMobility(MobilityModel):
    """Scalar schedule-driven transit mobility (vehicles + riders).

    Agents ``0 .. riders-1`` are riders — MRWP pedestrians that board a
    dwelling vehicle when close enough to its stop (capacity permitting)
    and ride to a uniformly drawn destination stop; agents ``riders .. n-1``
    are vehicles running the timetable's stop→dwell→leg cycles.

    Args:
        n: total agents (riders + vehicles; at least one vehicle).
        side, speed, rng: see :class:`~repro.mobility.base.MobilityModel`
            (riders and vehicles share the speed).
        timetable: an explicit :class:`Timetable`; mutually exclusive with
            ``routes``.
        routes: config-shaped way-point routes (see :class:`Timetable`);
            defaults to :func:`loop_timetable`'s rectangular loop.
        dwell, headway, capacity: :class:`Timetable` fields, used when
            ``timetable`` is omitted.
        riders: rider count (default 0 — vehicles only, the ferry case).
        board_radius: boarding distance to a dwelling vehicle's stop
            (default ``0.05 * side``).
        jitter: per-vehicle phase jitter drawn from ``rng`` — a uniform
            arc offset of up to ``jitter`` vehicle spacings (default 0,
            fully deterministic placement).
        init: rider-background initialization mode (MRWP vocabulary).
    """

    def __init__(
        self, n: int, side: float, speed: float, rng=None,
        timetable: Timetable = None, routes=None, dwell=0.0, headway: float = None,
        capacity: int = None, riders: int = 0, board_radius: float = None,
        jitter: float = 0.0, init="stationary",
    ):
        super().__init__(n, side, speed, rng)
        self.timetable = _resolve_timetable(side, timetable, routes, dwell, headway, capacity)
        self._engine = _TimetableEngine(
            self.timetable, self.n, self.side, self.speed,
            riders, board_radius, jitter, init, [self.rng],
        )

    @property
    def n_riders(self) -> int:
        return self._engine.R

    @property
    def n_vehicles(self) -> int:
        return self._engine.V

    @property
    def positions(self) -> np.ndarray:
        return self._engine.flat_pos.copy()

    @property
    def vehicle_positions(self) -> np.ndarray:
        """Copy of the vehicle block's positions, shape ``(V, 2)``."""
        return self._engine._veh_pos.copy()

    @property
    def riding_mask(self) -> np.ndarray:
        """Per-rider bool: currently aboard a vehicle."""
        return self._engine.r_vehicle >= 0

    @property
    def vehicle_loads(self) -> np.ndarray:
        """Copy of the per-vehicle rider counts."""
        return self._engine.veh_load.copy()

    @property
    def dwelling_mask(self) -> np.ndarray:
        """Per-vehicle bool: currently dwelling at a stop."""
        return self._engine.veh_dwell_left > 0

    def step(self, dt: float = 1.0) -> np.ndarray:
        self._engine.advance(dt)
        self.time += dt
        return self.positions


class FerryPatrol(TimetableMobility):
    """Deterministic agents looping along a closed polyline at constant speed.

    A zero-dwell, single-route, rider-free timetable: vehicles never stop,
    so their trajectory is the historical constant-speed arc advance
    (bit-exact with the pre-timetable implementation).

    Args:
        n: number of ferries, spaced evenly along the route.
        side: region side (route points must lie inside).
        speed: ferry speed.
        route: ``(k, 2)`` way-points of the closed loop (the segment from
            the last point back to the first is implied); defaults to
            :func:`rectangle_route` at distance ``inset`` from the walls.
        rng: randomness source, consumed only when ``jitter > 0``.
        inset: wall distance of the default rectangular route (only used
            when ``route`` is omitted); defaults to ``side / 8``.
        jitter: optional phase jitter — each ferry's starting arc is
            offset by a uniform draw of up to ``jitter`` ferry spacings
            (default 0: deterministic even spacing, no rng consumed).
    """

    def __init__(
        self, n: int, side: float, speed: float, route: np.ndarray = None,
        rng=None, inset: float = None, jitter: float = 0.0,
    ):
        if route is None:
            route = rectangle_route(side, side / 8.0 if inset is None else inset)
        timetable = Timetable([np.asarray(route, dtype=np.float64)])
        super().__init__(
            n, side, speed, rng=rng, timetable=timetable, jitter=jitter,
        )
        # Legacy surface, preserved for tests and downstream callers.
        self.route = timetable.routes[0]
        self._seg_lengths = timetable.seg_lengths[0]
        self._cum = timetable.cum[0]
        self.route_length = timetable.lengths[0]

    @property
    def _arc(self) -> np.ndarray:
        return self._engine.veh_arc

    def _positions_at_arc(self, arc: np.ndarray) -> np.ndarray:
        return _route_positions_at_arc(
            self.route, self._seg_lengths, self._cum, self.route_length, arc
        )


class CompositeMobility(MobilityModel):
    """Concatenation of several mobility models into one agent population.

    Agent indices are assigned block-wise in the order the models are given
    (e.g. MRWP agents ``0..n-1`` followed by ferries ``n..n+f-1``).
    """

    def __init__(self, models):
        models = list(models)
        if not models:
            raise ValueError("at least one model is required")
        side = models[0].side
        for model in models[1:]:
            if abs(model.side - side) > 1e-9:
                raise ValueError("all composed models must share the same side length")
        total = sum(model.n for model in models)
        super().__init__(total, side, max(model.speed for model in models))
        self.models = models

    @property
    def positions(self) -> np.ndarray:
        return np.concatenate([model.positions for model in self.models], axis=0)

    def step(self, dt: float = 1.0) -> np.ndarray:
        check_dt(dt)
        for model in self.models:
            model.step(dt)
        self.time += dt
        return self.positions

    def block_slices(self) -> list:
        """Index slice of each composed model's agents, in composition order."""
        out = []
        start = 0
        for model in self.models:
            out.append(slice(start, start + model.n))
            start += model.n
        return out


def composite_with_ferries(
    n: int,
    side: float,
    speed: float,
    rng: np.random.Generator = None,
    ferries: int = 1,
    inset: float = None,
    init="stationary",
) -> CompositeMobility:
    """An MRWP background population with a ferry patrol block appended.

    The config-shaped constructor behind ``mobility="composite"``: the
    delay-tolerant-routing composition (MRWP agents ``0..n-ferries-1``,
    ferries after) as a single registered model, so experiments can select
    it by name.  Ferries are deterministic, so all randomness (and hence
    seed-for-seed reproducibility across engines) lives in the MRWP block.

    Args:
        n: total agents, ferries included.
        side, speed, rng: as for :class:`~repro.mobility.base.MobilityModel`
            (both blocks share the speed).
        ferries: ferry count (at least 1, leaving at least 2 MRWP agents).
        inset: wall distance of the rectangular patrol route
            (default ``side / 8``).
        init: MRWP-block initialization mode.
    """
    ferries = int(ferries)
    if not 1 <= ferries <= n - 2:
        raise ValueError(
            f"ferries must be in [1, n - 2] (need an MRWP background), got {ferries}"
        )
    background = ManhattanRandomWaypoint(n - ferries, side, speed, rng=rng, init=init)
    patrol = FerryPatrol(ferries, side, speed, inset=inset)
    return CompositeMobility([background, patrol])



ORACLES = {
    "mrwp": ManhattanRandomWaypoint,
    "mrwp-pause": ManhattanRandomWaypointWithPause,
    "mrwp-speed": RandomSpeedManhattanWaypoint,
    "rwp": RandomWaypoint,
    "random-walk": RandomWalk,
    "random-direction": RandomDirection,
    "ferry": FerryPatrol,
    "composite": composite_with_ferries,
    "timetable": TimetableMobility,
}
"""Name -> oracle constructor, key-compatible with ``MODEL_REGISTRY``."""


def oracle_model(config, rng: np.random.Generator):
    """The oracle of the mobility model named by ``config`` (the twin of
    ``runner.build_model``, with the same constructor arguments)."""
    args, kwargs = runner.mobility_arguments(config)
    return ORACLES[config.mobility](config.n, config.side, *args, rng=rng, **kwargs)


def oracle_trials(config, n_trials: int) -> list:
    """``run_trials(config, n_trials)`` with every mobility model an oracle:
    one ``run_flooding`` per child of ``SeedSequence(config.seed)``, so the
    protocol, sources, observers and result assembly are the scalar
    engine's own."""
    children = np.random.SeedSequence(config.seed).spawn(n_trials)
    with mock.patch.object(runner, "build_model", oracle_model):
        return [runner.run_flooding(config, seed_seq=child) for child in children]
