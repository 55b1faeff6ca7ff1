"""MRWP with pause times — the paper's Random-Trip extension direction.

Section 3 closes with: *"we strongly believe that our ideas and techniques
... can be adapted to analyze flooding over other versions of the RWP model
and even over some versions of the more general Random Trip model"*.  The
simplest such version adds a deterministic **pause** of ``pause_time`` time
units at every way-point (refs [21, 22, 23]).

The stationary law changes in a closed-form way (Palm calculus): an agent is
*moving* with probability ``w = E[trip time] / (E[trip time] + pause_time)``
where ``E[trip time] = (2L/3)/v`` (mean Manhattan trip length over speed),
in which case its position follows Theorem 1; otherwise it is *paused* at
its last way-point, which is uniform on the square.  Hence

.. math:: f_pause(x, y) = w \\, f(x, y) + (1 - w) / L^2

This module implements the model, the mixed closed form, and perfect
simulation of the extended stationary state (a paused agent's residual
pause is uniform on ``[0, pause_time]`` — the residual of a deterministic
duration).  The tests validate the sampler and the stepped process against
the mixed pdf, reproducing the paper's methodology on the extension.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.paths import choose_corners
from repro.kernels import PauseTrips, TripWork
from repro.mobility import kinematics
from repro.mobility.base import BatchMobilityModel, MobilityModel, check_dt
from repro.mobility.distributions import mean_trip_length, spatial_pdf
from repro.mobility.kinematics import (
    DenseLegScratch,
    advance_legs,
    advance_legs_dense,
    compiled_trip_step,
    countdown_pauses,
    fill_budget,
    not_converged,
    redraw_manhattan_trips,
    split_completed_legs,
)
from repro.mobility.stationary import PalmStationarySampler

__all__ = [
    "ManhattanRandomWaypointWithPause",
    "BatchManhattanRandomWaypointWithPause",
    "moving_probability",
    "spatial_pdf_with_pause",
]


def moving_probability(side: float, speed: float, pause_time: float) -> float:
    """Stationary probability that an agent is mid-trip (not paused)."""
    if side <= 0 or speed <= 0:
        raise ValueError("side and speed must be positive")
    if pause_time < 0:
        raise ValueError(f"pause_time must be non-negative, got {pause_time}")
    trip_time = mean_trip_length(side) / speed
    return trip_time / (trip_time + pause_time)


def spatial_pdf_with_pause(x, y, side: float, speed: float, pause_time: float):
    """Stationary spatial pdf of pause-MRWP: the Thm-1/uniform mixture."""
    w = moving_probability(side, speed, pause_time)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    inside = (x >= 0) & (x <= side) & (y >= 0) & (y <= side)
    uniform = np.where(inside, 1.0 / (side * side), 0.0)
    return w * spatial_pdf(x, y, side) + (1.0 - w) * uniform


class ManhattanRandomWaypointWithPause(MobilityModel):
    """MRWP where agents rest ``pause_time`` time units at every way-point.

    The one-replica view of :class:`BatchManhattanRandomWaypointWithPause`.

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
        super().__init__(
            BatchManhattanRandomWaypointWithPause(
                n, side, speed, self._rngs(rng), pause_time=pause_time, init=init
            )
        )
        self.pause_time = self.batch.pause_time

    @property
    def paused_mask(self) -> np.ndarray:
        """Agents currently resting at a way-point."""
        return self.batch.paused_mask[0]

    @property
    def moving_fraction(self) -> float:
        """Fraction of agents mid-trip (stationary expectation:
        :func:`moving_probability`)."""
        return 1.0 - float(np.count_nonzero(self.paused_mask)) / self.n


class BatchManhattanRandomWaypointWithPause(BatchMobilityModel):
    """Pause-MRWP for ``B`` independent replicas, advanced in lock-step.

    Same layout and RNG discipline as
    :class:`~repro.mobility.mrwp.BatchManhattanRandomWaypoint`: flat
    ``(B * n, 2)`` state, the shared kinematics helpers for the two-phase
    (pause burn, then Manhattan legs) carry-over iteration, and all trip
    redraws grouped by replica — both the phase-1 draws (pauses that just
    ended) and the phase-2 draws (``pause_time == 0`` arrivals), in that
    per-iteration order, so each replica draws what it would alone.  On
    the compiled tier a step is one call of the trip mode of the
    ``advance_legs_dense`` kernel (``PauseTrips``), which draws the same
    numbers in the same order.

    Args:
        n, side, speed, rngs: see :class:`~repro.mobility.base.BatchMobilityModel`.
        pause_time: deterministic rest duration at each destination.
        init: ``"stationary"`` or ``"uniform"``, applied per replica.
    """

    def __init__(
        self,
        n: int,
        side: float,
        speed: float,
        rngs,
        pause_time: float = 0.0,
        init: str = "stationary",
    ):
        super().__init__(n, side, speed, rngs)
        if pause_time < 0:
            raise ValueError(f"pause_time must be non-negative, got {pause_time}")
        if speed <= 0:
            raise ValueError("pause-MRWP requires positive speed")
        self.pause_time = float(pause_time)
        self._eps = 1e-9 * max(self.side, 1.0)
        states = [
            _initial_pause_state(self.n, self.side, self.speed, self.pause_time, init, rng)
            for rng in self.rngs
        ]
        self._pos = np.concatenate([s[0] for s in states], axis=0)
        self._dest = np.concatenate([s[1] for s in states], axis=0)
        self._target = np.concatenate([s[2] for s in states], axis=0)
        self._on_second_leg = np.concatenate([s[3] for s in states], axis=0)
        self._pause_left = np.concatenate([s[4] for s in states], axis=0)
        total = self.batch_size * self.n
        self._budget = np.empty(total, dtype=np.float64)
        self._scratch = DenseLegScratch(total)
        self._trip_work = TripWork(total)

    @property
    def paused_mask(self) -> np.ndarray:
        """``(B, n)`` bool — agents currently resting at a way-point."""
        return (self._pause_left > 0).reshape(self.batch_size, self.n)

    @property
    def moving_fraction(self) -> np.ndarray:
        """``(B,)`` fraction of each replica's agents mid-trip."""
        return 1.0 - self.paused_mask.mean(axis=1)

    def step(self, dt: float = 1.0, active=None, copy: bool = True) -> np.ndarray:
        check_dt(dt)
        active = self._active_mask(active)
        trips = PauseTrips(
            self._dest, self._on_second_leg, self._pause_left, self.pause_time,
            self.side, self.rngs, kinematics._MAX_LEGS_PER_STEP, self._trip_work,
        )
        passes = compiled_trip_step(
            self._pos, self._target, float(dt), active, self._eps, trips, speed=self.speed
        )
        if passes is None:
            _advance_pause_mrwp(
                self._pos, self._dest, self._target, self._on_second_leg, self._pause_left,
                fill_budget(self._budget, active, self.n, float(dt)),
                self.side, self.speed, self.pause_time, self._eps, self.rngs, self.n,
                scratch=self._scratch,
            )
        elif passes < 0:
            raise not_converged(self.speed, self.side)
        self.time += dt
        return self.positions if copy else self.positions_view


def _advance_pause_mrwp(
    pos, dest, target, on_second_leg, pause_left, time_budget,
    side, speed, pause_time, eps, rngs, n, scratch,
):
    """Spend ``time_budget`` through the two-phase pause-MRWP carry-over loop.

    The numpy loop of the batch model (``len(rngs)`` replicas over flat
    arrays), and the fallback when the compiled trip mode declines.
    Frozen replicas enter with zero budget: they neither pause-burn nor
    move, and their generators see no draws.
    """
    eps_t = eps / max(speed, 1.0)
    total = time_budget.shape[0]
    for _ in range(kinematics._MAX_LEGS_PER_STEP):
        # Phase 1: paused agents burn pause before moving; a pause that
        # just ended starts a fresh trip.
        ended = countdown_pauses(pause_left, time_budget, min_budget=eps_t)
        if ended.size:
            redraw_manhattan_trips(pos, dest, target, on_second_leg, ended, side, rngs, n)
        # Phase 2: moving agents walk their Manhattan legs.
        moving = (pause_left <= 0) & (time_budget > eps_t)
        n_moving = int(np.count_nonzero(moving))
        if n_moving == 0:
            break
        if 2 * n_moving >= total:
            done = advance_legs_dense(
                pos, target, time_budget, moving, n_moving, eps, scratch, speed=speed
            )
        else:
            idx = np.nonzero(moving)[0]
            done = advance_legs(pos, target, time_budget, idx, eps, speed=speed)
        if done.size == 0:
            break
        _corner_done, trip_done = split_completed_legs(done, on_second_leg, target, dest)
        if trip_done.size:
            # Arrived: rest.  The new trip is drawn when the pause ends
            # (phase 1), or immediately when pause_time == 0.
            if pause_time > 0:
                pause_left[trip_done] = pause_time
            else:
                redraw_manhattan_trips(
                    pos, dest, target, on_second_leg, trip_done, side, rngs, n
                )
    else:
        raise not_converged(speed, side)


def _initial_pause_state(
    n: int, side: float, speed: float, pause_time: float, init, rng: np.random.Generator
) -> tuple:
    """One replica's initial pause-MRWP state.

    Returns:
        ``(positions, destinations, targets, on_second_leg, pause_left)``.
    """
    if init == "uniform":
        pos = rng.uniform(0.0, side, size=(n, 2))
        dest = rng.uniform(0.0, side, size=(n, 2))
        target, _ = choose_corners(pos, dest, rng)
        return pos, dest, target, np.zeros(n, dtype=bool), np.zeros(n, dtype=np.float64)
    if init != "stationary":
        raise ValueError(f"init must be 'stationary' or 'uniform', got {init!r}")
    # Perfect simulation: Bernoulli(moving) mixture of the two phases.
    w = moving_probability(side, speed, pause_time)
    moving = rng.uniform(size=n) < w
    k = int(np.count_nonzero(moving))

    pos = np.empty((n, 2))
    dest = np.empty((n, 2))
    target = np.empty((n, 2))
    on_second_leg = np.zeros(n, dtype=bool)
    pause_left = np.zeros(n, dtype=np.float64)

    if k:
        state = PalmStationarySampler(side).sample(k, rng)
        pos[moving] = state.positions
        dest[moving] = state.destinations
        target[moving] = state.targets
        on_second_leg[moving] = state.on_second_leg
    rest = n - k
    if rest:
        # Paused at a uniform way-point; residual pause uniform.
        spots = rng.uniform(0.0, side, size=(rest, 2))
        pos[~moving] = spots
        dest[~moving] = spots  # next trip drawn when the pause ends
        target[~moving] = spots
        on_second_leg[~moving] = True
        pause_left[~moving] = rng.uniform(0.0, pause_time, size=rest)
    return pos, dest, target, on_second_leg, pause_left
