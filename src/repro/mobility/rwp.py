"""Classic (straight-line) Random Way-Point mobility — paper refs [5, 6, 22].

The baseline the MRWP variant is derived from: agents pick uniform
destinations and travel the *Euclidean* segment to them at speed ``v``,
optionally pausing at each way-point.  Its stationary spatial distribution
is also non-uniform (dense center) but differs from MRWP's closed form;
the mobility-ablation experiment contrasts flooding under the two.

Stationary initialization (pause time zero) uses the same Palm-calculus
construction as MRWP: trip endpoints length-biased by the Euclidean length
(rejection sampling against ``dist / (L * sqrt(2))``), observation point
uniform along the segment.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import EuclideanTrips, TripWork
from repro.mobility import kinematics
from repro.mobility.base import BatchMobilityModel, MobilityModel, check_dt
from repro.mobility.kinematics import (
    advance_legs,
    compiled_trip_step,
    countdown_pauses,
    fill_budget,
    not_converged,
    redraw_destinations,
)

__all__ = ["RandomWaypoint", "BatchRandomWaypoint"]


def _sample_length_biased_segments(n: int, side: float, rng: np.random.Generator) -> tuple:
    """Endpoint pairs on the square with density proportional to Euclidean length."""
    starts = np.empty((n, 2), dtype=np.float64)
    ends = np.empty((n, 2), dtype=np.float64)
    bound = side * np.sqrt(2.0)
    filled = 0
    while filled < n:
        want = n - filled
        batch = max(64, int(2.5 * want))
        a = rng.uniform(0.0, side, size=(batch, 2))
        b = rng.uniform(0.0, side, size=(batch, 2))
        dist = np.sqrt(np.sum((a - b) ** 2, axis=1))
        accept = rng.uniform(size=batch) * bound <= dist
        a = a[accept][:want]
        b = b[accept][:want]
        starts[filled:filled + a.shape[0]] = a
        ends[filled:filled + a.shape[0]] = b
        filled += a.shape[0]
    return starts, ends


class RandomWaypoint(MobilityModel):
    """Straight-line RWP over ``[0, side]^2``.

    The one-replica view of :class:`BatchRandomWaypoint`.

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
        super().__init__(
            BatchRandomWaypoint(
                n, side, speed, self._rngs(rng), pause_time=pause_time, init=init
            )
        )
        self.pause_time = self.batch.pause_time

    @property
    def arrival_counts(self) -> np.ndarray:
        """Cumulative completed trips per agent (the twin's live counter)."""
        return self.batch.arrival_counts

    @property
    def destinations(self) -> np.ndarray:
        """Copy of the agents' current destinations."""
        return self.batch._dest.copy()


class BatchRandomWaypoint(BatchMobilityModel):
    """Straight-line RWP for ``B`` replicas in lock-step.

    Same layout and RNG discipline as
    :class:`~repro.mobility.mrwp.BatchManhattanRandomWaypoint`: flat
    ``(B * n, 2)`` state, vectorized carry-over arithmetic, and arrival
    redraws grouped by replica.  On the compiled tier a step is one call
    of the trip mode of the ``advance_legs_dense`` kernel
    (``EuclideanTrips``), which draws the same numbers in the same order.

    Args:
        n, side, speed, rngs: see :class:`~repro.mobility.base.BatchMobilityModel`.
        pause_time: per-way-point rest time.
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
        self.pause_time = float(pause_time)
        total = self.batch_size * self.n
        self._pos = np.empty((total, 2), dtype=np.float64)
        self._dest = np.empty((total, 2), dtype=np.float64)
        for b, rng in enumerate(self.rngs):
            lo, hi = b * self.n, (b + 1) * self.n
            if init == "stationary":
                starts, dests = _sample_length_biased_segments(self.n, self.side, rng)
                frac = rng.uniform(size=self.n)
                self._pos[lo:hi] = starts + frac[:, None] * (dests - starts)
                self._dest[lo:hi] = dests
            elif init == "uniform":
                self._pos[lo:hi] = rng.uniform(0.0, self.side, size=(self.n, 2))
                self._dest[lo:hi] = rng.uniform(0.0, self.side, size=(self.n, 2))
            else:
                raise ValueError(f"init must be 'stationary' or 'uniform', got {init!r}")
        self._pause_left = np.zeros(total, dtype=np.float64)
        self.arrival_counts = np.zeros(total, dtype=np.int64)
        self._eps = 1e-9 * max(self.side, 1.0)
        self._budget = np.empty(total, dtype=np.float64)
        self._trip_work = TripWork(total)

    def step(self, dt: float = 1.0, active=None, copy: bool = True) -> np.ndarray:
        check_dt(dt)
        active = self._active_mask(active)
        trips = EuclideanTrips(
            self._pause_left, self.arrival_counts, self.pause_time,
            self.side, self.rngs, kinematics._MAX_LEGS_PER_STEP, self._trip_work,
        )
        passes = compiled_trip_step(
            self._pos, self._dest, float(dt), active, self._eps, trips, speed=self.speed
        )
        if passes is None:
            _advance_rwp(
                self._pos, self._dest, self._pause_left, self.arrival_counts,
                fill_budget(self._budget, active, self.n, float(dt)),
                self.side, self.speed, self.pause_time, self._eps, self.rngs, self.n,
            )
        elif passes < 0:
            raise not_converged(self.speed, self.side)
        self.time += dt
        return self.positions if copy else self.positions_view


def _advance_rwp(
    pos, dest, pause_left, arrival_counts, time_budget,
    side, speed, pause_time, eps, rngs, n,
):
    """Spend ``time_budget`` through the straight-line RWP carry-over loop.

    The numpy loop of the batch model, and the fallback when the compiled
    trip mode declines: pause burn, one Euclidean leg per trip, arrival
    redraws grouped by replica.  Frozen replicas enter with zero budget
    and their generators see no draws.
    """
    for _ in range(kinematics._MAX_LEGS_PER_STEP):
        # Spend pause time first (RWP redraws on arrival, not on pause end).
        countdown_pauses(pause_left, time_budget)
        if speed <= 0:
            break
        idx = np.nonzero((pause_left <= 0) & (time_budget * speed > eps))[0]
        if idx.size == 0:
            break
        done = advance_legs(pos, dest, time_budget, idx, eps, speed=speed, metric="euclidean")
        if done.size == 0:
            break
        redraw_destinations(dest, done, side, rngs, n)
        pause_left[done] = pause_time
        arrival_counts[done] += 1
    else:
        raise not_converged(speed, side)
