"""MRWP with per-trip random speeds — and the speed-decay trap.

Another Random-Trip variant (paper's Section 3 direction): each trip's
speed is drawn uniformly from ``[v_min, v_max]``.  This family is infamous
in the simulation literature ("random waypoint considered harmful",
Yoon-Liu-Noble): a *cold-started* simulation's average speed decays over
time, because slow trips last longer and progressively dominate the time
average.  The stationary law is exact and closed-form under Palm calculus:

* a trip observed at a random time has speed density ``∝ 1/v`` on
  ``[v_min, v_max]`` (duration-biased: duration = length / v), so the
  stationary *time-average* speed is the **harmonic-style mean**
  ``(v_max - v_min) / ln(v_max / v_min)``;
* the spatial law is unchanged — speed and geometry are independent, so
  Theorem 1 still holds (verified in the tests);
* with ``v_min = 0`` the ``1/v`` density is non-normalizable: there is *no*
  stationary phase and the average speed decays to zero — the pathology,
  reproduced by :func:`cold_start_speed_decay`.

Perfect simulation: endpoints length-biased exactly as for fixed-speed MRWP
(geometry and speed factorize), observed speed from the truncated ``1/v``
law, position uniform along the path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.paths import choose_corners
from repro.mobility.base import BatchMobilityModel, MobilityModel, check_dt
from repro.mobility.kinematics import (
    DenseLegScratch,
    advance_legs,
    advance_legs_dense,
    redraw_manhattan_trips,
    replica_slices,
    split_completed_legs,
)
from repro.mobility.mrwp import _MAX_LEGS_PER_STEP
from repro.mobility.stationary import PalmStationarySampler

__all__ = [
    "RandomSpeedManhattanWaypoint",
    "BatchRandomSpeedManhattanWaypoint",
    "stationary_mean_speed",
    "sample_stationary_speeds",
    "cold_start_speed_decay",
]


def _validate_range(v_min: float, v_max: float) -> None:
    if not 0 < v_min <= v_max:
        raise ValueError(
            f"need 0 < v_min <= v_max (v_min = 0 has no stationary phase — "
            f"the speed-decay pathology); got [{v_min}, {v_max}]"
        )


def stationary_mean_speed(v_min: float, v_max: float) -> float:
    """Time-average speed in stationarity: ``(v_max - v_min)/ln(v_max/v_min)``.

    Strictly below the uniform mean ``(v_min + v_max)/2`` — slow trips
    occupy more than their share of time.
    """
    _validate_range(v_min, v_max)
    if v_min == v_max:
        return float(v_min)
    return (v_max - v_min) / math.log(v_max / v_min)


def sample_stationary_speeds(n: int, v_min: float, v_max: float, rng) -> np.ndarray:
    """Observed-trip speeds: density ``∝ 1/v`` on ``[v_min, v_max]``.

    Inverse-CDF: ``V = v_min * (v_max/v_min)^U`` with ``U ~ Uniform(0,1)``.
    """
    _validate_range(v_min, v_max)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if v_min == v_max:
        return np.full(n, float(v_min))
    u = rng.uniform(size=n)
    return v_min * (v_max / v_min) ** u


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


class BatchRandomSpeedManhattanWaypoint(BatchMobilityModel):
    """Random-speed MRWP for ``B`` independent replicas, in lock-step.

    Same layout and RNG discipline as the other batch way-point models:
    flat ``(B * n, 2)`` state, shared kinematics helpers (here with a
    per-agent speed array), and arrival redraws grouped by replica in the
    scalar draw order — destination uniforms, path coin flips, then the
    fresh *uniform* trip speeds, per replica per iteration.

    Args:
        n, side, rngs: see :class:`~repro.mobility.base.BatchMobilityModel`.
        v_min, v_max: per-trip speed range (scalar semantics, per replica).
        init: ``"stationary"`` or ``"uniform"``, applied per replica.
    """

    def __init__(self, n: int, side: float, v_min: float, v_max: float, rngs, init="stationary"):
        _validate_range(v_min, v_max)
        super().__init__(n, side, stationary_mean_speed(v_min, v_max), rngs)
        self.v_min = float(v_min)
        self.v_max = float(v_max)
        self._eps = 1e-9 * max(self.side, 1.0)
        states = [
            _initial_speed_state(self.n, self.side, self.v_min, self.v_max, init, rng)
            for rng in self.rngs
        ]
        self._pos = np.concatenate([s[0] for s in states], axis=0)
        self._dest = np.concatenate([s[1] for s in states], axis=0)
        self._target = np.concatenate([s[2] for s in states], axis=0)
        self._on_second_leg = np.concatenate([s[3] for s in states], axis=0)
        self._trip_speed = np.concatenate([s[4] for s in states], axis=0)
        self._scratch = DenseLegScratch(self.batch_size * self.n)

    @property
    def trip_speeds(self) -> np.ndarray:
        """``(B, n)`` copy of the per-agent current-trip speeds."""
        return self._trip_speed.reshape(self.batch_size, self.n).copy()

    @property
    def mean_current_speed(self) -> np.ndarray:
        """``(B,)`` population-average current speed per replica."""
        return self._trip_speed.reshape(self.batch_size, self.n).mean(axis=1)

    def step(self, dt: float = 1.0, active=None, copy: bool = True) -> np.ndarray:
        check_dt(dt)
        active = self._active_mask(active)
        time_budget = np.where(np.repeat(active, self.n), float(dt), 0.0)
        _advance_random_speed(
            self._pos, self._dest, self._target, self._on_second_leg,
            self._trip_speed, time_budget,
            self.side, self.v_min, self.v_max, self._eps, self.rngs, self.n,
            scratch=self._scratch,
        )
        self.time += dt
        return self.positions if copy else self.positions_view


def _advance_random_speed(
    pos, dest, target, on_second_leg, trip_speed, time_budget,
    side, v_min, v_max, eps, rngs, n, scratch,
):
    """Spend ``time_budget`` through the random-speed carry-over loop.

    The single driver behind the scalar and batch models.  Frozen replicas
    enter with zero budget and their generators see no draws.
    """
    eps_t = eps / v_max
    total = time_budget.shape[0]
    for _ in range(_MAX_LEGS_PER_STEP):
        moving = time_budget > eps_t
        n_moving = int(np.count_nonzero(moving))
        if n_moving == 0:
            break
        if 2 * n_moving >= total:
            done = advance_legs_dense(
                pos, target, time_budget, moving, n_moving, eps, scratch, speed=trip_speed
            )
        else:
            idx = np.nonzero(moving)[0]
            done = advance_legs(pos, target, time_budget, idx, eps, speed=trip_speed)
        if done.size == 0:
            break
        _corner_done, trip_done = split_completed_legs(done, on_second_leg, target, dest)
        if trip_done.size:
            redraw_manhattan_trips(pos, dest, target, on_second_leg, trip_done, side, rngs, n)
            # Fresh trips draw *uniform* speeds — the 1/v bias emerges
            # from time-averaging, not from the per-trip law.
            for b, lo, hi in replica_slices(trip_done, n, len(rngs)):
                trip_speed[trip_done[lo:hi]] = rngs[b].uniform(v_min, v_max, size=hi - lo)
    else:  # pragma: no cover - defensive
        raise RuntimeError("carry-over loop did not converge")


def _initial_speed_state(
    n: int, side: float, v_min: float, v_max: float, init, rng: np.random.Generator
) -> tuple:
    """One replica's initial random-speed state — the scalar model's recipe.

    Returns:
        ``(positions, destinations, targets, on_second_leg, trip_speed)``.
    """
    if init == "stationary":
        state = PalmStationarySampler(side).sample(n, rng)
        trip_speed = sample_stationary_speeds(n, v_min, v_max, rng)
        return state.positions, state.destinations, state.targets, state.on_second_leg, trip_speed
    if init == "uniform":
        pos = rng.uniform(0.0, side, size=(n, 2))
        dest = rng.uniform(0.0, side, size=(n, 2))
        target, _ = choose_corners(pos, dest, rng)
        trip_speed = rng.uniform(v_min, v_max, size=n)
        return pos, dest, target, np.zeros(n, dtype=bool), trip_speed
    raise ValueError(f"init must be 'stationary' or 'uniform', got {init!r}")


def cold_start_speed_decay(
    n: int,
    side: float,
    v_min: float,
    v_max: float,
    steps: int,
    rng: np.random.Generator,
    every: int = 1,
) -> dict:
    """Measure the average-speed transient from a cold (uniform-speed) start.

    Returns:
        dict with ``steps``, ``mean_speed`` (series), ``uniform_mean``
        (the biased starting value ``(v_min+v_max)/2``) and
        ``stationary_mean`` (the harmonic-style limit).  The series decays
        from the former toward the latter — the "considered harmful"
        transient that perfect simulation eliminates.
    """
    model = RandomSpeedManhattanWaypoint(n, side, v_min, v_max, rng=rng, init="uniform")
    recorded = [0]
    speeds = [model.mean_current_speed]
    for t in range(1, steps + 1):
        model.step()
        if t % every == 0 or t == steps:
            recorded.append(t)
            speeds.append(model.mean_current_speed)
    return {
        "steps": np.asarray(recorded),
        "mean_speed": np.asarray(speeds),
        "uniform_mean": (v_min + v_max) / 2.0,
        "stationary_mean": stationary_mean_speed(v_min, v_max),
    }
