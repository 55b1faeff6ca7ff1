"""The Manhattan Random Way-Point (MRWP) mobility model — Section 2.

Every agent repeatedly: picks a destination uniformly at random in the
square, picks one of the two Manhattan shortest paths to it uniformly at
random, and walks it at constant speed ``v``.  The induced Markov process
has the non-uniform stationary spatial distribution of Theorem 1 (dense
Central Zone, sparse corner Suburb) — the phenomenon the whole paper is
about.

The implementation is vectorized: a step advances all agents at once, with a
carry-over loop so that an agent may finish a leg (or a whole trip) and
continue on the next one within a single step.  The loop is
:func:`_advance_trips`, which on the compiled tier is a single kernel
call; the scalar model is the one-replica view of the batch model.  Turn
and arrival events are counted per agent, supporting the Lemma-13
turn-statistics experiments.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.paths import choose_corners
from repro.kernels import ManhattanTrips, TripWork
from repro.mobility import kinematics
from repro.mobility.base import BatchMobilityModel, MobilityModel, check_dt
from repro.mobility.kinematics import (
    DenseLegScratch,
    advance_legs,
    advance_legs_dense,
    compiled_trip_step,
    fill_budget,
    not_converged,
    redraw_manhattan_trips,
    split_completed_legs,
)
from repro.mobility.stationary import (
    ClosedFormStationarySampler,
    KinematicState,
    PalmStationarySampler,
)

__all__ = ["ManhattanRandomWaypoint", "BatchManhattanRandomWaypoint"]


class ManhattanRandomWaypoint(MobilityModel):
    """MRWP mobility over ``[0, side]^2`` (the paper's model).

    The one-replica view of :class:`BatchManhattanRandomWaypoint`.

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
    """

    def __init__(
        self,
        n: int,
        side: float,
        speed: float,
        rng: np.random.Generator = None,
        init="stationary",
    ):
        super().__init__(BatchManhattanRandomWaypoint(n, side, speed, self._rngs(rng), init=init))
        self._init_spec = init

    @property
    def turn_counts(self) -> np.ndarray:
        """Cumulative direction-change events per agent (Manhattan-corner
        turns plus trip arrivals), as counted by the paper's ``H_{t,tau}``
        statistic — the twin's live ``(n,)`` counter."""
        return self.batch.turn_counts

    @property
    def arrival_counts(self) -> np.ndarray:
        """Cumulative completed trips per agent (the twin's live counter)."""
        return self.batch.arrival_counts

    @property
    def destinations(self) -> np.ndarray:
        """Copy of the agents' current final destinations."""
        return self.batch._dest.copy()

    @property
    def on_second_leg(self) -> np.ndarray:
        """Copy of the per-agent second-leg flags."""
        return self.batch._on_second_leg.copy()

    def get_state(self) -> KinematicState:
        """Snapshot of the full kinematic state (deep copy)."""
        batch = self.batch
        return KinematicState(
            batch._pos.copy(), batch._dest.copy(), batch._target.copy(),
            batch._on_second_leg.copy(),
        )

    def set_state(self, state: KinematicState) -> None:
        """Restore a previously captured kinematic state (deep copy)."""
        if state.n != self.n:
            raise ValueError(f"state has {state.n} agents, model expects {self.n}")
        batch = self.batch
        batch._pos = state.positions.copy()
        batch._dest = state.destinations.copy()
        batch._target = state.targets.copy()
        batch._on_second_leg = state.on_second_leg.copy()

    def reset(self, rng: np.random.Generator = None) -> None:
        """Re-draw the initial state (optionally with a new generator)."""
        if rng is not None:
            self.rng = self.batch.rngs[0] = rng
        self.set_state(_initial_state(self.n, self.side, self._init_spec, self.rng))
        self.turn_counts[:] = 0
        self.arrival_counts[:] = 0
        self.batch.time = 0.0


class BatchManhattanRandomWaypoint(BatchMobilityModel):
    """MRWP mobility for ``B`` independent replicas, advanced in lock-step.

    Kinematic state lives in flat ``(B * n, 2)`` tensors so one carry-over
    iteration updates every agent of every replica with single vectorized
    operations.  Randomness stays per-replica: initial states are sampled
    with each replica's own generator, and within a carry-over iteration the
    trip-completion redraws are grouped by replica (ascending replica order,
    ascending agent order within a replica) — the draw sequence of one
    replica run alone, because an agent completes a trip in batch iteration
    ``k`` iff it does so in a one-replica iteration ``k`` (kinematics are
    deterministic given the state).

    Args:
        n, side, speed, rngs: see :class:`~repro.mobility.base.BatchMobilityModel`.
        init: ``init`` spec of :class:`ManhattanRandomWaypoint` applied per
            replica, or a sequence of ``B``
            :class:`~repro.mobility.stationary.KinematicState` objects.

    Attributes:
        turn_counts / arrival_counts: flat ``(B * n,)`` cumulative turn and
            trip-arrival counters.
    """

    def __init__(self, n: int, side: float, speed: float, rngs, init="stationary"):
        super().__init__(n, side, speed, rngs)
        states = []
        for b, rng in enumerate(self.rngs):
            spec = init[b] if isinstance(init, (list, tuple)) else init
            states.append(_initial_state(self.n, self.side, spec, rng))
        self._pos = np.concatenate([s.positions for s in states], axis=0)
        self._dest = np.concatenate([s.destinations for s in states], axis=0)
        self._target = np.concatenate([s.targets for s in states], axis=0)
        self._on_second_leg = np.concatenate([s.on_second_leg for s in states], axis=0)
        self.turn_counts = np.zeros(self.batch_size * self.n, dtype=np.int64)
        self.arrival_counts = np.zeros(self.batch_size * self.n, dtype=np.int64)
        self._eps = 1e-9 * max(self.side, 1.0)
        total = self.batch_size * self.n
        self._budget = np.empty(total, dtype=np.float64)
        self._scratch = DenseLegScratch(total)
        self._trip_work = TripWork(total)

    def step(self, dt: float = 1.0, active=None, copy: bool = True) -> np.ndarray:
        check_dt(dt)
        _advance_trips(self, self.rngs, dt, self._active_mask(active))
        self.time += dt
        return self.positions if copy else self.positions_view


def _advance_trips(model, rngs, dt, active) -> None:
    """Walk every agent of the ``active`` replicas ``speed * dt`` along its trips.

    The one carry-over loop of the MRWP model, over the flat ``B * n``
    state of ``model`` (``rngs[b]`` draws replica ``b``'s trips).  Each
    pass moves the agents with budget left; a corner arrival turns onto
    its second leg and a finished trip is redrawn, replica by replica,
    before the next pass spends the leftover budget.  On the compiled tier
    the trip mode of the ``advance_legs_dense`` kernel runs the whole loop
    in one call, drawing the same numbers in the same order; elsewhere, or
    when the kernel declines the inputs, the numpy loop below runs, with
    dense passes while at least half the agents move and sparse passes
    otherwise.
    """
    distance = model.speed * dt
    eps = model._eps
    max_passes = kinematics._MAX_LEGS_PER_STEP
    trips = ManhattanTrips(
        model._dest, model._on_second_leg, model.turn_counts, model.arrival_counts,
        model.side, rngs, max_passes, model._trip_work,
    )
    passes = compiled_trip_step(model._pos, model._target, distance, active, eps, trips)
    if passes is not None:
        if passes < 0:
            raise not_converged(model.speed, model.side)
        return
    budget = fill_budget(model._budget, active, model.n, distance)
    total = budget.shape[0]
    for _ in range(max_passes):
        moving = budget > eps
        n_moving = int(np.count_nonzero(moving))
        if n_moving == 0:
            break
        if 2 * n_moving >= total:
            # Dense pass — typically the first carry-over iteration,
            # where every unfrozen agent moves.
            done = advance_legs_dense(
                model._pos, model._target, budget, moving, n_moving, eps, model._scratch
            )
        else:
            idx = np.nonzero(moving)[0]
            done = advance_legs(model._pos, model._target, budget, idx, eps)
        if done.size == 0:
            break
        _corner_done, trip_done = split_completed_legs(
            done, model._on_second_leg, model._target, model._dest, model.turn_counts
        )
        if trip_done.size:
            redraw_manhattan_trips(
                model._pos, model._dest, model._target, model._on_second_leg,
                trip_done, model.side, rngs, model.n,
            )
            model.turn_counts[trip_done] += 1
            model.arrival_counts[trip_done] += 1
    else:
        raise not_converged(model.speed, model.side)


def _initial_state(n: int, side: float, init, rng: np.random.Generator) -> KinematicState:
    """One replica's initial kinematic state."""
    if isinstance(init, KinematicState):
        if init.n != n:
            raise ValueError(f"state has {init.n} agents, model expects {n}")
        return init.copy()
    if init == "stationary":
        return PalmStationarySampler(side).sample(n, rng)
    if init == "closed-form":
        return ClosedFormStationarySampler(side).sample(n, rng)
    if init == "uniform":
        positions = rng.uniform(0.0, side, size=(n, 2))
        dests = rng.uniform(0.0, side, size=(n, 2))
        corners, _choice = choose_corners(positions, dests, rng)
        on_second_leg = np.zeros(n, dtype=bool)
        return KinematicState(positions, dests, corners, on_second_leg)
    raise ValueError(
        f"init must be 'stationary', 'closed-form', 'uniform' or a KinematicState, got {init!r}"
    )
