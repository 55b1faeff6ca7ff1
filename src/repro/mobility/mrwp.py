"""The Manhattan Random Way-Point (MRWP) mobility model — Section 2.

Every agent repeatedly: picks a destination uniformly at random in the
square, picks one of the two Manhattan shortest paths to it uniformly at
random, and walks it at constant speed ``v``.  The induced Markov process
has the non-uniform stationary spatial distribution of Theorem 1 (dense
Central Zone, sparse corner Suburb) — the phenomenon the whole paper is
about.

The implementation is vectorized: a step advances all agents at once, with a
carry-over loop so that an agent may finish a leg (or a whole trip) and
continue on the next one within a single step.  Both models run the one
loop of :func:`_advance_trips` (the scalar model is its ``B = 1`` case),
which on the compiled tier is a single kernel call.  Turn and arrival
events are counted per agent, supporting the Lemma-13 turn-statistics
experiments.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.paths import choose_corners
from repro.kernels import ManhattanTrips, TripWork, get_kernel
from repro.mobility.base import BatchMobilityModel, MobilityModel, check_dt
from repro.mobility.kinematics import (
    DenseLegScratch,
    advance_legs,
    advance_legs_dense,
    redraw_manhattan_trips,
    split_completed_legs,
)
from repro.mobility.stationary import (
    ClosedFormStationarySampler,
    KinematicState,
    PalmStationarySampler,
)

__all__ = ["ManhattanRandomWaypoint", "BatchManhattanRandomWaypoint"]

#: Safety cap on legs completed by one agent within a single step.
_MAX_LEGS_PER_STEP = 100_000


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
        # No dense-pass scratch: the numpy loop runs the scalar model's
        # historical sparse passes, since a dense pass also rewrites rows
        # that do not move (``pos += delta * 0.0`` turns -0.0 into +0.0).
        self._scratch = None
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


class BatchManhattanRandomWaypoint(BatchMobilityModel):
    """MRWP mobility for ``B`` independent replicas, advanced in lock-step.

    Kinematic state lives in flat ``(B * n, 2)`` tensors so one carry-over
    iteration updates every agent of every replica with single vectorized
    operations.  Randomness stays per-replica: initial states are sampled
    with each replica's own generator, and within a carry-over iteration the
    trip-completion redraws are grouped by replica (ascending replica order,
    ascending agent order within a replica) — the exact draw sequence of the
    scalar :class:`ManhattanRandomWaypoint`, because an agent completes a
    trip in batch iteration ``k`` iff it does so in scalar iteration ``k``
    (kinematics are deterministic given the state).

    Args:
        n, side, speed, rngs: see :class:`~repro.mobility.base.BatchMobilityModel`.
        init: scalar ``init`` spec (``"stationary"``, ``"closed-form"``,
            ``"uniform"``) applied per replica, or a sequence of ``B``
            :class:`~repro.mobility.stationary.KinematicState` objects.
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

    The one carry-over loop of both MRWP models, over the flat ``B * n``
    state of ``model`` (``rngs[b]`` draws replica ``b``'s trips).  Each
    pass moves the agents with budget left; a corner arrival turns onto
    its second leg and a finished trip is redrawn, replica by replica,
    before the next pass spends the leftover budget.  On the compiled tier
    the trip mode of the ``advance_legs_dense`` kernel runs the whole loop
    in one call, drawing the same numbers in the same order; elsewhere, or
    when the kernel declines the inputs, the numpy loop below runs, with
    dense passes while half the agents move if ``model`` has dense-pass
    scratch (the batch model) and sparse passes otherwise.
    """
    distance = model.speed * dt
    eps = model._eps
    kernel = get_kernel("advance_legs_dense")
    if kernel is not None:
        trips = ManhattanTrips(
            model._dest, model._on_second_leg, model.turn_counts, model.arrival_counts,
            model.side, rngs, _MAX_LEGS_PER_STEP, model._trip_work,
        )
        passes = kernel(
            model._pos, model._target, distance, active, int(np.count_nonzero(active)),
            eps, trips=trips,
        )
        if passes is not None:
            if passes < 0:
                raise _not_converged(model)
            return
    budget = model._budget
    total = budget.shape[0]
    if active.all():
        budget.fill(distance)
    else:
        np.multiply(np.repeat(active, model.n), distance, out=budget)
    for _ in range(_MAX_LEGS_PER_STEP):
        moving = budget > eps
        n_moving = int(np.count_nonzero(moving))
        if n_moving == 0:
            break
        if model._scratch is not None and 2 * n_moving >= total:
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
        raise _not_converged(model)


def _not_converged(model) -> RuntimeError:
    return RuntimeError(
        "carry-over loop did not converge; speed is implausibly large "
        f"relative to the square (speed={model.speed}, side={model.side})"
    )


def _initial_state(n: int, side: float, init, rng: np.random.Generator) -> KinematicState:
    """One replica's initial kinematic state — the scalar model's recipe."""
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
