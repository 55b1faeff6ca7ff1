"""Vectorized leg-kinematics core shared by every way-point mobility model.

Every trip-based model in this package advances agents the same way: walk
toward the current leg target, detect arrivals with an overshoot tolerance,
carry the unspent budget over to the next leg, and redraw trips (and pause
timers, and speeds) when a journey completes.  Before this module each model
carried its own copy of that arithmetic — four near-identical carry-over
loops in ``mrwp.py`` / ``rwp.py`` / ``pause.py`` / ``speed_range.py`` plus
their batch twins.  This module is the single implementation both the
scalar and the batch models drive.

Design constraints, in priority order:

1. **Bit-exactness.**  The helpers reproduce the historical per-model
   arithmetic operation for operation (same gathers, same guarded
   divisions, same comparison thresholds), so refactored models keep their
   seed-for-seed trajectories and a batch model that shares these helpers
   with its scalar counterpart is bit-identical to it by construction.
2. **One layout, two drivers.**  All state is flat ``(total, 2)`` /
   ``(total,)`` arrays where ``total`` is ``n`` for a scalar model and
   ``B * n`` for a batch model; the same helper serves both.  Randomness
   never lives here: models pass explicit index sets and draw from their
   own generators, replica by replica, via :func:`replica_slices` — the
   mechanism that preserves the scalar draw order under batching.  The
   one exception sits below this module, in the compiled trip mode of
   the ``advance_legs_dense`` kernel (:func:`compiled_trip_step`), which
   runs a whole step of a trip model — MRWP, pause-MRWP, random-speed
   MRWP or RWP — and draws from each replica's bit generator itself,
   pass by pass and replica by replica, with the calls and order of the
   model's numpy loop (:func:`redraw_manhattan_trips`, ``rng.uniform``
   speeds, :func:`redraw_destinations`; ``repro.kernels._cores``).
3. **Budget conventions.**  :func:`advance_legs` supports the two
   historical conventions: a *distance* budget (``speed=None`` — MRWP's
   ``v * dt`` units) and a *time* budget with a scalar or per-agent speed
   (the pause / RWP / random-speed models).  The convention is part of a
   model's observable arithmetic, so it is preserved, not unified.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.paths import path_coins, path_corner
from repro.kernels import get_kernel

__all__ = [
    "advance_legs",
    "DenseLegScratch",
    "advance_legs_dense",
    "split_completed_legs",
    "countdown_pauses",
    "replica_slices",
    "redraw_manhattan_trips",
    "redraw_destinations",
    "reflect_into_square",
    "fill_budget",
    "compiled_trip_step",
    "not_converged",
]

_EMPTY = np.empty(0, dtype=np.intp)

#: Safety cap on the carry-over passes of one step.  Every trip model
#: reads it at call time, on both kernel tiers.
_MAX_LEGS_PER_STEP = 100_000


def fill_budget(budget, active, n, value):
    """Fill the ``(B*n,)`` buffer ``budget`` with ``value`` for the agents
    of the ``active`` replicas and ``0.0`` elsewhere; returns it.

    ``np.multiply`` of the repeated mask is bit-equal to
    ``np.where(mask, value, 0.0)`` for a finite, non-negative ``value``.
    """
    if active.all():
        budget.fill(value)
    else:
        np.multiply(np.repeat(active, n), value, out=budget)
    return budget


def compiled_trip_step(pos, target, budget, active, eps, trips, speed=None):
    """One whole step of a trip model in the trip mode of the compiled
    ``advance_legs_dense`` kernel.

    ``trips`` is the model's trip state (``repro.kernels.ManhattanTrips``
    and its siblings), ``budget`` the step's distance (MRWP) or time and
    ``speed`` the speed a time budget is spent at.  Returns the passes
    run, -1 when ``trips.max_passes`` passes did not finish the step, or
    ``None`` when the numpy tier is active or the kernel declines the
    inputs; then the model runs its numpy loop, which draws the same
    numbers.
    """
    kernel = get_kernel("advance_legs_dense")
    if kernel is None:
        return None
    return kernel(
        pos, target, budget, active, int(np.count_nonzero(active)), eps, speed=speed, trips=trips
    )


def not_converged(speed, side) -> RuntimeError:
    """The error of a step whose carry-over loop hit the pass cap."""
    return RuntimeError(
        "carry-over loop did not converge; speed is implausibly large "
        f"relative to the square (speed={speed}, side={side})"
    )


def advance_legs(pos, target, budget, idx, eps, speed=None, metric="manhattan"):
    """One masked carry-over iteration: move agents ``idx`` toward ``target``.

    Mutates ``pos`` and ``budget`` in place and snaps arrived agents onto
    their targets.

    Args:
        pos: ``(total, 2)`` positions (mutated).
        target: ``(total, 2)`` current leg targets.
        budget: ``(total,)`` remaining budget (mutated) — *distance* when
            ``speed`` is None, *time* otherwise.
        idx: flat indices of the agents to advance (the model's moving
            mask; callers pass only agents with budget left).
        eps: distance tolerance for arrival detection and the zero-length
            guard (the model's ``1e-9 * max(side, 1)``).
        speed: None (distance budget), a scalar speed, or a ``(total,)``
            per-agent speed array (the random-speed model).
        metric: ``"manhattan"`` for axis-aligned legs, ``"euclidean"``
            for straight-line legs (classic RWP).

    Returns:
        flat indices of the agents that reached their leg target this
        iteration (already snapped onto it), in ascending order.
    """
    kernel = get_kernel("advance_legs")
    if kernel is not None:
        # Compiled tier: distance budgets on Manhattan legs run in one fused
        # loop with the identical IEEE operation sequence (bit-exact); time
        # budgets, Euclidean legs and unsupported layouts fall through.
        done = kernel(pos, target, budget, idx, eps, speed, metric)
        if done is not None:
            return done
    delta = target[idx] - pos[idx]
    if metric == "manhattan":
        dist = np.abs(delta).sum(axis=1)  # legs are axis-aligned
    else:
        dist = np.sqrt(np.sum(delta * delta, axis=1))
    b = budget[idx]
    if speed is None:
        move = np.minimum(b, dist)
    else:
        s = speed[idx] if isinstance(speed, np.ndarray) else speed
        move = np.minimum(b * s, dist)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(dist > eps, move / np.where(dist > eps, dist, 1.0), 1.0)
    pos[idx] += delta * frac[:, None]
    if speed is None:
        budget[idx] = b - move
    else:
        budget[idx] = b - move / s
    reached = move >= dist - eps
    if not np.any(reached):
        return _EMPTY
    done = idx[reached]
    pos[done] = target[done]
    return done


class DenseLegScratch:
    """Preallocated buffers for :func:`advance_legs_dense`.

    At ``B * n`` scale a step's temporaries are fresh mmap'd pages each
    time, and the page faults cost more than the arithmetic — so the dense
    pass reuses these buffers every iteration (one instance per model).
    """

    def __init__(self, total: int):
        self.delta = np.empty((total, 2), dtype=np.float64)
        self.dist = np.empty(total, dtype=np.float64)
        self.dist_safe = np.empty(total, dtype=np.float64)
        self.move = np.empty(total, dtype=np.float64)
        self.frac = np.empty(total, dtype=np.float64)
        self.scratch = np.empty(total, dtype=np.float64)
        self.far = np.empty(total, dtype=bool)
        self.notfar = np.empty(total, dtype=bool)


def advance_legs_dense(pos, target, budget, moving, n_moving, eps, scratch, speed=None):
    """Dense full-array variant of :func:`advance_legs` (Manhattan legs).

    Used when most agents are moving (typically the first carry-over
    iteration): full-array arithmetic into preallocated scratch avoids
    both the gather/scatter of the fancy-indexed pass and fresh
    temporaries.  Rows that do not move are left untouched, and every
    per-agent operation consumes the same operand values as the sparse
    pass, so the two are bit-interchangeable — models switch on density
    freely without touching results.

    Args:
        moving: ``(total,)`` bool mask of agents with budget left.
        n_moving: precomputed ``count_nonzero(moving)``.
        speed: None (distance budget), a scalar speed, or a ``(total,)``
            per-agent speed array (time budgets, as in
            :func:`advance_legs`).

    Returns:
        flat indices of agents that reached their leg target (snapped).
    """
    kernel = get_kernel("advance_legs_dense")
    if kernel is not None:
        # Compiled tier: fused dense pass over the moving rows (bit-exact)
        # for distance budgets; time budgets fall through.
        done = kernel(pos, target, budget, moving, n_moving, eps, speed)
        if done is not None:
            return done
    total = budget.shape[0]
    delta = np.subtract(target, pos, out=scratch.delta)
    dist = np.abs(delta[:, 0], out=scratch.dist)  # legs are axis-aligned
    dist += np.abs(delta[:, 1], out=scratch.scratch)
    if speed is None:
        move = np.minimum(budget, dist, out=scratch.move)
    else:
        can = np.multiply(budget, speed, out=scratch.scratch)
        move = np.minimum(can, dist, out=scratch.move)
    far = np.greater(dist, eps, out=scratch.far)
    notfar = np.logical_not(far, out=scratch.notfar)
    dist_safe = scratch.dist_safe
    np.copyto(dist_safe, dist)
    dist_safe[notfar] = 1.0
    frac = np.divide(move, dist_safe, out=scratch.frac)
    frac[notfar] = 1.0
    if speed is None:
        spent = move
    else:
        spent = np.divide(move, speed, out=scratch.scratch)
    if n_moving == total:
        # Everyone moves: the masking below would be an exact identity.
        delta *= frac[:, None]
        pos += delta
        budget -= spent
        done = np.nonzero(move >= dist - eps)[0]
    else:
        delta *= frac[:, None]
        np.add(pos, delta, out=pos, where=moving[:, None])
        np.subtract(budget, spent, out=budget, where=moving)
        done = np.nonzero(moving & (move >= dist - eps))[0]
    if done.size:
        pos[done] = target[done]
    return done


def split_completed_legs(done, on_second_leg, target, dest, turn_counts=None):
    """Split leg completions into corner turns and finished trips.

    Agents that finished their *first* leg are promoted onto the second:
    ``on_second_leg`` set, ``target`` re-aimed at the trip destination (and
    the turn counted, when a counter is given).  Finished trips are
    returned for the model to redraw — trip sampling is model-specific.

    Returns:
        ``(corner_done, trip_done)`` flat index arrays.
    """
    second = on_second_leg[done]
    corner_done = done[~second]
    if corner_done.size:
        on_second_leg[corner_done] = True
        target[corner_done] = dest[corner_done]
        if turn_counts is not None:
            turn_counts[corner_done] += 1
    return corner_done, done[second]


def countdown_pauses(pause_left, time_budget, min_budget=0.0):
    """Burn pause time before motion; returns the pauses that just ended.

    Agents with a running pause and budget above ``min_budget`` spend the
    smaller of the two (both arrays mutated in place).

    Args:
        min_budget: the budget threshold for participating — the pause
            model's time epsilon, or ``0.0`` for RWP's strict ``> 0``.

    Returns:
        flat indices whose pause reached zero this call (they start their
        next trip immediately; the caller draws it).
    """
    pausing = (pause_left > 0) & (time_budget > min_budget)
    if not np.any(pausing):
        return _EMPTY
    spend = np.minimum(pause_left[pausing], time_budget[pausing])
    pause_left[pausing] -= spend
    time_budget[pausing] -= spend
    return np.nonzero(pausing)[0][pause_left[pausing] <= 0]


def replica_slices(flat_idx, n, batch_size):
    """Group ascending flat indices by replica for per-replica RNG draws.

    ``flat_idx`` is ascending over the flat ``B * n`` layout, so slicing by
    replica preserves the scalar model's per-replica draw order (replica
    ``b``'s generator sees draws for its own agents only, agents ascending)
    — the reproducibility mechanism of every batch model.

    Yields:
        ``(b, lo, hi)`` with ``flat_idx[lo:hi]`` the indices of replica
        ``b`` (empty replicas are skipped).  A scalar model is the
        ``batch_size == 1`` special case.
    """
    if batch_size == 1:  # scalar models: no grouping arithmetic needed
        if flat_idx.size:
            yield 0, 0, flat_idx.size
        return
    replicas = flat_idx // n
    starts = np.searchsorted(replicas, np.arange(batch_size + 1)).tolist()
    for b in range(batch_size):
        lo, hi = starts[b], starts[b + 1]
        if lo < hi:
            yield b, lo, hi


def redraw_manhattan_trips(pos, dest, target, on_second_leg, idx, side, rngs, n):
    """Draw fresh Manhattan trips for agents ``idx``, replica by replica.

    Per replica (ascending, via :func:`replica_slices`): destination
    uniforms first, then the path coins — the historical
    ``rng.uniform(0.0, side, size=(k, 2))`` + ``rng.integers(0, 2, size=k)``
    sequence.  Each replica makes the cheapest generator calls with the same
    output bits and end state: ``rng.random`` fills (``0.0 + side * u`` is
    ``side * u`` for ``u >= 0``) and :func:`~repro.geometry.paths.path_coins`.
    Scaling, thresholding and the corner arithmetic run once, batched
    across replicas, afterwards.
    """
    dests = np.empty((idx.size, 2), dtype=np.float64)
    coins = np.empty(idx.size, dtype=np.float32)
    for b, lo, hi in replica_slices(idx, n, len(rngs)):
        rng = rngs[b]
        rng.random(out=dests[lo:hi])
        path_coins(rng, out=coins[lo:hi])
    dests *= side
    dest[idx] = dests
    target[idx] = path_corner(pos[idx], dests, coins >= 0.5)
    on_second_leg[idx] = False


def redraw_destinations(dest, idx, side, rngs, n):
    """Draw fresh straight-line destinations (classic RWP), per replica.

    The historical per-replica ``rng.uniform(0.0, side, size=(k, 2))``
    draws, as ``rng.random`` fills scaled by ``side`` once (bit-identical,
    see :func:`redraw_manhattan_trips`).
    """
    dests = np.empty((idx.size, 2), dtype=np.float64)
    for b, lo, hi in replica_slices(idx, n, len(rngs)):
        rngs[b].random(out=dests[lo:hi])
    dests *= side
    dest[idx] = dests


def reflect_into_square(pos, heading, side, max_folds=64):
    """Fold positions back into ``[0, side]^2``, flipping heading components.

    The billiard reflection of the random-direction model: a per-step
    displacement is at most ``speed``, and folding is iterated to handle
    speeds larger than the square side.  Rows already inside the square are
    untouched, so the batch models may safely pass frozen replicas through.
    """
    for axis in range(2):
        for _ in range(max_folds):
            below = pos[:, axis] < 0.0
            above = pos[:, axis] > side
            if not (np.any(below) or np.any(above)):
                break
            pos[below, axis] = -pos[below, axis]
            heading[below, axis] = -heading[below, axis]
            pos[above, axis] = 2.0 * side - pos[above, axis]
            heading[above, axis] = -heading[above, axis]
