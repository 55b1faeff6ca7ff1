"""Mobility-model interface.

A mobility model owns the kinematic state of ``n`` agents on the square
``[0, side]^2`` and advances all of them synchronously, one discrete time
step at a time (the paper's time unit).  State lives in flat numpy
arrays, never in per-agent objects.

Each model has **one implementation**, a :class:`BatchMobilityModel`
subclass that advances ``B`` independent replicas in lock-step over a
``(B, n, 2)`` tensor.  Replica ``b`` draws randomness only from its own
generator, in a fixed per-step order, so a batch of ``B`` equals ``B``
one-replica runs seed for seed (DESIGN.md, "Batched execution").  The
scalar engine's :class:`MobilityModel` classes are one-replica views of
those batch models, with no kinematics of their own.

Concrete models (scalar view / batch model), among others:

* :class:`repro.mobility.mrwp.ManhattanRandomWaypoint` — the paper's model;
* :class:`repro.mobility.rwp.RandomWaypoint` — the classic straight-line RWP;
* :class:`repro.mobility.random_walk.RandomWalk` — the random-walk model of
  the authors' earlier papers (refs [10, 11]);
* :class:`repro.mobility.random_direction.RandomDirection` — a billiard-style
  model with a uniform stationary distribution (useful as a contrast).
"""

from __future__ import annotations

import abc
import math

import numpy as np

__all__ = [
    "MobilityModel",
    "BatchMobilityModel",
    "record_trajectory",
    "check_dt",
]


def check_dt(dt) -> None:
    """Raise ``ValueError`` unless the step length ``dt`` is positive and finite.

    Every model's ``step`` calls it before touching any state: a NaN ``dt``
    would move no agent yet poison ``time``, and an infinite one would spin
    a carry-over loop to its iteration cap.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


class MobilityModel:
    """One model run: the one-replica view of a :class:`BatchMobilityModel`.

    Each registered model builds its batch twin with ``rngs=[rng]`` and
    holds it at B=1 as :attr:`batch`, so the scalar and the batch engine
    run the same kinematics code.  :attr:`positions`, :meth:`step`,
    :attr:`time` and :meth:`advance` read or drive the twin; a subclass
    adds only its constructor and read-outs of the twin's state.  Argument
    checks are the twin's.

    Args:
        batch: the twin, a :class:`BatchMobilityModel` with one replica.
    """

    def __init__(self, batch: "BatchMobilityModel"):
        if batch.batch_size != 1:
            raise ValueError(f"a view holds one replica, got {batch.batch_size}")
        self.batch = batch
        self.rng = batch.rngs[0]
        self.n = batch.n
        self.side = batch.side
        self.speed = batch.speed

    @staticmethod
    def _rngs(rng: np.random.Generator = None) -> list:
        """The twin's generator list: ``rng``, or a fresh default one."""
        return [rng if rng is not None else np.random.default_rng()]

    @property
    def time(self) -> float:
        """Simulated time; a step that raises leaves it unchanged."""
        return self.batch.time

    @property
    def positions(self) -> np.ndarray:
        """Copy of the current agent positions, shape ``(n, 2)``."""
        return self.batch.positions[0]

    def step(self, dt: float = 1.0) -> np.ndarray:
        """Advance all agents by ``dt`` time units; returns the new positions."""
        return self.batch.step(dt, copy=False)[0].copy()

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


class BatchMobilityModel(abc.ABC):
    """Abstract base for lock-step mobility over ``B`` independent replicas.

    The one implementation of a model's kinematics (its
    :class:`MobilityModel` is the view at B=1), with one reproducibility
    guarantee: replica ``b`` consumes randomness exclusively from
    ``rngs[b]``, in a fixed per-step order, so a replica's trajectory does
    not depend on the batch it runs in (asserted against the historical
    scalar models by the parity tests).

    Args:
        n: number of agents per replica.
        side: side length of each replica's square.
        speed: distance travelled by an agent per unit time (``v`` in the
            paper).  Models that are not constant-speed (e.g. the random
            walk) document their own interpretation.
        rngs: one seeded generator per replica; the sequence length defines
            the batch size ``B``.
    """

    def __init__(self, n: int, side: float, speed: float, rngs):
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        if speed < 0:
            raise ValueError(f"speed must be non-negative, got {speed}")
        self.rngs = list(rngs)
        if not self.rngs:
            raise ValueError("rngs must contain at least one generator")
        self.n = int(n)
        self.side = float(side)
        self.speed = float(speed)
        self.time = 0.0
        self._every_replica = np.ones(len(self.rngs), dtype=bool)
        self._every_replica.flags.writeable = False

    @property
    def batch_size(self) -> int:
        """Number of replicas ``B``."""
        return len(self.rngs)

    @property
    def positions(self) -> np.ndarray:
        """Copy of the current positions, shape ``(B, n, 2)``.

        Vectorized implementations keep their kinematic state in a flat
        ``(B * n, 2)`` float array ``self._pos``, which the base accessors
        read; models with a different storage layout override both
        :attr:`positions` and :attr:`positions_view`.
        """
        return self._pos.reshape(self.batch_size, self.n, 2).copy()

    @property
    def positions_view(self) -> np.ndarray:
        """Read-only ``(B, n, 2)`` positions, without the defensive copy.

        The lock-step driver reads the snapshot once per step and never
        mutates it, so this is a non-writeable view of the flat state —
        valid only until the next ``step`` call (models may refresh the
        underlying buffer in place or rebind it).
        """
        view = self._pos.reshape(self.batch_size, self.n, 2)
        view.flags.writeable = False
        return view

    @abc.abstractmethod
    def step(self, dt: float = 1.0, active=None, copy: bool = True) -> np.ndarray:
        """Advance replicas by ``dt`` time units; returns the new positions.

        Args:
            active: optional ``(B,)`` bool mask — replicas to advance.
                Frozen replicas keep their state *and their generators
                untouched* (a scalar trial that already stopped would not
                have stepped either).
            copy: with the default True the returned positions are an
                independent copy (safe to hold across steps).  The
                lock-step driver passes False to receive
                :attr:`positions_view` instead — read-only and valid only
                until the next ``step`` call (models may either refresh
                the underlying buffer in place or rebind it, so a held
                view can go stale either way).
        """

    def _active_mask(self, active) -> np.ndarray:
        """``active`` as a ``(B,)`` bool mask; ``None`` is every replica
        (one read-only mask per model, not a fresh one per step)."""
        if active is None:
            return self._every_replica
        active = np.asarray(active, dtype=bool)
        if active.shape != (self.batch_size,):
            raise ValueError(
                f"active must have shape ({self.batch_size},), got {active.shape}"
            )
        return active

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(B={self.batch_size}, n={self.n}, "
            f"side={self.side}, speed={self.speed}, time={self.time})"
        )


def record_trajectory(model: MobilityModel, steps: int, dt: float = 1.0) -> np.ndarray:
    """Record positions over ``steps`` steps, including the initial snapshot.

    Returns:
        array of shape ``(steps + 1, n, 2)``; row ``t`` is the position at
        time ``t0 + t * dt``, where ``t0`` is ``model.time`` at the call.
        Used by the Lemma-13/14 trajectory analyses
        (:mod:`repro.core.turns`).
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    frames = np.empty((steps + 1, model.n, 2), dtype=np.float64)
    frames[0] = model.positions
    for t in range(1, steps + 1):
        frames[t] = model.step(dt)
    return frames
