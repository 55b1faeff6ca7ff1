"""Mobility-model interface.

A mobility model owns the kinematic state of ``n`` agents on the square
``[0, side]^2`` and advances all of them synchronously, one discrete time
step at a time (the paper's time unit).  Implementations are vectorized:
state lives in ``(n, 2)`` numpy arrays, never in per-agent objects.

Concrete models:

* :class:`repro.mobility.mrwp.ManhattanRandomWaypoint` — the paper's model;
* :class:`repro.mobility.rwp.RandomWaypoint` — the classic straight-line RWP;
* :class:`repro.mobility.random_walk.RandomWalk` — the random-walk model of
  the authors' earlier papers (refs [10, 11]);
* :class:`repro.mobility.random_direction.RandomDirection` — a billiard-style
  model with a uniform stationary distribution (useful as a contrast).

The batch engine (DESIGN.md, "Batched execution") additionally needs
**multi-replica** stepping: :class:`BatchMobilityModel` advances ``B``
independent trials in lock-step over a ``(B, n, 2)`` tensor.  Replica ``b``
draws randomness only from its own generator, in exactly the order the
scalar model would, so a batch run reproduces ``B`` scalar runs
seed-for-seed.  Models without a native vectorized batch implementation are
adapted through :class:`ReplicatedBatchMobility`.
"""

from __future__ import annotations

import abc
import math

import numpy as np

__all__ = [
    "MobilityModel",
    "BatchMobilityModel",
    "ReplicatedBatchMobility",
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


class BatchMobilityModel(abc.ABC):
    """Abstract base for lock-step mobility over ``B`` independent replicas.

    The contract mirrors :class:`MobilityModel` with a leading batch axis,
    plus one reproducibility guarantee: replica ``b`` consumes randomness
    exclusively from ``rngs[b]`` and in the same call order as the scalar
    model seeded identically, so per-trial streams stay bit-reproducible
    under batching (asserted by the parity tests).

    Args:
        n: number of agents per replica.
        side: side length of each replica's square.
        speed: agent speed (same interpretation as the scalar model).
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
        if active is None:
            return np.ones(self.batch_size, dtype=bool)
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


class ReplicatedBatchMobility(BatchMobilityModel):
    """Batch adapter over ``B`` independent scalar models.

    The fallback path of the batch engine: stepping is a Python loop, so
    there is no vectorization win, but behaviour is bit-identical to the
    scalar models by construction — any :class:`MobilityModel` becomes
    batchable without a native implementation.

    Args:
        models: scalar mobility models, one per replica, all with the same
            ``(n, side)`` geometry (each owning its per-trial generator).
    """

    def __init__(self, models):
        models = list(models)
        if not models:
            raise ValueError("models must contain at least one mobility model")
        first = models[0]
        for model in models[1:]:
            if model.n != first.n or model.side != first.side:
                raise ValueError("all replica models must share n and side")
        super().__init__(first.n, first.side, first.speed, [m.rng for m in models])
        self.models = models

    @property
    def positions(self) -> np.ndarray:
        return np.stack([model.positions for model in self.models], axis=0)

    @property
    def positions_view(self) -> np.ndarray:
        # The per-replica stack is a fresh array either way; nothing to view.
        return self.positions

    def step(self, dt: float = 1.0, active=None, copy: bool = True) -> np.ndarray:
        check_dt(dt)
        active = self._active_mask(active)
        for b in np.nonzero(active)[0]:
            self.models[b].step(dt)
        self.time += dt
        return self.positions  # already a fresh stack; `copy` adds nothing


def record_trajectory(model: MobilityModel, steps: int, dt: float = 1.0) -> np.ndarray:
    """Record positions over ``steps`` steps, including the initial snapshot.

    Returns:
        array of shape ``(steps + 1, n, 2)``; row ``t`` is the position at
        time ``model.time_at_start + t * dt``.  Used by the Lemma-13/14
        trajectory analyses (:mod:`repro.core.turns`).
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    frames = np.empty((steps + 1, model.n, 2), dtype=np.float64)
    frames[0] = model.positions
    for t in range(1, steps + 1):
        frames[t] = model.step(dt)
    return frames
