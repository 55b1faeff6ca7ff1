"""Random-direction (billiard) mobility.

Agents travel at constant speed along a heading chosen uniformly at random,
reflect specularly off the square's walls, and redraw a fresh heading after
an exponentially distributed travelled distance.  Unlike both way-point
models, the stationary spatial distribution is exactly uniform, making this
the cleanest "no central density boost" control for the mobility-ablation
experiment.
"""

from __future__ import annotations

import numpy as np

from repro.mobility.base import BatchMobilityModel, MobilityModel, check_dt
from repro.mobility.kinematics import reflect_into_square, replica_slices

__all__ = ["RandomDirection", "BatchRandomDirection"]


def _initial_direction_state(n: int, side: float, mean_leg: float, rng) -> tuple:
    """One replica's initial billiard state.

    Returns:
        ``(positions, headings, leg_left)``.
    """
    pos = rng.uniform(0.0, side, size=(n, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    heading = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    leg_left = rng.exponential(mean_leg, size=n)
    return pos, heading, leg_left


def _redraw_headings(heading, leg_left, idx, mean_leg, rngs, n) -> None:
    """Fresh headings + leg lengths for expired agents, per replica.

    Per replica (ascending): the heading uniforms first, then the
    exponential leg draws.
    """
    for b, lo, hi in replica_slices(idx, n, len(rngs)):
        rng = rngs[b]
        theta = rng.uniform(0.0, 2.0 * np.pi, size=hi - lo)
        sub = idx[lo:hi]
        heading[sub, 0] = np.cos(theta)
        heading[sub, 1] = np.sin(theta)
        leg_left[sub] = rng.exponential(mean_leg, size=hi - lo)


class RandomDirection(MobilityModel):
    """Constant-speed billiard motion with exponential leg lengths.

    The one-replica view of :class:`BatchRandomDirection`.

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
        super().__init__(BatchRandomDirection(n, side, speed, self._rngs(rng), mean_leg=mean_leg))
        self.mean_leg = self.batch.mean_leg


class BatchRandomDirection(BatchMobilityModel):
    """Billiard motion for ``B`` independent replicas, in lock-step.

    Flat ``(B * n, 2)`` state with one vectorized move + reflection per
    step; heading redraws are grouped by replica (heading uniforms, then
    exponential leg lengths, per replica).  The
    reflection fold is a no-op for rows already inside the square, so
    frozen replicas pass through it untouched.

    Args:
        n, side, speed, rngs: see :class:`~repro.mobility.base.BatchMobilityModel`.
        mean_leg: expected distance between heading redraws; defaults to
            ``side / 2``.
    """

    def __init__(self, n: int, side: float, speed: float, rngs, mean_leg: float = None):
        super().__init__(n, side, speed, rngs)
        self.mean_leg = float(mean_leg) if mean_leg is not None else self.side / 2.0
        if self.mean_leg <= 0:
            raise ValueError(f"mean_leg must be positive, got {self.mean_leg}")
        states = [
            _initial_direction_state(self.n, self.side, self.mean_leg, rng)
            for rng in self.rngs
        ]
        self._pos = np.concatenate([s[0] for s in states], axis=0)
        self._heading = np.concatenate([s[1] for s in states], axis=0)
        self._leg_left = np.concatenate([s[2] for s in states], axis=0)

    def step(self, dt: float = 1.0, active=None, copy: bool = True) -> np.ndarray:
        check_dt(dt)
        active = self._active_mask(active)
        travel = self.speed * dt
        if active.all():
            self._pos += self._heading * travel
            reflect_into_square(self._pos, self._heading, self.side)
            self._leg_left -= travel
            expired = np.nonzero(self._leg_left <= 0)[0]
        else:
            rows = np.repeat(active, self.n)
            self._pos[rows] += self._heading[rows] * travel
            reflect_into_square(self._pos, self._heading, self.side)
            self._leg_left[rows] -= travel
            expired = np.nonzero(rows & (self._leg_left <= 0))[0]
        if expired.size:
            _redraw_headings(
                self._heading, self._leg_left, expired, self.mean_leg, self.rngs, self.n
            )
        self.time += dt
        return self.positions if copy else self.positions_view
