"""Random-walk mobility — the model of the authors' earlier work (refs [10, 11]).

Each agent, at every time step, jumps to a point chosen uniformly at random
in the disk of radius ``move_radius`` around its current position (clipped
to the square by resampling/reflection).  Its stationary spatial
distribution is *almost uniform*, which is exactly the property that makes
MRWP interesting by contrast: MRWP's stationary law (Theorem 1) is far from
uniform, and the paper's contribution is showing flooding stays fast anyway.

The model is used by the ``mobility_ablation`` experiment as the
uniform-density baseline.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.sampling import sample_uniform_disk
from repro.mobility.base import BatchMobilityModel, MobilityModel, check_dt

__all__ = ["RandomWalk", "BatchRandomWalk"]


class RandomWalk(MobilityModel):
    """Disk-jump random walk over ``[0, side]^2``.

    The one-replica view of :class:`BatchRandomWalk`.

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
        super().__init__(
            BatchRandomWalk(n, side, move_radius, self._rngs(rng), boundary=boundary)
        )
        self.move_radius = self.batch.move_radius
        self.boundary = self.batch.boundary


class BatchRandomWalk(BatchMobilityModel):
    """Disk-jump random walk for ``B`` replicas in lock-step.

    Jumps are drawn per replica (each replica's generator sees the stream
    it would alone) and applied with one vectorized boundary fold over the
    flat ``(B * n, 2)`` state.

    Args:
        n, side, rngs: see :class:`~repro.mobility.base.BatchMobilityModel`.
        move_radius: per-step jump radius.
        boundary: ``"reflect"`` or ``"clip"`` (see :class:`RandomWalk`).
    """

    def __init__(self, n: int, side: float, move_radius: float, rngs, boundary: str = "reflect"):
        super().__init__(n, side, speed=move_radius, rngs=rngs)
        if move_radius <= 0:
            raise ValueError(f"move_radius must be positive, got {move_radius}")
        if move_radius > side:
            raise ValueError(f"move_radius must not exceed side ({side}), got {move_radius}")
        if boundary not in ("reflect", "clip"):
            raise ValueError(f"boundary must be 'reflect' or 'clip', got {boundary!r}")
        self.move_radius = float(move_radius)
        self.boundary = boundary
        self._pos = np.concatenate(
            [rng.uniform(0.0, self.side, size=(self.n, 2)) for rng in self.rngs], axis=0
        )

    def step(self, dt: float = 1.0, active=None, copy: bool = True) -> np.ndarray:
        check_dt(dt)
        active = self._active_mask(active)
        # With every replica active, every row gets a jump and no frozen
        # row needs restoring afterwards.
        every = bool(active.all())
        jump = np.empty_like(self._pos) if every else np.zeros_like(self._pos)
        for b in np.nonzero(active)[0]:
            lo = b * self.n
            jump[lo:lo + self.n] = sample_uniform_disk(self.n, self.move_radius, self.rngs[b])
        new_pos = self._pos + jump
        if self.boundary == "reflect":
            new_pos = np.where(new_pos < 0.0, -new_pos, new_pos)
            new_pos = np.where(new_pos > self.side, 2.0 * self.side - new_pos, new_pos)
        else:
            np.clip(new_pos, 0.0, self.side, out=new_pos)
        if not every:
            new_pos = np.where(np.repeat(active, self.n)[:, None], new_pos, self._pos)
        self._pos = new_pos
        self.time += dt
        return self.positions if copy else self.positions_view
