"""Manhattan paths between points of the square.

The MRWP model (Section 2 of the paper) moves an agent from ``(x0, y0)`` to a
destination ``(x, y)`` along one of the two *Manhattan shortest paths*:

* ``P1 = (x0, y0) -> (x0, y) -> (x, y)``   (vertical leg first), or
* ``P2 = (x0, y0) -> (x, y0) -> (x, y)``   (horizontal leg first),

chosen uniformly at random.  This module provides the path representation and
vectorized helpers to pick corners, measure legs, and interpolate positions
along a path — the building blocks used by :mod:`repro.mobility.mrwp` and by
the perfect-simulation sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.points import as_points, manhattan_distance

__all__ = [
    "ManhattanPath",
    "choose_corners",
    "path_coins",
    "path_corner",
    "leg_lengths",
    "position_along_path",
    "VERTICAL_FIRST",
    "HORIZONTAL_FIRST",
]

#: Path selector value for P1: travel the vertical leg first.
VERTICAL_FIRST = 0
#: Path selector value for P2: travel the horizontal leg first.
HORIZONTAL_FIRST = 1


@dataclass(frozen=True)
class ManhattanPath:
    """One of the two Manhattan shortest paths between ``start`` and ``end``.

    Attributes:
        start: the origin point ``(x0, y0)``.
        end: the destination point ``(x, y)``.
        vertical_first: True for path ``P1`` (corner ``(x0, y)``), False for
            ``P2`` (corner ``(x, y0)``).
    """

    start: tuple
    end: tuple
    vertical_first: bool

    @property
    def corner(self) -> tuple:
        """The intermediate way-point where the path turns."""
        if self.vertical_first:
            return (self.start[0], self.end[1])
        return (self.end[0], self.start[1])

    @property
    def length(self) -> float:
        """Total path length — the Manhattan distance between endpoints."""
        return float(abs(self.end[0] - self.start[0]) + abs(self.end[1] - self.start[1]))

    @property
    def first_leg_length(self) -> float:
        """Length of the leg from ``start`` to the corner."""
        if self.vertical_first:
            return float(abs(self.end[1] - self.start[1]))
        return float(abs(self.end[0] - self.start[0]))

    @property
    def second_leg_length(self) -> float:
        """Length of the leg from the corner to ``end``."""
        return self.length - self.first_leg_length

    def point_at(self, travelled: float) -> tuple:
        """Point reached after walking ``travelled`` distance from ``start``.

        ``travelled`` is clipped into ``[0, length]``.
        """
        travelled = min(max(travelled, 0.0), self.length)
        start = np.asarray(self.start, dtype=np.float64).reshape(1, 2)
        end = np.asarray(self.end, dtype=np.float64).reshape(1, 2)
        flags = np.asarray([VERTICAL_FIRST if self.vertical_first else HORIZONTAL_FIRST])
        point = position_along_path(start, end, flags, np.asarray([travelled]))
        return (float(point[0, 0]), float(point[0, 1]))


def path_corner(start, end, path_choice) -> np.ndarray:
    """Vectorized corner (turn way-point) of the chosen Manhattan path.

    Args:
        start: ``(n, 2)`` origins.
        end: ``(n, 2)`` destinations.
        path_choice: ``(n,)`` integer array of :data:`VERTICAL_FIRST` /
            :data:`HORIZONTAL_FIRST` selectors, or the equivalent bool
            array (True for :data:`HORIZONTAL_FIRST`, as a
            :func:`path_coins` threshold gives).

    Returns:
        ``(n, 2)`` corner positions.
    """
    start = as_points(start)
    end = as_points(end)
    path_choice = np.asarray(path_choice)
    vertical = path_choice == VERTICAL_FIRST
    corner = np.empty_like(start)
    corner[:, 0] = np.where(vertical, start[:, 0], end[:, 0])
    corner[:, 1] = np.where(vertical, end[:, 1], start[:, 1])
    return corner


def path_coins(rng: np.random.Generator, size=None, out=None) -> np.ndarray:
    """Draw float32 path coins: ``coins >= 0.5`` selects :data:`HORIZONTAL_FIRST`.

    The fair path coin of every Manhattan trip.  The selectors
    ``coins >= 0.5`` equal ``rng.integers(0, 2, size=size)`` bit for bit,
    and both calls leave ``rng`` in the same state, at a fraction of the
    per-call cost.  Both read exactly one ``next_uint32`` word per value:

    * ``integers(0, 2)`` runs Lemire's method on that word and returns its
      top bit, ``(word * 2) >> 32``; with a range of 2 the rejection
      threshold is ``(2**32 - 2) % 2 == 0``, so no word is ever rejected;
    * ``random(dtype=np.float32)`` returns ``(word >> 8) * 2**-24``, which
      is ``>= 0.5`` exactly when that same top bit is set.

    Every numpy bit generator serves both through its one ``next_uint32``,
    so the buffered half-word of a 64-bit generator is consumed the same
    way too.

    Args:
        rng: the generator to draw from.
        size: number (or shape) of coins; ignored when ``out`` is given.
        out: optional C-contiguous float32 buffer to fill in place, so a
            batch can fill one buffer per replica slice and threshold it
            once.

    Returns:
        the float32 coins (``out`` itself when given).
    """
    return rng.random(size, dtype=np.float32, out=out)


def choose_corners(start, end, rng: np.random.Generator) -> tuple:
    """Choose uniformly between the two Manhattan paths for each point pair.

    Returns:
        tuple ``(corner, path_choice)`` where ``corner`` is the ``(n, 2)``
        array of turn points and ``path_choice`` the ``(n,)`` selector array.
    """
    start = as_points(start)
    path_choice = (path_coins(rng, start.shape[0]) >= 0.5).astype(np.int64)
    return path_corner(start, end, path_choice), path_choice


def leg_lengths(start, end, path_choice) -> tuple:
    """Vectorized ``(first_leg, second_leg)`` lengths of the chosen paths."""
    start = as_points(start)
    end = as_points(end)
    path_choice = np.asarray(path_choice)
    dx = np.abs(end[:, 0] - start[:, 0])
    dy = np.abs(end[:, 1] - start[:, 1])
    vertical = path_choice == VERTICAL_FIRST
    first = np.where(vertical, dy, dx)
    second = np.where(vertical, dx, dy)
    return first, second


def position_along_path(start, end, path_choice, travelled) -> np.ndarray:
    """Vectorized position after walking ``travelled`` along each path.

    ``travelled`` values are clipped into ``[0, manhattan_length]`` per path.
    This is the core primitive of the perfect-simulation sampler, which drops
    an agent uniformly at random along its current trip.
    """
    start = as_points(start)
    end = as_points(end)
    travelled = np.asarray(travelled, dtype=np.float64)
    total = manhattan_distance(start, end)
    travelled = np.clip(travelled, 0.0, total)

    corner = path_corner(start, end, path_choice)
    first, _second = leg_lengths(start, end, path_choice)

    on_first = travelled <= first
    # Fraction along the active leg; guard zero-length legs.  A subnormal
    # first leg overflows the quotient of a walker already past it; that
    # fraction is clipped and never selected.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        frac_first = np.where(first > 0, travelled / np.where(first > 0, first, 1.0), 0.0)
        remaining = travelled - first
        second_len = total - first
        frac_second = np.where(second_len > 0, remaining / np.where(second_len > 0, second_len, 1.0), 0.0)
    frac_first = np.clip(frac_first, 0.0, 1.0)
    frac_second = np.clip(frac_second, 0.0, 1.0)

    pos_first = start + frac_first[:, None] * (corner - start)
    pos_second = corner + frac_second[:, None] * (end - corner)
    return np.where(on_first[:, None], pos_first, pos_second)
