"""Perfect simulation of the MRWP stationary phase.

The paper's analysis holds "in the stationary phase" of the MRWP Markov
process.  Starting agents uniformly and discarding a warm-up is both slow
and biased, so we implement *perfect simulation* (paper refs [6, 21, 22]):
drawing the full kinematic state — position, destination, current leg —
exactly from the stationary law.

Two independent constructions are provided and cross-validated in the tests:

:class:`PalmStationarySampler`
    Palm-calculus construction (Le Boudec & Vojnovic).  A stationary trip's
    endpoints ``(S, D)`` are *length-biased*: their density is proportional
    to the trip duration, i.e. the Manhattan length ``|xS-xD| + |yS-yD|``.
    Because the L1 length is a sum of per-axis terms, the length-biased pair
    is an even mixture of (length-biased x-pair, uniform y-pair) and the
    symmetric swap.  The Manhattan path is then chosen uniformly between the
    two, and the observation point uniformly along the chosen path.

:class:`ClosedFormStationarySampler`
    Direct construction from the published closed forms: position from
    Theorem 1 (an even mixture of a scaled Beta(2,2) coordinate and a
    uniform one), destination from Theorem 2 + Equations 4-5 (quadrant
    constants plus cross atoms, with the on-segment conditional being
    uniform), and the leg/path state from the quadrant-density decomposition
    ``SW: (L-x0) + (L-y0)``, ``NE: x0 + y0``, etc., which splits each
    quadrant's density into its horizontal-first and vertical-first trip
    contributions.

Agreement of the two samplers (and of each with the closed-form pdfs) is a
strong end-to-end check of the stationary analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.paths import (
    HORIZONTAL_FIRST,
    VERTICAL_FIRST,
    leg_lengths,
    path_coins,
    path_corner,
    position_along_path,
)
from repro.geometry.sampling import sample_beta22, sample_length_biased_pair
from repro.mobility.distributions import cross_probability, quadrant_masses

__all__ = [
    "KinematicState",
    "PalmStationarySampler",
    "ClosedFormStationarySampler",
    "sample_stationary_positions",
    "sample_destination_given_position",
]


@dataclass
class KinematicState:
    """Full per-agent kinematic state of the MRWP process.

    Attributes:
        positions: ``(n, 2)`` current positions.
        destinations: ``(n, 2)`` final trip destinations.
        targets: ``(n, 2)`` endpoint of the *current leg* (the Manhattan
            corner while on the first leg, the destination on the second).
        on_second_leg: ``(n,)`` bool — True once the corner has been passed.
    """

    positions: np.ndarray
    destinations: np.ndarray
    targets: np.ndarray
    on_second_leg: np.ndarray

    def __post_init__(self):
        n = self.positions.shape[0]
        for name in ("destinations", "targets"):
            arr = getattr(self, name)
            if arr.shape != (n, 2):
                raise ValueError(f"{name} must have shape ({n}, 2), got {arr.shape}")
        if self.on_second_leg.shape != (n,):
            raise ValueError(f"on_second_leg must have shape ({n},), got {self.on_second_leg.shape}")

    @property
    def n(self) -> int:
        return int(self.positions.shape[0])

    def copy(self) -> "KinematicState":
        return KinematicState(
            self.positions.copy(),
            self.destinations.copy(),
            self.targets.copy(),
            self.on_second_leg.copy(),
        )


def sample_stationary_positions(n: int, side: float, rng: np.random.Generator) -> np.ndarray:
    """Sample ``n`` positions directly from Theorem 1's spatial pdf.

    ``f(x, y) = (3/L^4)(x(L-x) + y(L-y))`` is an even mixture of the product
    densities ``beta22(x) * uniform(y)`` and ``uniform(x) * beta22(y)``.
    """
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    xs = np.empty(n, dtype=np.float64)
    ys = np.empty(n, dtype=np.float64)
    pick_x = rng.uniform(size=n) < 0.5
    k = int(np.count_nonzero(pick_x))
    xs[pick_x] = sample_beta22(k, side, rng)
    ys[pick_x] = rng.uniform(0.0, side, size=k)
    xs[~pick_x] = rng.uniform(0.0, side, size=n - k)
    ys[~pick_x] = sample_beta22(n - k, side, rng)
    return np.stack([xs, ys], axis=1)


class PalmStationarySampler:
    """Palm-calculus perfect-simulation sampler (see module docstring)."""

    def __init__(self, side: float):
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        self.side = float(side)

    def sample_trips(self, n: int, rng: np.random.Generator) -> tuple:
        """Length-biased trip endpoints: returns ``(starts, dests)``, each ``(n, 2)``."""
        side = self.side
        starts = np.empty((n, 2), dtype=np.float64)
        dests = np.empty((n, 2), dtype=np.float64)
        biased_x = rng.uniform(size=n) < 0.5
        k = int(np.count_nonzero(biased_x))
        # Component A: x-pair length-biased, y-pair uniform.
        pair_x = sample_length_biased_pair(k, side, rng)
        starts[biased_x, 0] = pair_x[:, 0]
        dests[biased_x, 0] = pair_x[:, 1]
        starts[biased_x, 1] = rng.uniform(0.0, side, size=k)
        dests[biased_x, 1] = rng.uniform(0.0, side, size=k)
        # Component B: the symmetric swap.
        m = n - k
        pair_y = sample_length_biased_pair(m, side, rng)
        starts[~biased_x, 1] = pair_y[:, 0]
        dests[~biased_x, 1] = pair_y[:, 1]
        starts[~biased_x, 0] = rng.uniform(0.0, side, size=m)
        dests[~biased_x, 0] = rng.uniform(0.0, side, size=m)
        return starts, dests

    def sample(self, n: int, rng: np.random.Generator) -> KinematicState:
        """Draw ``n`` i.i.d. stationary kinematic states."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        starts, dests = self.sample_trips(n, rng)
        path_choice = path_coins(rng, n) >= 0.5
        length = np.sum(np.abs(dests - starts), axis=1)
        travelled = rng.uniform(0.0, 1.0, size=n) * length
        positions = position_along_path(starts, dests, path_choice, travelled)
        first, _second = leg_lengths(starts, dests, path_choice)
        on_second_leg = travelled > first
        corners = path_corner(starts, dests, path_choice)
        targets = np.where(on_second_leg[:, None], dests, corners)
        return KinematicState(positions, dests.copy(), targets, on_second_leg)


def sample_destination_given_position(
    positions: np.ndarray, side: float, rng: np.random.Generator
) -> tuple:
    """Sample destinations from Theorem 2's conditional law, vectorized.

    For each position, the destination lies

    * on one of the four cross segments with the atom masses of Eqs. 4-5
      (uniformly along the segment, per the Palm decomposition), or
    * uniformly inside one of the four open quadrants, with the quadrant
      masses implied by Theorem 2's constant densities.

    Returns:
        tuple ``(destinations, on_cross)`` where ``on_cross`` marks agents
        whose destination fell on a cross segment (equivalently: agents on
        the second leg of their Manhattan path).
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    x0 = positions[:, 0]
    y0 = positions[:, 1]
    seg = cross_probability(x0, y0, side)  # columns S, N, W, E
    quad = quadrant_masses(x0, y0, side)  # columns SW, SE, NW, NE
    table = np.concatenate([seg, quad], axis=-1)  # 8 categories
    cdf = np.cumsum(table, axis=-1)
    # Guard tiny numerical drift: the 8 masses sum to 1 analytically.
    cdf /= cdf[:, -1][:, None]
    u = rng.uniform(size=n)
    category = np.sum(u[:, None] > cdf, axis=1)

    dest = np.empty((n, 2), dtype=np.float64)
    r = rng.uniform(size=n)
    s = rng.uniform(size=n)
    is_s = category == 0
    is_n = category == 1
    is_w = category == 2
    is_e = category == 3
    # Cross segments: uniform along the segment beyond the position.
    dest[is_s] = np.stack([x0[is_s], r[is_s] * y0[is_s]], axis=1)
    dest[is_n] = np.stack([x0[is_n], y0[is_n] + r[is_n] * (side - y0[is_n])], axis=1)
    dest[is_w] = np.stack([r[is_w] * x0[is_w], y0[is_w]], axis=1)
    dest[is_e] = np.stack([x0[is_e] + r[is_e] * (side - x0[is_e]), y0[is_e]], axis=1)
    # Quadrants: uniform over the rectangle.
    is_sw = category == 4
    is_se = category == 5
    is_nw = category == 6
    is_ne = category == 7
    dest[is_sw] = np.stack([r[is_sw] * x0[is_sw], s[is_sw] * y0[is_sw]], axis=1)
    dest[is_se] = np.stack(
        [x0[is_se] + r[is_se] * (side - x0[is_se]), s[is_se] * y0[is_se]], axis=1
    )
    dest[is_nw] = np.stack(
        [r[is_nw] * x0[is_nw], y0[is_nw] + s[is_nw] * (side - y0[is_nw])], axis=1
    )
    dest[is_ne] = np.stack(
        [x0[is_ne] + r[is_ne] * (side - x0[is_ne]), y0[is_ne] + s[is_ne] * (side - y0[is_ne])],
        axis=1,
    )
    on_cross = category < 4
    return dest, on_cross


class ClosedFormStationarySampler:
    """Stationary sampler built purely from the published closed forms."""

    def __init__(self, side: float):
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        self.side = float(side)

    def sample(self, n: int, rng: np.random.Generator) -> KinematicState:
        """Draw ``n`` i.i.d. stationary kinematic states.

        Positions come from Theorem 1; destinations from Theorem 2 (via
        :func:`sample_destination_given_position`).  Agents with an on-cross
        destination are on their second leg (target == destination).  Agents
        with a quadrant destination are on their first leg; whether that leg
        is vertical (path P1) or horizontal (path P2) follows the quadrant
        density split — e.g. for a NE destination the vertical-first weight
        is ``y0`` against ``x0`` (the two terms of Theorem 2's ``x0 + y0``
        numerator).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        positions = sample_stationary_positions(n, self.side, rng)
        return self.sample_at(positions, rng)

    def sample_at(self, positions, rng: np.random.Generator) -> KinematicState:
        """Conditional perfect simulation: stationary state *given* positions.

        Draws destinations and leg state from the exact conditional law at
        the provided positions (Theorem 2 + the quadrant split).  Used for
        constructions that condition on location — e.g. Lemma 14's
        near-corner agents and Theorem 18's corner trap.
        """
        positions = np.asarray(positions, dtype=np.float64).copy()
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
        n = positions.shape[0]
        if n == 0:
            raise ValueError("positions must be non-empty")
        side = self.side
        dests, on_cross = sample_destination_given_position(positions, side, rng)

        x0 = positions[:, 0]
        y0 = positions[:, 1]
        xd = dests[:, 0]
        yd = dests[:, 1]
        east = xd >= x0
        north = yd >= y0
        # Vertical-first weight of each quadrant's density numerator:
        #   NE: y0 (of x0+y0)   SE: L-y0 (of L+x0-y0)
        #   NW: y0 (of L-x0+y0) SW: L-y0 (of 2L-x0-y0)
        vertical_weight = np.where(north, y0, side - y0)
        horizontal_weight = np.where(east, x0, side - x0)
        total = vertical_weight + horizontal_weight
        with np.errstate(invalid="ignore", divide="ignore"):
            p_vertical = np.where(total > 0, vertical_weight / np.where(total > 0, total, 1.0), 0.5)
        vertical_first = rng.uniform(size=n) < p_vertical

        path_choice = np.where(vertical_first, VERTICAL_FIRST, HORIZONTAL_FIRST)
        corners = path_corner(positions, dests, path_choice)
        on_second_leg = np.asarray(on_cross)
        targets = np.where(on_second_leg[:, None], dests, corners)
        return KinematicState(positions, dests, targets, on_second_leg)
