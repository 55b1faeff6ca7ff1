"""Per-step metric observers for the simulation engine.

Observers receive ``(t, positions, protocol, newly_informed)`` after every
step.  :class:`InformedRecorder` tracks the coverage curve;
:class:`ZoneRecorder` records the per-zone completion times that the
``suburb_vs_cz`` experiment reports, through :func:`zones_left`, which
the batch engine calls too.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.zones import ZonePartition
from repro.kernels import CENTRAL_ZONE, SUBURB, get_kernel

__all__ = ["InformedRecorder", "ZoneRecorder", "zones_left"]


def zones_left(
    zones: ZonePartition, positions: np.ndarray, informed: np.ndarray, open_zones: np.ndarray
) -> np.ndarray:
    """Which open zones of each replica still hold an uninformed agent.

    A zone is complete at a step exactly when no uninformed agent sits in
    one of its cells (vacuously when it holds no agent), so replicas with
    no open zone are not read at all.

    Args:
        zones: the Central-Zone / Suburb partition.
        positions: ``(B, n, 2)`` snapshot.
        informed: ``(B, n)`` bool informed mask.
        open_zones: ``(B,)`` uint8 zone bits still to watch per replica
            (:data:`~repro.kernels.CENTRAL_ZONE`,
            :data:`~repro.kernels.SUBURB`; 0 for none).

    Returns:
        ``(B,)`` uint8: the bits of ``open_zones`` whose zone holds an
        uninformed agent.  The compiled ``zone_counts`` kernel scans each
        open row's uninformed agents until it has seen every open zone.
        The numpy fallback classifies every agent of the open rows: one
        contiguous pass costs less in numpy than gathering the
        uninformed agents first.
    """
    kernel = get_kernel("zone_counts")
    if kernel is not None:
        left = kernel(
            positions, informed, zones.grid.ell, zones.grid.m, zones.cz_mask, open_zones
        )
        if left is not None:
            return left
    rows = np.flatnonzero(open_zones)
    uninformed = ~informed[rows]
    in_cz = zones.in_central_zone(positions[rows].reshape(-1, 2)).reshape(uninformed.shape)
    left = np.zeros_like(open_zones)
    left[rows] = (
        (in_cz & uninformed).any(axis=1) * CENTRAL_ZONE
        | (~in_cz & uninformed).any(axis=1) * SUBURB
    )
    return left & open_zones


class InformedRecorder:
    """Coverage curve: number of informed agents after each step."""

    def __init__(self):
        self.history = []
        self.newly_per_step = []

    def start(self, positions: np.ndarray, protocol) -> None:
        """Record the initial state (before any step)."""
        self.history = [protocol.informed_count]
        self.newly_per_step = []

    def observe(self, t: int, positions: np.ndarray, protocol, newly: np.ndarray) -> None:
        self.history.append(protocol.informed_count)
        self.newly_per_step.append(int(newly.size))

    def informed_history(self) -> np.ndarray:
        return np.asarray(self.history, dtype=np.intp)


class ZoneRecorder:
    """Zone-resolved coverage: completion times for Central Zone and Suburb.

    At each step, agents are classified by their *current* cell's zone.  The
    Central Zone is "complete" at the first step where every agent currently
    located in a CZ cell is informed (vacuously if the CZ is empty of
    agents); likewise for the Suburb.  Because agents migrate between zones,
    completeness is monotone only once the global informed set saturates a
    zone's throughput — we record the first completion time, matching how
    the paper's Theorem 10 ("all CZ cells informed from ``t = 18 L/R`` on")
    is checked empirically.  A completed zone is not watched again, and
    once both are complete a step classifies nothing.
    """

    def __init__(self, zones: ZonePartition):
        self.zones = zones
        self.cz_completion_time = math.inf
        self.suburb_completion_time = math.inf
        self._open = np.array([CENTRAL_ZONE | SUBURB], dtype=np.uint8)

    def _record(self, t: int, positions: np.ndarray, informed: np.ndarray) -> None:
        if not self._open[0]:
            return
        left = zones_left(self.zones, positions[None], informed[None], self._open)
        done = self._open[0] & ~left[0]
        if done & CENTRAL_ZONE:
            self.cz_completion_time = float(t)
        if done & SUBURB:
            self.suburb_completion_time = float(t)
        self._open = left

    def start(self, positions: np.ndarray, protocol) -> None:
        self._record(0, positions, protocol.informed)

    def observe(self, t: int, positions: np.ndarray, protocol, newly: np.ndarray) -> None:
        self._record(t, positions, protocol.informed)
