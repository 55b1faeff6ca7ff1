"""Per-step metric observers for the simulation engine.

Observers receive ``(t, positions, protocol, newly_informed)`` after every
step.  :class:`InformedRecorder` tracks the coverage curve;
:class:`ZoneRecorder` additionally classifies agents by Central Zone /
Suburb each step and records the per-zone completion times that the
``suburb_vs_cz`` experiment reports.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.zones import ZonePartition
from repro.kernels import get_kernel

__all__ = ["InformedRecorder", "ZoneRecorder"]


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
    is checked empirically.
    """

    def __init__(self, zones: ZonePartition):
        self.zones = zones
        self.cz_completion_time = math.inf
        self.suburb_completion_time = math.inf
        self.cz_fraction_history = []
        self.suburb_fraction_history = []

    def _kernel_counts(self, positions: np.ndarray, informed: np.ndarray):
        """``(cz_total, cz_informed)`` from the compiled ``zone_counts``
        kernel at B=1, or ``None`` to classify with numpy — the same cell
        classification and integer sums as
        ``BatchSimulation._zone_fractions``."""
        kernel = get_kernel("zone_counts")
        if kernel is None:
            return None
        grid = self.zones.grid
        result = kernel(positions[None], informed[None], grid.ell, grid.m, self.zones.cz_mask)
        if result is None:
            return None
        cz_total, cz_informed = result
        return int(cz_total[0]), int(cz_informed[0])

    def _fractions(self, positions: np.ndarray, informed: np.ndarray) -> tuple:
        counts = self._kernel_counts(positions, informed)
        if counts is not None:
            cz_total, cz_informed = counts
            suburb_informed = int(np.count_nonzero(informed)) - cz_informed
        else:
            in_cz = self.zones.in_central_zone(positions)
            cz_total = int(np.count_nonzero(in_cz))
            cz_informed = int(np.count_nonzero(informed & in_cz))
            suburb_informed = int(np.count_nonzero(informed & ~in_cz))
        suburb_total = positions.shape[0] - cz_total
        cz_frac = cz_informed / cz_total if cz_total else 1.0
        suburb_frac = suburb_informed / suburb_total if suburb_total else 1.0
        return cz_frac, suburb_frac

    def start(self, positions: np.ndarray, protocol) -> None:
        cz_frac, suburb_frac = self._fractions(positions, protocol.informed)
        self.cz_fraction_history = [cz_frac]
        self.suburb_fraction_history = [suburb_frac]
        if cz_frac >= 1.0:
            self.cz_completion_time = 0.0
        if suburb_frac >= 1.0:
            self.suburb_completion_time = 0.0

    def observe(self, t: int, positions: np.ndarray, protocol, newly: np.ndarray) -> None:
        cz_frac, suburb_frac = self._fractions(positions, protocol.informed)
        self.cz_fraction_history.append(cz_frac)
        self.suburb_fraction_history.append(suburb_frac)
        if cz_frac >= 1.0 and not math.isfinite(self.cz_completion_time):
            self.cz_completion_time = float(t)
        if suburb_frac >= 1.0 and not math.isfinite(self.suburb_completion_time):
            self.suburb_completion_time = float(t)
