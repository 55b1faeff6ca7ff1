"""Meetings between Suburb agents and Central-Zone emissaries (Lemma 16).

Two agents *meet* when their distance is at most ``(3/4) R``; the slow-
mobility assumption then guarantees the message transfers within the next
time unit.  Lemma 16 says: w.h.p., an agent sitting in the Extended Suburb
is met, within ``tau = 590 S / v`` steps, by an agent that was in the
Central Zone at the window's start (and that returns to the Central Zone
soon after) — the mechanism by which information enters and leaves the
sparse corners.

This module measures first-meeting times of chosen agents against the
population that started in the Central Zone.
"""

from __future__ import annotations

import numpy as np

from repro.core.zones import ZonePartition
from repro.geometry.neighbors import BatchNeighborQuery
from repro.mobility.base import MobilityModel

__all__ = ["MEETING_RADIUS_FACTOR", "meeting_radius", "first_meeting_times_from_zone"]

#: The paper's meeting radius is 3/4 of the transmission radius (Section 4).
MEETING_RADIUS_FACTOR = 0.75


def meeting_radius(radius: float) -> float:
    """The paper's meeting distance ``(3/4) R``."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return MEETING_RADIUS_FACTOR * radius


def first_meeting_times_from_zone(
    model: MobilityModel,
    zones: ZonePartition,
    radius: float,
    targets: np.ndarray,
    window: int,
    dt: float = 1.0,
) -> np.ndarray:
    """First time each target agent meets an agent that started in the CZ.

    The *emissary set* is frozen at the call time: every agent located in a
    Central-Zone cell at step 0 of the window (matching Lemma 16's "b was in
    the Central Zone at time t - S/v").  The model is advanced ``window``
    steps in place.  Each step counts through a one-replica
    :class:`~repro.geometry.neighbors.BatchNeighborQuery`, as the
    protocols do, so the kernel tier picks the neighbor path.

    Args:
        model: mobility model (all agents).
        zones: zone partition used to classify emissaries.
        radius: transmission radius ``R`` (positive); the meeting test uses
            ``(3/4) R``.
        targets: indices of the agents whose meeting times are measured
            (typically agents currently in the Suburb).
        window: number of steps to observe.

    Returns:
        float array over ``targets``: the first step (1-based) at which the
        target was within ``(3/4) R`` of an emissary; ``numpy.inf`` if the
        window ends first.  A meeting at step 0 (before any movement) is
        also detected and reported as 0.
    """
    targets = np.asarray(targets, dtype=np.intp)
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    positions = model.positions
    emissaries = np.nonzero(zones.in_central_zone(positions))[0]
    query = BatchNeighborQuery(model.side, 1)
    meet_r = meeting_radius(radius)

    times = np.full(targets.size, np.inf)
    emissary_mask = np.zeros((1, model.n), dtype=bool)
    emissary_mask[0, emissaries] = True
    target_mask = np.zeros((1, model.n), dtype=bool)

    def _update(step: int, pos: np.ndarray, pending: np.ndarray) -> np.ndarray:
        if pending.size == 0 or emissaries.size == 0:
            return pending
        target_ids = targets[pending]
        target_mask[:] = False
        target_mask[0, target_ids] = True
        counts = query.bind(pos[None]).count_within(emissary_mask, target_mask, meet_r)
        counts = counts[0, target_ids]
        # A target that is itself an emissary always counts itself (distance
        # 0), so it needs a second emissary in range for a genuine meeting.
        needed = np.where(emissary_mask[0, target_ids], 2, 1)
        hits = counts >= needed
        met = pending[hits]
        times[met] = step
        return pending[~hits]

    pending = np.arange(targets.size)
    pending = _update(0, positions, pending)
    for step in range(1, window + 1):
        if pending.size == 0:
            break
        pos = model.step(dt)
        pending = _update(step, pos, pending)
    return times
