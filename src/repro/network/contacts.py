"""Contact traces: who met whom, when, and for how long.

The Suburb analysis (Lemma 16 / Claim 17) is about *meetings*: two agents
meet at time ``t`` when their distance is at most ``(3/4) R``.  This module
records per-step contact pairs from a snapshot series and derives meeting
statistics — first-meeting times, contact durations, and inter-contact
gaps — the raw material of the ``meeting_suburb`` experiment and of the
delay-tolerant-routing example.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.geometry.neighbors import BatchNeighborQuery, make_engine
from repro.network.snapshots import SnapshotSeries

__all__ = ["ContactTrace", "record_contacts", "batch_record_contacts"]

#: The paper's meeting radius is 3/4 of the transmission radius (Section 4).
MEETING_RADIUS_FACTOR = 0.75


@dataclass
class ContactTrace:
    """Contact events extracted from a snapshot series.

    Attributes:
        n: number of agents.
        n_steps: number of recorded steps.
        step_pairs: list (length ``n_steps + 1``) of ``(k, 2)`` arrays — the
            agent pairs in contact at each time step.
    """

    n: int
    n_steps: int
    step_pairs: list = field(default_factory=list)

    def contacts_at(self, t: int) -> np.ndarray:
        """Contact pairs at step ``t``."""
        return self.step_pairs[t]

    def contact_counts(self) -> np.ndarray:
        """Number of contact pairs per step, shape ``(n_steps + 1,)``."""
        return np.array([pairs.shape[0] for pairs in self.step_pairs], dtype=np.intp)

    def first_meeting_times(self, agents) -> dict:
        """First time each given agent is in contact with *anyone*.

        Returns:
            dict agent -> first contact step (``math.inf``-free: missing
            agents simply aren't in the dict).
        """
        agents = set(int(a) for a in agents)
        out = {}
        for t, pairs in enumerate(self.step_pairs):
            if not agents:
                break
            if pairs.size == 0:
                continue
            present = set(np.unique(pairs).tolist()) & agents
            for a in present:
                out[a] = t
            agents -= present
        return out

    def pair_contact_steps(self) -> dict:
        """Map ``(i, j) -> sorted list of steps`` at which the pair was in contact."""
        out = defaultdict(list)
        for t, pairs in enumerate(self.step_pairs):
            for i, j in pairs.tolist():
                out[(i, j)].append(t)
        return dict(out)

    def inter_contact_times(self) -> np.ndarray:
        """All inter-contact gaps (steps between consecutive contacts of a pair).

        Opportunistic-networking workloads (paper refs [15, 16, 26]) are
        characterized by this distribution.
        """
        gaps = []
        for steps in self.pair_contact_steps().values():
            arr = np.asarray(steps)
            diffs = np.diff(arr)
            gaps.extend(diffs[diffs > 1].tolist())
        return np.asarray(gaps, dtype=np.float64)

    def contact_durations(self) -> np.ndarray:
        """Lengths of maximal runs of consecutive contact steps, over all pairs."""
        durations = []
        for steps in self.pair_contact_steps().values():
            arr = np.asarray(steps)
            if arr.size == 0:
                continue
            breaks = np.nonzero(np.diff(arr) > 1)[0]
            run_starts = np.concatenate([[0], breaks + 1])
            run_ends = np.concatenate([breaks, [arr.size - 1]])
            durations.extend((run_ends - run_starts + 1).tolist())
        return np.asarray(durations, dtype=np.float64)


def _canonical_pairs(pairs: np.ndarray) -> np.ndarray:
    """Sort a ``(k, 2)`` pair array lexicographically by ``(i, j)``.

    Backends emit pairs in traversal order; the canonical order makes
    scalar and batched recordings byte-identical and the raw
    ``contacts_at`` arrays stable across backends.
    """
    if pairs.shape[0] <= 1:
        return pairs
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def record_contacts(
    series: SnapshotSeries,
    radius: Optional[float] = None,
    backend: str = "auto",
) -> ContactTrace:
    """Extract the contact trace of a snapshot series.

    Each frame is bound into the engine's snapshot API; per-step pairs are
    stored in canonical ``(i, j)`` order.

    Args:
        series: recorded mobility snapshots.
        radius: contact radius; defaults to the paper's meeting radius
            ``(3/4) R`` with ``R = series.radius``.
        backend: neighbor-engine backend.
    """
    if radius is None:
        radius = MEETING_RADIUS_FACTOR * series.radius
    engine = make_engine(backend, series.side)
    trace = ContactTrace(n=series.n, n_steps=series.n_steps)
    for t in range(series.n_steps + 1):
        pairs = engine.bind(series.positions_at(t), radius).pairs_within()
        trace.step_pairs.append(_canonical_pairs(pairs))
    return trace


def batch_record_contacts(
    frames: np.ndarray,
    radius: float,
    side: float,
    backend: str = "auto",
) -> list:
    """Contact traces of ``B`` replica trajectories, one engine call per step.

    The per-replica contact export workload: a ``(B, T + 1, n, 2)`` frame
    tensor (e.g. recorded straight from the batch mobility engine) is swept
    frame-by-frame through one
    :class:`~repro.geometry.neighbors.BatchNeighborQuery`, whose tiling
    makes cross-replica contacts geometrically impossible — every
    replica's pairs fall out of a single tiled enumeration per step.

    Args:
        frames: ``(B, T + 1, n, 2)`` position frames, replica-major.
        radius: contact radius (pass the paper's meeting radius
            ``MEETING_RADIUS_FACTOR * R`` to match :func:`record_contacts`
            defaults).
        side: region side length.
        backend: batch-query backend name.

    Returns:
        list of ``B`` :class:`ContactTrace` objects, byte-identical to
        recording each replica's series with :func:`record_contacts`.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 4 or frames.shape[3] != 2:
        raise ValueError(f"frames must have shape (B, T+1, n, 2), got {frames.shape}")
    batch_size, n_frames, n, _ = frames.shape
    query = BatchNeighborQuery(side, batch_size, backend=backend)
    traces = [ContactTrace(n=n, n_steps=n_frames - 1) for _ in range(batch_size)]
    for t in range(n_frames):
        rep, i, j = query.bind(np.ascontiguousarray(frames[:, t])).pairs_within(radius)
        pairs = np.stack([i, j], axis=1) if rep.size else np.empty((0, 2), dtype=np.intp)
        # Replica-major lexicographic sort: one pass splits into canonical
        # per-replica blocks.
        order = np.lexsort((j, i, rep))
        rep, pairs = rep[order], pairs[order]
        bounds = np.searchsorted(rep, np.arange(batch_size + 1))
        for b in range(batch_size):
            traces[b].step_pairs.append(pairs[bounds[b]:bounds[b + 1]])
    return traces
