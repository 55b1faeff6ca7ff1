"""Probabilistic flooding.

Each informed agent transmits independently with probability ``p`` at each
step.  ``p = 1`` recovers exact flooding; smaller ``p`` models duty-cycled
radios.  Expected slowdown in the well-connected Central Zone is roughly a
``1/p`` factor per hop; in the Suburb, missing the brief meeting windows
(Lemma 16) costs much more — a contrast the baselines experiment surfaces.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import BatchBroadcastState, BroadcastProtocol

__all__ = ["ProbabilisticFlooding", "BatchProbabilisticState"]


class BatchProbabilisticState(BatchBroadcastState):
    """``B`` independent probabilistic-flooding runs in lock-step.

    Each active replica draws one ``uniform(n)`` duty-cycle vector per step
    from its own generator, and the combined transmit masks feed a single
    batched infection test.
    """

    name = "probabilistic"
    uses_rng = True

    def __init__(self, *args, p: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        self.p = float(p)

    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        transmit = np.zeros((self.batch_size, self.n), dtype=bool)
        for b in np.nonzero(active)[0]:
            transmit[b] = self.rngs[b].uniform(size=self.n) < self.p
        source_mask = self.informed & transmit
        query_mask = ~self.informed & active[:, None]
        if not source_mask.any() or not query_mask.any():
            return np.zeros((self.batch_size, self.n), dtype=bool)
        hits = snapshot.any_within(source_mask, query_mask, self.radius)
        return self._mark_informed(hits)


class ProbabilisticFlooding(BroadcastProtocol):
    """Flooding with per-step transmission probability ``p``: one replica
    of :class:`BatchProbabilisticState`."""

    name = "probabilistic"
    batch_state = BatchProbabilisticState
    options = ("p",)
