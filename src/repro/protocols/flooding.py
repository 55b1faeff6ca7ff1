"""The flooding protocol (Section 4).

Every informed agent transmits at every time step; a non-informed agent
becomes informed at step ``t`` iff some informed agent is within distance
``R`` during ``t``.  Flooding time — the first step at which everyone is
informed — lower-bounds every broadcast protocol and plays the role of the
diameter in static networks.

Positions are **frozen within a round**, so hop ``k >= 2`` of a multi-hop
exchange only needs the agents informed at hop ``k - 1`` as sources —
every older source was already tested against a superset of the
still-uninformed queries at the same positions (DESIGN.md, "Neighbor
subsystem: one path per kernel tier").  The per-round query state is
shared across hops through the bound snapshot.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import BatchBroadcastState, BroadcastProtocol

__all__ = ["FloodingProtocol", "BatchFloodingState"]


class BatchFloodingState(BatchBroadcastState):
    """Informed state of ``B`` independent flooding runs, updated in lock-step.

    One :class:`~repro.geometry.neighbors.BatchNeighborQuery` call per
    hop answers every replica's infection test at once, and informed masks
    live in a ``(B, n)`` tensor.  Flooding consumes no randomness.

    Args:
        multi_hop: paper semantics when False (one hop per step: agents
            informed during this step do not retransmit until the next).
            When True, the message saturates entire connected components of
            the current snapshot within the step ("infinite bandwidth"
            comparison mode).  Hops ``>= 2`` of a multi-hop round
            transmit from the just-informed frontier only.

    (Shared arguments: :class:`~repro.protocols.base.BatchBroadcastState`.)
    """

    name = "flooding"

    def __init__(
        self,
        n: int,
        side: float,
        radius: float,
        sources,
        multi_hop: bool = False,
        rngs=None,
    ):
        super().__init__(n, side, radius, sources, rngs=rngs)
        self.multi_hop = bool(multi_hop)

    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        newly_total = np.zeros((self.batch_size, self.n), dtype=bool)
        source_mask = self.informed & active[:, None]
        while True:
            query_mask = ~self.informed & active[:, None]
            if not query_mask.any():
                break
            hits = snapshot.any_within(source_mask, query_mask, self.radius)
            if not hits.any():
                break
            self._mark_informed(hits)
            newly_total |= hits
            if not self.multi_hop:
                break
            # Frontier hop: older sources were already tested against every
            # remaining uninformed agent at these same positions.
            source_mask = hits  # already a subset of the active replicas
        return newly_total


class FloodingProtocol(BroadcastProtocol):
    """Classic synchronous flooding: one replica of :class:`BatchFloodingState`.

    Takes the state's ``multi_hop`` option.
    """

    name = "flooding"
    batch_state = BatchFloodingState
    options = ("multi_hop",)
