"""Push gossip with bounded fanout.

Instead of broadcasting to everyone in range (flooding), each informed agent
pushes the message to at most ``fanout`` uniformly chosen neighbors per
step.  This is the classic bandwidth-limited baseline: coverage grows more
slowly than flooding, bounded below by it, and the gap quantifies how much
the paper's flooding-time bound depends on unlimited local bandwidth.

The state samples by **neighbor index** against the informed/uninformed
cut instead of materializing the full contact list (DESIGN.md, "Batched
protocol framework"): a sender picking ``fanout`` uniform neighbors
spreads the message iff a picked index falls below its cut-degree, so
only the cut contacts
(:meth:`~repro.geometry.neighbors.BatchBoundQuery.contacts_within`), the
senders' total degrees (one ``count_within``), and ``fanout`` uniform
draws per cut-incident sender are needed — ``O(cut)`` per step instead of
``O(edges)``, which collapses the early (few informed) and late (few
uninformed) phases of a run.  Draw order is canonical — senders ascending,
their cut-neighbors ascending — so trajectories are independent of the
neighbor path and of the batch size.  The state takes that order as
returned, because ``contacts_within`` returns the cut sorted by (replica,
sender, target) on every path.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import (
    BatchBroadcastState,
    BroadcastProtocol,
    _is_integer,
    group_segments,
    sample_indices,
)

__all__ = ["GossipProtocol", "BatchGossipState"]


class BatchGossipState(BatchBroadcastState):
    """``B`` independent push-gossip runs in lock-step.

    Targets are drawn among *all* neighbors within ``R`` (informed or
    not), modelling wasted transmissions as in standard gossip analyses;
    senders whose picks all land on informed neighbors simply waste the
    step.

    One batched
    :meth:`~repro.geometry.neighbors.BatchBoundQuery.contacts_within` call
    materializes every replica's informed/uninformed cut, already sorted
    by (replica, sender, target), so each sender's cut neighbors are one
    run with no per-round sort; one batched ``count_within`` counts the
    sender degrees, and a single
    :func:`~repro.protocols.base.sample_indices` pass picks every sender's
    neighbors at once.  Only the uniform draws stay per replica — one
    ``uniform((fanout, S_b))`` block per replica per step over its
    cut-incident senders (replicas without such senders draw nothing).
    """

    name = "gossip"
    uses_rng = True

    def __init__(self, *args, fanout: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        if not _is_integer(fanout) or fanout < 1:
            raise ValueError(f"fanout must be an integer of at least 1, got {fanout!r}")
        self.fanout = int(fanout)

    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        newly = np.zeros((self.batch_size, self.n), dtype=bool)
        source_mask = self.informed & active[:, None]
        query_mask = ~self.informed & active[:, None]
        rep, s_cut, t_cut = snapshot.contacts_within(source_mask, query_mask, self.radius)
        if rep.size == 0:
            return newly
        # The cut comes sorted by (replica, sender, target): each sender's
        # cut neighbors are one ascending run, in the canonical draw order.
        _gids, cut_degree, offsets = group_segments(rep * self.n + s_cut)
        sender_rep = rep[offsets]
        sender_agent = s_cut[offsets]
        sender_mask = np.zeros((self.batch_size, self.n), dtype=bool)
        sender_mask[sender_rep, sender_agent] = True
        counts = snapshot.count_within(
            np.broadcast_to(active[:, None], sender_mask.shape), sender_mask, self.radius
        )
        degree = counts[sender_rep, sender_agent] - 1
        r = self._draw_uniform_blocks(sender_rep, self.fanout)
        picks = sample_indices(r, degree)
        hit = (picks >= 0) & (picks < cut_degree[None, :])
        pick_pos = (offsets[None, :] + picks)[hit]
        newly[rep[pick_pos], t_cut[pick_pos]] = True
        return self._mark_informed(newly)


class GossipProtocol(BroadcastProtocol):
    """Push gossip, ``fanout`` random in-range targets per informed agent
    per step: one replica of :class:`BatchGossipState`."""

    name = "gossip"
    batch_state = BatchGossipState
    options = ("fanout",)
