"""Push-pull gossip.

The other classic randomized-broadcast primitive: per step every agent —
informed or not — contacts one uniform neighbor within range; the message
crosses the contact in *either* direction (informed pushes, uninformed
pulls).  Pull makes the endgame exponentially faster than pure push in
well-mixed graphs; over the Manhattan Suburb both directions still have to
wait for Lemma-16 meetings, so the gap narrows — one more lens on the
paper's geometry in the baselines experiment.

Like gossip, the state samples by neighbor index against the
informed/uninformed cut: an agent's uniform contact crosses the cut iff
its picked index falls below the agent's cut-degree, so only the
cut-incident agents draw (one uniform each) and only the cut contacts are
materialized — ``O(cut)`` per step.  Draw order is canonical (initiators
ascending, cut-neighbors ascending), so trajectories are independent of
the neighbor path and of the batch size.  The state sorts nothing,
because :meth:`~repro.geometry.neighbors.BatchBoundQuery.contacts_within`
returns the cut sorted by (replica, sender, target) on every path.

A round is three calls on the compiled tier: the ``batch_contacts``
kernel writes the cut and its senders' degrees, one ``count_within``
counts the pullers' (the cut's targets') degrees, and the
``cut_exchange`` kernel draws each replica's uniforms from its bit
generator, makes the clamped floor picks and marks the newly informed
agents.  On the numpy tier (and for a generator the kernel declines) the
same draws and picks run in numpy.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import (
    BatchBroadcastState,
    BroadcastProtocol,
    group_segments,
)

__all__ = ["PushPullGossip", "BatchPushPullState"]


class BatchPushPullState(BatchBroadcastState):
    """``B`` independent push-pull runs in lock-step.

    One batched cut materialization, already sorted by (replica, sender,
    target), with the senders' degrees, and one batched count of the
    pullers' degrees serve every replica.  The initiators are the agents
    with a nonzero cut degree, in ascending flat order; the uniform draws
    stay per replica — one ``uniform(S_b)`` block per replica per step
    over its cut-incident initiators.
    """

    name = "push-pull"
    uses_rng = True

    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        shape = (self.batch_size, self.n)
        newly = np.zeros(shape, dtype=bool)
        source_mask = self.informed & active[:, None]
        query_mask = ~self.informed & active[:, None]
        degrees = np.empty(shape, dtype=np.intp)
        cut = snapshot.contacts_within(source_mask, query_mask, self.radius, degrees=degrees)
        if cut[0].size == 0:
            return newly
        # The pullers are the cut's targets; one count gives their degrees.
        pullers = np.zeros(shape, dtype=bool)
        pullers[cut[0], cut[2]] = True
        pulls = snapshot.count_within(
            np.broadcast_to(active[:, None], shape), pullers, self.radius
        )
        if not self._sample_cut(cut, degrees, newly, pulls=pulls):
            self._numpy_picks(cut, degrees, pulls, newly)
        return self._mark_informed(newly)

    def _numpy_picks(self, cut, degrees, pulls, newly) -> None:
        """The numpy tier's draws and picks over the cut, into ``newly``."""
        rep, s_cut, t_cut = cut
        # The cut comes sorted by (replica, sender, target): each informed
        # sender's uninformed neighbors are one ascending run.  A pulling
        # initiator needs only its cut degree, since the pull informs it
        # whichever informed neighbor it picks.
        senders, sender_degree, sender_offsets = group_segments(rep * self.n + s_cut)
        cut_degree = np.bincount(rep * self.n + t_cut, minlength=newly.size)
        cut_degree[senders] = sender_degree
        # Initiators in ascending flat order: the canonical draw order.
        initiators = np.flatnonzero(cut_degree)
        init_rep = initiators // self.n
        pushes = self.informed.reshape(-1)[initiators]
        counts = np.where(
            pushes, degrees.reshape(-1)[initiators], pulls.reshape(-1)[initiators]
        )
        degree = counts - 1
        r = self._draw_uniform_blocks(init_rep, 1)[0]
        pick = np.floor(r * degree).astype(np.intp)
        np.minimum(pick, np.maximum(degree - 1, 0), out=pick)
        cross = pick < cut_degree[initiators]
        # The informed initiators, in order, are the senders: push along
        # the picked entry of each crossing sender's run.
        push_cross = cross[pushes]
        pos_sel = sender_offsets[push_cross] + pick[pushes][push_cross]
        newly[rep[pos_sel], t_cut[pos_sel]] = True
        newly.reshape(-1)[initiators[cross & ~pushes]] = True


class PushPullGossip(BroadcastProtocol):
    """Push-pull gossip, every agent contacting one random in-range
    neighbor: one replica of :class:`BatchPushPullState`."""

    name = "push-pull"
    batch_state = BatchPushPullState
