"""Broadcast-protocol interface over MANET snapshots.

A protocol owns the per-agent message state and is driven by the simulation
engine: once per time step it receives the fresh agent positions and decides
who becomes informed.  All protocols share the paper's synchronous semantics
— an agent informed during step ``t`` transmits from step ``t + 1`` on —
and the inclusive distance-``R`` reception rule.

Protocols (scalar view / batch state):

* :class:`~repro.protocols.flooding.FloodingProtocol` — the paper's protocol;
* :class:`~repro.protocols.gossip.GossipProtocol` — push gossip, fanout k;
* :class:`~repro.protocols.pushpull.PushPullGossip` — every agent contacts
  one neighbor, and the message crosses in either direction;
* :class:`~repro.protocols.parsimonious.ParsimoniousFlooding` — informed
  agents transmit only for a bounded window (Baumann-Crescenzi-Fraigniaud);
* :class:`~repro.protocols.probabilistic.ProbabilisticFlooding` — each
  informed agent transmits independently with probability p per step;
* :class:`~repro.protocols.epidemic.SIREpidemic` — transmitters recover
  (stop forever) at a geometric rate, so coverage can stall;
* :class:`~repro.protocols.faulty.CrashFaultFlooding` — agents crash-stop
  at random; completion counts survivors only.

Each protocol has **one implementation**, a :class:`BatchBroadcastState`
subclass: the informed state of ``B`` independent replicas in one
``(B, n)`` tensor, updated in lock-step with the neighbor work of all
replicas answered by a single
:class:`~repro.geometry.neighbors.BatchNeighborQuery` call per round.
Stochastic draws stay **per replica** (one generator per replica, drawn
in a fixed per-step order), so a batch of ``B`` equals ``B`` one-replica
runs seed for seed (DESIGN.md, "Batched protocol framework").  The
scalar engine's :class:`BroadcastProtocol` classes are one-replica
views of those states, with no exchange code of their own.
"""

from __future__ import annotations

import abc
import math
import numbers

import numpy as np

from repro.geometry.neighbors import BatchNeighborQuery

__all__ = ["BroadcastProtocol", "BatchBroadcastState", "group_segments", "sample_indices"]


def _is_integer(value) -> bool:
    """An integral number (numpy integers included) that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def group_segments(sorted_ids: np.ndarray) -> tuple:
    """``(unique_ids, counts, offsets)`` of a nondecreasing id array.

    The grouping primitive behind the neighbor-sampling protocols: a
    canonical-sorted contact list grouped by its initiator, without a
    ``np.unique`` re-sort.
    """
    m = sorted_ids.shape[0]
    if m == 0:
        empty = np.empty(0, dtype=np.intp)
        return sorted_ids, empty, empty
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=boundary[1:])
    starts = np.nonzero(boundary)[0]
    counts = np.diff(np.append(starts, m))
    return sorted_ids[starts], counts, starts


def sample_indices(r: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Uniform without-replacement index samples from ``[0, d)`` per column.

    ``r`` is a ``(k, S)`` block of i.i.d. uniforms (one column per
    sampler, consumed row by row); ``d`` the per-column population sizes.
    Row ``i`` draws the ``i``-th index via the classic skip-adjusted
    sequential scheme: a uniform pick from the ``d - i`` remaining
    positions, shifted past the already-picked indices — so the ``k``
    picks of a column are a uniform ordered sample without replacement.
    Entries where ``d <= i`` (population exhausted) are ``-1``.

    This is the neighbor-sampling core of gossip and push-pull: a sender
    with ``d`` neighbors picks ``k`` of them by *index* — no per-contact
    keys, no sort — and the caller resolves picked indices below the
    sender's informed/uninformed cut-degree to actual targets.  Both
    engines share this code path (the batch engine feeds per-replica
    column blocks), so trajectories stay engine-identical.
    """
    k, cols = r.shape
    picks = np.full((k, cols), -1, dtype=np.intp)
    for i in range(k):
        valid = d > i
        j = np.floor(r[i] * (d - i)).astype(np.intp)
        # r < 1 guarantees j < d - i mathematically; guard the float
        # rounding edge where r*(d-i) rounds up to d-i.
        np.minimum(j, np.maximum(d - i - 1, 0), out=j)
        if i:
            # Shift past the previously picked indices, smallest first.
            prev = np.sort(picks[:i], axis=0)
            for row in range(i):
                j += j >= prev[row]
        picks[i, valid] = j[valid]
    return picks


class BroadcastProtocol:
    """One protocol run: the one-replica view of the protocol's batch state.

    Each registered protocol names its :class:`BatchBroadcastState`
    subclass as :attr:`batch_state` and holds one replica of it, so the
    scalar and the batch engine run the same exchange code.  The view
    keeps the replica's ``(n,)`` rows of the state's masks (``informed``,
    ``informed_at``, and a subclass's extra state) as views cached at
    construction: writing to them writes the state.  Argument and option
    checks are the batch state's.

    Args:
        n: number of agents.
        side: region side (for the neighbor query tiling).
        radius: transmission radius ``R``.
        source: index of the initially informed agent.
        rng: generator for randomized protocols (a fresh default one when
            omitted).
        **options: protocol options, passed to the batch state.
    """

    name = "abstract"
    #: The :class:`BatchBroadcastState` subclass this view holds at B=1.
    batch_state = None
    #: Option attributes read back from the batch state.
    options = ()

    def __init__(
        self,
        n: int,
        side: float,
        radius: float,
        source: int,
        rng: np.random.Generator = None,
        **options,
    ):
        self.rng = rng if rng is not None else np.random.default_rng()
        self.state = self.batch_state(n, side, radius, [source], rngs=[self.rng], **options)
        self.n = self.state.n
        self.side = self.state.side
        self.radius = self.state.radius
        self.source = int(self.state.sources[0])
        for option in self.options:
            setattr(self, option, getattr(self.state, option))
        self.informed = self.state.informed[0]
        self.informed_at = self.state.informed_at[0]

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def informed_count(self) -> int:
        """Number of informed agents."""
        return int(np.count_nonzero(self.informed))

    def is_complete(self) -> bool:
        """Whether the completion criterion holds (every agent informed;
        fault models may restrict the requirement)."""
        return bool(self.state.complete_mask()[0])

    def can_progress(self) -> bool:
        """Whether the protocol may still inform new agents in the future.

        Always True for flooding-like protocols until complete; SIR-style
        protocols return False once no transmitter remains.
        """
        return bool(self.state.can_progress_mask()[0])

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self, positions: np.ndarray) -> np.ndarray:
        """Run one communication round over the ``(n, 2)`` snapshot.

        Returns:
            indices of newly informed agents, ascending.
        """
        positions = np.asarray(positions, dtype=np.float64)
        return np.flatnonzero(self.state.step(positions[None])[0])

    # ------------------------------------------------------------------
    # End-of-run reporting
    # ------------------------------------------------------------------
    def final_metrics(self, positions: np.ndarray, zones=None) -> dict:
        """Protocol-specific end-of-run metrics, merged into result extras
        (see :meth:`BatchBroadcastState.final_metrics`)."""
        return self.state.final_metrics(positions, zones)[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, radius={self.radius}, "
            f"informed={self.informed_count}/{self.n})"
        )


class BatchBroadcastState(abc.ABC):
    """Informed state of ``B`` independent protocol runs, updated in lock-step.

    The one implementation of every protocol: informed masks of all
    replicas live in a ``(B, n)`` tensor, one
    :class:`~repro.geometry.neighbors.BatchNeighborQuery` bind per round
    serves every replica's neighbor queries, and per-replica
    ``can_progress`` masks let stalled or died-out replicas retire early
    while live ones keep lock-stepping.  A :class:`BroadcastProtocol` is
    one replica of it (B=1).

    **Seed-for-seed contract**: replica ``b`` draws only from ``rngs[b]``,
    in the same per-step order whatever the other replicas do, so a batch
    of ``B`` equals ``B`` one-replica runs on the same generators —
    vectorized neighbor work (which dominates) is shared, stochastic
    draws are not.  ``tests/test_protocol_batch_parity.py`` checks both
    engines against independent per-protocol oracles
    (``tests/protocol_oracles.py``).

    Args:
        n: number of agents per replica.
        side: region side (for the neighbor query tiling).
        radius: transmission radius ``R``.
        sources: ``(B,)`` initial informed agent per replica.
        rngs: per-replica generators for the protocol's stochastic draws
            (None for deterministic protocols such as flooding).

    The neighbor path is the kernel tier's (see
    :class:`~repro.geometry.neighbors.BatchNeighborQuery`); no argument
    picks it.
    """

    name = "abstract"
    #: Whether the protocol consumes per-replica randomness (subclasses
    #: that do must be given ``rngs``).
    uses_rng = False

    def __init__(
        self,
        n: int,
        side: float,
        radius: float,
        sources,
        rngs=None,
    ):
        if not _is_integer(n) or n < 1:
            raise ValueError(f"n must be an integer of at least 1, got {n!r}")
        radius = float(radius)
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"radius must be positive and finite, got {radius}")
        sources = np.asarray(sources)
        if sources.ndim != 1 or sources.size < 1:
            raise ValueError(f"sources must be a non-empty 1-d array, got shape {sources.shape}")
        # Bool and float indices would be cast to agents 0/1 and truncated.
        if sources.dtype.kind not in "iu":
            raise ValueError(f"sources must be integer agent indices, got {sources.tolist()}")
        if np.any((sources < 0) | (sources >= n)):
            raise ValueError(f"sources must be in [0, {n}), got {sources.tolist()}")
        self.n = int(n)
        self.side = float(side)
        self.radius = radius
        self.sources = sources.astype(np.intp)
        self.batch_size = int(sources.size)
        if self.uses_rng:
            if rngs is None or len(rngs) != self.batch_size:
                raise ValueError(
                    f"{type(self).__name__} needs one RNG per replica "
                    f"({self.batch_size}), got "
                    f"{'none' if rngs is None else len(rngs)}"
                )
            self.rngs = list(rngs)
        else:
            self.rngs = None
        self.query = BatchNeighborQuery(self.side, self.batch_size)
        self.informed = np.zeros((self.batch_size, self.n), dtype=bool)
        self.informed[np.arange(self.batch_size), self.sources] = True
        self.informed_at = np.full((self.batch_size, self.n), np.inf)
        self.informed_at[np.arange(self.batch_size), self.sources] = 0.0
        self.step_count = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def informed_counts(self) -> np.ndarray:
        """``(B,)`` number of informed agents per replica."""
        return np.count_nonzero(self.informed, axis=1)

    def complete_mask(self) -> np.ndarray:
        """``(B,)`` bool — replicas that reached their completion criterion
        (every agent informed; fault models may restrict the requirement)."""
        return self.informed.all(axis=1)

    def can_progress_mask(self) -> np.ndarray:
        """``(B,)`` bool — replicas that may still inform new agents.

        :meth:`BroadcastProtocol.can_progress` reads its one row; the
        default (flooding-like) rule is "not yet complete".  Subclasses
        with die-out semantics (SIR, parsimonious windows, crash faults)
        override it, and the batch simulation retires replicas whose mask
        turns False — the step at which the scalar loop stops stepping its
        one replica.  **Contract**:
        complete replicas must report False (every override starts from
        ``~self.complete_mask()``); the lock-step driver uses this mask
        directly as its active mask.
        """
        return ~self.complete_mask()

    def stalled_mask(self) -> np.ndarray:
        """``(B,)`` bool — incomplete replicas that can no longer progress."""
        return ~self.complete_mask() & ~self.can_progress_mask()

    def _mark_informed(self, hits: np.ndarray) -> np.ndarray:
        """Record the ``(B, n)`` hit mask as informed at the current step."""
        self.informed |= hits
        self.informed_at[hits] = self.step_count
        return hits

    def _draw_uniform_blocks(self, group_rep: np.ndarray, k: int) -> np.ndarray:
        """``(k, S)`` uniforms drawn per replica (``group_rep`` must be
        nondecreasing), one ``(k, S_b)`` block per replica — the
        seed-for-seed draw-order core shared by the neighbor-sampling
        protocols.  ``rng.random`` returns the bits of the historical
        ``rng.uniform`` draw (which computes ``0.0 + 1.0 * u``) at a lower
        per-call cost."""
        out = np.empty((k, group_rep.size))
        counts = np.bincount(group_rep, minlength=self.batch_size)
        pos = 0
        for b in np.nonzero(counts)[0]:
            count = int(counts[b])
            out[:, pos:pos + count] = self.rngs[b].random((k, count))
            pos += count
        return out

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self, positions: np.ndarray, active=None) -> np.ndarray:
        """One communication round over the ``(B, n, 2)`` snapshot.

        Args:
            positions: ``(B, n, 2)`` replica position tensor.
            active: optional ``(B,)`` bool mask of replicas still running;
                retired replicas are excluded from both sides of every
                query and consume **no randomness** (their generators
                freeze exactly where the scalar engine would have stopped
                drawing).

        Returns:
            ``(B, n)`` bool mask of newly informed agents.
        """
        self.step_count += 1
        rows = None
        if active is None:
            active = np.ones(self.batch_size, dtype=bool)
        else:
            active = np.asarray(active, dtype=bool)
            if not active.all():
                rows = np.nonzero(active)[0]
        snapshot = self.query.bind(positions, rows=rows)
        return self._exchange(snapshot, active)

    @abc.abstractmethod
    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        """Protocol-specific batched exchange over a bound snapshot.

        Receives the :class:`~repro.geometry.neighbors.BatchBoundQuery`
        of the current round and the ``(B,)`` active mask; must return the
        ``(B, n)`` newly-informed mask (and record it via
        :meth:`_mark_informed`).
        """

    # ------------------------------------------------------------------
    # End-of-run reporting
    # ------------------------------------------------------------------
    def final_metrics(self, positions: np.ndarray, zones=None) -> list:
        """Per-replica end-of-run metrics; one dict per replica.

        The base implementation reports where the uninformed agents sit
        (by their *final* position's zone) when a
        :class:`~repro.core.zones.ZonePartition` is available, and
        classifies only those agents (a completed flood has none);
        subclasses add their own state (crashed counts, recovered counts,
        …) in :meth:`_add_metrics`, which reuses that classification.
        The parity tests compare the dicts key-for-key with the oracles'.
        """
        out = [{} for _ in range(self.batch_size)]
        suburb = None
        if zones is not None:
            missing = ~self.informed
            suburb = np.zeros_like(missing)
            idx = np.flatnonzero(missing)
            if idx.size:
                flat = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
                suburb.reshape(-1)[idx] = zones.in_suburb(flat[idx])
            for b in range(self.batch_size):
                in_suburb = int(np.count_nonzero(suburb[b]))
                out[b]["uninformed_suburb"] = in_suburb
                out[b]["uninformed_cz"] = int(np.count_nonzero(missing[b])) - in_suburb
        self._add_metrics(out, suburb)
        return out

    def _add_metrics(self, out: list, suburb) -> None:
        """Add this protocol's entries to the per-replica dicts ``out``.

        ``suburb`` is the ``(B, n)`` mask of the uninformed agents whose
        final position lies in the Suburb (False at every informed agent),
        or ``None`` without a zone partition.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(B={self.batch_size}, n={self.n}, "
            f"radius={self.radius})"
        )
