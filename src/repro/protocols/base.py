"""Broadcast-protocol interface over MANET snapshots.

A protocol owns the per-agent message state and is driven by the simulation
engine: once per time step it receives the fresh agent positions and decides
who becomes informed.  All protocols share the paper's synchronous semantics
— an agent informed during step ``t`` transmits from step ``t + 1`` on —
and the inclusive distance-``R`` reception rule.

Implementations:

* :class:`~repro.protocols.flooding.FloodingProtocol` — the paper's protocol;
* :class:`~repro.protocols.gossip.GossipProtocol` — push gossip, fanout k;
* :class:`~repro.protocols.parsimonious.ParsimoniousFlooding` — informed
  agents transmit only for a bounded window (Baumann-Crescenzi-Fraigniaud);
* :class:`~repro.protocols.probabilistic.ProbabilisticFlooding` — each
  informed agent transmits independently with probability p per step;
* :class:`~repro.protocols.epidemic.SIREpidemic` — transmitters recover
  (stop forever) at a geometric rate, so coverage can stall.

Every protocol also has a **batched counterpart** deriving from
:class:`BatchBroadcastState`: the informed state of ``B`` independent
replicas in one ``(B, n)`` tensor, updated in lock-step with the
neighbor work of all replicas answered by a single
:class:`~repro.geometry.neighbors.BatchNeighborQuery` call per round.
Stochastic draws stay **per replica** (one generator per replica,
replaying the scalar draw order exactly), so the batch engine is
seed-for-seed identical to ``B`` scalar runs — the design constraint of
the whole batch layer (DESIGN.md, "Batched protocol framework").
"""

from __future__ import annotations

import abc

import numpy as np

from repro.geometry.neighbors import BatchNeighborQuery, NeighborEngine, make_engine

__all__ = ["BroadcastProtocol", "BatchBroadcastState", "group_segments", "sample_indices"]


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


class BroadcastProtocol(abc.ABC):
    """Abstract synchronous broadcast protocol.

    Args:
        n: number of agents.
        side: region side (for the neighbor engine).
        radius: transmission radius ``R``.
        source: index of the initially informed agent.
        rng: generator for randomized protocols.
        backend: neighbor-engine backend name (``"auto"`` by default).
    """

    name = "abstract"

    def __init__(
        self,
        n: int,
        side: float,
        radius: float,
        source: int,
        rng: np.random.Generator = None,
        backend: str = "auto",
    ):
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if not 0 <= source < n:
            raise ValueError(f"source must be in [0, {n}), got {source}")
        self.n = int(n)
        self.side = float(side)
        self.radius = float(radius)
        self.source = int(source)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.engine: NeighborEngine = make_engine(backend, self.side)
        self.informed = np.zeros(self.n, dtype=bool)
        self.informed[self.source] = True
        self.informed_at = np.full(self.n, np.inf)
        self.informed_at[self.source] = 0.0
        self.step_count = 0
        self._all_idx = np.arange(self.n, dtype=np.intp)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def informed_count(self) -> int:
        """Number of informed agents."""
        return int(np.count_nonzero(self.informed))

    def is_complete(self) -> bool:
        """All agents informed?"""
        return self.informed_count == self.n

    def can_progress(self) -> bool:
        """Whether the protocol may still inform new agents in the future.

        Always True for flooding-like protocols; SIR-style protocols return
        False once no transmitter remains.
        """
        return not self.is_complete()

    def _mark_informed(self, idx: np.ndarray) -> np.ndarray:
        """Record agents ``idx`` as informed at the current step; returns ``idx``."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size:
            self.informed[idx] = True
            self.informed_at[idx] = self.step_count
        return idx

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self, positions: np.ndarray) -> np.ndarray:
        """Run one communication round over the given snapshot.

        Returns:
            indices of newly informed agents.
        """
        self.step_count += 1
        return self._exchange(positions)

    @abc.abstractmethod
    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        """Protocol-specific exchange; must call :meth:`_mark_informed`."""

    # ------------------------------------------------------------------
    # End-of-run reporting
    # ------------------------------------------------------------------
    def final_metrics(self, positions: np.ndarray, zones=None) -> dict:
        """Protocol-specific end-of-run metrics, merged into result extras.

        The base implementation reports where the uninformed agents sit
        (by their *final* position's zone) when a
        :class:`~repro.core.zones.ZonePartition` is available; subclasses
        extend with their own state (crashed counts, recovered counts, …).
        """
        out = {}
        if zones is not None:
            missing = ~self.informed
            suburb = zones.in_suburb(positions)
            out["uninformed_suburb"] = int(np.count_nonzero(missing & suburb))
            out["uninformed_cz"] = int(np.count_nonzero(missing & ~suburb))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, radius={self.radius}, "
            f"informed={self.informed_count}/{self.n})"
        )


class BatchBroadcastState(abc.ABC):
    """Informed state of ``B`` independent protocol runs, updated in lock-step.

    The batch counterpart of :class:`BroadcastProtocol`: informed masks of
    all replicas live in a ``(B, n)`` tensor, one
    :class:`~repro.geometry.neighbors.BatchNeighborQuery` bind per round
    serves every replica's neighbor queries, and per-replica
    ``can_progress`` masks let stalled or died-out replicas retire early
    while live ones keep lock-stepping.

    **Seed-for-seed parity contract**: with per-replica generators spawned
    exactly like the scalar runner's protocol streams, a subclass must
    consume randomness in the scalar protocol's per-step draw order for
    each replica — vectorized neighbor work (which dominates) is shared,
    stochastic draws are not.  The parity is asserted protocol-by-protocol
    in ``tests/test_protocol_batch_parity.py``.

    Args:
        n: number of agents per replica.
        side: region side (for the neighbor query tiling).
        radius: transmission radius ``R``.
        sources: ``(B,)`` initial informed agent per replica.
        rngs: per-replica generators for the protocol's stochastic draws
            (None for deterministic protocols such as flooding).
        backend: neighbor-engine backend name.
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
        backend: str = "auto",
    ):
        sources = np.asarray(sources, dtype=np.intp)
        if sources.ndim != 1 or sources.size < 1:
            raise ValueError(f"sources must be a non-empty 1-d array, got shape {sources.shape}")
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if np.any((sources < 0) | (sources >= n)):
            raise ValueError(f"sources must be in [0, {n})")
        self.n = int(n)
        self.side = float(side)
        self.radius = float(radius)
        self.sources = sources
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
        self.query = BatchNeighborQuery(self.side, self.batch_size, backend)
        self.informed = np.zeros((self.batch_size, self.n), dtype=bool)
        self.informed[np.arange(self.batch_size), sources] = True
        self.informed_at = np.full((self.batch_size, self.n), np.inf)
        self.informed_at[np.arange(self.batch_size), sources] = 0.0
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
        return self.informed_counts == self.n

    def can_progress_mask(self) -> np.ndarray:
        """``(B,)`` bool — replicas that may still inform new agents.

        The batch counterpart of
        :meth:`BroadcastProtocol.can_progress`; the default (flooding-like)
        rule is "not yet complete".  Subclasses with die-out semantics
        (SIR, parsimonious windows, crash faults) override it, and the
        batch simulation retires replicas whose mask turns False — exactly
        when the scalar loop would stop stepping them.  **Contract**:
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
        nondecreasing), matching the scalar per-replica draw shapes — the
        seed-for-seed draw-order core shared by the neighbor-sampling
        protocols."""
        out = np.empty((k, group_rep.size))
        counts = np.bincount(group_rep, minlength=self.batch_size)
        pos = 0
        for b in np.nonzero(counts)[0]:
            count = int(counts[b])
            out[:, pos:pos + count] = self.rngs[b].uniform(size=(k, count))
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

        Must mirror :meth:`BroadcastProtocol.final_metrics` of the scalar
        protocol exactly (the parity tests compare them key-for-key).
        """
        out = [{} for _ in range(self.batch_size)]
        if zones is not None:
            missing = ~self.informed
            flat = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
            suburb = zones.in_suburb(flat).reshape(self.batch_size, self.n)
            for b in range(self.batch_size):
                out[b]["uninformed_suburb"] = int(np.count_nonzero(missing[b] & suburb[b]))
                out[b]["uninformed_cz"] = int(np.count_nonzero(missing[b] & ~suburb[b]))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(B={self.batch_size}, n={self.n}, "
            f"radius={self.radius})"
        )
