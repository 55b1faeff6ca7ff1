"""Neighbor engines: a uniform interface over spatial indexes.

The simulation core only needs three primitives per snapshot:

* ``any_within(sources, queries, r)`` — which query points have a source
  point within Euclidean distance ``r`` (flooding's infection test);
* ``count_within(...)`` — occupancy counts (density condition, Lemma 7);
* ``pairs_within(points, r)`` — all edges of the disk graph ``G_t``.

Two interchangeable backends implement them:

* :class:`GridNeighborEngine` — the pure-numpy bucket grid of
  :mod:`repro.geometry.grid` (no dependencies beyond numpy);
* :class:`KDTreeNeighborEngine` — scipy's cKDTree, typically faster for
  large ``n``.

Use :func:`make_engine` to construct one by name; ``"auto"`` picks the
KD-tree when scipy is installed and falls back to the grid otherwise.
``scipy.spatial`` itself is imported only when a KD-tree is first built.

On the compiled kernel tier, a snapshot bound by an ``"auto"`` engine
answers ``any_within`` with the ``batch_any_within`` grid scan at B=1,
the kernel the batch engine calls.  That scan applies the exact
``d² <= R²`` test where the KD query accepts distances up to
``R * (1 + 1e-12)``: the two can differ only for pairs within
floating-point rounding of ``R``, the same ulp-level slack the batch
engine documents among its strategies (see :class:`BatchNeighborQuery`).
Explicitly named backends never dispatch.

Two layers sit on top of the raw engines (DESIGN.md, "Neighbor
subsystem: one exact path per backend"):

* **Bound snapshots** — within one communication round the positions are
  frozen, so :meth:`NeighborEngine.bind` freezes them into a
  :class:`BoundSnapshot` whose spatial index is built once and shared by
  every query on the snapshot (the multi-hop exchange loop, paired
  ``any_within``/``count_within`` calls).

* **Batched queries** — the batch simulation engine answers the
  per-replica queries of **B independent trials with one engine call**
  through :class:`BatchNeighborQuery`: each replica's points are
  translated into a disjoint tile of a larger virtual square, tiles
  separated by more than the query radius, so a single spatial index over
  the union can never report a cross-replica hit.  Its cell-cover strategy
  prunes informed sources far from the uninformed frontier before any
  binning (exact — see :meth:`BatchBoundQuery.any_within`).
"""

from __future__ import annotations

import importlib.util
import math

import numpy as np

from repro.geometry.grid import GridIndex
from repro.geometry.points import as_points
from repro.kernels import get_kernel

__all__ = [
    "NeighborEngine",
    "BoundSnapshot",
    "GridNeighborEngine",
    "KDTreeNeighborEngine",
    "BruteForceNeighborEngine",
    "BatchNeighborQuery",
    "BatchBoundQuery",
    "make_engine",
    "available_backends",
]


def _check_radius(radius, positive: bool = False) -> float:
    """``radius`` as a float; ``ValueError`` if NaN, infinite or negative.

    Such a radius bounds no distance, and each backend would answer it
    differently (a KD-tree reads ``-1`` as ``+1``; the grid cannot size
    its cells from a NaN).  Zero is valid for the engine coordinate API
    (a disk graph with ``R = 0``); snapshots pass ``positive=True`` and
    reject it too.
    """
    radius = float(radius)
    if not math.isfinite(radius) or radius < 0 or (positive and radius == 0):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"radius must be {kind} and finite, got {radius}")
    return radius


class BoundSnapshot:
    """Radius queries bound to one frozen ``(n, 2)`` position snapshot.

    Obtained from :meth:`NeighborEngine.bind`.  All methods take *index
    arrays into the bound snapshot* rather than coordinate arrays, so the
    engine-specific spatial index can be built once and shared by every
    query on the snapshot: the hops of a multi-hop exchange round, and
    paired ``any_within``/``count_within`` calls.

    This base implementation delegates to the engine's coordinate API per
    call (correct for any engine, no sharing); the grid and KD-tree
    engines override it with index-reusing variants.
    """

    def __init__(self, engine: "NeighborEngine", points: np.ndarray, radius: float):
        self.radius = _check_radius(radius, positive=True)
        self.engine = engine
        self.points = points

    def any_within(self, source_idx, query_idx) -> np.ndarray:
        """Mask over ``query_idx``: has a point of ``source_idx`` within radius."""
        return self.engine.any_within(
            self.points[source_idx], self.points[query_idx], self.radius
        )

    def _kernel_any_within(self, source_idx, query_idx):
        """``any_within`` from the compiled tier, or ``None`` to run numpy.

        Only engines built by ``make_engine("auto")`` dispatch: the
        snapshot becomes a one-replica batch for the ``batch_any_within``
        grid scan.  Explicit backends always run their own code, so the
        parity sweeps keep comparing independent implementations.
        """
        if not self.engine.kernel_dispatch:
            return None
        kernel = get_kernel("batch_any_within")
        if kernel is None:
            return None
        n = self.points.shape[0]
        source_mask = np.zeros((1, n), dtype=bool)
        source_mask[0, source_idx] = True
        query_mask = np.zeros((1, n), dtype=bool)
        query_mask[0, query_idx] = True
        hits = kernel(self.points[None], source_mask, query_mask, self.radius, self.engine.side)
        return None if hits is None else hits[0, query_idx]

    def count_within(self, source_idx, query_idx) -> np.ndarray:
        """Per-query count of ``source_idx`` points within the bound radius."""
        return self.engine.count_within(
            self.points[source_idx], self.points[query_idx], self.radius
        )

    def contacts_within(self, source_idx, query_idx) -> tuple:
        """All (source, query) agent pairs within the bound radius.

        The bipartite materialization behind the neighbor-sampling
        protocols: gossip and push-pull only ever need the edges crossing
        the informed/uninformed cut, which is far smaller than the full
        disk graph at both ends of a run.  This base implementation is
        O(S * Q) (fine for the brute engine); grid and KD-tree override it
        with index-backed variants.

        Returns:
            ``(sources, queries)`` agent-index arrays of equal length, in
            unspecified order.
        """
        source_idx = np.asarray(source_idx, dtype=np.intp)
        query_idx = np.asarray(query_idx, dtype=np.intp)
        if source_idx.size == 0 or query_idx.size == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        diff = self.points[query_idx][:, None, :] - self.points[source_idx][None, :, :]
        dist2 = np.sum(diff * diff, axis=-1)
        qpos, spos = np.nonzero(dist2 <= self.radius * self.radius)
        return source_idx[spos], query_idx[qpos]

    def pairs_within(self) -> np.ndarray:
        """All unordered pairs of the snapshot within the bound radius.

        The snapshot counterpart of :meth:`NeighborEngine.pairs_within`
        for per-step edge extraction over a recorded series (disk-graph
        snapshots, contact traces).  This base implementation delegates
        to the engine's coordinate API; the grid snapshot overrides it
        with its full-snapshot index, the KD-tree snapshot with a
        fast-build throwaway tree.

        Returns:
            ``(k, 2)`` intp pairs with ``i < j``, in backend order.
        """
        return self.engine.pairs_within(self.points, self.radius)


class NeighborEngine:
    """Interface for radius-based neighbor queries on a square region."""

    name = "abstract"
    #: Set by ``make_engine("auto")``: bound snapshots may answer
    #: ``any_within`` from the compiled tier.
    kernel_dispatch = False

    def __init__(self, side: float):
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        self.side = float(side)

    def any_within(self, sources, queries, radius: float) -> np.ndarray:
        """Mask over ``queries``: has >= 1 point of ``sources`` within ``radius``."""
        raise NotImplementedError

    def count_within(self, sources, queries, radius: float) -> np.ndarray:
        """Per-query count of ``sources`` points within ``radius``."""
        raise NotImplementedError

    def pairs_within(self, points, radius: float) -> np.ndarray:
        """All unordered pairs of ``points`` within ``radius``; shape ``(k, 2)``."""
        raise NotImplementedError

    def bind(self, points, radius: float) -> BoundSnapshot:
        """Freeze ``points`` into a :class:`BoundSnapshot` for masked queries."""
        return BoundSnapshot(self, as_points(points), radius)


class _GridSnapshot(BoundSnapshot):
    """Grid-backed snapshot with an adaptive index side.

    Most queries get a small throwaway index over just the sources
    (memoized on the index-array identity, so paired ``any_within`` /
    ``count_within`` calls share it) — exactly the pre-snapshot behaviour.
    When the sources are dense *and* the queries few (late flooding
    rounds: informed ~ n, a handful of stragglers), re-sorting ~n sources
    every round is the dominant waste, so the snapshot switches to one
    full-snapshot index (built once per snapshot) with a
    source-membership filter on the candidate pairs.  Both paths run the
    same inclusive distance test, so results are identical.
    """

    #: Full-index path: sources above this fraction of n ...
    _DENSE_SOURCE_FRACTION = 0.5
    #: ... and queries below this fraction of n.
    _FEW_QUERY_FRACTION = 0.125

    def __init__(self, engine, points, radius):
        super().__init__(engine, points, radius)
        self._full = None  # lazily built full-snapshot index
        self._memo = None  # (source_idx, index) for the sparse path

    def _full_index(self) -> GridIndex:
        if self._full is None:
            self._full = self.engine._index(self.points, self.radius)
        return self._full

    def _source_index(self, source_idx) -> GridIndex:
        memo = self._memo
        if memo is not None and memo[0] is source_idx:
            return memo[1]
        index = self.engine._index(self.points[source_idx], self.radius)
        self._memo = (source_idx, index)
        return index

    def _masked_candidates(self, source_idx, queries) -> tuple:
        """Exact ``(query position, source agent)`` matches against the
        full-snapshot index, membership-filtered to ``source_idx`` —
        shared by the dense-source paths of ``any_within`` /
        ``count_within`` / ``contacts_within``."""
        source_mask = np.zeros(self.points.shape[0], dtype=bool)
        source_mask[source_idx] = True
        index = self._full_index()
        qidx, pidx = index._candidate_arrays(queries, self.radius)
        keep = source_mask[pidx]
        qidx = qidx[keep]
        pidx = pidx[keep]
        if qidx.size:
            diff = queries[qidx] - self.points[pidx]
            hit = np.sum(diff * diff, axis=1) <= self.radius * self.radius
            qidx = qidx[hit]
            pidx = pidx[hit]
        return qidx, pidx

    def _masked_full(self, source_idx, queries):
        return self._masked_candidates(source_idx, queries)[0]

    def _use_full(self, source_idx, query_idx) -> bool:
        n = self.points.shape[0]
        return (
            source_idx.size > self._DENSE_SOURCE_FRACTION * n
            and query_idx.size < self._FEW_QUERY_FRACTION * n
        )

    def any_within(self, source_idx, query_idx) -> np.ndarray:
        source_idx = np.asarray(source_idx, dtype=np.intp)
        query_idx = np.asarray(query_idx, dtype=np.intp)
        if source_idx.size == 0 or query_idx.size == 0:
            return np.zeros(query_idx.size, dtype=bool)
        hits = self._kernel_any_within(source_idx, query_idx)
        if hits is not None:
            return hits
        if not self._use_full(source_idx, query_idx):
            return self._source_index(source_idx).any_within(
                self.points[query_idx], self.radius
            )
        queries = self.points[query_idx]
        result = np.zeros(queries.shape[0], dtype=bool)
        result[self._masked_full(source_idx, queries)] = True
        return result

    def count_within(self, source_idx, query_idx) -> np.ndarray:
        source_idx = np.asarray(source_idx, dtype=np.intp)
        query_idx = np.asarray(query_idx, dtype=np.intp)
        if source_idx.size == 0 or query_idx.size == 0:
            return np.zeros(query_idx.size, dtype=np.intp)
        if not self._use_full(source_idx, query_idx):
            return self._source_index(source_idx).count_within(
                self.points[query_idx], self.radius
            )
        queries = self.points[query_idx]
        counts = np.zeros(queries.shape[0], dtype=np.intp)
        np.add.at(counts, self._masked_full(source_idx, queries), 1)
        return counts

    def contacts_within(self, source_idx, query_idx) -> tuple:
        source_idx = np.asarray(source_idx, dtype=np.intp)
        query_idx = np.asarray(query_idx, dtype=np.intp)
        empty = np.empty(0, dtype=np.intp)
        if source_idx.size == 0 or query_idx.size == 0:
            return empty, empty
        queries = self.points[query_idx]
        if self._use_full(source_idx, query_idx):
            # Dense sources, few queries: use the full-snapshot index
            # (candidates carry agent ids directly).
            qidx, sources = self._masked_candidates(source_idx, queries)
            return sources, query_idx[qidx]
        index = self._source_index(source_idx)
        qidx, pidx = index._candidate_arrays(queries, self.radius)
        if qidx.size == 0:
            return empty, empty
        sources = source_idx[pidx]
        diff = queries[qidx] - self.points[sources]
        hit = np.sum(diff * diff, axis=1) <= self.radius * self.radius
        return sources[hit], query_idx[qidx[hit]]

    def pairs_within(self) -> np.ndarray:
        return self._full_index().pairs_within(self.radius)


class GridNeighborEngine(NeighborEngine):
    """Bucket-grid backend (pure numpy).

    Args:
        side: side length of the square region.
        cell_size: bucket side override (default ``max(radius, side/512)``
            per query).
    """

    name = "grid"

    def __init__(self, side: float, cell_size: float = None):
        super().__init__(side)
        self._cell_size = cell_size

    def _cell_for(self, radius: float) -> float:
        return self._cell_size if self._cell_size is not None else max(radius, self.side / 512.0)

    def _index(self, points, radius: float) -> GridIndex:
        """Fresh index over ``points`` for ``radius`` queries.

        Deliberately *not* memoized: coordinate-API callers pass freshly
        gathered arrays every call (``positions[mask]``), so an
        identity-keyed memo would never hit — and a content-keyed one
        costs as much as the build it saves.  Callers that genuinely
        query one snapshot repeatedly share an index through
        :meth:`bind`, where array identity is stable.
        """
        return GridIndex(self.side, self._cell_for(radius)).build(points)

    def bind(self, points, radius: float) -> BoundSnapshot:
        return _GridSnapshot(self, as_points(points), radius)

    def any_within(self, sources, queries, radius: float) -> np.ndarray:
        radius = _check_radius(radius)
        sources = as_points(sources)
        queries = as_points(queries)
        if sources.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=bool)
        return self._index(sources, radius).any_within(queries, radius)

    def count_within(self, sources, queries, radius: float) -> np.ndarray:
        radius = _check_radius(radius)
        sources = as_points(sources)
        queries = as_points(queries)
        if sources.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=np.intp)
        return self._index(sources, radius).count_within(queries, radius)

    def pairs_within(self, points, radius: float) -> np.ndarray:
        radius = _check_radius(radius)
        points = as_points(points)
        if points.shape[0] == 0:
            return np.empty((0, 2), dtype=np.intp)
        return self._index(points, radius).pairs_within(radius)


class _KDTreeSnapshot(BoundSnapshot):
    """KD-tree snapshot: one tree per distinct source set, shared by calls.

    Trees are memoized on the identity of the ``source_idx`` array, so the
    ``any_within``/``count_within`` pair of a round builds one tree, and
    the frontier hops of a multi-hop round each build one small tree over
    the newly informed agents only.
    """

    def __init__(self, engine, points, radius):
        super().__init__(engine, points, radius)
        self._memo = None  # (source_idx, tree)

    def _tree(self, source_idx):
        memo = self._memo
        if memo is not None and memo[0] is source_idx:
            return memo[1]
        # Snapshot trees live for one communication round: skip the
        # balancing passes, which dominate construction at these sizes.
        tree = self.engine._cKDTree(
            self.points[source_idx], balanced_tree=False, compact_nodes=False
        )
        self._memo = (source_idx, tree)
        return tree

    def any_within(self, source_idx, query_idx) -> np.ndarray:
        source_idx = np.asarray(source_idx, dtype=np.intp)
        query_idx = np.asarray(query_idx, dtype=np.intp)
        if source_idx.size == 0 or query_idx.size == 0:
            return np.zeros(query_idx.size, dtype=bool)
        hits = self._kernel_any_within(source_idx, query_idx)
        if hits is not None:
            return hits
        dist, _ = self._tree(source_idx).query(
            self.points[query_idx], k=1, distance_upper_bound=self.radius * (1 + 1e-12)
        )
        return np.isfinite(dist)

    def count_within(self, source_idx, query_idx) -> np.ndarray:
        source_idx = np.asarray(source_idx, dtype=np.intp)
        query_idx = np.asarray(query_idx, dtype=np.intp)
        if source_idx.size == 0 or query_idx.size == 0:
            return np.zeros(query_idx.size, dtype=np.intp)
        counts = self._tree(source_idx).query_ball_point(
            self.points[query_idx], r=self.radius, return_length=True
        )
        return np.asarray(counts, dtype=np.intp)

    def contacts_within(self, source_idx, query_idx) -> tuple:
        source_idx = np.asarray(source_idx, dtype=np.intp)
        query_idx = np.asarray(query_idx, dtype=np.intp)
        if source_idx.size == 0 or query_idx.size == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        query_tree = self.engine._cKDTree(
            self.points[query_idx], balanced_tree=False, compact_nodes=False
        )
        hits = self._tree(source_idx).sparse_distance_matrix(
            query_tree, max_distance=self.radius, output_type="ndarray"
        )
        return source_idx[hits["i"]], query_idx[hits["j"]]

    def pairs_within(self) -> np.ndarray:
        # Throwaway per-frame tree: skip the balancing passes, which
        # dominate construction at snapshot sizes.
        tree = self.engine._cKDTree(self.points, balanced_tree=False, compact_nodes=False)
        pairs = tree.query_pairs(r=self.radius, output_type="ndarray")
        return pairs.astype(np.intp, copy=False)


class KDTreeNeighborEngine(NeighborEngine):
    """scipy cKDTree backend.

    ``scipy.spatial`` is imported by the first tree build, not at
    construction: the import dwarfs the set-up of a compiled-tier
    flooding run, which never builds a tree.

    Raises:
        ImportError: when scipy is not installed; use ``make_engine("auto")``
            to fall back gracefully.
    """

    name = "kdtree"

    def __init__(self, side: float):
        super().__init__(side)
        if "kdtree" not in available_backends():
            raise ImportError(
                "the kdtree backend needs scipy, which is not installed; "
                "use make_engine('auto') to fall back to the grid"
            )

    @staticmethod
    def _cKDTree(points, **kwargs):
        from scipy.spatial import cKDTree

        return cKDTree(points, **kwargs)

    def bind(self, points, radius: float) -> BoundSnapshot:
        return _KDTreeSnapshot(self, as_points(points), radius)

    def any_within(self, sources, queries, radius: float) -> np.ndarray:
        radius = _check_radius(radius)
        sources = as_points(sources)
        queries = as_points(queries)
        if sources.shape[0] == 0 or queries.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=bool)
        tree = self._cKDTree(sources)
        dist, _ = tree.query(queries, k=1, distance_upper_bound=radius * (1 + 1e-12))
        return np.isfinite(dist)

    def count_within(self, sources, queries, radius: float) -> np.ndarray:
        radius = _check_radius(radius)
        sources = as_points(sources)
        queries = as_points(queries)
        if sources.shape[0] == 0 or queries.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=np.intp)
        tree = self._cKDTree(sources)
        counts = tree.query_ball_point(queries, r=radius, return_length=True)
        return np.asarray(counts, dtype=np.intp)

    def pairs_within(self, points, radius: float) -> np.ndarray:
        radius = _check_radius(radius)
        points = as_points(points)
        if points.shape[0] == 0:
            return np.empty((0, 2), dtype=np.intp)
        tree = self._cKDTree(points)
        pairs = tree.query_pairs(r=radius, output_type="ndarray")
        return pairs.astype(np.intp, copy=False)


class BruteForceNeighborEngine(NeighborEngine):
    """O(n*m) reference implementation used to validate the real engines."""

    name = "brute"

    def any_within(self, sources, queries, radius: float) -> np.ndarray:
        radius = _check_radius(radius)
        sources = as_points(sources)
        queries = as_points(queries)
        if sources.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=bool)
        diff = queries[:, None, :] - sources[None, :, :]
        dist2 = np.sum(diff * diff, axis=-1)
        return np.any(dist2 <= radius * radius, axis=1)

    def count_within(self, sources, queries, radius: float) -> np.ndarray:
        radius = _check_radius(radius)
        sources = as_points(sources)
        queries = as_points(queries)
        if sources.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=np.intp)
        diff = queries[:, None, :] - sources[None, :, :]
        dist2 = np.sum(diff * diff, axis=-1)
        return np.sum(dist2 <= radius * radius, axis=1).astype(np.intp)

    def pairs_within(self, points, radius: float) -> np.ndarray:
        radius = _check_radius(radius)
        points = as_points(points)
        n = points.shape[0]
        if n == 0:
            return np.empty((0, 2), dtype=np.intp)
        diff = points[:, None, :] - points[None, :, :]
        dist2 = np.sum(diff * diff, axis=-1)
        i, j = np.nonzero(np.triu(dist2 <= radius * radius, k=1))
        return np.stack([i, j], axis=1).astype(np.intp)


def _dilate(occ: np.ndarray, reach: int) -> np.ndarray:
    """Boolean Chebyshev-box dilation of a ``(B, m, m)`` occupancy stack.

    ``out[b, i, j]`` is True iff some ``occ[b, i', j']`` is True with
    ``max(|i'-i|, |j'-j|) <= reach`` (grid edges clipped) — computed as a
    few shifted ORs over byte arrays (the covered radius grows
    ``1, +2, +4, ...`` per pass) instead of the integer cumulative-sum
    box filters this kernel used before.
    """
    out = occ.copy()
    if reach <= 0:
        return out
    for axis in (1, 2):
        covered = 0
        while covered < reach:
            step = min(covered + 1, reach - covered)
            if axis == 1:
                out[:, step:, :] |= out[:, :-step, :]
                out[:, :-step, :] |= out[:, step:, :]
            else:
                out[:, :, step:] |= out[:, :, :-step]
                out[:, :, :-step] |= out[:, :, step:]
            covered += step
    return out


class BatchBoundQuery:
    """Per-replica queries bound to one ``(B, n, 2)`` snapshot.

    Obtained from :meth:`BatchNeighborQuery.bind`.  Within the snapshot's
    lifetime (one communication round) the derived per-agent cell
    assignments and tiled coordinates are computed at most once and shared
    by every hop and every ``any_within``/``count_within`` call.  The
    snapshot is valid until the next ``bind`` on the same query object.
    """

    def __init__(self, query: "BatchNeighborQuery", positions: np.ndarray, rows=None):
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 3 or positions.shape[2] != 2:
            raise ValueError(f"positions must have shape (B, n, 2), got {positions.shape}")
        if positions.shape[0] != query.batch_size:
            raise ValueError(
                f"expected {query.batch_size} replicas, got {positions.shape[0]}"
            )
        self.query = query
        self.positions = positions
        self.rows = rows
        self._cells = {}  # cell size -> (gid, m) for this snapshot
        self._shifted = {}  # radius -> (flat shifted coords, big_side)

    # ------------------------------------------------------------------
    # Shared per-snapshot derived state
    # ------------------------------------------------------------------
    def _cells_for(self, radius: float):
        """Per-agent global cell ids for the cell-cover kernel (or None
        when the occupancy grid would be unreasonably large)."""
        divisor = self.query._COVER_DIVISOR
        cell = radius / divisor
        key = cell
        cached = self._cells.get(key)
        if cached is not None:
            return cached
        m = max(1, int(math.ceil(self.query.side / cell)))
        if self.positions.shape[0] * m * m > self.query._MAX_COVER_CELLS:
            self._cells[key] = None
            return None
        gid = self.query._cover_cells(self.positions, cell, m, self.rows)
        self._cells[key] = (gid, m)
        return self._cells[key]

    def _shifted_for(self, radius: float):
        """Tile-shifted flat coordinates (cached per radius)."""
        cached = self._shifted.get(radius)
        if cached is None:
            cached = self.query._shift(self.positions, radius)
            self._shifted[radius] = cached
        return cached

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_masks(self, source_mask, query_mask):
        batch, n, _ = self.positions.shape
        source_mask = np.asarray(source_mask, dtype=bool)
        query_mask = np.asarray(query_mask, dtype=bool)
        if source_mask.shape != (batch, n) or query_mask.shape != (batch, n):
            raise ValueError("masks must have shape (B, n) matching the positions")
        return source_mask, query_mask

    def _tiled(self, method, source_mask, query_mask, radius):
        flat, big_side = self._shifted_for(radius)
        source_mask = source_mask.reshape(-1)
        query_mask = query_mask.reshape(-1)
        engine = _BACKENDS[self.query._tiled_backend](big_side)
        out = getattr(engine, method)(flat[source_mask], flat[query_mask], radius)
        result_dtype = bool if method == "any_within" else np.intp
        full = np.zeros(flat.shape[0], dtype=result_dtype)
        full[query_mask] = out
        return full.reshape(self.positions.shape[0], -1)

    def _flat_tiled_any_within(self, source_flat, query_flat, radius):
        """Exact tiled ``any_within`` over flat ``(B*n)`` index subsets."""
        n = self.positions.shape[1]
        pts = self.positions.reshape(-1, 2)
        _stride, big_side = self.query._tile_geometry(radius)

        def shifted(flat_idx):
            return self.query._tile_shift(flat_idx // n, pts[flat_idx], radius)

        if self.query._tiled_backend == "kdtree":
            # Same exact query as KDTreeNeighborEngine.any_within, but the
            # tree is throwaway (one shell per round) — skip the balancing
            # passes, which dominate construction for these sizes.
            from scipy.spatial import cKDTree

            tree = cKDTree(shifted(source_flat), balanced_tree=False, compact_nodes=False)
            dist, _ = tree.query(
                shifted(query_flat), k=1, distance_upper_bound=radius * (1 + 1e-12)
            )
            return np.isfinite(dist)
        engine = _BACKENDS[self.query._tiled_backend](big_side)
        return engine.any_within(shifted(source_flat), shifted(query_flat), radius)

    def _cells_any_within(self, source_mask, query_mask, radius):
        """Cell-cover ``any_within`` (see :class:`BatchNeighborQuery`);
        returns None when the cover grid is unavailable."""
        info = self._cells_for(radius)
        if info is None:
            return None
        gid, m = info
        batch, n = gid.shape
        cells = batch * m * m
        divisor = self.query._COVER_DIVISOR
        # A source within Chebyshev cell distance reach_sure is certainly a
        # hit: the farthest pair of points in such cells is
        # (reach_sure + 1) * sqrt(2) buckets < radius apart.
        reach_sure = int(divisor / math.sqrt(2.0)) - 1
        # No source within Chebyshev distance reach_possible certainly
        # means no hit: cells further apart leave a gap > divisor buckets
        # == radius.
        reach_possible = int(divisor) + 1

        gid_flat = gid.reshape(-1)
        hits = np.zeros(batch * n, dtype=bool)
        query_flat = np.nonzero(query_mask.reshape(-1))[0]
        if query_flat.size == 0:
            return hits.reshape(batch, n)
        source_flat = np.nonzero(source_mask.reshape(-1))[0]
        if source_flat.size == 0:
            return hits.reshape(batch, n)
        q_gid = gid_flat[query_flat]
        s_gid = gid_flat[source_flat]

        # Frontier pruning: a source farther than reach_possible cells from
        # every query-occupied cell can neither hit a query nor change any
        # certainty read at a query cell — drop it before binning, so late
        # flooding rounds (informed ~ n, queries few) cost O(frontier)
        # instead of O(n) in every source-sized pass below.  The drop is
        # exact, so it is applied only in the source-heavy regime where the
        # shell test costs less than it saves; in query-heavy rounds the
        # unresolved-shell restriction below bounds the exact-check work
        # just as tightly without the extra dilation.
        pruned = False
        if source_flat.size > query_flat.size:
            q_occ = np.zeros(cells, dtype=bool)
            q_occ[q_gid] = True
            near_queries = _dilate(q_occ.reshape(batch, m, m), reach_possible).reshape(-1)
            keep = near_queries[s_gid]
            source_flat = source_flat[keep]
            s_gid = s_gid[keep]
            pruned = True
            if source_flat.size == 0:
                return hits.reshape(batch, n)

        src_occ = np.zeros(cells, dtype=bool)
        src_occ[s_gid] = True
        occ = src_occ.reshape(batch, m, m)
        if reach_sure >= 1:
            sure = _dilate(occ, reach_sure)
        else:
            # Coarse grids (divisor in [sqrt(5), 2*sqrt(2))): the cross
            # neighborhood (own + edge-adjacent cells, diameter
            # sqrt(5) buckets <= radius) beats the bare own-cell box.
            sure = occ.copy()
            sure[:, 1:, :] |= occ[:, :-1, :]
            sure[:, :-1, :] |= occ[:, 1:, :]
            sure[:, :, 1:] |= occ[:, :, :-1]
            sure[:, :, :-1] |= occ[:, :, 1:]
        sure_q = sure.reshape(-1)[q_gid]
        hits[query_flat[sure_q]] = True
        possible = _dilate(occ, reach_possible).reshape(-1)
        ambiguous = ~sure_q & possible[q_gid]
        unresolved_flat = query_flat[ambiguous]
        if unresolved_flat.size:
            # Exact distances for the thin shell between the certainties,
            # against the sources near the shell's cells only.  After a
            # shell prune, every surviving source is already within
            # reach_possible of a query cell — one more dilation to
            # restrict to the *unresolved* cells rarely pays for itself.
            if pruned:
                near_source_flat = source_flat
            else:
                u_occ = np.zeros(cells, dtype=bool)
                u_occ[q_gid[ambiguous]] = True
                near = _dilate(u_occ.reshape(batch, m, m), reach_possible).reshape(-1)
                near_source_flat = source_flat[near[s_gid]]
            if near_source_flat.size:
                hit = self._flat_tiled_any_within(near_source_flat, unresolved_flat, radius)
                hits[unresolved_flat[hit]] = True
        return hits.reshape(batch, n)

    def _kernel(self, name, source_mask, query_mask, radius, **options):
        """The compiled ``name`` kernel's answer, or ``None`` to run numpy.

        Only ``"auto"`` queries dispatch, and only on the compiled tier
        (when a run activated it); explicit backends always run their own
        code, so the parity sweeps keep comparing independent
        implementations.  ``options`` pass through to the kernel.
        """
        if self.query.backend != "auto":
            return None
        kernel = get_kernel(name)
        if kernel is None:
            return None
        return kernel(
            self.positions, source_mask, query_mask, radius, self.query.side, **options
        )

    def any_within(self, source_mask, query_mask, radius: float) -> np.ndarray:
        """Per-replica infection test; see :meth:`BatchNeighborQuery.any_within`."""
        radius = _check_radius(radius, positive=True)
        source_mask, query_mask = self._check_masks(source_mask, query_mask)
        # Compiled tier: one fused grid-build + 3x3-scan pass over the
        # exact predicate — bit-identical to the strategies below for any
        # scan order.
        result = self._kernel("batch_any_within", source_mask, query_mask, radius)
        if result is not None:
            return result
        if self.query.backend in ("auto", "cells"):
            result = self._cells_any_within(source_mask, query_mask, radius)
            if result is not None:
                return result
        return self._tiled("any_within", source_mask, query_mask, radius)

    def count_within(self, source_mask, query_mask, radius: float) -> np.ndarray:
        """Per-replica occupancy counts; see :meth:`BatchNeighborQuery.count_within`."""
        radius = _check_radius(radius, positive=True)
        source_mask, query_mask = self._check_masks(source_mask, query_mask)
        # Compiled tier: ``batch_contacts`` tallies the exact inclusive
        # ``d² <= R²`` test per query and writes no pairs; no KD-tree is built.
        counts = self._kernel(
            "batch_contacts", source_mask, query_mask, radius, counts=True
        )
        if counts is not None:
            return counts
        if self.query._tiled_backend == "kdtree":
            batch, n = source_mask.shape
            # Throwaway per-round tree: the fast-build flags beat the
            # balanced build the generic tiled path would pay (the tree
            # serves exactly one counting pass).
            source_flat = np.nonzero(source_mask.reshape(-1))[0]
            query_flat = np.nonzero(query_mask.reshape(-1))[0]
            counts = np.zeros(batch * n, dtype=np.intp)
            if source_flat.size and query_flat.size:
                from scipy.spatial import cKDTree

                shifted, _big_side = self._shifted_for(radius)
                tree = cKDTree(
                    shifted[source_flat], balanced_tree=False, compact_nodes=False
                )
                counts[query_flat] = tree.query_ball_point(
                    shifted[query_flat], r=radius, return_length=True
                )
            return counts.reshape(batch, n)
        return self._tiled("count_within", source_mask, query_mask, radius)

    def contacts_within(self, source_mask, query_mask, radius: float) -> tuple:
        """Per-replica bipartite (source, query) contacts within ``radius``.

        The batched counterpart of
        :meth:`BoundSnapshot.contacts_within` — one tiled dual-tree (or
        grid-candidate) pass materializes every replica's cross contacts
        at once; cross-replica contacts are geometrically impossible.
        The neighbor-sampling protocols call it with the informed mask on
        one side and the uninformed mask on the other, so the result is
        the informed/uninformed **cut** — far smaller than the full
        contact list at both ends of a run.

        Returns:
            ``(replica, source, query)`` intp agent-index arrays of equal
            length, in unspecified order.
        """
        radius = _check_radius(radius, positive=True)
        source_mask, query_mask = self._check_masks(source_mask, query_mask)
        # Compiled tier: enumerate the exact cut contacts directly (order
        # unspecified, like every backend below — the sampling protocols
        # canonicalize by sorting on unique keys).
        result = self._kernel("batch_contacts", source_mask, query_mask, radius)
        if result is not None:
            return result
        n = self.positions.shape[1]
        empty = (np.empty(0, dtype=np.intp),) * 3
        source_flat = np.nonzero(source_mask.reshape(-1))[0]
        query_flat = np.nonzero(query_mask.reshape(-1))[0]
        if source_flat.size == 0 or query_flat.size == 0:
            return empty
        shifted, _big_side = self._shifted_for(radius)
        shifted_s = shifted[source_flat]
        shifted_q = shifted[query_flat]
        if self.query._tiled_backend == "kdtree":
            from scipy.spatial import cKDTree

            source_tree = cKDTree(shifted_s, balanced_tree=False, compact_nodes=False)
            query_tree = cKDTree(shifted_q, balanced_tree=False, compact_nodes=False)
            hits = source_tree.sparse_distance_matrix(
                query_tree, max_distance=radius, output_type="ndarray"
            )
            s_sel = source_flat[hits["i"]]
            q_sel = query_flat[hits["j"]]
        else:
            _stride, big_side = self.query._tile_geometry(radius)
            cell = max(radius, big_side / 512.0)
            index = GridIndex(big_side, cell)
            index.build(shifted_s)
            qidx, pidx = index._candidate_arrays(shifted_q, radius)
            if qidx.size == 0:
                return empty
            diff = shifted_q[qidx] - shifted_s[pidx]
            hit = np.sum(diff * diff, axis=1) <= radius * radius
            s_sel = source_flat[pidx[hit]]
            q_sel = query_flat[qidx[hit]]
        if s_sel.size == 0:
            return empty
        return s_sel // n, s_sel % n, q_sel % n

    def pairs_within(self, radius: float, rows=None) -> tuple:
        """Per-replica disk-graph edges of the snapshot.

        The batched counterpart of
        :meth:`NeighborEngine.pairs_within`, for callers that need every
        replica's full edge list (disk-graph statistics, contact traces)
        in one tiled engine call — tiles are separated by ``2 * radius``,
        so cross-replica pairs are geometrically impossible.  The
        neighbor-sampling protocols do **not** use it (they materialize
        only the informed/uninformed cut via :meth:`contacts_within`).
        The edge *order* is the backend's traversal order; callers that
        consume randomness positionally must canonicalize it themselves.

        Args:
            radius: query radius.
            rows: optional replica indices to restrict the query to (e.g.
                the still-active replicas); others are skipped entirely.

        Returns:
            ``(replica, i, j)`` intp arrays of equal length, ``i < j``,
            in unspecified order.
        """
        radius = _check_radius(radius, positive=True)
        batch, n, _ = self.positions.shape
        if rows is None:
            subset = self.positions
            row_ids = np.arange(batch, dtype=np.intp)
        else:
            row_ids = np.asarray(rows, dtype=np.intp)
            subset = self.positions[row_ids]
        empty = (np.empty(0, dtype=np.intp),) * 3
        if row_ids.size == 0:
            return empty
        flat = subset.reshape(-1, 2)
        shifted = self.query._tile_shift(np.repeat(row_ids, n), flat, radius)
        if self.query._tiled_backend == "kdtree":
            # Throwaway tree, one per round: skip the balancing passes
            # (same trick as the exact-shell fall-through above).
            from scipy.spatial import cKDTree

            tree = cKDTree(shifted, balanced_tree=False, compact_nodes=False)
            pairs = tree.query_pairs(r=radius, output_type="ndarray")
            pairs = pairs.astype(np.intp, copy=False)
        else:
            _stride, big_side = self.query._tile_geometry(radius)
            pairs = _BACKENDS[self.query._tiled_backend](big_side).pairs_within(
                shifted, radius
            )
        if pairs.shape[0] == 0:
            return empty
        # Every backend returns i < j in the flat index space; endpoints
        # share a replica (tile separation > radius), so local i < j too.
        position = pairs[:, 0] // n
        return row_ids[position], pairs[:, 0] % n, pairs[:, 1] % n


class BatchNeighborQuery:
    """Per-replica radius queries over a ``(B, n, 2)`` position tensor.

    Two strategies, both exact:

    * **tiling** (explicit ``grid``/``kdtree``/``brute`` backends): replica
      ``b``'s points are shifted into tile ``b`` of a virtual
      ``rows x cols`` tile sheet (``cols = ceil(sqrt(B))``, keeping the grid
      backend's cell count ``O(B)``).  Adjacent tiles are separated by
      ``2 * radius``, strictly more than the query radius, hence one engine
      call over the shifted union answers all replicas at once and
      cross-replica pairs can never be within range.

    * **cell cover** (``"cells"``, the ``"auto"`` default for
      :meth:`any_within`): per-replica occupancy grids with bucket side
      ``radius / (2 sqrt2)`` resolve most queries by occupancy logic
      alone — a source anywhere in the query's 3x3 cell box is
      *certainly* within ``radius`` (the farthest pair of points in that
      box is exactly ``2 sqrt2`` buckets apart), while no source within
      Chebyshev distance 3 *certainly* means no hit (the gap is at least
      3 buckets ``> radius``).  Only queries in the thin shell between
      the two certainties fall through to an exact tiled query against
      the nearby sources.  When sources outnumber queries, informed
      sources outside the ``reach``-dilated shell of the query-occupied
      cells are dropped before any binning — exact, because such sources
      can neither hit a query nor change a certainty read at a query
      cell.  The per-agent cell assignment persists across binds and is
      recomputed only for the replicas passed as ``rows``.

    Strategies agree except possibly at distances within floating-point
    rounding of ``radius`` itself — the same ulp-level boundary slack the
    scalar backends already have among themselves (the KD-tree engine
    applies a ``1e-12`` relative tolerance where grid and brute use exact
    ``<=``), and a measure-zero event for simulation-driven positions.

    Args:
        side: side length of each replica's square region.
        batch_size: number of replicas ``B``.
        backend: ``"grid"``, ``"kdtree"``, ``"brute"``, ``"cells"``, or
            ``"auto"`` (cell cover for ``any_within``, best tiled engine
            otherwise; on the compiled tier ``any_within``,
            ``count_within`` and ``contacts_within`` run the C pair
            kernels instead).
    """

    def __init__(self, side: float, batch_size: int, backend: str = "auto"):
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.side = float(side)
        self.batch_size = int(batch_size)
        if backend not in ("auto", "cells") and backend not in _BACKENDS:
            raise ValueError(
                f"unknown neighbor backend {backend!r}; expected one of "
                f"{sorted(_BACKENDS) + ['cells']} or 'auto'"
            )
        self.backend = backend
        self._tiled_backend = backend
        if backend in ("auto", "cells"):
            self._tiled_backend = "kdtree" if "kdtree" in available_backends() else "grid"
        self._cols = int(math.ceil(math.sqrt(self.batch_size)))
        self._rows = int(math.ceil(self.batch_size / self._cols))
        self._cell_cache = None  # (cell size, (B, n) global cell ids)

    #: Above this many occupancy-grid cells the cell cover falls back to
    #: tiling (tiny radii would make the per-replica grids enormous).
    _MAX_COVER_CELLS = 4_000_000

    #: Occupancy-grid resolution: bucket side = radius / _COVER_DIVISOR.
    #: Finer grids narrow the indeterminate shell (width ``O(bucket)``)
    #: that needs exact distance checks, at ``O(B * m^2)`` occupancy cost.
    #: 2*sqrt(2) makes the full 3x3 box a *certain* hit (farthest pair
    #: exactly ``2 sqrt2`` buckets == radius) — measurably better than the
    #: seed's sqrt(5) cross neighborhood now that the grid passes run as
    #: cheap boolean dilations.
    _COVER_DIVISOR = 2.0 * math.sqrt(2.0)

    def _cover_cells(self, positions: np.ndarray, cell: float, m: int, rows) -> np.ndarray:
        """``(B, n)`` batch-global cover-cell id of every agent.

        The ids persist across binds for one cell size; given ``rows``,
        only those replicas are recomputed (the others cannot have moved),
        so retired replicas cost nothing.
        """
        cached = self._cell_cache
        fresh = (
            rows is None
            or cached is None
            or cached[0] != cell
            or cached[1].shape != positions.shape[:2]
        )
        if fresh:
            rows = np.arange(self.batch_size)
        ij = ((positions if fresh else positions[rows]) * (1.0 / cell)).astype(np.int64)
        np.clip(ij, 0, m - 1, out=ij)
        gid = ij[..., 0] * m + ij[..., 1] + rows.astype(np.int64)[:, None] * (m * m)
        if fresh:
            self._cell_cache = (cell, gid)
            return gid
        cached[1][rows] = gid
        return cached[1]

    def _tile_geometry(self, radius: float) -> tuple:
        """``(stride, big_side)`` of the virtual tile sheet for ``radius``.

        The single definition of the tiling layout — every path that
        shifts points into tiles (full snapshots, flat index subsets)
        must derive its geometry from here.
        """
        stride = self.side + 2.0 * radius
        return stride, max(self._cols, self._rows) * stride

    def _tile_shift(self, replica: np.ndarray, points: np.ndarray, radius: float) -> np.ndarray:
        """Shift ``points`` (one row per entry of ``replica``) into tiles."""
        stride, _big_side = self._tile_geometry(radius)
        out = points.copy()
        out[:, 0] += (replica % self._cols) * stride
        out[:, 1] += (replica // self._cols) * stride
        return out

    def _shift(self, positions: np.ndarray, radius: float) -> tuple:
        """Translate each replica into its tile; returns ``(flat, big_side)``."""
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 3 or positions.shape[2] != 2:
            raise ValueError(f"positions must have shape (B, n, 2), got {positions.shape}")
        batch = positions.shape[0]
        if batch != self.batch_size:
            raise ValueError(f"expected {self.batch_size} replicas, got {batch}")
        stride, big_side = self._tile_geometry(radius)
        replica = np.arange(batch)
        offsets = np.stack(
            [(replica % self._cols) * stride, (replica // self._cols) * stride], axis=1
        )
        shifted = positions + offsets[:, None, :]
        return shifted.reshape(-1, 2), big_side

    def bind(self, positions, rows=None) -> BatchBoundQuery:
        """Freeze one ``(B, n, 2)`` snapshot for repeated queries.

        Args:
            positions: the snapshot tensor.
            rows: optional replica indices that may have moved since the
                previous ``bind`` (e.g. the active replicas); the cell
                cover recomputes cell ids for these replicas only.
        """
        return BatchBoundQuery(self, positions, rows=rows)

    def any_within(self, positions, source_mask, query_mask, radius: float) -> np.ndarray:
        """Per-replica infection test.

        Args:
            positions: ``(B, n, 2)`` replica position tensor.
            source_mask: ``(B, n)`` bool — transmitting points, per replica.
            query_mask: ``(B, n)`` bool — listening points, per replica.
            radius: query radius.

        Returns:
            ``(B, n)`` bool mask — True where a query point of replica ``b``
            has a source point *of the same replica* within ``radius``
            (always False outside ``query_mask``).
        """
        return self.bind(positions).any_within(source_mask, query_mask, radius)

    def count_within(self, positions, source_mask, query_mask, radius: float) -> np.ndarray:
        """Per-replica occupancy counts; same contract as :meth:`any_within`
        with an ``(B, n)`` intp result (0 outside ``query_mask``)."""
        return self.bind(positions).count_within(source_mask, query_mask, radius)


_BACKENDS = {
    "grid": GridNeighborEngine,
    "kdtree": KDTreeNeighborEngine,
    "brute": BruteForceNeighborEngine,
}

_AVAILABLE_BACKENDS = None


def available_backends(kind: str = "neighbors") -> list:
    """Names of backends available in this environment.

    Args:
        kind: ``"neighbors"`` (default) lists the neighbor-engine
            backends, with ``kdtree`` first when ``scipy.spatial`` is
            installed (located, not imported); ``"kernels"`` lists the
            kernel tiers backing the ``kernels`` config knob — the
            compiled ``cext`` provider first (probed once per process,
            with the ``REPRO_NO_CEXT=1`` escape hatch), then the
            always-available ``numpy``.

    Every probe runs once per process and is cached — constructing
    engines and batch queries in a hot loop must not re-attempt imports
    (or compiler invocations) every time.
    """
    if kind == "kernels":
        from repro.kernels import available_kernel_backends

        return available_kernel_backends()
    if kind != "neighbors":
        raise ValueError(f"unknown backend kind {kind!r}; expected 'neighbors' or 'kernels'")
    global _AVAILABLE_BACKENDS
    if _AVAILABLE_BACKENDS is None:
        names = ["grid", "brute"]
        # Locate scipy.spatial without importing it (see
        # KDTreeNeighborEngine); find_spec imports the ``scipy`` package
        # itself and raises ImportError when that is missing.
        try:
            if importlib.util.find_spec("scipy.spatial") is not None:
                names.insert(0, "kdtree")
        except ImportError:
            pass
        _AVAILABLE_BACKENDS = names
    return list(_AVAILABLE_BACKENDS)


def make_engine(backend: str, side: float) -> NeighborEngine:
    """Construct a neighbor engine by name.

    Args:
        backend: ``"grid"``, ``"kdtree"``, ``"brute"``, or ``"auto"``
            (kdtree if scipy is available, else grid; its bound snapshots
            also answer ``any_within`` from the compiled tier when a run
            activated it).
        side: side length of the square region.
    """
    auto = backend == "auto"
    if auto:
        backend = "kdtree" if "kdtree" in available_backends() else "grid"
    if backend not in _BACKENDS:
        raise ValueError(f"unknown neighbor backend {backend!r}; expected one of {sorted(_BACKENDS)} or 'auto'")
    engine = _BACKENDS[backend](side)
    engine.kernel_dispatch = auto
    return engine
