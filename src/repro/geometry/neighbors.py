"""Neighbor engines: a uniform interface over spatial indexes.

The simulation core only needs three primitives per snapshot:

* ``any_within(sources, queries, r)`` — which query points have a source
  point within Euclidean distance ``r`` (flooding's infection test);
* ``count_within(...)`` — occupancy counts (density condition, Lemma 7);
* ``pairs_within(points, r)`` — all edges of the disk graph ``G_t``.

Three engines implement them on one ``(n, 2)`` point set:

* :class:`GridNeighborEngine` — the pure-numpy bucket grid of
  :mod:`repro.geometry.grid` (no dependencies beyond numpy);
* :class:`KDTreeNeighborEngine` — scipy's cKDTree, typically faster for
  large ``n``;
* :class:`BruteForceNeighborEngine` — the all-pairs reference the tests
  compare against.

:func:`make_engine` constructs one by name; ``"auto"`` picks the KD-tree
when scipy is installed and falls back to the grid otherwise.
``scipy.spatial`` itself is imported only when a KD-tree is first built.

Two layers sit on top of the raw engines (DESIGN.md, "Neighbor
subsystem: one path per kernel tier"):

* **Batched queries** — the protocols answer the per-replica queries of
  **B independent trials with one call** through
  :class:`BatchNeighborQuery`, which has one exact path per kernel tier:
  the C pair kernels on the compiled tier; on the numpy tier the cell
  cover for the infection test (it prunes informed sources far from the
  uninformed frontier before any binning — exact, see
  :meth:`BatchBoundQuery.any_within`) and, for everything else, one
  tiled KD-tree (or grid, without scipy) over all replicas, translated
  into disjoint tiles of a larger virtual square.  The scalar engine's
  protocols are one-replica batch states, so they query it at B=1.

* **Bound snapshots** — :meth:`NeighborEngine.bind` wraps one ``(n, 2)``
  snapshot in a :class:`BoundSnapshot` that takes agent-index arrays and
  forwards each call to the engine's coordinate API.  No protocol uses
  it; the test oracles do, as a neighbor path independent of the batch
  query.
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

    Such a radius bounds no distance, and each engine would answer it
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
    arrays into the bound snapshot* rather than coordinate arrays, and
    forward each call to the engine's coordinate API (no index is shared
    between calls).
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
        disk graph at both ends of a run.  Brute force, O(S * Q), on every
        engine.

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


class NeighborEngine:
    """Interface for radius-based neighbor queries on a square region."""

    name = "abstract"

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


class GridNeighborEngine(NeighborEngine):
    """Bucket-grid engine (pure numpy), with bucket side
    ``max(radius, side / 512)`` per query.

    Args:
        side: side length of the square region.
    """

    name = "grid"

    def _index(self, points, radius: float) -> GridIndex:
        """Fresh index over ``points`` for ``radius`` queries.

        Deliberately *not* memoized: coordinate-API callers pass freshly
        gathered arrays every call (``positions[mask]``), so an
        identity-keyed memo would never hit — and a content-keyed one
        costs as much as the build it saves.
        """
        return GridIndex(self.side, max(radius, self.side / 512.0)).build(points)

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


class KDTreeNeighborEngine(NeighborEngine):
    """scipy cKDTree engine.

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
                "the kdtree engine needs scipy, which is not installed; "
                "use make_engine('auto') to fall back to the grid"
            )

    @staticmethod
    def _cKDTree(points, **kwargs):
        from scipy.spatial import cKDTree

        return cKDTree(points, **kwargs)

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


def _throwaway_tree(points: np.ndarray):
    """A cKDTree for one pass over one round's points.

    The batch query builds a fresh tree per call, so it skips the
    balancing passes, which dominate construction at these sizes.
    """
    from scipy.spatial import cKDTree

    return cKDTree(points, balanced_tree=False, compact_nodes=False)


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
        self._extent = None  # (lo, hi) of the tile sheet's tiles

    # ------------------------------------------------------------------
    # Shared per-snapshot derived state
    # ------------------------------------------------------------------
    def _cells_for(self, radius: float):
        """``(gid, m)``: per-agent global cell ids for the cell-cover
        kernel, or None when the occupancy grid would be unreasonably
        large or an agent lies outside it."""
        cell = radius / self.query._COVER_DIVISOR
        if cell in self._cells:
            return self._cells[cell]
        m = max(1, int(math.ceil(self.query.side / cell)))
        info = None
        if self.positions.shape[0] * m * m <= self.query._MAX_COVER_CELLS:
            gid = self.query._cover_cells(self.positions, cell, m, self.rows)
            if gid is not None:
                info = (gid, m)
        self._cells[cell] = info
        return info

    def _tile_geometry(self, radius: float) -> tuple:
        """``(lo, stride, big_side)`` of the virtual tile sheet for ``radius``.

        The single definition of the tiling layout — every path that
        shifts points into tiles (full snapshots, flat index subsets)
        must derive its geometry from here.  Each tile spans
        ``[lo, hi]``: the square, widened to every coordinate of the
        snapshot.  Tiles are ``hi - lo + 2 * radius`` apart, so points of
        different replicas are more than ``radius`` apart wherever they
        lie.  The extent is read once per bind, by the first tiled query.
        """
        if self._extent is None:
            lo, hi = 0.0, self.query.side
            if self.positions.size:
                lo = min(lo, float(self.positions.min()))
                hi = max(hi, float(self.positions.max()))
            self._extent = (lo, hi)
        lo, hi = self._extent
        stride = hi - lo + 2.0 * radius
        return lo, stride, max(self.query._cols, self.query._rows) * stride

    def _tile_offsets(self, replica: np.ndarray, radius: float) -> tuple:
        """``(dx, dy)``: the shift of each entry of ``replica`` into its tile."""
        lo, stride, _big_side = self._tile_geometry(radius)
        cols = self.query._cols
        return (replica % cols) * stride - lo, (replica // cols) * stride - lo

    def _tile_shift(self, replica: np.ndarray, points: np.ndarray, radius: float) -> np.ndarray:
        """Shift ``points`` (one row per entry of ``replica``) into tiles."""
        dx, dy = self._tile_offsets(replica, radius)
        out = points.copy()
        out[:, 0] += dx
        out[:, 1] += dy
        return out

    def _shifted_for(self, radius: float):
        """Tile-shifted flat coordinates and the sheet side (cached per radius)."""
        cached = self._shifted.get(radius)
        if cached is None:
            dx, dy = self._tile_offsets(np.arange(self.positions.shape[0]), radius)
            offsets = np.stack([dx, dy], axis=1)
            shifted = (self.positions + offsets[:, None, :]).reshape(-1, 2)
            cached = (shifted, self._tile_geometry(radius)[2])
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

    def _tiled_any_within(self, source_flat, query_flat, radius):
        """Exact tiled ``any_within`` over flat ``(B*n)`` index subsets."""
        n = self.positions.shape[1]
        pts = self.positions.reshape(-1, 2)

        def shifted(flat_idx):
            return self._tile_shift(flat_idx // n, pts[flat_idx], radius)

        if self.query._kdtree:
            # Same exact query as KDTreeNeighborEngine.any_within.
            dist, _ = _throwaway_tree(shifted(source_flat)).query(
                shifted(query_flat), k=1, distance_upper_bound=radius * (1 + 1e-12)
            )
            return np.isfinite(dist)
        big_side = self._tile_geometry(radius)[2]
        return GridNeighborEngine(big_side).any_within(
            shifted(source_flat), shifted(query_flat), radius
        )

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
                hit = self._tiled_any_within(near_source_flat, unresolved_flat, radius)
                hits[unresolved_flat[hit]] = True
        return hits.reshape(batch, n)

    def _kernel(self, name, source_mask, query_mask, radius, **options):
        """The compiled ``name`` kernel's answer, or ``None`` to run numpy.

        The kernel runs on the compiled tier, when a run activated it (the
        tier is the only thing that picks a path); ``options`` pass
        through to it.
        """
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
        # exact predicate — bit-identical to the numpy paths below for any
        # scan order.
        result = self._kernel("batch_any_within", source_mask, query_mask, radius)
        if result is not None:
            return result
        result = self._cells_any_within(source_mask, query_mask, radius)
        if result is not None:
            return result
        # No cover grid: the exact tiled query over every source and query.
        hits = np.zeros(source_mask.size, dtype=bool)
        source_flat = np.nonzero(source_mask.reshape(-1))[0]
        query_flat = np.nonzero(query_mask.reshape(-1))[0]
        if source_flat.size and query_flat.size:
            hits[query_flat] = self._tiled_any_within(source_flat, query_flat, radius)
        return hits.reshape(source_mask.shape)

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
        batch, n = source_mask.shape
        source_flat = np.nonzero(source_mask.reshape(-1))[0]
        query_flat = np.nonzero(query_mask.reshape(-1))[0]
        counts = np.zeros(batch * n, dtype=np.intp)
        if source_flat.size and query_flat.size:
            shifted, big_side = self._shifted_for(radius)
            if self.query._kdtree:
                counts[query_flat] = _throwaway_tree(shifted[source_flat]).query_ball_point(
                    shifted[query_flat], r=radius, return_length=True
                )
            else:
                counts[query_flat] = GridNeighborEngine(big_side).count_within(
                    shifted[source_flat], shifted[query_flat], radius
                )
        return counts.reshape(batch, n)

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
            length, sorted by replica, then source, then query on every
            path.  The sampling protocols consume their draws in this
            order, so it is part of the result.
        """
        radius = _check_radius(radius, positive=True)
        source_mask, query_mask = self._check_masks(source_mask, query_mask)
        # Compiled tier: the kernel's counting sort emits the exact cut
        # contacts already in (replica, source, query) order; the numpy
        # paths below sort their hits once.
        result = self._kernel("batch_contacts", source_mask, query_mask, radius)
        if result is not None:
            return result
        n = self.positions.shape[1]
        empty = (np.empty(0, dtype=np.intp),) * 3
        source_flat = np.nonzero(source_mask.reshape(-1))[0]
        query_flat = np.nonzero(query_mask.reshape(-1))[0]
        if source_flat.size == 0 or query_flat.size == 0:
            return empty
        shifted, big_side = self._shifted_for(radius)
        shifted_s = shifted[source_flat]
        shifted_q = shifted[query_flat]
        if self.query._kdtree:
            hits = _throwaway_tree(shifted_s).sparse_distance_matrix(
                _throwaway_tree(shifted_q), max_distance=radius, output_type="ndarray"
            )
            s_sel = source_flat[hits["i"]]
            q_sel = query_flat[hits["j"]]
        else:
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
        # Source and query share a replica, so flat (source, query) order
        # is (replica, source, query) order; the keys are unique.
        order = np.argsort(s_sel * n + q_sel % n)
        s_sel = s_sel[order]
        return s_sel // n, s_sel % n, q_sel[order] % n

    def pairs_within(self, radius: float, rows=None) -> tuple:
        """Per-replica disk-graph edges of the snapshot.

        The batched counterpart of
        :meth:`NeighborEngine.pairs_within`, for callers that need every
        replica's full edge list (connectivity profiles and thresholds)
        in one tiled KD-tree (or grid) call on either kernel tier — tiles
        are separated by ``2 * radius``, so cross-replica pairs are
        geometrically impossible.  The neighbor-sampling protocols do
        **not** use it (they materialize only the informed/uninformed cut
        via :meth:`contacts_within`).  The edge *order* is the index's
        traversal order; callers that consume randomness positionally must
        canonicalize it themselves.

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
        shifted = self._tile_shift(np.repeat(row_ids, n), flat, radius)
        if self.query._kdtree:
            pairs = _throwaway_tree(shifted).query_pairs(r=radius, output_type="ndarray")
            pairs = pairs.astype(np.intp, copy=False)
        else:
            big_side = self._tile_geometry(radius)[2]
            pairs = GridNeighborEngine(big_side).pairs_within(shifted, radius)
        if pairs.shape[0] == 0:
            return empty
        # Both indexes return i < j in the flat index space; endpoints
        # share a replica (tile separation > radius), so local i < j too.
        position = pairs[:, 0] // n
        return row_ids[position], pairs[:, 0] % n, pairs[:, 1] % n


class BatchNeighborQuery:
    """Per-replica radius queries over a ``(B, n, 2)`` position tensor.

    Every answer is exact, and each kernel tier has one path; nothing but
    the tier and the input picks it:

    * **compiled tier**: :meth:`BatchBoundQuery.any_within`,
      ``count_within`` and ``contacts_within`` run the C pair kernels,
      which bin one replica at a time.

    * **numpy tier, infection test** — the **cell cover**: per-replica
      occupancy grids with bucket side ``radius / (2 sqrt2)`` resolve
      most queries by occupancy logic alone — a source anywhere in the
      query's 3x3 cell box is *certainly* within ``radius`` (the farthest
      pair of points in that box is exactly ``2 sqrt2`` buckets apart),
      while no source within Chebyshev distance 3 *certainly* means no
      hit (the gap is at least 3 buckets ``> radius``).  Only queries in
      the thin shell between the two certainties fall through to an exact
      tiled query against the nearby sources.  When sources outnumber
      queries, informed sources outside the ``reach``-dilated shell of
      the query-occupied cells are dropped before any binning — exact,
      because such sources can neither hit a query nor change a certainty
      read at a query cell.  The per-agent cell assignment persists
      across binds and is recomputed only for the replicas passed as
      ``rows``.  When the grids would exceed ``_MAX_COVER_CELLS``, or an
      agent lies outside its replica's grid, the whole test runs tiled.

    * **numpy tier, everything else** — the **tiling**: replica ``b``'s
      points are shifted into tile ``b`` of a virtual ``rows x cols``
      tile sheet (``cols = ceil(sqrt(B))``, keeping the grid's cell count
      ``O(B)``), and one KD-tree (the bucket grid when scipy is missing)
      over the shifted union answers all replicas at once.  Each tile
      spans the square widened to the snapshot's extent, and adjacent
      tiles are ``2 * radius`` apart beyond it, so cross-replica pairs
      are never within range, wherever the agents lie.

    Paths agree except possibly at distances within floating-point
    rounding of ``radius`` itself — the KD-tree applies a ``1e-12``
    relative tolerance where the others use exact ``<=`` — a
    measure-zero event for simulation-driven positions.

    Args:
        side: side length of each replica's square region.
        batch_size: number of replicas ``B``.
    """

    def __init__(self, side: float, batch_size: int):
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.side = float(side)
        self.batch_size = int(batch_size)
        self._kdtree = "kdtree" in available_backends()
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

    def _cover_cells(self, positions: np.ndarray, cell: float, m: int, rows):
        """``(B, n)`` batch-global cover-cell id of every agent, or None
        when a recomputed agent lies outside the ``m x m`` cover grid.

        The ids persist across binds for one cell size; given ``rows``,
        only those replicas are recomputed (the others cannot have moved),
        so retired replicas cost nothing.  The cover's certain hits trust
        each agent's cell, and clipping would put an agent outside the
        grid into a border cell it is not in: such an agent drops the
        cache and sends the query to the exact tiled path.
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
        scaled = (positions if fresh else positions[rows]) * (1.0 / cell)
        if scaled.size and not (scaled.min() >= 0.0 and scaled.max() <= m):
            self._cell_cache = None
            return None
        ij = scaled.astype(np.int64)
        np.minimum(ij, m - 1, out=ij)  # agents on the grid's far edges
        gid = ij[..., 0] * m + ij[..., 1] + rows.astype(np.int64)[:, None] * (m * m)
        if fresh:
            self._cell_cache = (cell, gid)
            return gid
        cached[1][rows] = gid
        return cached[1]

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


def available_backends() -> list:
    """Names of the neighbor engines available in this environment, with
    ``kdtree`` first when ``scipy.spatial`` is installed (located, not
    imported).

    The probe runs once per process and is cached — constructing engines
    and batch queries in a hot loop must not re-attempt imports every
    time.
    """
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
            (kdtree if scipy is available, else grid).
        side: side length of the square region.
    """
    if backend == "auto":
        backend = "kdtree" if "kdtree" in available_backends() else "grid"
    if backend not in _BACKENDS:
        raise ValueError(f"unknown neighbor backend {backend!r}; expected one of {sorted(_BACKENDS)} or 'auto'")
    return _BACKENDS[backend](side)
