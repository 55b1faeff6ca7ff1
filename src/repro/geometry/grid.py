"""Uniform bucket-grid spatial index (pure numpy).

The flooding simulation needs, at every time step, the set of non-informed
agents that have an informed agent within Euclidean distance ``R``.  This
module implements a classic uniform grid over ``[0, side]^2`` with bucket
side ``>= R``, so every radius-``R`` query only inspects the 3x3 block of
buckets around the query point.

The implementation is fully vectorized: points are bucketed with a counting
sort (``argsort`` on flat bucket ids + ``searchsorted`` offsets) and queries
expand candidate lists with ``repeat``/``arange`` tricks rather than Python
loops.  A scipy cKDTree engine with the same interface lives in
:mod:`repro.geometry.neighbors`; the two are cross-validated in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.points import as_points

__all__ = ["GridIndex"]


class GridIndex:
    """Bucket grid over the square ``[0, side]^2``.

    Args:
        side: side length of the square region.
        cell_size: bucket side; queries with radius ``r <= cell_size`` are
            answered exactly by scanning the 3x3 neighborhood.  Larger radii
            scan a proportionally larger block and remain exact.

    Example:
        >>> import numpy as np
        >>> index = GridIndex(side=10.0, cell_size=1.0)
        >>> index.build(np.array([[1.0, 1.0], [5.0, 5.0]]))
        >>> bool(index.any_within(np.array([[1.5, 1.0]]), 1.0)[0])
        True
    """

    def __init__(self, side: float, cell_size: float):
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.side = float(side)
        self.cell_size = float(cell_size)
        self.n_cells = max(1, int(np.ceil(self.side / self.cell_size)))
        self._points: np.ndarray = np.empty((0, 2))
        self._order: np.ndarray = np.empty(0, dtype=np.intp)
        self._starts: np.ndarray = np.zeros(self.n_cells * self.n_cells + 1, dtype=np.intp)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _bucket_ids(self, points: np.ndarray) -> np.ndarray:
        ij = np.floor(points / self.cell_size).astype(np.intp)
        np.clip(ij, 0, self.n_cells - 1, out=ij)
        return ij[:, 0] * self.n_cells + ij[:, 1]

    def build(self, points) -> "GridIndex":
        """Index ``points`` (shape ``(n, 2)``); replaces any previous build."""
        points = as_points(points)
        self._points = points
        ids = self._bucket_ids(points)
        self._order = np.argsort(ids, kind="stable")
        # starts[b] .. starts[b+1] is the slice of self._order in bucket b.
        self._starts = np.searchsorted(
            ids[self._order], np.arange(self.n_cells * self.n_cells + 1)
        )
        return self

    @property
    def size(self) -> int:
        """Number of indexed points."""
        return int(self._points.shape[0])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _candidate_arrays(self, queries: np.ndarray, radius: float) -> tuple:
        """Return ``(query_idx, point_idx)`` candidate pairs from nearby buckets.

        Exact distance filtering is done by the callers; this only gathers
        every indexed point in the block of buckets intersecting each query's
        radius ball.
        """
        if self.size == 0 or queries.shape[0] == 0:
            return (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        reach = max(1, int(np.ceil(radius / self.cell_size)))
        qij = np.floor(queries / self.cell_size).astype(np.intp)
        np.clip(qij, 0, self.n_cells - 1, out=qij)

        query_parts = []
        point_parts = []
        offsets = range(-reach, reach + 1)
        for di in offsets:
            ci = qij[:, 0] + di
            valid_i = (ci >= 0) & (ci < self.n_cells)
            for dj in offsets:
                cj = qij[:, 1] + dj
                valid = valid_i & (cj >= 0) & (cj < self.n_cells)
                if not np.any(valid):
                    continue
                qidx = np.nonzero(valid)[0]
                bucket = ci[qidx] * self.n_cells + cj[qidx]
                lo = self._starts[bucket]
                hi = self._starts[bucket + 1]
                counts = hi - lo
                nonempty = counts > 0
                if not np.any(nonempty):
                    continue
                qidx = qidx[nonempty]
                lo = lo[nonempty]
                counts = counts[nonempty]
                total = int(counts.sum())
                # Expand ragged slices [lo, lo+count) into one flat array:
                # position within the flat output minus each slice's start
                # offset (exclusive cumsum), plus the slice's lo.
                cum = np.cumsum(counts)
                flat = np.arange(total, dtype=np.intp)
                flat += np.repeat(lo, counts) - np.repeat(cum - counts, counts)
                point_parts.append(self._order[flat])
                query_parts.append(np.repeat(qidx, counts))
        if not query_parts:
            return (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        return (np.concatenate(query_parts), np.concatenate(point_parts))

    def any_within(self, queries, radius: float) -> np.ndarray:
        """Boolean mask: does each query point have an indexed point within ``radius``?

        Distances are Euclidean and the test is inclusive (``<= radius``),
        matching the paper's "at distance at most R" rule.
        """
        queries = as_points(queries)
        result = np.zeros(queries.shape[0], dtype=bool)
        qidx, pidx = self._candidate_arrays(queries, radius)
        if qidx.size == 0:
            return result
        diff = queries[qidx] - self._points[pidx]
        hit = np.sum(diff * diff, axis=1) <= radius * radius
        np.logical_or.at(result, qidx[hit], True)
        return result

    def count_within(self, queries, radius: float) -> np.ndarray:
        """Number of indexed points within ``radius`` of each query point."""
        queries = as_points(queries)
        counts = np.zeros(queries.shape[0], dtype=np.intp)
        qidx, pidx = self._candidate_arrays(queries, radius)
        if qidx.size == 0:
            return counts
        diff = queries[qidx] - self._points[pidx]
        hit = np.sum(diff * diff, axis=1) <= radius * radius
        np.add.at(counts, qidx[hit], 1)
        return counts

    def query_radius(self, queries, radius: float) -> list:
        """Indices of indexed points within ``radius`` of each query point.

        Returns:
            list of 1-D integer arrays, one per query point.  Use the bulk
            methods (:meth:`any_within`, :meth:`count_within`,
            :meth:`pairs_within`) in hot paths; this method exists for
            inspection and testing.
        """
        queries = as_points(queries)
        out = [np.empty(0, dtype=np.intp) for _ in range(queries.shape[0])]
        qidx, pidx = self._candidate_arrays(queries, radius)
        if qidx.size == 0:
            return out
        diff = queries[qidx] - self._points[pidx]
        hit = np.sum(diff * diff, axis=1) <= radius * radius
        qidx = qidx[hit]
        pidx = pidx[hit]
        order = np.argsort(qidx, kind="stable")
        qidx = qidx[order]
        pidx = pidx[order]
        bounds = np.searchsorted(qidx, np.arange(queries.shape[0] + 1))
        for i in range(queries.shape[0]):
            out[i] = pidx[bounds[i]:bounds[i + 1]]
        return out

    def pairs_within(self, radius: float) -> np.ndarray:
        """All unordered index pairs ``(i, j), i < j`` at distance ``<= radius``.

        Used to build disk-graph snapshots ``G_t``.

        Returns:
            integer array of shape ``(k, 2)``.
        """
        if self.size == 0:
            return np.empty((0, 2), dtype=np.intp)
        qidx, pidx = self._candidate_arrays(self._points, radius)
        keep = qidx < pidx
        qidx = qidx[keep]
        pidx = pidx[keep]
        diff = self._points[qidx] - self._points[pidx]
        hit = np.sum(diff * diff, axis=1) <= radius * radius
        return np.stack([qidx[hit], pidx[hit]], axis=1)
