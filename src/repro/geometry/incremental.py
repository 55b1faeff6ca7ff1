"""Incremental spatial indexes refreshed from per-step displacements.

The simulation's hot loop re-indexes the same agents every round, yet a
round moves each agent by at most ``v * dt`` — usually a fraction of a grid
bucket — so most bucket assignments survive from one round to the next.
The two classes here exploit that:

* :class:`IncrementalGridIndex` — a :class:`~repro.geometry.grid.GridIndex`
  whose :meth:`~IncrementalGridIndex.update` splices only the points that
  changed bucket into the existing counting-sort layout (O(moved * log
  moved) sorting plus O(n) memory passes) instead of re-running the full
  ``argsort`` build;
* :class:`IncrementalBatchOccupancy` — the batched variant used by the
  cell-cover flooding kernel: persistent per-replica flat cell ids over a
  ``(B, n, 2)`` position tensor, with optional per-cell occupancy counts
  maintained by +/-1 deltas at the cells points actually left or entered.

Both fall back to a full rebuild automatically when too many points moved
(``rebuild_fraction``) — an incremental splice only pays while the delta is
sparse — and both count their update/rebuild decisions so callers can
see how often each path ran.

Incremental updates are *exact*: queries against an updated index return
the same results as against a freshly built one (asserted by the parity
tests; only the order of points *within* a bucket may differ, which no
boolean/count query can observe).
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.grid import GridIndex
from repro.geometry.points import as_points
from repro.kernels import get_kernel

__all__ = ["IncrementalGridIndex", "IncrementalBatchOccupancy"]


class IncrementalGridIndex(GridIndex):
    """Bucket grid with in-place refresh from a new position snapshot.

    :meth:`update` diffs the new bucket assignment against the previous one
    and repairs the counting-sort layout (``_order`` / ``_starts``) by
    removing the moved points and merge-inserting them at their new
    buckets.  When more than ``rebuild_fraction`` of the points changed
    bucket, the splice would cost more than it saves and a full
    :meth:`~repro.geometry.grid.GridIndex.build` runs instead.

    Args:
        side: side length of the square region.
        cell_size: bucket side (same semantics as :class:`GridIndex`).
        rebuild_fraction: moved-points fraction above which ``update``
            falls back to a full rebuild.

    Attributes:
        n_updates: total :meth:`update` calls (including ones that rebuilt).
        n_rebuilds: updates that fell back to a full build.
        n_moved: cumulative number of points that changed bucket.
    """

    def __init__(self, side: float, cell_size: float, rebuild_fraction: float = 0.45):
        super().__init__(side, cell_size)
        if not 0.0 <= rebuild_fraction <= 1.0:
            raise ValueError(
                f"rebuild_fraction must be in [0, 1], got {rebuild_fraction}"
            )
        self.rebuild_fraction = float(rebuild_fraction)
        self._rank: np.ndarray = np.empty(0, dtype=np.intp)
        self.n_updates = 0
        self.n_rebuilds = 0
        self.n_moved = 0

    def build(self, points) -> "IncrementalGridIndex":
        super().build(points)
        # rank[i] = position of point i inside _order (inverse permutation).
        self._rank = np.empty(self.size, dtype=np.intp)
        self._rank[self._order] = np.arange(self.size, dtype=np.intp)
        return self

    def update(self, points) -> "IncrementalGridIndex":
        """Re-index ``points``, reusing the previous layout where possible.

        The first call (or a call with a different point count) builds from
        scratch; later calls splice only the points whose bucket changed.
        """
        points = as_points(points)
        self.n_updates += 1
        if points.shape[0] != self.size or self.size == 0:
            self.n_rebuilds += 1
            self.n_moved += points.shape[0]
            return self.build(points)
        ids = self._bucket_ids(points)
        moved = np.nonzero(ids != self._ids)[0]
        self.n_moved += moved.size
        if moved.size > self.rebuild_fraction * self.size:
            self.n_rebuilds += 1
            return self.build(points)
        # Positions may have shifted inside their buckets even when no
        # bucket assignment changed; distance tests read self._points.
        self._points = points
        if moved.size == 0:
            return self
        new_ids = ids[moved]
        by_bucket = np.argsort(new_ids, kind="stable")
        spliced = None
        kernel = get_kernel("grid_splice")
        if kernel is not None:
            # Compiled tier: one merge pass over the surviving layout and
            # the bucket-sorted moved points — same insertion positions
            # (new before equal old) as the searchsorted/insert pair below.
            removed = np.zeros(self.size, dtype=bool)
            removed[self._rank[moved]] = True
            spliced = kernel(
                self._order, self._sorted_ids, removed,
                np.ascontiguousarray(new_ids[by_bucket]),
                np.ascontiguousarray(moved[by_bucket]),
            )
        if spliced is not None:
            self._order, self._sorted_ids = spliced
        else:
            # Remove the moved points from the sorted layout ...
            keep = np.ones(self.size, dtype=bool)
            keep[self._rank[moved]] = False
            base_order = self._order[keep]
            base_ids = self._sorted_ids[keep]
            # ... and merge-insert them at their new buckets.
            insert_at = np.searchsorted(base_ids, new_ids[by_bucket], side="left")
            self._order = np.insert(base_order, insert_at, moved[by_bucket])
            self._sorted_ids = np.insert(base_ids, insert_at, new_ids[by_bucket])
        self._ids = ids
        # Bucket offsets via counts + cumsum: O(n + cells), cheaper than the
        # build path's searchsorted over every bucket id.
        counts = np.bincount(self._ids, minlength=self.n_cells * self.n_cells)
        self._starts[0] = 0
        np.cumsum(counts, out=self._starts[1:])
        self._rank[self._order] = np.arange(self.size, dtype=np.intp)
        return self


class IncrementalBatchOccupancy:
    """Persistent per-replica cell assignment over a ``(B, n, 2)`` tensor.

    The cell-cover flooding kernel needs, every round, the flat occupancy
    cell of each agent (``cid``) and, optionally, per-cell occupancy counts.
    This class keeps both alive across rounds:

    * :meth:`update` recomputes cell ids only for the requested replica
      ``rows`` (frozen replicas cannot move) and reports which agents
      changed cell;
    * when ``track_counts`` is set, the ``(B, m*m)`` count tensor is
      repaired with +/-1 deltas at the cells agents left/entered — an
      ``O(moved)`` scatter instead of an ``O(B*n)`` bincount — falling back
      to a full recount above ``rebuild_fraction``.

    Args:
        side: side of each replica's square.
        batch_size: number of replicas ``B``.
        cell_size: occupancy bucket side.
        track_counts: maintain the per-cell count tensor (the flooding
            kernel needs only ``cid``; counts serve density/diagnostic
            consumers).
        rebuild_fraction: moved-agents fraction above which the count
            repair falls back to a full bincount.
    """

    def __init__(
        self,
        side: float,
        batch_size: int,
        cell_size: float,
        track_counts: bool = False,
        rebuild_fraction: float = 0.25,
    ):
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.side = float(side)
        self.batch_size = int(batch_size)
        self.cell_size = float(cell_size)
        self.m = max(1, int(math.ceil(self.side / self.cell_size)))
        self.track_counts = bool(track_counts)
        self.rebuild_fraction = float(rebuild_fraction)
        self.cid: np.ndarray = None  # (B, n) replica-local flat cell ids
        self.gid: np.ndarray = None  # (B, n) batch-global flat cell ids
        self.counts: np.ndarray = None  # (B, m*m) when track_counts
        self.n_updates = 0
        self.n_rebuilds = 0
        self.n_moved = 0

    def _cells_of(self, positions: np.ndarray) -> np.ndarray:
        """Flat replica-local cell id of each position (same rule as the
        cell-cover kernel: truncate, clip to the grid)."""
        ij = (positions * (1.0 / self.cell_size)).astype(np.int64)
        np.clip(ij, 0, self.m - 1, out=ij)
        return ij[..., 0] * self.m + ij[..., 1]

    def update(self, positions: np.ndarray, rows=None) -> np.ndarray:
        """Refresh cell assignments for a new snapshot; returns ``cid``.

        Args:
            positions: ``(B, n, 2)`` tensor.
            rows: optional 1-D array of replica indices that may have moved
                since the previous snapshot (e.g. the active replicas);
                other rows are trusted unchanged.  Ignored on first use.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 3 or positions.shape[2] != 2:
            raise ValueError(f"positions must have shape (B, n, 2), got {positions.shape}")
        if positions.shape[0] != self.batch_size:
            raise ValueError(
                f"expected {self.batch_size} replicas, got {positions.shape[0]}"
            )
        self.n_updates += 1
        n = positions.shape[1]
        fresh = self.cid is None or self.cid.shape != (self.batch_size, n)
        if fresh:
            self.n_rebuilds += 1
            self.n_moved += self.batch_size * n
            self.cid = self._cells_of(positions)
            self.gid = self.cid + (
                np.arange(self.batch_size, dtype=np.int64)[:, None] * (self.m * self.m)
            )
            if self.track_counts:
                self.counts = np.bincount(
                    self.gid.reshape(-1), minlength=self.batch_size * self.m * self.m
                ).astype(np.int64).reshape(self.batch_size, self.m * self.m)
            return self.cid
        mm = self.m * self.m
        if not self.track_counts:
            # Without counts there is nothing to repair by deltas: the cell
            # assignment itself is two vectorized passes, so simply
            # recompute it — restricted to the replicas that can have
            # moved, which is where the incremental win lives (frozen
            # replicas cost nothing).
            if rows is None or rows.size == self.batch_size:
                self.cid = self._cells_of(positions)
                np.add(
                    self.cid,
                    np.arange(self.batch_size, dtype=np.int64)[:, None] * mm,
                    out=self.gid,
                )
            else:
                sub_cid = self._cells_of(positions[rows])
                self.cid[rows] = sub_cid
                self.gid[rows] = sub_cid + rows.astype(np.int64)[:, None] * mm
            return self.cid
        if rows is None or rows.size == self.batch_size:
            new_cid = self._cells_of(positions)
            moved_b, moved_i = np.nonzero(new_cid != self.cid)
            old_cells = self.cid[moved_b, moved_i]
            new_cells = new_cid[moved_b, moved_i]
            self.cid = new_cid
        else:
            sub_cid = self._cells_of(positions[rows])
            sub_b, moved_i = np.nonzero(sub_cid != self.cid[rows])
            moved_b = rows[sub_b]
            old_cells = self.cid[moved_b, moved_i]
            new_cells = sub_cid[sub_b, moved_i]
            self.cid[rows] = sub_cid
        self.n_moved += moved_b.size
        if moved_b.size:
            base = moved_b.astype(np.int64) * mm
            self.gid[moved_b, moved_i] = new_cells + base
            if moved_b.size > self.rebuild_fraction * self.gid.size:
                self.n_rebuilds += 1
                self.counts = np.bincount(
                    self.gid.reshape(-1), minlength=self.batch_size * mm
                ).astype(np.int64).reshape(self.batch_size, mm)
            else:
                flat = self.counts.reshape(-1)
                old_gid = base + old_cells
                new_gid = base + new_cells
                kernel = get_kernel("occupancy_delta")
                if kernel is None or kernel(flat, old_gid, new_gid) is None:
                    np.subtract.at(flat, old_gid, 1)
                    np.add.at(flat, new_gid, 1)
        return self.cid
