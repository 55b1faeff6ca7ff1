"""Numpy-side glue shared by the compiled provider and the reference cores.

:func:`make_kernels` turns a namespace of loop cores (pure-Python or C
adapters, both with the :mod:`repro.kernels._cores` signatures) into the
public kernel table consumed by the dispatch sites.

Every public kernel is *total over a guarded domain*: it validates dtypes,
contiguity, and size caps up front and returns ``None`` (or a ``None``
sentinel tuple) when the inputs fall outside the domain it is exact on,
in which case the dispatch site silently runs the numpy path instead.
That keeps the compiled tier an optimization, never a semantics fork.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["make_kernels", "KERNEL_NAMES", "MAX_KERNEL_CELLS"]

#: Public kernel names, in bench/report order.  ``grid_splice`` and
#: ``occupancy_delta`` have no caller in the library; they stay registered
#: while the benchmark's per-layer metric list still names them.
KERNEL_NAMES = (
    "batch_any_within",
    "batch_contacts",
    "advance_legs",
    "advance_legs_dense",
    "grid_splice",
    "occupancy_delta",
    "union_fixpoint",
    "zone_counts",
)

#: Same total-cell cap as the numpy cell-cover strategy: beyond it the
#: bucket grid no longer pays for itself and the glue falls back.
MAX_KERNEL_CELLS = 4_000_000

# Cell side = radius * (1 + margin).  The margin keeps the effective bin
# width >= radius even after the 1-ulp rounding of ``1.0 / cell``, so two
# points within ``radius`` always land in adjacent bins (the 3x3 scan is
# complete) while the distance predicate itself stays exact.
_CELL_MARGIN = 1e-9

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.intp)


def _is_c_f64(arr) -> bool:
    return arr.dtype == np.float64 and arr.flags.c_contiguous


def _is_c_i64(arr) -> bool:
    return arr.dtype == np.intp and arr.itemsize == 8 and arr.flags.c_contiguous


def _grid_geometry(positions, side, radius):
    """Common setup for the pair kernels; ``None`` when out of domain."""
    if positions.ndim != 3 or positions.shape[2] != 2 or not _is_c_f64(positions):
        return None
    if not (radius > 0.0) or not (side > 0.0):
        return None
    cell = float(radius) * (1.0 + _CELL_MARGIN)
    m = max(1, int(math.ceil(float(side) / cell)))
    batch, n = positions.shape[0], positions.shape[1]
    cells = batch * m * m
    if cells > MAX_KERNEL_CELLS:
        return None
    return positions.reshape(-1, 2), n, m, 1.0 / cell, cells


def _grid_buffers(n_src, cells):
    """Work arrays of the pair cores' grid build: cell keys, zeroed cell
    starts, sources in cell order."""
    return (
        np.empty(n_src, dtype=np.int64),
        np.zeros(cells + 2, dtype=np.int64),
        np.empty(n_src, dtype=np.int64),
    )


def _contacts_capacity(n_src, n_qry, batch, radius, side):
    """First output capacity of ``batch_contacts``' pair list.

    Twice the contact count of uniformly spread points (each query sees
    its replica's share of the sources over a disk of area ``pi R^2``),
    and at least ``4 * max(S, Q)``.  The pair lists are the
    informed/uninformed cuts of the neighbor-sampling protocols: in a
    seed-7 pass of the ``protocol_sweep`` benchmark, 128 of the 457 cuts
    would overflow the plain ``4 * max(S, Q)`` and none overflow this
    guess.  An overflowing pass still counts the exact total, and the
    glue re-runs once with that.
    """
    area = min(1.0, math.pi * radius * radius / (side * side))
    expected = n_qry * (n_src / batch) * area
    return max(64, 4 * max(n_src, n_qry), int(2.0 * expected))


def _flat_indices(mask):
    return np.nonzero(mask.reshape(-1))[0].astype(np.int64, copy=False)


def _speed_mode(speed, total):
    """Classify ``speed`` into (mode, array, scalar); ``None`` = unsupported."""
    if speed is None:
        return 0, _EMPTY_F, 0.0
    if isinstance(speed, np.ndarray):
        if speed.shape != (total,) or not _is_c_f64(speed):
            return None
        return 2, speed, 0.0
    return 1, _EMPTY_F, float(speed)


def make_kernels(cores):
    """Build the public kernel table from a namespace of loop cores."""

    def batch_any_within(positions, source_mask, query_mask, radius, side):
        geo = _grid_geometry(positions, side, radius)
        if geo is None:
            return None
        pos, n, m, inv_cell, cells = geo
        batch = positions.shape[0]
        out = np.zeros(batch * n, dtype=np.bool_)
        src = _flat_indices(source_mask)
        qry = _flat_indices(query_mask)
        if src.size and qry.size:
            cellk, starts, srcsort = _grid_buffers(src.size, cells)
            cores.any_within_core(
                pos, n, m, inv_cell, float(radius) * float(radius),
                src, qry, cellk, starts, srcsort, out,
            )
        return out.reshape(batch, n)

    def batch_contacts(positions, source_mask, query_mask, radius, side, counts=False):
        """Exact (replica, source, query) contacts, or with ``counts=True``
        the ``(B, n)`` per-query contact counts (0 outside ``query_mask``),
        which write no pairs and so need O(B*n) memory."""
        geo = _grid_geometry(positions, side, radius)
        if geo is None:
            return None
        pos, n, m, inv_cell, cells = geo
        src = _flat_indices(source_mask)
        qry = _flat_indices(query_mask)
        r2 = float(radius) * float(radius)
        if counts:
            batch = positions.shape[0]
            out = np.zeros(batch * n, dtype=np.intp)
            if src.size and qry.size:
                cellk, starts, srcsort = _grid_buffers(src.size, cells)
                cores.count_core(
                    pos, n, m, inv_cell, r2, src, qry, cellk, starts, srcsort,
                    out.view(np.int64),
                )
            return out.reshape(batch, n)
        if not src.size or not qry.size:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty.copy(), empty.copy()
        cellk, starts, srcsort = _grid_buffers(src.size, cells)
        cap = _contacts_capacity(src.size, qry.size, positions.shape[0], radius, side)
        out = [np.empty(cap, dtype=np.int64) for _ in range(3)]
        total = cores.contacts_core(
            pos, n, m, inv_cell, r2, src, qry, cellk, starts, srcsort, *out, cap,
        )
        if total > cap:
            out = [np.empty(total, dtype=np.int64) for _ in range(3)]
            starts[:] = 0
            total = cores.contacts_core(
                pos, n, m, inv_cell, r2, src, qry, cellk, starts, srcsort, *out, total,
            )
        # The core already wrote (replica, local source, local query).
        return tuple(buf[:total] for buf in out)

    def advance_legs(pos, target, budget, idx, eps, speed=None, metric="manhattan"):
        total = budget.shape[0]
        if not (_is_c_f64(pos) and _is_c_f64(target) and _is_c_f64(budget)):
            return None
        if pos.shape != (total, 2) or target.shape != (total, 2):
            return None
        if not _is_c_i64(idx):
            return None
        mode = _speed_mode(speed, total)
        if mode is None:
            return None
        speed_mode, speed_arr, speed_scalar = mode
        done = np.empty(idx.shape[0], dtype=np.intp)
        cnt = cores.advance_legs_core(
            pos, target, budget, idx.view(np.int64), float(eps),
            speed_arr, speed_scalar, speed_mode,
            0 if metric == "manhattan" else 1,
            done.view(np.int64),
        )
        return done[: int(cnt)]

    def advance_legs_dense(pos, target, budget, moving, n_moving, eps, speed=None):
        total = budget.shape[0]
        if not (_is_c_f64(pos) and _is_c_f64(target) and _is_c_f64(budget)):
            return None
        if pos.shape != (total, 2) or target.shape != (total, 2):
            return None
        if moving.dtype != np.bool_ or not moving.flags.c_contiguous:
            return None
        mode = _speed_mode(speed, total)
        if mode is None:
            return None
        speed_mode, speed_arr, speed_scalar = mode
        done = np.empty(total, dtype=np.intp)
        cnt = cores.advance_legs_dense_core(
            pos, target, budget, moving, bool(n_moving == total), float(eps),
            speed_arr, speed_scalar, speed_mode, done.view(np.int64),
        )
        return done[: int(cnt)]

    def grid_splice(order, sorted_ids, removed, new_ids, new_pts):
        if not (_is_c_i64(order) and _is_c_i64(sorted_ids)):
            return None
        if not (_is_c_i64(new_ids) and _is_c_i64(new_pts)):
            return None
        if removed.dtype != np.bool_ or not removed.flags.c_contiguous:
            return None
        size = order.shape[0] - removed.sum() + new_ids.shape[0]
        out_order = np.empty(size, dtype=np.intp)
        out_ids = np.empty(size, dtype=np.intp)
        cores.splice_core(
            order.view(np.int64), sorted_ids.view(np.int64), removed,
            new_ids.view(np.int64), new_pts.view(np.int64),
            out_order.view(np.int64), out_ids.view(np.int64),
        )
        return out_order, out_ids

    def occupancy_delta(counts_flat, old_cells, new_cells):
        if counts_flat.dtype != np.int64 or not counts_flat.flags.c_contiguous:
            return None
        old64 = np.ascontiguousarray(old_cells, dtype=np.int64)
        new64 = np.ascontiguousarray(new_cells, dtype=np.int64)
        if old64.shape != new64.shape or old64.ndim != 1:
            return None
        cores.occupancy_delta_core(counts_flat, old64, new64)
        return True

    def union_fixpoint(parent, u, v):
        if not _is_c_i64(parent):
            return None
        u64 = np.ascontiguousarray(u, dtype=np.int64)
        v64 = np.ascontiguousarray(v, dtype=np.int64)
        if u64.shape != v64.shape or u64.ndim != 1:
            return None
        cores.union_core(parent.view(np.int64), u64, v64)
        return True

    def zone_counts(positions, informed, ell, m, cz_mask):
        if positions.ndim != 3 or positions.shape[2] != 2 or not _is_c_f64(positions):
            return None
        k, n = positions.shape[0], positions.shape[1]
        if informed.shape != (k, n) or informed.dtype != np.bool_:
            return None
        if not informed.flags.c_contiguous:
            return None
        m = int(m)
        if cz_mask.shape != (m, m) or cz_mask.dtype != np.bool_:
            return None
        if not cz_mask.flags.c_contiguous or not (ell > 0.0):
            return None
        cz_total = np.zeros(k, dtype=np.intp)
        cz_informed = np.zeros(k, dtype=np.intp)
        cores.zone_counts_core(
            positions.reshape(-1, 2), n, float(ell), m,
            cz_mask.reshape(-1), informed.reshape(-1),
            cz_total.view(np.int64), cz_informed.view(np.int64),
        )
        return cz_total, cz_informed

    return {
        "batch_any_within": batch_any_within,
        "batch_contacts": batch_contacts,
        "advance_legs": advance_legs,
        "advance_legs_dense": advance_legs_dense,
        "grid_splice": grid_splice,
        "occupancy_delta": occupancy_delta,
        "union_fixpoint": union_fixpoint,
        "zone_counts": zone_counts,
    }
