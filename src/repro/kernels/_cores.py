"""Loop-level kernel cores: the executable spec of the compiled tier.

Each function here is written in a restricted loop style that the C
provider (:mod:`repro.kernels._cext`) mirrors statement for statement
(same operation order, correctly-rounded ``sqrt`` / truncating casts),
exposed through adapters with these signatures.

They are also runnable as plain Python, which is how the parity tests pin
the semantics against the numpy reference paths without requiring the
provider to be built.

Exactness contracts (enforced by ``tests/test_kernels.py``):

* ``any_within_core`` / ``contacts_core`` / ``count_core`` — boolean OR /
  enumeration / per-query count of the exact inclusive predicate
  ``(qx-sx)^2 + (qy-sy)^2 <= radius^2`` over a bucket grid with cell side
  ``>= radius``; bit-identical to the grid/brute engines for any
  enumeration order.
* ``advance_legs_core`` / ``advance_legs_dense_core`` — the identical
  IEEE operation sequence as :func:`repro.mobility.kinematics.advance_legs`
  (same gathers, same guarded division, same ``move >= dist - eps``
  threshold, masked rows of the dense pass included), so positions and
  budgets are bit-identical.
* ``splice_core`` — reproduces ``np.insert(..., searchsorted(...,
  side='left'))`` exactly: inserted points land *before* equal-bucket
  survivors, in stable sorted order.
* ``union_core`` — union by minimum root + a final ascending compression
  pass; the result is the fully-compressed min-rooted parent array, the
  same canonical fixpoint the vectorized min-hooking loop converges to.
* ``occupancy_delta_core`` — integer +/-1 scatter, trivially exact.
* ``zone_counts_core`` — the exact cell classification of
  ``CellGrid.cell_indices`` (``p / ell``, truncating cast, clip to
  ``[0, m-1]``) followed by integer per-replica counts; the fractions the
  caller derives from them are bit-identical to the numpy reduction.
"""

from __future__ import annotations

import math

__all__ = [
    "any_within_core",
    "contacts_core",
    "count_core",
    "advance_legs_core",
    "advance_legs_dense_core",
    "splice_core",
    "union_core",
    "occupancy_delta_core",
    "zone_counts_core",
]


def _grid_build(pos, n, m, inv_cell, src, cellk, starts, srcsort):
    """Counting sort of ``src`` (flat ``B*n`` indices) into per-replica cells.

    ``starts`` has length ``cells + 2`` (zeroed by the caller); afterwards
    cell ``c``'s slice of ``srcsort`` is ``starts[c] : starts[c+1]``, so
    the cells ``c..c2`` of one grid row are the single slice
    ``starts[c] : starts[c2+1]``.  Shared by the pair cores, like the C
    provider's ``grid_build``.
    """
    mm = m * m
    for k in range(src.shape[0]):
        i = src[k]
        b = i // n
        ci = int(pos[i, 0] * inv_cell)
        if ci < 0:
            ci = 0
        elif ci >= m:
            ci = m - 1
        cj = int(pos[i, 1] * inv_cell)
        if cj < 0:
            cj = 0
        elif cj >= m:
            cj = m - 1
        c = b * mm + ci * m + cj
        cellk[k] = c
        starts[c + 2] += 1
    for c in range(1, starts.shape[0]):
        starts[c] += starts[c - 1]
    for k in range(src.shape[0]):
        c = cellk[k]
        srcsort[starts[c + 1]] = src[k]
        starts[c + 1] += 1


def any_within_core(pos, n, m, inv_cell, r2, src, qry, cellk, starts, srcsort, out):
    """Exact per-replica ``any_within`` over a fused source grid.

    Each query scans its 3x3 cell block, clipped to the grid, as up to
    three *row runs*: block row ``ii`` holds the consecutive cell ids
    ``(ii, j0..j1)``, whose sources are one ``srcsort`` slice.

    ``out`` is the flat ``(B*n,)`` bool result (zeroed by the caller);
    entries outside ``qry`` are never written.
    """
    _grid_build(pos, n, m, inv_cell, src, cellk, starts, srcsort)
    mm = m * m
    for k in range(qry.shape[0]):
        i = qry[k]
        b = i // n
        qx = pos[i, 0]
        qy = pos[i, 1]
        ci = int(qx * inv_cell)
        if ci < 0:
            ci = 0
        elif ci >= m:
            ci = m - 1
        cj = int(qy * inv_cell)
        if cj < 0:
            cj = 0
        elif cj >= m:
            cj = m - 1
        i0 = ci - 1 if ci > 0 else 0
        i1 = ci + 1 if ci < m - 1 else m - 1
        j0 = cj - 1 if cj > 0 else 0
        j1 = cj + 1 if cj < m - 1 else m - 1
        hit = False
        base = b * mm
        for ii in range(i0, i1 + 1):
            row = base + ii * m
            for t in range(starts[row + j0], starts[row + j1 + 1]):
                j = srcsort[t]
                dx = qx - pos[j, 0]
                dy = qy - pos[j, 1]
                if dx * dx + dy * dy <= r2:
                    hit = True
                    break
            if hit:
                break
        if hit:
            out[i] = True


def contacts_core(pos, n, m, inv_cell, r2, src, qry, cellk, starts, srcsort, out_b, out_s, out_q, cap):
    """Enumerate exact (source, query) contacts; returns the total count.

    Fills ``out_b`` / ``out_s`` / ``out_q`` with each contact's replica
    and replica-local source and query index, up to ``cap``, and keeps
    counting past it, so a too-small capacity is detected by the caller
    (``total > cap``) and the pass re-run with an exact allocation.  Every
    candidate is stored at slot ``total`` and ``total`` then advances by
    the distance test, so a miss is overwritten by the next candidate
    instead of branched around.  Emission order is query-major then
    grid-scan order — callers treat the order as unspecified, like every
    other contacts backend.
    """
    _grid_build(pos, n, m, inv_cell, src, cellk, starts, srcsort)
    mm = m * m
    total = 0
    for k in range(qry.shape[0]):
        i = qry[k]
        b = i // n
        off = b * n
        qx = pos[i, 0]
        qy = pos[i, 1]
        ci = int(qx * inv_cell)
        if ci < 0:
            ci = 0
        elif ci >= m:
            ci = m - 1
        cj = int(qy * inv_cell)
        if cj < 0:
            cj = 0
        elif cj >= m:
            cj = m - 1
        i0 = ci - 1 if ci > 0 else 0
        i1 = ci + 1 if ci < m - 1 else m - 1
        j0 = cj - 1 if cj > 0 else 0
        j1 = cj + 1 if cj < m - 1 else m - 1
        base = b * mm
        for ii in range(i0, i1 + 1):
            row = base + ii * m
            for t in range(starts[row + j0], starts[row + j1 + 1]):
                j = srcsort[t]
                dx = qx - pos[j, 0]
                dy = qy - pos[j, 1]
                if total < cap:
                    out_b[total] = b
                    out_s[total] = j - off
                    out_q[total] = i - off
                total += dx * dx + dy * dy <= r2
    return total


def count_core(pos, n, m, inv_cell, r2, src, qry, cellk, starts, srcsort, out):
    """Exact per-query contact counts; writes no pairs.

    The grid build, row-run scan and distance test of ``contacts_core``,
    with each hit added to the query's tally instead of stored.  ``out``
    is the flat ``(B*n,)`` count result: ``out[i]`` is overwritten for
    every query ``i`` in ``qry`` and never written for the others.
    """
    _grid_build(pos, n, m, inv_cell, src, cellk, starts, srcsort)
    mm = m * m
    for k in range(qry.shape[0]):
        i = qry[k]
        b = i // n
        qx = pos[i, 0]
        qy = pos[i, 1]
        ci = int(qx * inv_cell)
        if ci < 0:
            ci = 0
        elif ci >= m:
            ci = m - 1
        cj = int(qy * inv_cell)
        if cj < 0:
            cj = 0
        elif cj >= m:
            cj = m - 1
        i0 = ci - 1 if ci > 0 else 0
        i1 = ci + 1 if ci < m - 1 else m - 1
        j0 = cj - 1 if cj > 0 else 0
        j1 = cj + 1 if cj < m - 1 else m - 1
        base = b * mm
        hits = 0
        for ii in range(i0, i1 + 1):
            row = base + ii * m
            for t in range(starts[row + j0], starts[row + j1 + 1]):
                j = srcsort[t]
                dx = qx - pos[j, 0]
                dy = qy - pos[j, 1]
                hits += dx * dx + dy * dy <= r2
        out[i] = hits


def advance_legs_core(pos, target, budget, idx, eps, speed_arr, speed_scalar, speed_mode, metric, done):
    """Masked carry-over iteration; mirrors ``kinematics.advance_legs``.

    ``speed_mode``: 0 = distance budget, 1 = scalar speed, 2 = per-agent
    speed array.  ``metric``: 0 = manhattan, 1 = euclidean.  Fills ``done``
    with the reached indices (in ``idx`` order) and returns their count;
    reached agents are snapped onto their targets.
    """
    cnt = 0
    for k in range(idx.shape[0]):
        i = idx[k]
        d0 = target[i, 0] - pos[i, 0]
        d1 = target[i, 1] - pos[i, 1]
        if metric == 0:
            dist = abs(d0) + abs(d1)
        else:
            dist = math.sqrt(d0 * d0 + d1 * d1)
        b = budget[i]
        if speed_mode == 0:
            move = b if b < dist else dist
        else:
            if speed_mode == 1:
                s = speed_scalar
            else:
                s = speed_arr[i]
            can = b * s
            move = can if can < dist else dist
        if dist > eps:
            frac = move / dist
        else:
            frac = 1.0
        pos[i, 0] += d0 * frac
        pos[i, 1] += d1 * frac
        if speed_mode == 0:
            budget[i] = b - move
        else:
            budget[i] = b - move / s
        if move >= dist - eps:
            done[cnt] = i
            cnt += 1
    for k in range(cnt):
        i = done[k]
        pos[i, 0] = target[i, 0]
        pos[i, 1] = target[i, 1]
    return cnt


def advance_legs_dense_core(pos, target, budget, moving, all_moving, eps, speed_arr, speed_scalar, speed_mode, done):
    """Dense full-array pass; mirrors ``kinematics.advance_legs_dense``.

    Masked rows run the same arithmetic with ``frac`` and the budget spend
    forced to 0 — including the ``pos += delta * 0.0`` no-op, which the
    numpy pass also performs (it can flip a ``-0.0`` position to ``+0.0``,
    so skipping it would not be bit-exact).
    """
    total = budget.shape[0]
    cnt = 0
    for i in range(total):
        d0 = target[i, 0] - pos[i, 0]
        d1 = target[i, 1] - pos[i, 1]
        dist = abs(d0) + abs(d1)
        b = budget[i]
        if speed_mode == 0:
            move = b if b < dist else dist
        else:
            if speed_mode == 1:
                s = speed_scalar
            else:
                s = speed_arr[i]
            can = b * s
            move = can if can < dist else dist
        if dist > eps:
            frac = move / dist
        else:
            frac = 1.0
        if speed_mode == 0:
            spent = move
        else:
            spent = move / s
        is_moving = all_moving or moving[i]
        if not is_moving:
            frac = 0.0
            spent = 0.0
        pos[i, 0] += d0 * frac
        pos[i, 1] += d1 * frac
        budget[i] = b - spent
        if is_moving and move >= dist - eps:
            done[cnt] = i
            cnt += 1
    for k in range(cnt):
        i = done[k]
        pos[i, 0] = target[i, 0]
        pos[i, 1] = target[i, 1]
    return cnt


def splice_core(order, sorted_ids, removed, new_ids, new_pts, out_order, out_ids):
    """Single-pass merge of surviving layout + bucket-sorted moved points.

    ``removed`` marks positions of the old layout to drop; ``new_ids`` /
    ``new_pts`` are the moved points stably sorted by new bucket.  Inserted
    points land before equal-bucket survivors (``<=``), matching
    ``np.insert`` at ``searchsorted(..., side='left')`` positions.
    """
    nn = new_ids.shape[0]
    k = 0
    j = 0
    for t in range(order.shape[0]):
        if removed[t]:
            continue
        idv = sorted_ids[t]
        while j < nn and new_ids[j] <= idv:
            out_ids[k] = new_ids[j]
            out_order[k] = new_pts[j]
            k += 1
            j += 1
        out_ids[k] = idv
        out_order[k] = order[t]
        k += 1
    while j < nn:
        out_ids[k] = new_ids[j]
        out_order[k] = new_pts[j]
        k += 1
        j += 1


def union_core(parent, u, v):
    """Union endpoint pairs; restore the fully-compressed min-rooted invariant.

    Classic union-find with path halving and union-by-minimum, followed by
    one ascending compression pass — valid because hooking larger roots
    onto smaller keeps ``parent[i] <= i``, so ``parent[parent[i]]`` is
    already a root when row ``i`` is reached.  The final array is the
    canonical min-vertex labeling, identical to the vectorized
    min-hooking + pointer-doubling fixpoint.
    """
    for k in range(u.shape[0]):
        x = u[k]
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        y = v[k]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x == y:
            continue
        if x < y:
            parent[y] = x
        else:
            parent[x] = y
    for i in range(parent.shape[0]):
        parent[i] = parent[parent[i]]


def occupancy_delta_core(counts, old_cells, new_cells):
    """+/-1 repair of flat occupancy counts at the cells agents left/entered."""
    for k in range(old_cells.shape[0]):
        counts[old_cells[k]] -= 1
        counts[new_cells[k]] += 1


def zone_counts_core(pos, n, ell, m, cz_mask, informed, cz_total, cz_informed):
    """Per-replica Central-Zone membership and informed counts.

    ``pos`` is the flat ``(k*n, 2)`` position block, ``informed`` the flat
    bool mask, ``cz_mask`` the flat ``(m*m,)`` CZ cell mask.  The cell of a
    point is ``int(p / ell)`` clipped to ``[0, m-1]`` — the same division,
    truncating cast, and clip as ``CellGrid.cell_indices``.  ``cz_total``
    and ``cz_informed`` are ``(k,)`` accumulators (zeroed by the caller).
    """
    for t in range(pos.shape[0]):
        b = t // n
        ix = int(pos[t, 0] / ell)
        if ix < 0:
            ix = 0
        elif ix >= m:
            ix = m - 1
        iy = int(pos[t, 1] / ell)
        if iy < 0:
            iy = 0
        elif iy >= m:
            iy = m - 1
        if cz_mask[ix * m + iy]:
            cz_total[b] += 1
            if informed[t]:
                cz_informed[b] += 1
