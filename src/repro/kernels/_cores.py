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
  ``>= radius``; the OR and the counts are bit-identical to the grid/brute
  engines for any scan order, and the enumeration comes out sorted by
  (replica, source, query), the order in which the neighbor-sampling
  protocols consume their draws.
* ``advance_legs_core`` / ``advance_legs_dense_core`` — the identical
  IEEE operation sequence as :func:`repro.mobility.kinematics.advance_legs`
  (same gathers, same guarded division, same ``move >= dist - eps``
  threshold; the dense pass skips the rows that do not move), so positions
  and budgets are bit-identical.
* ``advance_trips_core`` — a whole step of the MRWP carry-over loop
  (``mrwp._advance_trips``): pass by pass over the flat ``B*n`` layout,
  the leg arithmetic of ``advance_legs_core``, the corner promotions of
  ``split_completed_legs`` and the redraws of ``redraw_manhattan_trips``.
  The one core that draws random numbers: each replica's new trips come
  from its own generator by the same calls, in the same order, as the
  numpy loop's ``rng.random`` fills (``next_double`` per destination
  coordinate, then ``next_uint32`` per path coin), so positions, trips,
  counters and generator states are bit-identical, shared generators
  included.
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

import numpy as np

__all__ = [
    "any_within_core",
    "contacts_core",
    "count_core",
    "advance_legs_core",
    "advance_legs_dense_core",
    "bitgen_handles",
    "advance_trips_core",
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


def contacts_core(pos, n, m, inv_cell, r2, src, qry, cellk, starts, srcsort, tally, out_b, out_s, out_q, cap):
    """Exact (source, query) contacts sorted by (replica, source, query);
    returns the total count.

    Fills ``out_b`` / ``out_s`` / ``out_q`` with each contact's replica
    and replica-local source and query index, up to ``cap``, and keeps
    counting past it, so a too-small capacity is detected by the caller
    (``total > cap``) and the pass re-run with an exact allocation; an
    overflowing pass returns before the sort.

    The query-major scan stores every candidate at slot ``total`` (its
    local query in ``out_b``, its flat source in ``out_s``) and then
    advances ``total`` by the distance test, so a miss is overwritten by
    the next candidate instead of branched around.  A stable counting
    sort by flat source then writes the pairs in canonical order: the
    ``(B*n,)`` ``tally`` (zeroed here at the sources, never read
    elsewhere) counts each source's contacts, prefix sums over ``src`` in
    order turn the counts into run starts, one scatter puts the local
    queries into ``out_q``, and each source's run of ``out_b`` /
    ``out_s`` is filled with its replica and local index.  ``qry`` is
    ascending, so the stable scatter leaves every source's queries
    ascending: O(pairs + S) after the scan, whatever the degrees.
    """
    _grid_build(pos, n, m, inv_cell, src, cellk, starts, srcsort)
    mm = m * m
    total = 0
    for k in range(qry.shape[0]):
        i = qry[k]
        b = i // n
        local = i - b * n
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
                    out_b[total] = local
                    out_s[total] = j
                total += dx * dx + dy * dy <= r2
    if total > cap:
        return total
    for k in range(src.shape[0]):
        tally[src[k]] = 0
    for t in range(total):
        tally[out_s[t]] += 1
    acc = 0
    for k in range(src.shape[0]):
        j = src[k]
        c = tally[j]
        tally[j] = acc
        acc += c
    for t in range(total):
        j = out_s[t]
        out_q[tally[j]] = out_b[t]
        tally[j] += 1
    start = 0
    for k in range(src.shape[0]):
        j = src[k]
        b = j // n
        end = tally[j]
        for t in range(start, end):
            out_b[t] = b
            out_s[t] = j - b * n
        start = end
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

    Rows that do not move are skipped, so they keep their state bit for bit.
    """
    total = budget.shape[0]
    cnt = 0
    for i in range(total):
        if not (all_moving or moving[i]):
            continue
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
        pos[i, 0] += d0 * frac
        pos[i, 1] += d1 * frac
        budget[i] = b - spent
        if move >= dist - eps:
            done[cnt] = i
            cnt += 1
    for k in range(cnt):
        i = done[k]
        pos[i, 0] = target[i, 0]
        pos[i, 1] = target[i, 1]
    return cnt


def bitgen_handles(rngs):
    """What ``advance_trips_core`` draws from: the generators themselves.

    The C provider's twin returns each generator's ``bitgen_t *`` instead.
    """
    return list(rngs)


def _trip_leg(pos, target, dest, on_second_leg, turns, eps, i, b, movers, rests, redraw, k, r, arrived):
    """One agent's leg in ``advance_trips_core``; returns ``(k, r, arrived)``.

    The distance-budget Manhattan arithmetic of ``advance_legs_core``,
    snapped onto the target on arrival.  A corner arrival turns onto its
    second leg (target re-aimed at ``dest``, one more turn); a trip
    arrival joins ``redraw``.  The agent stays a mover, with its budget in
    ``rests``, while that budget is above ``eps``.
    """
    d0 = target[i, 0] - pos[i, 0]
    d1 = target[i, 1] - pos[i, 1]
    dist = abs(d0) + abs(d1)
    move = b if b < dist else dist
    if dist > eps:
        frac = move / dist
    else:
        frac = 1.0
    pos[i, 0] += d0 * frac
    pos[i, 1] += d1 * frac
    b = b - move
    if move >= dist - eps:
        arrived += 1
        pos[i, 0] = target[i, 0]
        pos[i, 1] = target[i, 1]
        if on_second_leg[i]:
            redraw[r] = i
            r += 1
        else:
            on_second_leg[i] = True
            target[i, 0] = dest[i, 0]
            target[i, 1] = dest[i, 1]
            turns[i] += 1
    if b > eps:
        movers[k] = i
        rests[k] = b
        k += 1
    return k, r, arrived


def _redraw_trips(pos, target, dest, on_second_leg, turns, arrivals, n, side, bitgens, redraw, r):
    """Fresh trips for the ``r`` ascending agents in ``redraw``.

    Replica by replica (ascending), the ``k`` trips of replica ``b`` draw
    ``2k`` doubles from ``bitgens[b]`` (destination ``x, y`` per agent,
    scaled by ``side``) and then ``k`` float32 path coins: the calls of
    ``rng.random(out=dests)`` and ``path_coins``.  A coin ``>= 0.5`` (the
    top bit of its ``next_uint32`` word) takes the horizontal leg first,
    to the corner ``(dest.x, pos.y)``; otherwise the corner is
    ``(pos.x, dest.y)``.
    """
    t = 0
    while t < r:
        b = redraw[t] // n
        hi = t + 1
        while hi < r and redraw[hi] // n == b:
            hi += 1
        rng = bitgens[b]
        for u in range(t, hi):
            i = redraw[u]
            dest[i, 0] = rng.random() * side
            dest[i, 1] = rng.random() * side
        for u in range(t, hi):
            i = redraw[u]
            if rng.random(dtype=np.float32) >= 0.5:
                target[i, 0] = dest[i, 0]
                target[i, 1] = pos[i, 1]
            else:
                target[i, 0] = pos[i, 0]
                target[i, 1] = dest[i, 1]
            on_second_leg[i] = False
            turns[i] += 1
            arrivals[i] += 1
        t = hi


def advance_trips_core(pos, target, dest, on_second_leg, turns, arrivals, active, n, distance, eps, side, bitgens, max_passes, movers, rests, redraw):
    """One MRWP step; returns the passes run, or -1 if ``max_passes`` passes
    all had arrivals (the numpy loop raises there).

    Pass 1 walks every agent of the ``active`` replicas ``distance``; each
    later pass walks the ascending ``movers`` with their ``rests`` budgets
    (rewritten in place for the next pass).  After each pass the finished
    trips are redrawn (``_redraw_trips``).  The loop stops at a pass with
    no movers or no arrivals.  Inactive replicas are never read, written
    or drawn for.
    """
    count = 0
    if distance > eps:
        for b in range(active.shape[0]):
            if active[b]:
                count += n
    for p in range(max_passes):
        if count == 0:
            return p
        k = 0
        r = 0
        arrived = 0
        if p == 0:
            for b in range(active.shape[0]):
                if not active[b]:
                    continue
                for i in range(b * n, (b + 1) * n):
                    k, r, arrived = _trip_leg(
                        pos, target, dest, on_second_leg, turns, eps,
                        i, distance, movers, rests, redraw, k, r, arrived,
                    )
        else:
            for t in range(count):
                k, r, arrived = _trip_leg(
                    pos, target, dest, on_second_leg, turns, eps,
                    movers[t], rests[t], movers, rests, redraw, k, r, arrived,
                )
        if arrived == 0:
            return p + 1
        _redraw_trips(pos, target, dest, on_second_leg, turns, arrivals, n, side, bitgens, redraw, r)
        count = k
    return -1


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
