"""Loop-level kernel oracles: the executable spec of the compiled tier.

Each function here is written in a restricted loop style that the C
provider (:mod:`repro.kernels._cext`) mirrors statement for statement
(same operation order, correctly-rounded ``sqrt`` / truncating casts),
exposed through adapters with these signatures.

They run as plain Python: ``make_kernels(kernel_oracles)`` (the glue of
:mod:`repro.kernels._glue` over this module) is the reference kernel
table, which the parity tests pin against the numpy paths and the C
provider without requiring the provider to be built.  The library never
imports this module.

Exactness contracts (enforced by ``tests/test_kernels.py``):

* ``any_within_core`` / ``contacts_core`` / ``count_core`` — boolean OR /
  enumeration / per-query count of the exact inclusive predicate
  ``(qx-sx)^2 + (qy-sy)^2 <= radius^2`` over a bucket grid with cell side
  ``>= radius``.  They read the ``(B, n)`` source and query masks
  directly and work one replica at a time: local indices gathered from
  the mask rows, one ``m*m + 2`` grid that every replica reuses, no
  division by ``n``.  The C provider splits ``any_within_core``'s
  replicas over threads (``_split``), each with its own grid.  The OR
  and the counts are bit-identical to the grid/brute engines for any
  scan order, and the enumeration comes out
  sorted by (replica, source, query), the order in which the
  neighbor-sampling protocols consume their draws.  With ``degrees``,
  ``contacts_core`` also writes each cut source's count of agents of
  either mask within ``radius`` (``_near_sources`` over the grid the cut
  built), equal to the count core's over ``source | query``.
* ``advance_legs_core`` — the identical IEEE operation sequence as
  :func:`repro.mobility.kinematics.advance_legs` for distance budgets on
  Manhattan legs (same gathers, same guarded division, same
  ``move >= dist - eps`` threshold), so positions and budgets are
  bit-identical.  Time budgets and Euclidean legs run numpy (the glue
  declines them), and so does every dense pass, on both tiers.
* ``advance_trips_core`` — a whole step of a trip model's carry-over
  loop, one mode per model: MRWP (``mrwp._advance_trips``), pause-MRWP
  (``pause._advance_pause_mrwp``), random-speed MRWP
  (``speed_range._advance_random_speed``) and straight-line RWP
  (``rwp._advance_rwp``), one unit of replicas at a time (the replicas
  of one bit generator, or all of them).  Pass by pass over the flat
  ``B*n`` layout it runs the loop's pause burn (``countdown_pauses``),
  the leg arithmetic of ``advance_legs`` (distance or time budget,
  scalar or per-agent speed, Manhattan or Euclidean legs), the corner
  promotions of ``split_completed_legs`` and the redraws of
  ``redraw_manhattan_trips``, ``rng.uniform`` speeds and
  ``redraw_destinations``.  The first of three cores that draw random
  numbers: each replica's new trips, speeds and
  destinations come from its own generator by the same calls, in the
  same order, as the numpy loop's (``next_double`` per destination
  coordinate, ``next_uint32`` per path coin, ``next_double`` per speed),
  so positions, trips, pause timers, speeds, counters and generator
  states are bit-identical, shared generators included.
* ``palm_states_core`` — every replica's stationary MRWP state, drawn
  by ``PalmStationarySampler.sample``'s calls in their order, one unit of
  replicas (those of one bit generator, ascending) at a time: ``n``
  ``next_double`` coins for the length-biased axis; the rejection rounds
  of ``sample_length_biased_pair`` for those agents (``max(32, int(3.2 *
  need))`` proposals a round, all ``a``, then all ``b``, then all accept
  uniforms); their other axis's start, then destination, uniforms; the
  same for the other agents with the axes swapped; ``n`` ``next_uint32``
  path coins; ``n`` travelled fractions.  Each uniform is numpy's
  ``random_uniform``, ``low + range * next_double``.  Then, per agent,
  the IEEE operations of ``position_along_path``, ``leg_lengths`` and
  ``path_corner``, with ``np.clip``'s NaN passing, so positions (NaN
  ones included), destinations, targets, leg flags and generator states
  are bit-identical.
* ``cut_exchange_core`` — the rest of a gossip or push-pull round after
  the cut: replica by replica in ascending order, the draws of
  ``BatchBroadcastState._draw_uniform_blocks`` (gossip: ``fanout * S_b``
  ``next_double`` values row-major, as ``rng.random((fanout, S_b))``;
  push-pull: one per agent of the cut, ascending), gossip's
  ``sample_indices`` picks or push-pull's clamped floor pick with the
  same IEEE operations, and the newly informed mask, so masks and
  generator states are bit-identical to the numpy exchange, shared
  generators included.
* ``splice_core`` — reproduces ``np.insert(..., searchsorted(...,
  side='left'))`` exactly: inserted points land *before* equal-bucket
  survivors, in stable sorted order.
* ``union_core`` — union by minimum root + a final ascending compression
  pass; the result is the fully-compressed min-rooted parent array, the
  same canonical fixpoint the vectorized min-hooking loop converges to.
* ``occupancy_delta_core`` — integer +/-1 scatter, trivially exact.
* ``zone_counts_core`` — per replica, which of its open zones (bit
  ``CENTRAL_ZONE`` for the Central Zone, ``SUBURB`` for the Suburb; 0
  for a replica that is retired or has both zones done) still hold an
  uninformed agent.  Each row skips its informed agents, puts the others
  in their cells with the exact classification of
  ``CellGrid.cell_indices`` (``p / ell``, truncating cast, clip to
  ``[0, m-1]``) and stops once it has seen every open zone.  A zone is
  complete exactly when no uninformed agent is in it, the integer test
  behind "informed fraction >= 1", so completion times are bit-identical
  to a full count of every agent.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels._glue import CENTRAL_ZONE, MRWP_TRIPS, PAUSE_TRIPS, RWP_TRIPS, SPEED_TRIPS, SUBURB

__all__ = [
    "any_within_core",
    "contacts_core",
    "count_core",
    "advance_legs_core",
    "bitgen_handles",
    "advance_trips_core",
    "palm_states_core",
    "cut_exchange_core",
    "splice_core",
    "union_core",
    "occupancy_delta_core",
    "zone_counts_core",
]


def _gather(mask, n, idx):
    """Branch-free append of the set entries of one ``(n,)`` mask row into
    ``idx``; returns how many there are.  Each entry's local index is
    written at the current end and kept only when the mask is set (any
    nonzero byte, so a bool view of other bytes cannot overrun ``idx``)."""
    count = 0
    for i in range(n):
        idx[count] = i
        count += mask[i] != 0
    return count


def _grid_build(pb, m, inv_cell, lsrc, S, cellk, starts, srcsort):
    """Counting sort of one replica's ``S`` sources (local indices in
    ``lsrc``) into its ``m*m`` cells.

    ``starts`` (length ``m*m + 2``) is zeroed here; afterwards cell ``c``'s
    slice of ``srcsort`` is ``starts[c] : starts[c+1]``, so the cells
    ``c..c2`` of one grid row are the single slice
    ``starts[c] : starts[c2+1]``.  Every replica reuses the same work
    arrays.  Shared by the pair cores, like the C provider's
    ``grid_build``.
    """
    cells = m * m
    for c in range(cells + 2):
        starts[c] = 0
    for k in range(S):
        i = lsrc[k]
        ci = int(pb[i, 0] * inv_cell)
        if ci < 0:
            ci = 0
        elif ci >= m:
            ci = m - 1
        cj = int(pb[i, 1] * inv_cell)
        if cj < 0:
            cj = 0
        elif cj >= m:
            cj = m - 1
        c = ci * m + cj
        cellk[k] = c
        starts[c + 2] += 1
    for c in range(1, cells + 2):
        starts[c] += starts[c - 1]
    for k in range(S):
        c = cellk[k]
        srcsort[starts[c + 1]] = lsrc[k]
        starts[c + 1] += 1


def _split(run, units, threads):
    """The fork-join of the C provider's threaded cores, on one worker.

    ``run(unit, worker)`` does one unit with worker ``worker``'s buffers.
    The provider hands the ``units`` to ``threads`` workers, each taking
    the next unit from a shared counter; units are independent (each
    touches only its own rows and draws only from its own generators), so
    the worker a unit lands on changes nothing, and the spec runs every
    unit on worker 0, in order.  Returns -1 if any unit returned a
    negative count, else the largest count.
    """
    most = 0
    for u in range(units):
        got = run(u, 0)
        if most >= 0 and (got < 0 or got > most):
            most = got
    return most


def any_within_core(pos, m, inv_cell, r2, smask, qmask, lsrc, lqry, cellk, starts, srcsort, out, threads):
    """Exact per-replica ``any_within``, one replica per unit of work.

    ``pos`` is the ``(B, n, 2)`` position stack and ``smask`` / ``qmask``
    the ``(B, n)`` source and query masks.  For each replica the sources
    and queries are gathered as local indices (``_gather``); a replica
    with no source or no query is skipped, and otherwise its sources are
    binned into its worker's grid (``_grid_build``).  Each query scans
    its 3x3 cell block, clipped to the grid, as up to three *row runs*:
    block row ``ii`` holds the consecutive cell ids ``(ii, j0..j1)``,
    whose sources are one ``srcsort`` slice.  The work arrays hold
    ``threads`` consecutive blocks, one per worker (``_split``).

    ``out`` is the ``(B, n)`` bool result (zeroed by the caller); entries
    outside ``qmask`` are never written, and replica ``b`` writes only
    row ``b``.
    """
    n = smask.shape[1]

    def replica(b, w):
        srcs, qrys, keys, order = (a[w * n:] for a in (lsrc, lqry, cellk, srcsort))
        grid = starts[w * (m * m + 2):]
        S = _gather(smask[b], n, srcs)
        if S == 0:
            return 0
        Q = _gather(qmask[b], n, qrys)
        if Q == 0:
            return 0
        pb = pos[b]
        _grid_build(pb, m, inv_cell, srcs, S, keys, grid, order)
        ob = out[b]
        for k in range(Q):
            i = qrys[k]
            qx = pb[i, 0]
            qy = pb[i, 1]
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
            for ii in range(i0, i1 + 1):
                row = ii * m
                for t in range(grid[row + j0], grid[row + j1 + 1]):
                    j = order[t]
                    dx = qx - pb[j, 0]
                    dy = qy - pb[j, 1]
                    if dx * dx + dy * dy <= r2:
                        hit = True
                        break
                if hit:
                    break
            if hit:
                ob[i] = True
        return 0

    _split(replica, smask.shape[0], threads)


def _near_sources(pb, m, inv_cell, r2, starts, srcsort, s):
    """Sources within ``r`` of source ``s``, itself included, from
    ``s``'s 3x3 block of the replica's source grid.  The scan runs from
    the source side, ``sx - jx``, where the query-side scans compute ``qx
    - sx``; the squares are the same."""
    sx = pb[s, 0]
    sy = pb[s, 1]
    ci = int(sx * inv_cell)
    if ci < 0:
        ci = 0
    elif ci >= m:
        ci = m - 1
    cj = int(sy * inv_cell)
    if cj < 0:
        cj = 0
    elif cj >= m:
        cj = m - 1
    i0 = ci - 1 if ci > 0 else 0
    i1 = ci + 1 if ci < m - 1 else m - 1
    j0 = cj - 1 if cj > 0 else 0
    j1 = cj + 1 if cj < m - 1 else m - 1
    hits = 0
    for ii in range(i0, i1 + 1):
        row = ii * m
        for t in range(starts[row + j0], starts[row + j1 + 1]):
            j = srcsort[t]
            dx = sx - pb[j, 0]
            dy = sy - pb[j, 1]
            hits += dx * dx + dy * dy <= r2
    return hits


def contacts_core(pos, m, inv_cell, r2, smask, qmask, lsrc, lqry, cellk, starts, srcsort, tally, out_b, out_s, out_q, degrees, cap):
    """Exact (source, query) contacts sorted by (replica, source, query);
    returns the total count.

    Fills ``out_b`` / ``out_s`` / ``out_q`` with each contact's replica
    and local source and query index, up to ``cap``, and keeps counting
    past it, so a too-small capacity is detected by the caller
    (``total > cap``) and the pass re-run with an exact allocation; once
    the total passes ``cap`` the sorts are skipped.

    Replica by replica, with the gather, grid and row-run scan of
    ``any_within_core``: the query-major scan stores every candidate at
    slot ``total`` (its local query in ``out_b``, its local source in
    ``out_s``) and then advances ``total`` by the distance test, so a miss
    is overwritten by the next candidate instead of branched around.  The
    replica's candidates fill slots ``first : total``, and a stable
    counting sort of that run by local source writes them in canonical
    order: the ``(n,)`` ``tally`` (zeroed here at the replica's sources,
    never read elsewhere) counts each source's contacts, prefix sums from
    ``first`` over the sources in order turn the counts into run starts,
    one scatter puts the local queries into ``out_q``, and each source's
    run of ``out_b`` / ``out_s`` is filled with the replica and the
    source.  The queries are scanned ascending, so the stable scatter
    leaves every source's queries ascending: O(pairs + S) per replica
    after the scan, whatever the degrees, and no global sort.

    With ``degrees`` (a ``(B, n)`` array, or ``None``), each source with
    a contact also gets its degree, its count of agents of either mask
    within ``r``: its run length (the queries within ``r``), less the
    queries of its run that are sources too, plus the sources within
    ``r``, from its 3x3 block of the grid already built
    (``_near_sources``).  The masks are read per cut entry, not per
    candidate of the block scan.  The sort, and so the degrees, is
    skipped once the total passes ``cap``; the re-run writes them.
    """
    batch = smask.shape[0]
    n = smask.shape[1]
    total = 0
    for b in range(batch):
        S = _gather(smask[b], n, lsrc)
        if S == 0:
            continue
        Q = _gather(qmask[b], n, lqry)
        if Q == 0:
            continue
        pb = pos[b]
        _grid_build(pb, m, inv_cell, lsrc, S, cellk, starts, srcsort)
        first = total
        for k in range(Q):
            i = lqry[k]
            qx = pb[i, 0]
            qy = pb[i, 1]
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
            for ii in range(i0, i1 + 1):
                row = ii * m
                for t in range(starts[row + j0], starts[row + j1 + 1]):
                    j = srcsort[t]
                    dx = qx - pb[j, 0]
                    dy = qy - pb[j, 1]
                    if total < cap:
                        out_b[total] = i
                        out_s[total] = j
                    total += dx * dx + dy * dy <= r2
        if total > cap:
            continue
        for k in range(S):
            tally[lsrc[k]] = 0
        for t in range(first, total):
            tally[out_s[t]] += 1
        acc = first
        for k in range(S):
            j = lsrc[k]
            c = tally[j]
            tally[j] = acc
            acc += c
        for t in range(first, total):
            j = out_s[t]
            out_q[tally[j]] = out_b[t]
            tally[j] += 1
        start = first
        for k in range(S):
            j = lsrc[k]
            end = tally[j]
            for t in range(start, end):
                out_b[t] = b
                out_s[t] = j
            if degrees is not None and end > start:
                # Its queries, plus its sources that are not queries too.
                both = 0
                for t in range(start, end):
                    both += smask[b, out_q[t]] != 0
                degrees[b, j] = (end - start) - both + _near_sources(
                    pb, m, inv_cell, r2, starts, srcsort, j
                )
            start = end
    return total


def count_core(pos, m, inv_cell, r2, smask, qmask, lsrc, lqry, cellk, starts, srcsort, out):
    """Exact per-query contact counts; writes no pairs.

    The gather, grid and row-run scan of ``any_within_core``, with each
    hit added to the query's tally instead of stored.  ``out`` is the
    ``(B, n)`` count result (zeroed by the caller): ``out[b, i]`` is
    written for every query ``i`` of every replica ``b`` that has a
    source, and never written for the others.
    """
    batch = smask.shape[0]
    n = smask.shape[1]
    for b in range(batch):
        S = _gather(smask[b], n, lsrc)
        if S == 0:
            continue
        Q = _gather(qmask[b], n, lqry)
        if Q == 0:
            continue
        pb = pos[b]
        _grid_build(pb, m, inv_cell, lsrc, S, cellk, starts, srcsort)
        ob = out[b]
        for k in range(Q):
            i = lqry[k]
            qx = pb[i, 0]
            qy = pb[i, 1]
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
            hits = 0
            for ii in range(i0, i1 + 1):
                row = ii * m
                for t in range(starts[row + j0], starts[row + j1 + 1]):
                    j = srcsort[t]
                    dx = qx - pb[j, 0]
                    dy = qy - pb[j, 1]
                    hits += dx * dx + dy * dy <= r2
            ob[i] = hits


def advance_legs_core(pos, target, budget, idx, eps, done):
    """Masked carry-over iteration of distance budgets on Manhattan legs;
    mirrors ``kinematics.advance_legs`` with ``speed=None``.

    Fills ``done`` with the reached indices (in ``idx`` order) and returns
    their count; reached agents are snapped onto their targets.
    """
    cnt = 0
    for k in range(idx.shape[0]):
        i = idx[k]
        d0 = target[i, 0] - pos[i, 0]
        d1 = target[i, 1] - pos[i, 1]
        dist = abs(d0) + abs(d1)
        b = budget[i]
        move = b if b < dist else dist
        if dist > eps:
            frac = move / dist
        else:
            frac = 1.0
        pos[i, 0] += d0 * frac
        pos[i, 1] += d1 * frac
        budget[i] = b - move
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


def _burn(mode, pause_left, speed, eps, eps_t, i, b, movers, rests, redraw, k, e):
    """One live agent's pause burn in ``advance_trips_core``; returns ``(k, e)``.

    A running pause spends ``min(pause_left, b)`` of the budget; in the
    pause mode a pause that ends joins ``redraw``.  The agent then joins
    the pass's ``movers``, with its budget in ``rests``, if its pause is
    over and it can still move: budget above ``eps_t``, or in the RWP mode
    ``b * speed > eps``.
    """
    left = pause_left[i]
    if left > 0:
        spend = left if left < b else b
        left = left - spend
        b = b - spend
        pause_left[i] = left
        if left <= 0 and mode == PAUSE_TRIPS:
            redraw[e] = i
            e += 1
    if left <= 0:
        if mode == RWP_TRIPS:
            moves = b * speed > eps
        else:
            moves = b > eps_t
        if moves:
            movers[k] = i
            rests[k] = b
            k += 1
    return k, e


def _trip_leg(mode, pos, target, dest, on_second_leg, turns, pause_left, speeds, speed, eps, eps_t, pause_time, i, b, movers, rests, redraw, k, r, arrived):
    """One agent's leg in ``advance_trips_core``; returns ``(k, r, arrived)``.

    The leg arithmetic of ``kinematics.advance_legs``: a distance budget
    (MRWP), or a time budget spent at ``speed`` (``speeds[i]`` in the
    speed mode); Manhattan legs to ``target``, or in the RWP mode one
    Euclidean leg to ``dest``.  Arrivals snap onto the leg's end.  A
    corner arrival turns onto its second leg (target re-aimed at ``dest``;
    MRWP counts the turn).  A trip arrival joins ``redraw``, except in the
    pause mode with ``pause_time > 0``, where it starts its pause instead.
    The agent stays live, with its budget in ``rests``, while that budget
    is above ``eps_t``.
    """
    if mode == RWP_TRIPS:
        t0 = dest[i, 0]
        t1 = dest[i, 1]
    else:
        t0 = target[i, 0]
        t1 = target[i, 1]
    d0 = t0 - pos[i, 0]
    d1 = t1 - pos[i, 1]
    if mode == RWP_TRIPS:
        dist = math.sqrt(d0 * d0 + d1 * d1)
    else:
        dist = abs(d0) + abs(d1)
    if mode == MRWP_TRIPS:
        move = b if b < dist else dist
    else:
        if mode == SPEED_TRIPS:
            s = speeds[i]
        else:
            s = speed
        can = b * s
        move = can if can < dist else dist
    if dist > eps:
        frac = move / dist
    else:
        frac = 1.0
    pos[i, 0] += d0 * frac
    pos[i, 1] += d1 * frac
    if mode == MRWP_TRIPS:
        b = b - move
    else:
        b = b - move / s
    if move >= dist - eps:
        arrived += 1
        pos[i, 0] = t0
        pos[i, 1] = t1
        if mode == RWP_TRIPS:
            redraw[r] = i
            r += 1
        elif on_second_leg[i]:
            if mode == PAUSE_TRIPS and pause_time > 0:
                pause_left[i] = pause_time
            else:
                redraw[r] = i
                r += 1
        else:
            on_second_leg[i] = True
            target[i, 0] = dest[i, 0]
            target[i, 1] = dest[i, 1]
            if mode == MRWP_TRIPS:
                turns[i] += 1
    if b > eps_t:
        movers[k] = i
        rests[k] = b
        k += 1
    return k, r, arrived


def _replica_run(redraw, t, r, n):
    """``(b, hi)``: the replica of ``redraw[t]`` and the end of its run of
    agents in the ascending ``redraw[t:r]``."""
    b = redraw[t] // n
    hi = t + 1
    while hi < r and redraw[hi] // n == b:
        hi += 1
    return b, hi


def _redraw_trips(pos, target, dest, on_second_leg, turns, arrivals, counted, n, side, bitgens, redraw, r):
    """Fresh trips for the ``r`` ascending agents in ``redraw``.

    Replica by replica (ascending), the ``k`` trips of replica ``b`` draw
    ``2k`` doubles from ``bitgens[b]`` (destination ``x, y`` per agent,
    scaled by ``side``) and then ``k`` float32 path coins: the calls of
    ``rng.random(out=dests)`` and ``path_coins``.  A coin ``>= 0.5`` (the
    top bit of its ``next_uint32`` word) takes the horizontal leg first,
    to the corner ``(dest.x, pos.y)``; otherwise the corner is
    ``(pos.x, dest.y)``.  With ``counted`` (MRWP) each new trip is one
    more turn and one more arrival.
    """
    t = 0
    while t < r:
        b, hi = _replica_run(redraw, t, r, n)
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
            if counted:
                turns[i] += 1
                arrivals[i] += 1
        t = hi


def _redraw_speeds(speeds, n, v_min, v_range, bitgens, redraw, r):
    """Fresh trip speeds for the ``r`` ascending agents in ``redraw``,
    replica by replica: ``v_min + v_range * next_double``, the arithmetic
    and the draws of ``rng.uniform(v_min, v_max, size=k)``."""
    t = 0
    while t < r:
        b, hi = _replica_run(redraw, t, r, n)
        rng = bitgens[b]
        for u in range(t, hi):
            speeds[redraw[u]] = v_min + v_range * rng.random()
        t = hi


def _redraw_destinations(dest, arrivals, pause_left, pause_time, n, side, bitgens, redraw, r):
    """RWP arrivals for the ``r`` ascending agents in ``redraw``: replica by
    replica, ``2k`` doubles scaled by ``side`` (the ``rng.random(out=...)``
    fill of ``redraw_destinations``); each agent then pauses
    ``pause_time`` and counts one more arrival."""
    t = 0
    while t < r:
        b, hi = _replica_run(redraw, t, r, n)
        rng = bitgens[b]
        for u in range(t, hi):
            i = redraw[u]
            dest[i, 0] = rng.random() * side
            dest[i, 1] = rng.random() * side
            pause_left[i] = pause_time
            arrivals[i] += 1
        t = hi


def _trips_unit(mode, pos, target, dest, on_second_leg, turns, arrivals, pause_left, speeds, active, reps, n, budget, speed, eps, eps_t, pause_time, side, v_min, v_range, bitgens, max_passes, movers, rests, redraw):
    """One unit's carry-over loop over its replicas ``reps`` (ascending),
    with ``movers``, ``rests`` and ``redraw`` the unit's own region of the
    work arrays; returns its passes, or -1 at the pass cap."""
    pauses = mode == PAUSE_TRIPS or mode == RWP_TRIPS
    count = 0
    if budget > eps_t:
        for b in reps:
            if active[b]:
                count += n
    for p in range(max_passes):
        if count == 0:
            return p
        if pauses:
            k = 0
            e = 0
            if p == 0:
                for b in reps:
                    if not active[b]:
                        continue
                    for i in range(b * n, (b + 1) * n):
                        k, e = _burn(mode, pause_left, speed, eps, eps_t, i, budget, movers, rests, redraw, k, e)
            else:
                for t in range(count):
                    k, e = _burn(mode, pause_left, speed, eps, eps_t, movers[t], rests[t], movers, rests, redraw, k, e)
            if mode == PAUSE_TRIPS:
                _redraw_trips(pos, target, dest, on_second_leg, turns, arrivals, False, n, side, bitgens, redraw, e)
            count = k
            if count == 0:
                return p + 1
        k = 0
        r = 0
        arrived = 0
        if p == 0 and not pauses:
            for b in reps:
                if not active[b]:
                    continue
                for i in range(b * n, (b + 1) * n):
                    k, r, arrived = _trip_leg(
                        mode, pos, target, dest, on_second_leg, turns, pause_left, speeds,
                        speed, eps, eps_t, pause_time, i, budget, movers, rests, redraw, k, r, arrived,
                    )
        else:
            for t in range(count):
                k, r, arrived = _trip_leg(
                    mode, pos, target, dest, on_second_leg, turns, pause_left, speeds,
                    speed, eps, eps_t, pause_time, movers[t], rests[t], movers, rests, redraw, k, r, arrived,
                )
        if arrived == 0:
            return p + 1
        if mode == RWP_TRIPS:
            _redraw_destinations(dest, arrivals, pause_left, pause_time, n, side, bitgens, redraw, r)
        else:
            _redraw_trips(pos, target, dest, on_second_leg, turns, arrivals, mode == MRWP_TRIPS, n, side, bitgens, redraw, r)
            if mode == SPEED_TRIPS:
                _redraw_speeds(speeds, n, v_min, v_range, bitgens, redraw, r)
        count = k
    return -1


def advance_trips_core(mode, pos, target, dest, on_second_leg, turns, arrivals, pause_left, speeds, active, n, budget, speed, eps, eps_t, pause_time, side, v_min, v_range, bitgens, units, unit_starts, threads, max_passes, movers, rests, redraw):
    """One step of a trip model; returns the most passes any unit ran, or
    -1 if a unit ran ``max_passes`` passes that all had arrivals (the
    numpy loop raises there).

    ``mode`` picks the model (``MRWP_TRIPS`` ...) and the arrays it uses;
    the others are never read.  The replicas come in units (``units``,
    ``unit_starts``: see :class:`~repro.kernels._glue.TripWork`), each a
    unit of work of ``_split``: unit ``u`` runs the carry-over loop over
    its own replicas, with the region of ``movers`` / ``rests`` /
    ``redraw`` that starts at agent ``unit_starts[u] * n``.  Every agent
    of the unit's ``active`` replicas starts with ``budget`` (MRWP: the
    distance ``v * dt``; the other modes: the time ``dt``) and is live
    while its budget is above ``eps_t`` (MRWP: ``eps``; RWP: 0).  A pass
    over the unit's live agents, ascending (pass 1: every agent of its
    active replicas; later passes: ``movers`` with their ``rests``,
    rewritten in place for the next pass):

    1. the pause modes (pause, RWP) burn pauses first (``_burn``); the
       pause mode then redraws every trip whose pause ended, replica by
       replica, before any leg move;
    2. the movers walk their legs (``_trip_leg``);
    3. the finished trips are redrawn, replica by replica: new Manhattan
       trips (counted as turns and arrivals in MRWP), then in the speed
       mode each replica's new speeds, or in the RWP mode new
       destinations, pauses and arrival counts.

    A unit stops at a pass with no live agents, no movers after the burn
    or no arrivals.  Inactive replicas are never read, written or drawn
    for.  A unit holds every replica that draws from one of its
    generators, so the draws of each generator keep their order.  With
    one unit of all replicas this is the batch-wide loop of the numpy
    models; with one unit per generator group the glue checks that a
    pass without arrivals spends every budget, so a unit that stops
    early is one the batch-wide loop would leave untouched, and the state
    is the same.  The pass count is that loop's too, except that in the
    RWP mode the batch-wide loop can count one pass more, which only
    finds budgets too small to move.
    """

    def unit(u, w):
        first = unit_starts[u]
        off = first * n
        return _trips_unit(
            mode, pos, target, dest, on_second_leg, turns, arrivals, pause_left, speeds,
            active, units[first:unit_starts[u + 1]], n, budget, speed, eps, eps_t, pause_time,
            side, v_min, v_range, bitgens, max_passes, movers[off:], rests[off:], redraw[off:],
        )

    return _split(unit, unit_starts.shape[0] - 1, threads)


def _uniform(rng, low, span):
    """numpy's ``random_uniform``, one value of ``rng.uniform(low, low +
    span)``: ``low + span * next_double``."""
    return low + span * rng.random()


def _clip(x, lo, hi):
    """``np.clip`` of one float: the max with ``lo``, then the min with
    ``hi``, each keeping a NaN operand on its left."""
    t = x if math.isnan(x) or x > lo else lo
    return t if math.isnan(t) or t < hi else hi


def _biased_pairs(rng, k, side, flags, want, start, dest, axis, props_a, props_b):
    """``sample_length_biased_pair(k, side, rng)`` written to coordinate
    ``axis`` of the start and destination of the agents whose ``flags``
    entry equals ``want``, ascending.

    Each rejection round draws ``batch = max(32, int(3.2 * need))``
    proposals ``a`` (into ``props_a``), then ``batch`` proposals ``b``,
    then ``batch`` accept uniforms, and keeps the first ``need`` pairs
    with ``u * side <= |a - b|``.
    """
    filled = 0
    i = 0
    while filled < k:
        need = k - filled
        batch = int(3.2 * need)
        if batch < 32:
            batch = 32
        for j in range(batch):
            props_a[j] = _uniform(rng, 0.0, side)
        for j in range(batch):
            props_b[j] = _uniform(rng, 0.0, side)
        got = 0
        for j in range(batch):
            u = _uniform(rng, 0.0, 1.0)
            if u * side <= abs(props_a[j] - props_b[j]) and got < need:
                while flags[i] != want:
                    i += 1
                start[i, axis] = props_a[j]
                dest[i, axis] = props_b[j]
                i += 1
                got += 1
        filled += got


def _palm_replica(pos, dest, target, second, n, side, rng, props_a, props_b):
    """One replica's ``n`` stationary states (``pos`` ... ``second`` are
    its rows), drawn from ``rng`` in ``PalmStationarySampler.sample``'s
    order.  ``pos`` holds the trip starts and ``second`` the axis coins,
    then the path coins, until each agent's last step overwrites them."""
    k = 0
    for i in range(n):
        coin = _uniform(rng, 0.0, 1.0) < 0.5
        second[i] = coin
        k += coin
    # Axis coin set: the x pair is length-biased and the y pair uniform.
    _biased_pairs(rng, k, side, second, True, pos, dest, 0, props_a, props_b)
    for i in range(n):
        if second[i]:
            pos[i, 1] = _uniform(rng, 0.0, side)
    for i in range(n):
        if second[i]:
            dest[i, 1] = _uniform(rng, 0.0, side)
    _biased_pairs(rng, n - k, side, second, False, pos, dest, 1, props_a, props_b)
    for i in range(n):
        if not second[i]:
            pos[i, 0] = _uniform(rng, 0.0, side)
    for i in range(n):
        if not second[i]:
            dest[i, 0] = _uniform(rng, 0.0, side)
    # Path coins: True takes the horizontal leg first.
    for i in range(n):
        second[i] = rng.random(dtype=np.float32) >= 0.5
    for i in range(n):
        sx = float(pos[i, 0])
        sy = float(pos[i, 1])
        ex = float(dest[i, 0])
        ey = float(dest[i, 1])
        travelled = _uniform(rng, 0.0, 1.0) * (abs(ex - sx) + abs(ey - sy))
        total = abs(sx - ex) + abs(sy - ey)
        t = _clip(travelled, 0.0, total)
        if second[i]:
            cx = ex
            cy = sy
            first = abs(ex - sx)
        else:
            cx = sx
            cy = ey
            first = abs(ey - sy)
        if t <= first:
            f = _clip(t / first if first > 0 else 0.0, 0.0, 1.0)
            pos[i, 0] = sx + f * (cx - sx)
            pos[i, 1] = sy + f * (cy - sy)
        else:
            rest = total - first
            f = _clip((t - first) / rest if rest > 0 else 0.0, 0.0, 1.0)
            pos[i, 0] = cx + f * (ex - cx)
            pos[i, 1] = cy + f * (ey - cy)
        second[i] = travelled > first
        if second[i]:
            target[i, 0] = ex
            target[i, 1] = ey
        else:
            target[i, 0] = cx
            target[i, 1] = cy


def palm_states_core(pos, dest, target, second, n, side, bitgens, units, unit_starts, threads, props_a, props_b, cap):
    """Every replica's stationary MRWP state, written into the flat
    ``(B*n, 2)`` ``pos`` / ``dest`` / ``target`` and ``(B*n,)``
    ``second`` arrays; replica ``b`` draws from ``bitgens[b]``.

    The replicas come in units (``units``, ``unit_starts``, as in
    :func:`advance_trips_core`), each a unit of work of ``_split``: unit
    ``u`` draws its replicas in ascending order, so a bit generator that
    several replicas share serves them in the order of one-replica
    samples.  ``props_a`` / ``props_b`` hold ``threads`` blocks of
    ``cap`` proposals (``max(32, int(3.2 * n))``, the largest rejection
    round), one per worker.
    """

    def unit(u, w):
        a = props_a[w * cap:]
        b = props_b[w * cap:]
        for t in range(unit_starts[u], unit_starts[u + 1]):
            r = units[t]
            rows = slice(r * n, (r + 1) * n)
            _palm_replica(pos[rows], dest[rows], target[rows], second[rows], n, side, bitgens[r], a, b)
        return 0

    _split(unit, unit_starts.shape[0] - 1, threads)


def _gossip_picks(src, dst, lo, hi, deg, fanout, rng, out, draws, prev):
    """One replica's gossip round over its cut rows ``lo:hi``.

    Its ``S`` senders (the runs of ``src``) draw ``fanout * S`` doubles
    into ``draws``, row-major: the values of ``rng.random((fanout, S))``.
    Sender ``c`` with degree ``d = deg[s] - 1`` then makes
    ``sample_indices``' picks from column ``c``: pick ``i < min(fanout,
    d)`` is ``floor(r * (d - i))``, clamped to ``d - i - 1``, shifted
    past each earlier pick it reaches (``prev`` keeps them ascending), and
    a pick inside the sender's run informs that target.
    """
    S = 0
    for t in range(lo, hi):
        S += t == lo or src[t] != src[t - 1]
    for t in range(fanout * S):
        draws[t] = rng.random()
    c = 0
    t = lo
    while t < hi:
        s = src[t]
        e = t + 1
        while e < hi and src[e] == s:
            e += 1
        d = deg[s] - 1
        i = 0
        while i < fanout and i < d:
            j = int(math.floor(draws[i * S + c] * float(d - i)))
            if j > d - i - 1:
                j = d - i - 1
            for row in range(i):
                j += j >= prev[row]
            p = i
            while p > 0 and prev[p - 1] > j:
                prev[p] = prev[p - 1]
                p -= 1
            prev[p] = j
            if j < e - t:
                out[dst[t + j]] = True
            i += 1
        c += 1
        t = e


def _push_pull_picks(src, dst, lo, hi, deg, pulls, n, rng, out, tally):
    """One replica's push-pull round over its cut rows ``lo:hi``.

    ``tally`` counts each target's cut degree.  Agents ascending, each
    with a cut degree draws one double, a sender (a run of ``src``) with
    ``d = deg[i] - 1`` and a puller with ``d = pulls[i] - 1``, and picks
    ``floor(r * d)`` clamped to ``max(d - 1, 0)``, as the numpy exchange
    does; a pick below the cut degree pushes to the picked target of the
    sender's run, or pulls into the puller.
    """
    for i in range(n):
        tally[i] = 0
    for t in range(lo, hi):
        tally[dst[t]] += 1
    t = lo
    for i in range(n):
        e = t
        while e < hi and src[e] == i:
            e += 1
        cut = e - t if e > t else tally[i]
        if cut == 0:
            continue
        d = (deg[i] if e > t else pulls[i]) - 1
        pick = int(math.floor(rng.random() * float(d)))
        top = d - 1 if d - 1 > 0 else 0
        if pick > top:
            pick = top
        if pick < cut:
            out[dst[t + pick] if e > t else i] = True
        t = e


def cut_exchange_core(rep, src, dst, degrees, pulls, fanout, bitgens, newly, draws, work):
    """The draws, picks and marks of one gossip (``pulls`` is ``None``) or
    push-pull round over the canonical cut ``(rep, src, dst)``.

    Replica by replica in ascending order (the runs of ``rep``), replica
    ``b`` draws from ``bitgens[b]`` (``_gossip_picks`` with ``draws`` and
    ``work`` as ``prev``, or ``_push_pull_picks`` with ``work`` as the
    tally) and writes its row of ``newly``.  A replica without cut rows
    draws nothing, as in ``_draw_uniform_blocks``, and replicas that share
    a generator draw from it in ascending order.
    """
    n = newly.shape[1]
    total = rep.shape[0]
    lo = 0
    while lo < total:
        b = rep[lo]
        hi = lo + 1
        while hi < total and rep[hi] == b:
            hi += 1
        if pulls is None:
            _gossip_picks(src, dst, lo, hi, degrees[b], fanout, bitgens[b], newly[b], draws, work)
        else:
            _push_pull_picks(src, dst, lo, hi, degrees[b], pulls[b], n, bitgens[b], newly[b], work)
        lo = hi


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


def zone_counts_core(pos, n, ell, m, cz_mask, informed, open_zones, left):
    """Per replica, the open zones that still hold an uninformed agent.

    ``pos`` is the flat ``(B*n, 2)`` position block, ``informed`` the flat
    bool mask, ``cz_mask`` the flat ``(m*m,)`` CZ cell mask and
    ``open_zones`` the ``(B,)`` zone bits still to watch.  The cell of a
    point is ``int(p / ell)`` clipped to ``[0, m-1]`` — the same division,
    truncating cast, and clip as ``CellGrid.cell_indices``.  ``left`` is
    the ``(B,)`` result: the bits of ``open_zones`` whose zone holds an
    uninformed agent of the row.
    """
    for b in range(open_zones.shape[0]):
        want = open_zones[b] & (CENTRAL_ZONE | SUBURB)
        seen = 0
        if want:
            for t in range(b * n, (b + 1) * n):
                if informed[t]:
                    continue
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
                seen |= CENTRAL_ZONE if cz_mask[ix * m + iy] else SUBURB
                if (seen & want) == want:
                    break
        left[b] = seen & want
