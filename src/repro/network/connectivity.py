"""Connectivity analysis of MANET snapshots.

The paper's motivation hinges on a connectivity gap: under uniform-like
stationary distributions the connectivity threshold of the disk graph is
``Theta(sqrt(log n))`` (for ``L = sqrt(n)``; Gupta-Kumar / Penrose, refs
[18, 27]), whereas under MRWP the corner Suburb is so sparse that the
threshold is *exponentially* higher — "some root of n" (ref [13]).  The
flooding theorem operates far below that threshold, which is what makes it
surprising.

This module provides the empirical machinery, built on the vectorized
union-find core of :mod:`repro.network.batch_union_find`.  Both analyses
take a ``(B, n, 2)`` stack of snapshots (one snapshot is
``positions[None]``) and answer every replica at once:

* **incremental radius sweeps** — :func:`batch_connectivity_profile`
  enumerates the neighbor pairs *once* at the largest probe radius, in one
  tiled enumeration over all replicas, buckets the edges by the first
  probe radius that admits them, and replays unions prefix-by-prefix
  across the radius grid instead of rebuilding a disk graph per probe.
  Canonical min-hooking labels make the replay byte-identical to
  per-radius rebuilds.
* **exact thresholds** — the critical radius of a snapshot is the largest
  edge of its minimum spanning tree (the MST *bottleneck*);
  :func:`batch_connectivity_threshold` computes it directly (scipy's
  ``minimum_spanning_tree`` when importable, the vectorized Borůvka
  fallback otherwise).
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.neighbors import BatchNeighborQuery
from repro.network.batch_union_find import BatchUnionFind, batch_mst_bottleneck

__all__ = [
    "uniform_connectivity_threshold",
    "batch_connectivity_threshold",
    "batch_connectivity_profile",
]


def uniform_connectivity_threshold(n: int, side: float) -> float:
    """Gupta-Kumar threshold ``L * sqrt(log n / (pi n))`` for uniform points.

    The radius at which a disk graph over ``n`` *uniform* points on an
    ``L x L`` square becomes connected w.h.p.  With ``L = sqrt(n)`` this is
    ``Theta(sqrt(log n))`` — the benchmark the MRWP threshold is compared
    against in Section 1.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    return side * math.sqrt(math.log(n) / (math.pi * n))


# ----------------------------------------------------------------------
# Radius sweeps
# ----------------------------------------------------------------------

def _batch_edge_lengths_sq(positions, rep, i, j) -> np.ndarray:
    flat = positions.reshape(-1, 2)
    n = positions.shape[1]
    diff = flat[rep * n + i] - flat[rep * n + j]
    # einsum == sum(diff * diff, axis=1) bit-for-bit on 2-vectors (one
    # product per axis, one addition), without the reduction temporaries.
    return np.einsum("ij,ij->i", diff, diff)


def _incremental_profile(
    batch_size: int, n: int, rep: np.ndarray, i: np.ndarray, j: np.ndarray,
    d2: np.ndarray, radii: np.ndarray,
) -> dict:
    """Replay length-sorted edges across the radius grid.

    All edges must have been enumerated at (or above) ``radii.max()``.
    Returns ``(B, K)`` arrays in the *given* radius order.
    """
    n_radii = radii.size
    giant = np.zeros((batch_size, n_radii))
    ncomp = np.zeros((batch_size, n_radii), dtype=np.intp)
    isolated = np.zeros((batch_size, n_radii))
    connected = np.zeros((batch_size, n_radii), dtype=bool)
    if n_radii == 0:
        return {
            "giant_fraction": giant, "n_components": ncomp,
            "isolated_fraction": isolated, "connected": connected,
        }
    if n == 0:
        connected[:] = True  # 0 components
        return {
            "giant_fraction": giant, "n_components": ncomp,
            "isolated_fraction": isolated, "connected": connected,
        }
    # Per-vertex minimum incident squared length: a vertex is isolated at
    # radius r iff its nearest neighbor is farther than r — no degree
    # recount per probe.
    min_inc = np.full(batch_size * n, np.inf)
    if d2.size:
        np.minimum.at(min_inc, rep * n + i, d2)
        np.minimum.at(min_inc, rep * n + j, d2)
    min_inc = min_inc.reshape(batch_size, n)

    # Bucketize each edge by the first (ascending) probe radius that
    # includes it: a 16-bit radix argsort over K+1 buckets replaces a full
    # float argsort of the squared lengths, and the prefix boundaries come
    # from one searchsorted per probe.  Union order within a bucket is
    # irrelevant — canonical min-hooking labels are order-independent.
    r_order = np.argsort(radii, kind="stable")
    thresholds = np.where(radii[r_order] >= 0, radii[r_order] * radii[r_order], -np.inf)
    bucket = np.searchsorted(thresholds, d2, side="left").astype(
        np.uint16 if n_radii < 2**16 - 1 else np.intp
    )
    order = np.argsort(bucket, kind="stable")
    bucket = bucket[order]
    rep, i, j = rep[order], i[order], j[order]
    uf = BatchUnionFind(batch_size, n)
    start = 0
    for pos, k in enumerate(r_order):
        stop = int(np.searchsorted(bucket, pos, side="right"))
        if stop > start:
            uf.add_edges(i[start:stop], j[start:stop], replica=rep[start:stop])
            start = stop
        ncomp[:, k] = uf.n_components()
        giant[:, k] = uf.giant_fraction()
        isolated[:, k] = np.count_nonzero(min_inc > thresholds[pos], axis=1) / max(1, n)
        connected[:, k] = ncomp[:, k] <= 1
    return {
        "giant_fraction": giant, "n_components": ncomp,
        "isolated_fraction": isolated, "connected": connected,
    }


def batch_connectivity_profile(positions: np.ndarray, side: float, radii) -> dict:
    """Connectivity profiles of a ``(B, n, 2)`` snapshot stack at once.

    One tiled neighbor enumeration at the largest probe radius feeds a
    single flat incremental union-find replay over every replica — one
    edge enumeration and one union-find pass regardless of how many radii
    are probed, byte-identical to rebuilding a disk graph per radius.
    Negative radii admit no edges; radius 0 is inclusive (``d2 <= r*r``),
    so coincident points connect at ``r >= 0``.

    Returns:
        dict keyed by ``radius`` (the ``(K,)`` probe radii, in the given
        order) and the ``(B, K)`` arrays ``giant_fraction``,
        ``n_components``, ``isolated_fraction`` and ``connected`` — the
        series plotted by the ``connectivity`` experiment.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3 or positions.shape[2] != 2:
        raise ValueError(f"positions must have shape (B, n, 2), got {positions.shape}")
    radii = np.asarray(list(radii), dtype=np.float64)
    batch_size, n = positions.shape[0], positions.shape[1]
    if n == 0 or radii.size == 0 or radii.max() < 0:
        empty = np.empty(0, dtype=np.intp)
        profile = _incremental_profile(batch_size, n, empty, empty, empty, np.empty(0), radii)
    else:
        # Pair enumeration needs a positive radius; the smallest one admits
        # exactly the coincident pairs that radius 0 does.
        rmax = max(float(radii.max()), math.nextafter(0.0, 1.0))
        query = BatchNeighborQuery(side, batch_size)
        rep, i, j = query.bind(positions).pairs_within(rmax)
        d2 = _batch_edge_lengths_sq(positions, rep, i, j)
        profile = _incremental_profile(batch_size, n, rep, i, j, d2, radii)
    return {"radius": radii, **profile}


# ----------------------------------------------------------------------
# Thresholds
# ----------------------------------------------------------------------

def _sqrt_radius(d2: float) -> float:
    """Smallest float radius whose square covers ``d2`` (so the bottleneck
    edge is included at the returned radius)."""
    r = math.sqrt(d2)
    while r * r < d2:  # sqrt rounding may undershoot by an ulp
        r = math.nextafter(r, math.inf)
    return r


def _bracket_radius(n: int, side: float) -> float:
    """Initial upward-bracketing radius (the uniform-case scale)."""
    return max(uniform_connectivity_threshold(n, side), side * 1e-3)


def batch_connectivity_threshold(positions: np.ndarray, side: float) -> np.ndarray:
    """Exact connectivity thresholds of a ``(B, n, 2)`` snapshot stack.

    The threshold is the largest edge of the snapshot's minimum spanning
    tree (connectivity is monotone in ``R``, and the MST bottleneck is the
    minimax connecting radius).  The bracket ascends by factors of 1.5
    from the uniform-case scale (starting at ``side * sqrt2`` would
    enumerate O(n^2) edges), and replicas *retire* as they connect: each
    iteration re-enumerates only the still-disconnected replicas, and a
    replica's edges are captured at the first bracketing radius that
    connects it (the MST of a connected subgraph at radius ``hi`` is the
    MST of the full disk graph, since every MST edge is at most the
    bottleneck, which is at most ``hi``).  One batched MST pass over the
    union of those per-replica edge sets then yields every bottleneck.

    Returns:
        ``(B,)`` critical radii: the smallest float radius at which each
        snapshot *is* connected (``0`` for ``n <= 1``).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3 or positions.shape[2] != 2:
        raise ValueError(f"positions must have shape (B, n, 2), got {positions.shape}")
    batch_size, n = positions.shape[0], positions.shape[1]
    if n <= 1:
        return np.zeros(batch_size)
    cap = side * math.sqrt(2.0)
    pending = np.arange(batch_size, dtype=np.intp)
    parts = []
    hi = min(_bracket_radius(n, side), cap)
    while pending.size:
        sub = np.ascontiguousarray(positions[pending])
        query = BatchNeighborQuery(side, pending.size)
        rep, i, j = query.bind(sub).pairs_within(hi)
        uf = BatchUnionFind(pending.size, n)
        uf.add_edges(i, j, replica=rep)
        conn = uf.connected_mask()
        if hi >= cap:
            # Unreachable for in-region points; defensively capture the
            # remaining replicas (their MST stays a forest -> inf -> cap).
            conn[:] = True
        if conn.any():
            sel = conn[rep]
            rep_sel, i_sel, j_sel = rep[sel], i[sel], j[sel]
            parts.append(
                (pending[rep_sel], i_sel, j_sel, _batch_edge_lengths_sq(sub, rep_sel, i_sel, j_sel))
            )
            pending = pending[~conn]
        hi = min(hi * 1.5, cap)
    rep_all = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, dtype=np.intp)
    i_all = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, dtype=np.intp)
    j_all = np.concatenate([p[2] for p in parts]) if parts else np.empty(0, dtype=np.intp)
    d2_all = np.concatenate([p[3] for p in parts]) if parts else np.empty(0)
    bottleneck = batch_mst_bottleneck(batch_size, n, rep_all, i_all, j_all, d2_all)
    out = np.full(batch_size, cap)
    finite = np.isfinite(bottleneck)
    out[finite] = [_sqrt_radius(float(b)) for b in bottleneck[finite]]
    return out
