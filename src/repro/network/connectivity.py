"""Connectivity analysis of MANET snapshots.

The paper's motivation hinges on a connectivity gap: under uniform-like
stationary distributions the connectivity threshold of the disk graph is
``Theta(sqrt(log n))`` (for ``L = sqrt(n)``; Gupta-Kumar / Penrose, refs
[18, 27]), whereas under MRWP the corner Suburb is so sparse that the
threshold is *exponentially* higher — "some root of n" (ref [13]).  The
flooding theorem operates far below that threshold, which is what makes it
surprising.

This module provides the empirical machinery, built on the vectorized
union-find core of :mod:`repro.network.batch_union_find`:

* **incremental radius sweeps** — :func:`connectivity_profile` enumerates
  the neighbor pairs *once* at the largest probe radius, sorts the edges
  by length, and replays unions prefix-by-prefix across the radius grid
  instead of rebuilding a disk graph per probe.  Canonical min-hooking
  labels make the replay byte-identical to per-radius rebuilds.
* **exact thresholds** — the critical radius of a snapshot is the largest
  edge of its minimum spanning tree (the MST *bottleneck*);
  :func:`estimate_connectivity_threshold` computes it directly (scipy's
  ``minimum_spanning_tree`` when importable, the vectorized Borůvka
  fallback otherwise), with the pre-existing bisection retained as
  ``method="bisect"`` for cross-validation.
* **batched variants** — :func:`batch_connectivity_profile` and
  :func:`batch_connectivity_threshold` run whole ``(B, n, 2)`` snapshot
  stacks through one tiled neighbor enumeration and one flat union-find.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.geometry.neighbors import BatchNeighborQuery
from repro.network.batch_union_find import (
    BatchUnionFind,
    batch_mst_bottleneck,
    mst_bottleneck,
)
from repro.network.disk_graph import DiskGraph

__all__ = [
    "uniform_connectivity_threshold",
    "estimate_connectivity_threshold",
    "batch_connectivity_threshold",
    "connectivity_profile",
    "batch_connectivity_profile",
    "zone_connectivity",
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
# Shared incremental machinery
# ----------------------------------------------------------------------

def _edge_lengths_sq(positions: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared edge lengths, with the engines' exact arithmetic
    (``sum(diff * diff)``) so radius comparisons agree bit-for-bit."""
    diff = positions[i] - positions[j]
    return np.sum(diff * diff, axis=1)


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
    """Replay length-sorted edges across the radius grid — the shared core
    of the scalar and batched profiles.

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
        r = float(radii[k])
        stop = int(np.searchsorted(bucket, pos, side="right"))
        if stop > start:
            uf.add_edges(i[start:stop], j[start:stop], replica=rep[start:stop])
            start = stop
        ncomp[:, k] = uf.n_components()
        giant[:, k] = uf.giant_fraction()
        isolated[:, k] = np.count_nonzero(min_inc > r * r, axis=1) / max(1, n)
        connected[:, k] = ncomp[:, k] <= 1
    return {
        "giant_fraction": giant, "n_components": ncomp,
        "isolated_fraction": isolated, "connected": connected,
    }


def connectivity_profile(positions: np.ndarray, side: float, radii) -> dict:
    """Connectivity statistics of one snapshot across a radius sweep.

    The neighbor pairs are enumerated once at the largest probe radius and
    unions are replayed incrementally across the (sorted) grid — one edge
    enumeration and one union-find pass regardless of how many radii are
    probed, byte-identical to rebuilding a disk graph per radius.

    Returns:
        dict of parallel arrays keyed by ``radius``, ``giant_fraction``,
        ``n_components``, ``isolated_fraction``, ``connected`` — the series
        plotted by the ``connectivity`` experiment.
    """
    positions = np.asarray(positions, dtype=np.float64)
    radii = np.asarray(list(radii), dtype=np.float64)
    n = positions.shape[0]
    if radii.size == 0 or n == 0:
        profile = _incremental_profile(
            1, n, *(np.empty(0, dtype=np.intp),) * 3, np.empty(0), radii
        )
    else:
        rmax = float(radii.max())
        graph = DiskGraph(positions, max(rmax, 0.0), side=side)
        edges = graph.edges
        i = edges[:, 0] if edges.size else np.empty(0, dtype=np.intp)
        j = edges[:, 1] if edges.size else np.empty(0, dtype=np.intp)
        d2 = _edge_lengths_sq(positions, i, j)
        profile = _incremental_profile(1, n, np.zeros(i.size, dtype=np.intp), i, j, d2, radii)
    return {"radius": radii, **{key: val[0] for key, val in profile.items()}}


def batch_connectivity_profile(
    positions: np.ndarray, side: float, radii, backend: str = "auto"
) -> dict:
    """Connectivity profiles of a ``(B, n, 2)`` snapshot stack at once.

    One tiled neighbor enumeration at the largest probe radius feeds a
    single flat incremental union-find replay over every replica; each
    replica's row equals its scalar :func:`connectivity_profile`.

    Returns:
        dict like :func:`connectivity_profile` with ``(B, K)`` value arrays
        (``radius`` stays ``(K,)``).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3 or positions.shape[2] != 2:
        raise ValueError(f"positions must have shape (B, n, 2), got {positions.shape}")
    radii = np.asarray(list(radii), dtype=np.float64)
    batch_size, n = positions.shape[0], positions.shape[1]
    rmax = float(radii.max()) if radii.size else 0.0
    if radii.size == 0 or n == 0 or rmax <= 0:
        empty = np.empty(0, dtype=np.intp)
        profile = _incremental_profile(batch_size, n, empty, empty, empty, np.empty(0), radii)
    else:
        query = BatchNeighborQuery(side, batch_size, backend=backend)
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


def _bracket_radius(n: int, side: float, tol: float) -> float:
    """Initial upward-bracketing radius (the uniform-case scale)."""
    try:
        return max(uniform_connectivity_threshold(n, side), tol)
    except ValueError:  # n < 2 is excluded by callers; defensive
        return side * 0.01


def estimate_connectivity_threshold(
    positions: np.ndarray,
    side: float,
    tol: Optional[float] = None,
    mask: Optional[np.ndarray] = None,
    method: str = "mst",
) -> float:
    """Smallest radius making the snapshot (or a masked sub-snapshot) connected.

    The exact threshold is the largest edge of the graph's minimum
    spanning tree (connectivity is monotone in ``R``, and the MST
    bottleneck is the minimax connecting radius).  The default method
    computes it directly: exponential bracketing upward from the
    uniform-case scale finds a radius at which the snapshot is connected
    (keeping the enumerated edge count near the threshold — starting at
    ``side * sqrt2`` would enumerate O(n^2) edges), then one MST pass over
    those edges yields the bottleneck.  ``method="bisect"`` retains the
    pre-existing bisection, which converges to the same value within
    ``tol``; the two are cross-checked in the parity tests.

    Args:
        positions: ``(n, 2)`` snapshot.
        side: region side length (bracketing is capped at ``side * sqrt2``).
        tol: absolute radius tolerance — the bisection's stopping width and
            the bracketing floor (default ``side * 1e-3``).
        mask: optional boolean mask restricting to a sub-population (e.g.
            only Central-Zone agents).
        method: ``"mst"`` (exact, default) or ``"bisect"``.

    Returns:
        the critical radius — a radius at which the graph *is* connected
        (exactly the bottleneck for ``"mst"``, an upper bisection endpoint
        within ``tol`` of it for ``"bisect"``).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if mask is not None:
        positions = positions[np.asarray(mask, dtype=bool)]
    n = positions.shape[0]
    if n <= 1:
        return 0.0
    if tol is None:
        tol = side * 1e-3
    if method not in ("mst", "bisect"):
        raise ValueError(f"method must be 'mst' or 'bisect', got {method!r}")

    cap = side * math.sqrt(2.0)
    if method == "bisect":
        def _connected(radius: float) -> bool:
            return DiskGraph(positions, radius, side=side).is_connected()

        lo = 0.0
        hi = _bracket_radius(n, side, tol)
        while hi < cap and not _connected(hi):
            lo = hi
            hi = min(hi * 1.5, cap)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _connected(mid):
                hi = mid
            else:
                lo = mid
        return hi

    hi = min(_bracket_radius(n, side, tol), cap)
    while True:
        graph = DiskGraph(positions, hi, side=side)
        if graph.is_connected():
            break
        if hi >= cap:
            # Unreachable for in-region points (the diagonal connects
            # everything); defensive for callers feeding exotic positions.
            return cap
        hi = min(hi * 1.5, cap)
    edges = graph.edges
    d2 = _edge_lengths_sq(positions, edges[:, 0], edges[:, 1])
    bottleneck = mst_bottleneck(n, edges[:, 0], edges[:, 1], d2)
    if not math.isfinite(bottleneck):  # pragma: no cover - graph is connected
        return hi
    return _sqrt_radius(bottleneck)


def batch_connectivity_threshold(
    positions: np.ndarray,
    side: float,
    tol: Optional[float] = None,
    backend: str = "auto",
) -> np.ndarray:
    """Exact connectivity thresholds of a ``(B, n, 2)`` snapshot stack.

    The bracket ascends exactly like the scalar loop, but replicas
    *retire* as they connect: each iteration re-enumerates only the
    still-disconnected replicas, and a replica's edges are captured at the
    first bracketing radius that connects it (the MST of a connected
    subgraph at radius ``hi`` is the MST of the full disk graph, since
    every MST edge is at most the bottleneck, which is at most ``hi``).
    One batched MST pass over the union of those per-replica edge sets
    then yields every bottleneck — each entry equals the scalar
    :func:`estimate_connectivity_threshold`, which enumerates the same
    per-snapshot edge set.

    Returns:
        ``(B,)`` critical radii.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3 or positions.shape[2] != 2:
        raise ValueError(f"positions must have shape (B, n, 2), got {positions.shape}")
    batch_size, n = positions.shape[0], positions.shape[1]
    if n <= 1:
        return np.zeros(batch_size)
    if tol is None:
        tol = side * 1e-3
    cap = side * math.sqrt(2.0)
    pending = np.arange(batch_size, dtype=np.intp)
    parts = []
    hi = min(_bracket_radius(n, side, tol), cap)
    while pending.size:
        sub = np.ascontiguousarray(positions[pending])
        query = BatchNeighborQuery(side, pending.size, backend=backend)
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


def zone_connectivity(positions: np.ndarray, side: float, radius: float, zone_mask: np.ndarray) -> dict:
    """Compare connectivity inside vs. outside a zone at a fixed radius.

    Args:
        zone_mask: True for agents inside the zone (e.g. the Central Zone).

    Returns:
        dict with ``zone_connected``, ``zone_giant_fraction``,
        ``outside_isolated_fraction``, ``full_connected`` — the quantities
        behind the paper's "connected center, disconnected suburb" picture.
    """
    positions = np.asarray(positions, dtype=np.float64)
    zone_mask = np.asarray(zone_mask, dtype=bool)
    full = DiskGraph(positions, radius, side=side)
    zone_positions = positions[zone_mask]
    outside_positions = positions[~zone_mask]
    result = {
        "full_connected": full.is_connected(),
        "full_giant_fraction": full.giant_component_fraction(),
    }
    if zone_positions.shape[0] > 0:
        zone_graph = DiskGraph(zone_positions, radius, side=side)
        result["zone_connected"] = zone_graph.is_connected()
        result["zone_giant_fraction"] = zone_graph.giant_component_fraction()
    else:
        result["zone_connected"] = True
        result["zone_giant_fraction"] = 0.0
    if outside_positions.shape[0] > 0:
        out_graph = DiskGraph(outside_positions, radius, side=side)
        # Same max(1, n) divide guard as connectivity_profile (the branch
        # guarantees n >= 1, but the convention is uniform on purpose).
        result["outside_isolated_fraction"] = float(
            np.count_nonzero(out_graph.isolated_mask())
        ) / max(1, out_graph.n)
        result["outside_giant_fraction"] = out_graph.giant_component_fraction()
    else:
        result["outside_isolated_fraction"] = 0.0
        result["outside_giant_fraction"] = 0.0
    return result
