"""Vectorized union-find over batched per-replica edge sets.

The connectivity analyses (giant-component profiles, threshold estimation)
reduce to connected components of disk-graph snapshots — computed
thousands of times across radius grids and replica batches.  Instead of
unioning edge by edge in Python, this module runs the component-hooking +
pointer-doubling scheme of the congested-clique MSF/connectivity literature
(PAPERS.md), vectorized over a ``(B, n)`` label tensor:

* **min-hooking** — every edge whose endpoints carry different labels hooks
  the larger label onto the smallest label seen across its component's
  incident edges (``np.minimum.at``), so label values only ever decrease;
* **pointer doubling** — ``parent = parent[parent]`` to a fixpoint
  compresses the hook chains, restoring the fully-compressed invariant in
  ``O(log n)`` gathers.

Labels are **canonical**: after every :meth:`BatchUnionFind.add_edges` call
each vertex's label is the minimum vertex id of its component, independent
of edge order or batching.  That determinism is what makes incremental
radius sweeps possible — replaying a length-sorted edge list prefix by
prefix yields byte-identical component structure to rebuilding from
scratch at every radius.

All replicas live in one flat ``(B * n,)`` array with replica ``b``
occupying the id range ``[b * n, (b + 1) * n)``; edges never cross replica
ranges, so one vectorized pass advances every replica at once.

The same machinery powers a batched Borůvka minimum-spanning-tree
*bottleneck* kernel (:func:`batch_mst_bottleneck`): the exact connectivity
threshold of a snapshot is the largest MST edge, and Borůvka rounds are
exactly "each component hooks along its minimum outgoing edge" — the
no-scipy fallback for :func:`scipy.sparse.csgraph.minimum_spanning_tree`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_kernel

__all__ = ["BatchUnionFind", "batch_mst_bottleneck"]


class BatchUnionFind:
    """Union-find over ``B`` independent replicas of ``n`` vertices each.

    Maintains the invariant that the flat parent array is *fully
    compressed* (``parent[parent] == parent``) and *min-rooted*
    (``parent[x] <= x``) between calls, so :meth:`labels` is a free read
    and successive :meth:`add_edges` calls ingest edges incrementally.

    Args:
        batch_size: number of independent replicas ``B``.
        n: vertices per replica.
    """

    def __init__(self, batch_size: int, n: int):
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self.batch_size = int(batch_size)
        self.n = int(n)
        self._parent = np.arange(self.batch_size * self.n, dtype=np.intp)

    # ------------------------------------------------------------------
    # Core rounds
    # ------------------------------------------------------------------
    def _shortcut(self) -> None:
        """Pointer-double the flat parent array to a fixpoint."""
        parent = self._parent
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        self._parent = parent

    def _union_flat(self, u: np.ndarray, v: np.ndarray) -> None:
        """Union flat-id endpoint pairs by min-hooking + shortcutting."""
        kernel = get_kernel("union_fixpoint")
        if kernel is not None and kernel(self._parent, u, v) is not None:
            # Compiled tier: sequential union-by-min + a final compression
            # pass — same canonical min-rooted fixpoint as the vectorized
            # rounds below (labels are the component minima either way).
            return
        parent = self._parent
        while True:
            lu = parent[u]
            lv = parent[v]
            live = lu != lv
            if not live.any():
                return
            if not live.all():
                u = u[live]
                v = v[live]
                lu = lu[live]
                lv = lv[live]
            lo = np.minimum(lu, lv)
            hi = np.maximum(lu, lv)
            # Hook the larger root onto the smallest label offered across
            # all its incident edges this round; ties across edges resolve
            # to the minimum, so the result is edge-order independent.
            np.minimum.at(parent, hi, lo)
            self._shortcut()
            parent = self._parent

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_edges(self, u, v, replica=None) -> None:
        """Union vertex pairs ``(u[k], v[k])``, per replica.

        Args:
            u, v: integer arrays of equal length with values in ``[0, n)``.
            replica: per-edge replica indices in ``[0, B)``; ``None``
                applies every edge to *all* replicas (the common case of a
                shared edge list).
        """
        u = np.asarray(u, dtype=np.intp).ravel()
        v = np.asarray(v, dtype=np.intp).ravel()
        if u.shape != v.shape:
            raise ValueError(f"u and v must have equal shapes, got {u.shape} vs {v.shape}")
        if u.size == 0:
            return
        if u.size and (
            u.min() < 0 or u.max() >= self.n or v.min() < 0 or v.max() >= self.n
        ):
            raise ValueError(f"vertex ids must be in [0, {self.n})")
        if replica is None:
            offsets = np.arange(self.batch_size, dtype=np.intp)[:, None] * self.n
            fu = (u[None, :] + offsets).ravel()
            fv = (v[None, :] + offsets).ravel()
        else:
            replica = np.asarray(replica, dtype=np.intp).ravel()
            if replica.shape != u.shape:
                raise ValueError(
                    f"replica must match the edge arrays, got {replica.shape} vs {u.shape}"
                )
            if replica.size and (replica.min() < 0 or replica.max() >= self.batch_size):
                raise ValueError(f"replica ids must be in [0, {self.batch_size})")
            fu = replica * self.n + u
            fv = replica * self.n + v
        self._union_flat(fu, fv)

    # ------------------------------------------------------------------
    # Queries (all reads of the compressed invariant — no find() walks)
    # ------------------------------------------------------------------
    def labels(self) -> np.ndarray:
        """``(B, n)`` canonical labels: the min vertex id of each component."""
        labels = self._parent.reshape(self.batch_size, self.n).copy()
        if self.n:
            labels -= np.arange(self.batch_size, dtype=np.intp)[:, None] * self.n
        return labels

    def dense_labels(self) -> np.ndarray:
        """``(B, n)`` labels renumbered ``0..k-1`` per replica.

        Min-vertex canonical labels appear in increasing order along each
        replica's vertex scan, so dense renumbering by label rank equals
        renumbering by first occurrence.
        """
        if self.n == 0:
            return np.empty((self.batch_size, 0), dtype=np.intp)
        root = self._root_mask()
        rank = np.cumsum(root, axis=1) - 1
        labels = self._parent.reshape(self.batch_size, self.n)
        local = labels - np.arange(self.batch_size, dtype=np.intp)[:, None] * self.n
        return np.take_along_axis(rank, local, axis=1)

    def _root_mask(self) -> np.ndarray:
        """``(B, n)`` bool — True where the vertex is its component's root."""
        flat = self._parent == np.arange(self._parent.size, dtype=np.intp)
        return flat.reshape(self.batch_size, self.n)

    def n_components(self) -> np.ndarray:
        """``(B,)`` component counts."""
        return np.count_nonzero(self._root_mask(), axis=1)

    def connected_mask(self) -> np.ndarray:
        """``(B,)`` bool — replicas whose graph is connected (``<= 1`` comp)."""
        return self.n_components() <= 1

    def component_sizes_at_root(self) -> np.ndarray:
        """``(B, n)`` sizes scattered at each component's root (0 elsewhere)."""
        sizes = np.zeros(self._parent.size, dtype=np.intp)
        np.add.at(sizes, self._parent, 1)
        return sizes.reshape(self.batch_size, self.n)

    def giant_fraction(self) -> np.ndarray:
        """``(B,)`` fraction of vertices in each replica's largest component."""
        if self.n == 0:
            return np.zeros(self.batch_size)
        return self.component_sizes_at_root().max(axis=1) / self.n


# ----------------------------------------------------------------------
# MST bottleneck (exact connectivity threshold)
# ----------------------------------------------------------------------

_HAVE_SCIPY_MST = None


def _scipy_mst():
    """The scipy MST routine, or None (probed once per process)."""
    global _HAVE_SCIPY_MST
    if _HAVE_SCIPY_MST is None:
        try:
            from scipy.sparse import coo_matrix
            from scipy.sparse.csgraph import minimum_spanning_tree

            _HAVE_SCIPY_MST = (coo_matrix, minimum_spanning_tree)
        except ImportError:  # pragma: no cover - depends on environment
            _HAVE_SCIPY_MST = False
    return _HAVE_SCIPY_MST or None


def batch_mst_bottleneck(batch_size: int, n: int, replica, u, v, w) -> np.ndarray:
    """Largest MST edge weight per replica, by vectorized Borůvka rounds.

    Every round, each component selects its minimum-weight incident
    cross-component edge (ties broken by input position, which makes the
    effective weights distinct and the selection cycle-free) and the
    selected edges are merged with one :class:`BatchUnionFind` pass.  The
    maximum selected weight per replica is the MST *bottleneck* — for
    disk graphs with distance weights, the exact connectivity threshold.

    When scipy is importable the Borůvka loop is bypassed entirely: the
    flat ids lay every replica on one block-diagonal sparse matrix, and a
    single :func:`~scipy.sparse.csgraph.minimum_spanning_tree` call
    returns the spanning *forest* — per-replica MSTs, reduced to per-replica
    bottlenecks with one scatter-max.  Edges must be unique per replica
    (the sparse constructor sums duplicate entries); neighbor-engine pair
    enumerations satisfy this by construction.

    Args:
        batch_size: number of replicas ``B``.
        n: vertices per replica.
        replica, u, v: per-edge replica / endpoint arrays.
        w: per-edge weights (non-negative).

    Returns:
        ``(B,)`` float bottlenecks; ``inf`` where the replica's edge list
        does not connect its graph, ``0`` for ``n <= 1``.
    """
    best = np.zeros(batch_size, dtype=np.float64)
    if n <= 1:
        return best
    w = np.asarray(w, dtype=np.float64).ravel()
    replica = np.asarray(replica, dtype=np.intp).ravel()
    fu = replica * n + np.asarray(u, dtype=np.intp).ravel()
    fv = replica * n + np.asarray(v, dtype=np.intp).ravel()
    mst = _scipy_mst()
    if mst is not None:
        coo_matrix, minimum_spanning_tree = mst
        total = batch_size * n
        # Shift weights by +1 so zero-weight edges (coincident points)
        # survive the sparse representation, which cannot hold explicit
        # zeros; the MST is invariant under the monotone shift.
        matrix = coo_matrix((w + 1.0, (fu, fv)), shape=(total, total)).tocsr()
        tree = minimum_spanning_tree(matrix).tocoo()
        tree_replica = tree.row // n
        np.maximum.at(best, tree_replica, tree.data)
        best = np.maximum(best - 1.0, 0.0)
        best[np.bincount(tree_replica, minlength=batch_size) < n - 1] = np.inf
        return best
    uf = BatchUnionFind(batch_size, n)
    # Ascending stable sort: position in this list is the (weight, input
    # index) lexicographic rank — the distinct effective weight.
    order = np.argsort(w, kind="stable")
    fu, fv, w = fu[order], fv[order], w[order]
    while fu.size:
        parent = uf._parent
        lu = parent[fu]
        lv = parent[fv]
        cross = lu != lv
        # Merged-away edges never come back: prune them for good.
        fu, fv, w, lu, lv = fu[cross], fv[cross], w[cross], lu[cross], lv[cross]
        if fu.size == 0:
            break
        m = fu.size
        comp = np.concatenate([lu, lv])
        pos = np.concatenate([np.arange(m), np.arange(m)])
        sel = np.lexsort((pos, comp))
        comp_sorted = comp[sel]
        first = np.empty(comp_sorted.size, dtype=bool)
        first[0] = True
        first[1:] = comp_sorted[1:] != comp_sorted[:-1]
        chosen = np.unique(pos[sel[first]])
        np.maximum.at(best, fu[chosen] // n, w[chosen])
        uf._union_flat(fu[chosen], fv[chosen])
    best[uf.n_components() > 1] = np.inf
    return best
