"""Symmetric disk graphs — the snapshot graphs ``G_t`` of the paper.

Two agents are adjacent iff their Euclidean distance is at most the
transmission radius ``R``.  The class wraps a point set + radius, builds the
edge list through a neighbor engine, and exposes the adjacency and component
structure needed by the connectivity analyses.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.neighbors import NeighborEngine, make_engine
from repro.geometry.points import as_points
from repro.network.batch_union_find import BatchUnionFind

__all__ = ["DiskGraph"]


class DiskGraph:
    """Disk graph over a snapshot of agent positions.

    Args:
        positions: ``(n, 2)`` agent positions.
        radius: transmission radius ``R``.
        side: side length of the region (defaults to the positions' extent;
            pass the true ``L`` when available).
        engine: optional pre-built :class:`NeighborEngine`; by default the
            best available engine is used.
    """

    def __init__(self, positions, radius: float, side: float = None, engine: NeighborEngine = None):
        self.positions = as_points(positions)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        self.radius = float(radius)
        if side is None:
            side = float(max(1e-9, self.positions.max())) if self.positions.size else 1.0
        self.side = float(side)
        self._engine = engine if engine is not None else make_engine("auto", self.side)
        self._edges: np.ndarray = None
        self._labels: np.ndarray = None

    @property
    def n(self) -> int:
        """Number of vertices (agents)."""
        return int(self.positions.shape[0])

    @property
    def edges(self) -> np.ndarray:
        """Edge list of shape ``(m, 2)`` with ``i < j`` (computed lazily)."""
        if self._edges is None:
            self._edges = self._engine.pairs_within(self.positions, self.radius)
        return self._edges

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        """Vertex degrees."""
        deg = np.zeros(self.n, dtype=np.intp)
        edges = self.edges
        if edges.size:
            np.add.at(deg, edges[:, 0], 1)
            np.add.at(deg, edges[:, 1], 1)
        return deg

    def component_labels(self) -> np.ndarray:
        """Connected-component label per vertex (cached).

        Labels are dense ``0..k-1`` in first-occurrence order along the
        vertex scan (vertex 0 is in component 0), independent of edge order.
        """
        if self._labels is None:
            uf = BatchUnionFind(1, self.n)
            uf.add_edges(self.edges[:, 0], self.edges[:, 1])
            self._labels = uf.dense_labels()[0]
        return self._labels

    def n_components(self) -> int:
        if self.n == 0:
            return 0
        return int(self.component_labels().max()) + 1

    def is_connected(self) -> bool:
        """Whether the snapshot graph is connected (single component)."""
        return self.n_components() <= 1

    def component_sizes(self) -> np.ndarray:
        """Sizes of all components, descending."""
        labels = self.component_labels()
        sizes = np.bincount(labels)
        return np.sort(sizes)[::-1]

    def giant_component_fraction(self) -> float:
        """Fraction of vertices in the largest component."""
        if self.n == 0:
            return 0.0
        return float(self.component_sizes()[0]) / self.n

    def isolated_mask(self) -> np.ndarray:
        """Mask of degree-0 vertices."""
        return self.degrees() == 0

    def to_networkx(self):
        """Export as a ``networkx.Graph`` (requires networkx; used in tests)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        graph.add_edges_from(map(tuple, self.edges.tolist()))
        return graph
