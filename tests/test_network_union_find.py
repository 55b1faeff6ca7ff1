"""Tests of the union-find structure and disk-graph component labels."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.batch_union_find import BatchUnionFind
from repro.network.disk_graph import DiskGraph


def _edges(pairs):
    """``(u, v)`` endpoint arrays of a list of vertex pairs."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


class TestUnionFind:
    def test_initial_components(self):
        uf = BatchUnionFind(2, 5)
        assert uf.n_components().tolist() == [5, 5]
        assert np.array_equal(uf.labels(), np.tile(np.arange(5), (2, 1)))

    def test_union_merges(self):
        uf = BatchUnionFind(1, 4)
        uf.add_edges(*_edges([[0, 1]]))
        labels = uf.labels()[0]
        assert labels[0] == labels[1]
        assert labels[0] != labels[2]
        assert uf.n_components().tolist() == [3]

    def test_union_idempotent(self):
        uf = BatchUnionFind(1, 3)
        uf.add_edges(*_edges([[0, 1]]))
        before = uf.labels()
        uf.add_edges(*_edges([[1, 0]]))
        assert np.array_equal(uf.labels(), before)
        assert uf.n_components().tolist() == [2]

    def test_component_size(self):
        uf = BatchUnionFind(1, 6)
        uf.add_edges(*_edges([[0, 1], [1, 2]]))
        labels = uf.labels()[0]
        sizes = uf.component_sizes_at_root()[0]
        assert sizes[labels[2]] == 3
        assert sizes[labels[5]] == 1

    def test_add_edges(self):
        uf = BatchUnionFind(1, 5)
        uf.add_edges(*_edges([[0, 1], [2, 3], [3, 4]]))
        assert uf.n_components().tolist() == [2]

    def test_add_edges_validates_shape(self):
        uf = BatchUnionFind(2, 5)
        with pytest.raises(ValueError):
            uf.add_edges([0, 1, 2], [1, 2])
        with pytest.raises(ValueError):
            uf.add_edges([0], [1], replica=[0, 1])

    def test_add_empty_edges(self):
        # Empty edge arrays are a no-op: every vertex stays its own root.
        uf = BatchUnionFind(2, 3)
        uf.add_edges(*_edges([]))
        uf.add_edges([], [], replica=[])
        assert uf.n_components().tolist() == [3, 3]
        assert np.array_equal(uf.labels(), np.tile(np.arange(3), (2, 1)))

    def test_labels_consistency(self):
        uf = BatchUnionFind(1, 6)
        uf.add_edges(*_edges([[0, 1], [1, 2], [4, 5]]))
        labels = uf.labels()[0]
        assert labels[0] == labels[1] == labels[2]
        assert labels[4] == labels[5]
        assert labels[3] not in (labels[0], labels[4])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            BatchUnionFind(1, -1)

    @given(
        n=st.integers(min_value=1, max_value=30),
        batch_size=st.integers(min_value=1, max_value=3),
        edges=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 29), st.integers(0, 29)), max_size=60
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_networkx(self, n, batch_size, edges):
        """Component structure agrees with networkx on random graphs."""
        edges = [(r % batch_size, a % n, b % n) for r, a, b in edges]
        uf = BatchUnionFind(batch_size, n)
        if edges:
            replica, u, v = map(np.array, zip(*edges))
            uf.add_edges(u, v, replica=replica)
        for b in range(batch_size):
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from((u, v) for r, u, v in edges if r == b)
            assert uf.n_components()[b] == nx.number_connected_components(graph)


class TestComponentsFromEdges:
    def test_labels_are_canonical(self):
        # Within radius 0.6 the only edges are (0, 4) and (1, 2).
        positions = np.array([[0.0, 0.0], [2.0, 0.0], [2.5, 0.0], [5.0, 0.0], [0.5, 0.0]])
        labels = DiskGraph(positions, 0.6, side=10.0).component_labels()
        assert labels[0] == labels[4]
        assert labels[1] == labels[2]
        assert len({labels[0], labels[1], labels[3]}) == 3
        # Labels are dense 0..k-1, numbered by first occurrence.
        assert labels.tolist() == [0, 1, 1, 2, 0]

    def test_no_edges(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        labels = DiskGraph(positions, 1.0, side=10.0).component_labels()
        assert sorted(labels.tolist()) == [0, 1, 2]
