"""Tests of disk-graph snapshots, cross-validated against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.geometry.neighbors import (
    BruteForceNeighborEngine,
    available_backends,
    make_engine,
)
from repro.network.disk_graph import DiskGraph

SIDE = 10.0


def random_graph(rng, n=60, radius=1.5):
    positions = rng.uniform(0, SIDE, (n, 2))
    return DiskGraph(positions, radius, side=SIDE), positions


class TestEdges:
    def test_edges_match_brute_force(self, rng):
        graph, positions = random_graph(rng)
        dists = np.sqrt(((positions[:, None] - positions[None, :]) ** 2).sum(-1))
        expected = {
            (i, j)
            for i in range(graph.n)
            for j in range(i + 1, graph.n)
            if dists[i, j] <= graph.radius
        }
        got = {tuple(sorted(e)) for e in graph.edges.tolist()}
        assert got == expected

    def test_zero_radius(self, rng):
        graph, _ = random_graph(rng, radius=0.0)
        assert graph.n_edges == 0

    def test_negative_radius_rejected(self, rng):
        with pytest.raises(ValueError):
            DiskGraph(rng.uniform(0, 1, (5, 2)), -1.0, side=SIDE)

    def test_degrees_sum_twice_edges(self, rng):
        graph, _ = random_graph(rng)
        assert graph.degrees().sum() == 2 * graph.n_edges


class TestComponents:
    def test_against_networkx(self, rng):
        graph, _ = random_graph(rng, n=100, radius=1.0)
        nxg = graph.to_networkx()
        assert graph.n_components() == nx.number_connected_components(nxg)
        assert graph.is_connected() == nx.is_connected(nxg)
        largest = max(len(c) for c in nx.connected_components(nxg))
        assert graph.giant_component_fraction() == pytest.approx(largest / graph.n)

    def test_component_sizes_descending(self, rng):
        graph, _ = random_graph(rng, radius=0.8)
        sizes = graph.component_sizes()
        assert np.all(np.diff(sizes) <= 0)
        assert sizes.sum() == graph.n

    def test_full_radius_connected(self, rng):
        graph, _ = random_graph(rng, radius=2 * SIDE)
        assert graph.is_connected()
        assert graph.giant_component_fraction() == 1.0

    def test_isolated_mask(self):
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [9.0, 9.0]])
        graph = DiskGraph(positions, 1.0, side=SIDE)
        assert graph.isolated_mask().tolist() == [False, False, True]

    def test_empty_and_singleton(self):
        empty = DiskGraph(np.empty((0, 2)), 1.0, side=SIDE)
        assert empty.n_components() == 0
        single = DiskGraph(np.array([[1.0, 1.0]]), 1.0, side=SIDE)
        assert single.is_connected()
        assert single.giant_component_fraction() == 1.0


class TestAcrossEngines:
    @pytest.mark.parametrize("backend", available_backends())
    def test_drifting_snapshots_match_brute_force(self, backend, rng):
        """Frame-by-frame graphs of a drifting point set, each built by one
        reused engine: edges, degrees and components against a brute-force
        edge list and networkx."""
        engine = make_engine(backend, SIDE)
        brute = BruteForceNeighborEngine(SIDE)
        points = rng.uniform(0, SIDE, (120, 2))
        for _ in range(5):
            points = np.clip(points + rng.uniform(-0.4, 0.4, points.shape), 0, SIDE)
            graph = DiskGraph(points, 1.3, side=SIDE, engine=engine)
            edges = brute.pairs_within(points, 1.3)
            assert {tuple(e) for e in graph.edges.tolist()} == {tuple(e) for e in edges.tolist()}
            assert np.array_equal(graph.degrees(), np.bincount(edges.ravel(), minlength=graph.n))
            nxg = nx.Graph(edges.tolist())
            nxg.add_nodes_from(range(graph.n))
            components = list(nx.connected_components(nxg))
            assert graph.n_components() == len(components)
            assert graph.giant_component_fraction() == max(map(len, components)) / graph.n
