"""Tests of the batched connectivity layer against independent oracles.

Union-find labels and component statistics are checked per replica
against networkx, MST bottlenecks against networkx's MST on each replica,
incremental radius sweeps against per-radius disk-graph rebuilds, and
exact thresholds against networkx's MST over the complete graph and
against disk-graph connectivity just at and just below the threshold.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.network.batch_union_find as buf
from repro.network.batch_union_find import BatchUnionFind, batch_mst_bottleneck
from repro.network.connectivity import (
    batch_connectivity_profile,
    batch_connectivity_threshold,
)
from repro.network.disk_graph import DiskGraph


def _random_replica_edges(rng, batch_size, n, m):
    """Random per-replica edge lists as (replica, u, v) arrays."""
    replica = rng.integers(0, batch_size, size=m)
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    return replica.astype(np.intp), u.astype(np.intp), v.astype(np.intp)


def _replica_graph(n, replica, u, v, b, w=None):
    """networkx graph of replica ``b``'s edges (weighted when ``w`` is given)."""
    mask = replica == b
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    if w is None:
        graph.add_edges_from(zip(u[mask].tolist(), v[mask].tolist()))
    else:
        graph.add_weighted_edges_from(zip(u[mask].tolist(), v[mask].tolist(), w[mask].tolist()))
    return graph


def _nx_bottleneck(graph):
    """Largest edge weight of networkx's MST (``inf`` if disconnected)."""
    if not nx.is_connected(graph):
        return math.inf
    return max(d["weight"] for _, _, d in nx.minimum_spanning_edges(graph, data=True))


def _mst_bottleneck(n, u, v, w):
    """``batch_mst_bottleneck`` of one edge-list graph."""
    return float(batch_mst_bottleneck(1, n, np.zeros(len(u), dtype=np.intp), u, v, w)[0])


class TestBatchUnionFind:
    @given(
        n=st.integers(min_value=1, max_value=25),
        batch_size=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_dense_labels_match_scalar(self, n, batch_size, seed):
        rng = np.random.default_rng(seed)
        replica, u, v = _random_replica_edges(rng, batch_size, n, rng.integers(0, 3 * n))
        uf = BatchUnionFind(batch_size, n)
        uf.add_edges(u, v, replica=replica)
        dense = uf.dense_labels()
        for b in range(batch_size):
            graph = _replica_graph(n, replica, u, v, b)
            # Dense labels number components by their smallest vertex.
            minima = sorted(min(c) for c in nx.connected_components(graph))
            expected = [minima.index(min(nx.node_connected_component(graph, x))) for x in range(n)]
            assert dense[b].tolist() == expected

    def test_labels_are_min_vertex_canonical(self):
        uf = BatchUnionFind(2, 6)
        uf.add_edges([5, 2], [3, 1], replica=[0, 0])
        uf.add_edges([0], [5], replica=[1])
        labels = uf.labels()
        assert labels[0].tolist() == [0, 1, 1, 3, 4, 3]
        assert labels[1].tolist() == [0, 1, 2, 3, 4, 0]

    def test_incremental_ingestion_equals_one_shot(self):
        rng = np.random.default_rng(7)
        replica, u, v = _random_replica_edges(rng, 3, 20, 60)
        whole = BatchUnionFind(3, 20)
        whole.add_edges(u, v, replica=replica)
        halves = BatchUnionFind(3, 20)
        halves.add_edges(u[:30], v[:30], replica=replica[:30])
        halves.add_edges(u[30:], v[30:], replica=replica[30:])
        assert np.array_equal(whole.labels(), halves.labels())

    def test_shared_edges_tile_to_all_replicas(self):
        uf = BatchUnionFind(3, 4)
        uf.add_edges([0], [3])
        assert np.array_equal(uf.labels(), np.tile([0, 1, 2, 0], (3, 1)))

    def test_component_stats_match_scalar(self):
        rng = np.random.default_rng(11)
        replica, u, v = _random_replica_edges(rng, 4, 15, 25)
        uf = BatchUnionFind(4, 15)
        uf.add_edges(u, v, replica=replica)
        for b in range(4):
            components = list(nx.connected_components(_replica_graph(15, replica, u, v, b)))
            assert uf.n_components()[b] == len(components)
            sizes = uf.component_sizes_at_root()[b]
            assert sorted(sizes[sizes > 0].tolist()) == sorted(map(len, components))
            assert uf.giant_fraction()[b] == max(map(len, components)) / 15
            assert uf.connected_mask()[b] == (len(components) == 1)

    def test_validation(self):
        uf = BatchUnionFind(2, 5)
        with pytest.raises(ValueError):
            uf.add_edges([0], [5])
        with pytest.raises(ValueError):
            uf.add_edges([0], [1], replica=[2])
        with pytest.raises(ValueError):
            uf.add_edges([0, 1], [1])
        with pytest.raises(ValueError):
            BatchUnionFind(0, 5)


class TestMSTBottleneck:
    def _geometric(self, rng, n, radius):
        positions = rng.uniform(0, 5.0, size=(n, 2))
        graph = DiskGraph(positions, radius, side=5.0)
        edges = graph.edges
        diff = positions[edges[:, 0]] - positions[edges[:, 1]]
        return graph, edges, np.sum(diff * diff, axis=1)

    @pytest.mark.parametrize("force_boruvka", [False, True])
    def test_scipy_and_boruvka_agree(self, force_boruvka, monkeypatch):
        if force_boruvka:
            monkeypatch.setattr(buf, "_HAVE_SCIPY_MST", False)
        rng = np.random.default_rng(5)
        for _ in range(10):
            graph, edges, d2 = self._geometric(rng, 40, 1.6)
            got = _mst_bottleneck(40, edges[:, 0], edges[:, 1], d2)
            if graph.is_connected():
                # The bottleneck is the smallest radius^2 keeping the graph
                # connected: connected at sqrt(got), disconnected just below.
                assert DiskGraph(graph.positions, math.sqrt(got) + 1e-9, side=5.0).is_connected()
                below = math.nextafter(math.sqrt(got), 0.0) * (1 - 1e-12)
                assert not DiskGraph(graph.positions, below, side=5.0).is_connected()
            else:
                assert math.isinf(got)

    @pytest.mark.parametrize("force_boruvka", [False, True])
    def test_batch_matches_scalar(self, force_boruvka, monkeypatch):
        if force_boruvka:
            monkeypatch.setattr(buf, "_HAVE_SCIPY_MST", False)
        rng = np.random.default_rng(9)
        batch_size, n = 6, 30
        rep_parts, u_parts, v_parts, w_parts, expected = [], [], [], [], []
        for b in range(batch_size):
            _, edges, d2 = self._geometric(rng, n, 1.8)
            rep_parts.append(np.full(edges.shape[0], b, dtype=np.intp))
            u_parts.append(edges[:, 0])
            v_parts.append(edges[:, 1])
            w_parts.append(d2)
            graph = _replica_graph(n, rep_parts[-1], edges[:, 0], edges[:, 1], b, w=d2)
            expected.append(_nx_bottleneck(graph))
        got = batch_mst_bottleneck(
            batch_size,
            n,
            np.concatenate(rep_parts),
            np.concatenate(u_parts),
            np.concatenate(v_parts),
            np.concatenate(w_parts),
        )
        assert np.allclose(got, expected, atol=1e-12, equal_nan=False)

    @pytest.mark.parametrize("force_boruvka", [False, True])
    def test_zero_weight_edges_survive(self, force_boruvka, monkeypatch):
        if force_boruvka:
            monkeypatch.setattr(buf, "_HAVE_SCIPY_MST", False)
        # Two coincident points: the zero-weight edge must not vanish.
        u = np.array([0, 1])
        v = np.array([1, 2])
        w = np.array([0.0, 4.0])
        assert batch_mst_bottleneck(1, 3, np.zeros(2, dtype=np.intp), u, v, w)[0] == 4.0

    def test_trivial_sizes(self):
        assert _mst_bottleneck(0, [], [], []) == 0.0
        assert _mst_bottleneck(1, [], [], []) == 0.0
        assert math.isinf(_mst_bottleneck(2, [], [], []))
        assert np.array_equal(batch_mst_bottleneck(3, 1, [], [], [], []), np.zeros(3))


class TestIncrementalProfile:
    def _rebuild(self, positions, side, radii):
        """Per-radius disk-graph rebuilds — the pre-incremental reference."""
        n = positions.shape[0]
        out = {
            "giant_fraction": [], "n_components": [],
            "isolated_fraction": [], "connected": [],
        }
        for radius in radii:
            graph = DiskGraph(positions, max(float(radius), 0.0), side=side)
            out["giant_fraction"].append(graph.giant_component_fraction())
            out["n_components"].append(graph.n_components())
            out["isolated_fraction"].append(
                float(np.count_nonzero(graph.isolated_mask())) / max(1, n)
            )
            out["connected"].append(graph.is_connected())
        return {key: np.asarray(val) for key, val in out.items()}

    def test_byte_identical_to_rebuild(self):
        rng = np.random.default_rng(2)
        side = 12.0
        # A unit lattice puts edges exactly at r = 1 and r = 2, where the
        # inclusive d2 <= r*r test decides connectivity.
        lattice = np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0)), axis=-1).reshape(-1, 2)
        cases = [
            (rng.uniform(0, side, size=(150, 2)), [0.8, 2.5, 0.3, 1.4, 1.4, 6.0]),
            (lattice, [0.5, 1.0, 2.0]),
        ]
        for positions, radii in cases:
            profile = batch_connectivity_profile(positions[None], side, radii)
            assert np.array_equal(profile["radius"], radii)
            rebuilt = self._rebuild(positions, side, radii)
            for key, val in rebuilt.items():
                assert np.array_equal(profile[key][0], val), key

    def test_batch_rows_equal_scalar(self):
        rng = np.random.default_rng(4)
        side = 10.0
        stack = rng.uniform(0, side, size=(5, 80, 2))
        radii = [0.5, 1.5, 3.0]
        batched = batch_connectivity_profile(stack, side, radii)
        for b in range(5):
            rebuilt = self._rebuild(stack[b], side, radii)
            for key, val in rebuilt.items():
                assert np.array_equal(batched[key][b], val), (key, b)

    def test_degenerate_inputs(self):
        empty = batch_connectivity_profile(np.empty((1, 0, 2)), 5.0, [1.0, 2.0])
        assert empty["connected"].tolist() == [[True, True]]
        assert empty["giant_fraction"].tolist() == [[0.0, 0.0]]
        no_radii = batch_connectivity_profile(np.zeros((1, 3, 2)), 5.0, [])
        assert no_radii["radius"].size == 0
        assert no_radii["connected"].shape == (1, 0)
        # Negative radii admit no edges at all, while radius 0 is inclusive
        # (d2 <= r*r), so coincident points connect only at r >= 0 — also
        # when no probe radius is positive.
        for radii in ([-1.0, 0.0], [0.0, -1.0], [-1.0, 0.0, 1.0]):
            profile = batch_connectivity_profile(np.zeros((2, 2, 2)), 5.0, radii)
            expected = [r >= 0 for r in radii]
            assert profile["connected"].tolist() == [expected, expected], radii
            assert profile["isolated_fraction"].tolist() == [
                [0.0 if r >= 0 else 1.0 for r in radii]
            ] * 2, radii
        with pytest.raises(ValueError):
            batch_connectivity_profile(np.zeros((3, 2)), 5.0, [1.0])


class TestConnectivityThreshold:
    def _stationary_stack(self, batch_size, n, seed):
        from repro.mobility.stationary import PalmStationarySampler

        side = math.sqrt(n)
        sampler = PalmStationarySampler(side)
        rng = np.random.default_rng(seed)
        return np.stack(
            [sampler.sample(n, rng).positions for _ in range(batch_size)], axis=0
        ), side

    def test_mst_agrees_with_networkx(self):
        """Each threshold is the largest edge of networkx's Euclidean MST."""
        stack, side = self._stationary_stack(3, 200, 1)
        thresholds = batch_connectivity_threshold(stack, side)
        for positions, threshold in zip(stack, thresholds):
            diff = positions[:, None, :] - positions[None, :, :]
            complete = nx.from_numpy_array(np.sqrt(np.sum(diff * diff, axis=-1)))
            assert threshold == pytest.approx(_nx_bottleneck(complete), rel=1e-12)

    def test_threshold_is_exact_bottleneck(self):
        stack, side = self._stationary_stack(2, 150, 3)
        for positions, threshold in zip(stack, batch_connectivity_threshold(stack, side)):
            assert DiskGraph(positions, threshold, side=side).is_connected()
            below = math.nextafter(threshold, 0.0) * (1 - 1e-12)
            assert not DiskGraph(positions, below, side=side).is_connected()

    def test_batch_matches_scalar(self):
        # Replicas retire from the bracket as they connect; that must not
        # change any replica's value.
        stack, side = self._stationary_stack(4, 120, 6)
        batched = batch_connectivity_threshold(stack, side)
        for b, positions in enumerate(stack):
            assert batched[b] == batch_connectivity_threshold(positions[None], side)[0]

    def test_trivial_cases(self):
        stack, side = self._stationary_stack(3, 100, 8)
        assert np.array_equal(batch_connectivity_threshold(stack[:, :1], side), np.zeros(3))
        assert np.array_equal(batch_connectivity_threshold(stack[:, :0], side), np.zeros(3))
        with pytest.raises(ValueError):
            batch_connectivity_threshold(stack[0], side)
