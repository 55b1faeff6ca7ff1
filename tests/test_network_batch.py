"""Parity suite for the batched connectivity layer.

Every batched kernel must reproduce its scalar reference exactly:
canonical union-find labels (up to dense relabeling), byte-identical
incremental radius sweeps vs per-radius disk-graph rebuilds, and exact
MST thresholds cross-validated against the retained bisection.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.network.batch_union_find as buf
from repro.network.batch_union_find import (
    BatchUnionFind,
    batch_components_from_edges,
    batch_mst_bottleneck,
    mst_bottleneck,
)
from repro.network.connectivity import (
    batch_connectivity_profile,
    batch_connectivity_threshold,
    connectivity_profile,
    estimate_connectivity_threshold,
)
from repro.network.disk_graph import DiskGraph
from repro.network.union_find import UnionFind, components_from_edges


def _random_replica_edges(rng, batch_size, n, m):
    """Random per-replica edge lists as (replica, u, v) arrays."""
    replica = rng.integers(0, batch_size, size=m)
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    return replica.astype(np.intp), u.astype(np.intp), v.astype(np.intp)


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
        dense = batch_components_from_edges(batch_size, n, replica, u, v)
        for b in range(batch_size):
            mask = replica == b
            edges = np.stack([u[mask], v[mask]], axis=1)
            assert np.array_equal(dense[b], components_from_edges(n, edges))

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
            mask = replica == b
            scalar = UnionFind(15)
            scalar.add_edges(np.stack([u[mask], v[mask]], axis=1))
            assert uf.n_components()[b] == scalar.n_components
            sizes = uf.component_sizes_at_root()[b]
            assert sizes.sum() == 15
            assert uf.giant_fraction()[b] == max(
                scalar.component_size(i) for i in range(15)
            ) / 15
            assert uf.connected_mask()[b] == (scalar.n_components == 1)

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

    def test_scalar_labels_vectorized_path(self):
        uf = UnionFind(8)
        uf.add_edges(np.array([[0, 7], [7, 3], [2, 4]]))
        labels = uf.labels()
        assert labels[0] == labels[7] == labels[3]
        assert labels[2] == labels[4]
        assert len(set(labels.tolist())) == 8 - 3


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
            got = mst_bottleneck(40, edges[:, 0], edges[:, 1], d2)
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
            expected.append(mst_bottleneck(n, edges[:, 0], edges[:, 1], d2))
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
        assert mst_bottleneck(3, u, v, w) == 4.0
        assert batch_mst_bottleneck(1, 3, np.zeros(2, dtype=np.intp), u, v, w)[0] == 4.0

    def test_trivial_sizes(self):
        assert mst_bottleneck(0, [], [], []) == 0.0
        assert mst_bottleneck(1, [], [], []) == 0.0
        assert math.isinf(mst_bottleneck(2, [], [], []))
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
        positions = rng.uniform(0, side, size=(150, 2))
        radii = [0.8, 2.5, 0.3, 1.4, 1.4, 6.0]
        profile = connectivity_profile(positions, side, radii)
        rebuilt = self._rebuild(positions, side, radii)
        for key, val in rebuilt.items():
            assert np.array_equal(profile[key], val), key

    def test_batch_rows_equal_scalar(self):
        rng = np.random.default_rng(4)
        side = 10.0
        stack = rng.uniform(0, side, size=(5, 80, 2))
        radii = [0.5, 1.5, 3.0]
        batched = batch_connectivity_profile(stack, side, radii)
        for b in range(5):
            scalar = connectivity_profile(stack[b], side, radii)
            for key in ("giant_fraction", "n_components", "isolated_fraction", "connected"):
                assert np.array_equal(batched[key][b], scalar[key]), (key, b)

    def test_degenerate_inputs(self):
        empty = connectivity_profile(np.empty((0, 2)), 5.0, [1.0, 2.0])
        assert empty["connected"].tolist() == [True, True]
        assert empty["giant_fraction"].tolist() == [0.0, 0.0]
        no_radii = connectivity_profile(np.zeros((3, 2)), 5.0, [])
        assert no_radii["radius"].size == 0
        # Negative radii admit no edges at all, while radius 0 is inclusive
        # (d2 <= r*r), so coincident points connect only at r >= 0.
        negative = connectivity_profile(np.zeros((2, 2)), 5.0, [-1.0, 0.0])
        assert negative["connected"].tolist() == [False, True]


class TestConnectivityThreshold:
    def _stationary_stack(self, batch_size, n, seed):
        from repro.mobility.stationary import PalmStationarySampler

        side = math.sqrt(n)
        sampler = PalmStationarySampler(side)
        rng = np.random.default_rng(seed)
        return np.stack(
            [sampler.sample(n, rng).positions for _ in range(batch_size)], axis=0
        ), side

    def test_mst_agrees_with_bisection(self):
        stack, side = self._stationary_stack(3, 200, 1)
        tol = side * 1e-3
        for positions in stack:
            exact = estimate_connectivity_threshold(positions, side)
            bisect = estimate_connectivity_threshold(positions, side, method="bisect")
            # Bisection returns its upper endpoint: >= exact, within tol.
            assert -1e-9 <= bisect - exact <= tol + 1e-9

    def test_threshold_is_exact_bottleneck(self):
        stack, side = self._stationary_stack(2, 150, 3)
        for positions in stack:
            threshold = estimate_connectivity_threshold(positions, side)
            assert DiskGraph(positions, threshold, side=side).is_connected()
            below = math.nextafter(threshold, 0.0) * (1 - 1e-12)
            assert not DiskGraph(positions, below, side=side).is_connected()

    def test_batch_matches_scalar(self):
        stack, side = self._stationary_stack(4, 120, 6)
        batched = batch_connectivity_threshold(stack, side)
        scalar = [estimate_connectivity_threshold(p, side) for p in stack]
        assert np.allclose(batched, scalar, atol=1e-12)

    def test_mask_and_trivial_cases(self):
        stack, side = self._stationary_stack(1, 100, 8)
        positions = stack[0]
        mask = positions[:, 0] < side / 2
        masked = estimate_connectivity_threshold(positions, side, mask=mask)
        direct = estimate_connectivity_threshold(positions[mask], side)
        assert masked == direct
        assert estimate_connectivity_threshold(positions[:1], side) == 0.0
        assert estimate_connectivity_threshold(positions[:0], side) == 0.0
        with pytest.raises(ValueError):
            estimate_connectivity_threshold(positions, side, method="newton")

