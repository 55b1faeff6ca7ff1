"""Tests of connectivity analysis (thresholds and radius profiles)."""

import math

import numpy as np
import pytest

from repro.network.connectivity import (
    batch_connectivity_profile,
    batch_connectivity_threshold,
    uniform_connectivity_threshold,
)
from repro.network.disk_graph import DiskGraph

SIDE = 10.0


class TestUniformThreshold:
    def test_formula(self):
        n = 1000
        expected = SIDE * math.sqrt(math.log(n) / (math.pi * n))
        assert uniform_connectivity_threshold(n, SIDE) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_connectivity_threshold(1, SIDE)
        with pytest.raises(ValueError):
            uniform_connectivity_threshold(100, -1.0)


def _threshold(positions):
    """Connectivity threshold of one snapshot."""
    return batch_connectivity_threshold(positions[None], SIDE)[0]


class TestThresholdEstimation:
    def test_threshold_is_mst_bottleneck(self, rng):
        """The estimated threshold equals the largest MST edge (networkx)."""
        import networkx as nx

        positions = rng.uniform(0, SIDE, (40, 2))
        threshold = _threshold(positions)
        complete = nx.Graph()
        for i in range(40):
            for j in range(i + 1, 40):
                complete.add_edge(i, j, weight=float(np.linalg.norm(positions[i] - positions[j])))
        mst = nx.minimum_spanning_tree(complete)
        bottleneck = max(d["weight"] for _, _, d in mst.edges(data=True))
        assert threshold == pytest.approx(bottleneck, abs=1e-4)

    def test_graph_connected_at_threshold(self, rng):
        positions = rng.uniform(0, SIDE, (60, 2))
        threshold = _threshold(positions)
        assert DiskGraph(positions, threshold, side=SIDE).is_connected()

    def test_masked_threshold_smaller_for_cluster(self, rng):
        """Restricting to a dense cluster lowers the threshold."""
        cluster = rng.uniform(4, 6, (30, 2))
        outliers = np.array([[0.1, 0.1], [9.9, 9.9]])
        positions = np.vstack([cluster, outliers])
        mask = np.zeros(32, dtype=bool)
        mask[:30] = True
        assert _threshold(positions[mask]) < _threshold(positions)

    def test_trivial_cases(self):
        assert _threshold(np.empty((0, 2))) == 0.0
        assert _threshold(np.array([[1.0, 1.0]])) == 0.0


class TestProfile:
    def test_profile_monotonicity(self, rng):
        stack = rng.uniform(0, SIDE, (5, 150, 2))
        profile = batch_connectivity_profile(stack, SIDE, [0.3, 0.8, 1.5, 3.0])
        assert np.all(np.diff(profile["giant_fraction"], axis=1) >= -1e-12)
        assert np.all(np.diff(profile["n_components"], axis=1) <= 0)
        assert np.all(np.diff(profile["isolated_fraction"], axis=1) <= 1e-12)

    def test_profile_keys_and_shapes(self, rng):
        for batch_size in (1, 5):
            stack = rng.uniform(0, SIDE, (batch_size, 20, 2))
            profile = batch_connectivity_profile(stack, SIDE, [1.0, 2.0])
            assert profile["radius"].shape == (2,)
            for key in ("giant_fraction", "n_components", "isolated_fraction", "connected"):
                assert profile[key].shape == (batch_size, 2)
