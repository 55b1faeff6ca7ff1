"""Unit tests for the bucket-grid spatial index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.grid import GridIndex
from repro.geometry.neighbors import BruteForceNeighborEngine


def brute_any_within(sources, queries, r):
    return BruteForceNeighborEngine(10.0).any_within(sources, queries, r)


class TestGridIndexBasics:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GridIndex(0.0, 1.0)
        with pytest.raises(ValueError):
            GridIndex(10.0, 0.0)

    def test_empty_index(self):
        index = GridIndex(10.0, 1.0)
        index.build(np.empty((0, 2)))
        assert index.size == 0
        assert not index.any_within(np.array([[5.0, 5.0]]), 1.0)[0]
        assert index.pairs_within(1.0).shape == (0, 2)

    def test_single_point_hit_and_miss(self):
        index = GridIndex(10.0, 1.0)
        index.build(np.array([[5.0, 5.0]]))
        assert index.any_within(np.array([[5.5, 5.0]]), 1.0)[0]
        assert not index.any_within(np.array([[7.0, 5.0]]), 1.0)[0]

    def test_inclusive_boundary(self):
        """Distance exactly R counts (paper: 'at distance at most R')."""
        index = GridIndex(10.0, 1.0)
        index.build(np.array([[5.0, 5.0]]))
        assert index.any_within(np.array([[6.0, 5.0]]), 1.0)[0]

    def test_points_on_far_boundary(self):
        """Points at exactly side don't fall off the grid."""
        index = GridIndex(10.0, 1.0)
        index.build(np.array([[10.0, 10.0]]))
        assert index.any_within(np.array([[9.5, 10.0]]), 1.0)[0]


class TestGridAgainstBruteForce:
    @pytest.mark.parametrize("cell_size", [0.5, 1.0, 3.0])
    def test_any_within_matches(self, rng, cell_size):
        sources = rng.uniform(0, 10, (80, 2))
        queries = rng.uniform(0, 10, (60, 2))
        radius = 1.0
        index = GridIndex(10.0, cell_size)
        index.build(sources)
        got = index.any_within(queries, radius)
        expected = brute_any_within(sources, queries, radius)
        assert np.array_equal(got, expected)

    def test_count_within_matches(self, rng):
        sources = rng.uniform(0, 10, (100, 2))
        queries = rng.uniform(0, 10, (40, 2))
        radius = 1.7
        index = GridIndex(10.0, 1.0)
        index.build(sources)
        got = index.count_within(queries, radius)
        expected = BruteForceNeighborEngine(10.0).count_within(sources, queries, radius)
        assert np.array_equal(got, expected)

    def test_pairs_within_matches(self, rng):
        points = rng.uniform(0, 10, (60, 2))
        radius = 1.3
        index = GridIndex(10.0, 1.0)
        index.build(points)
        got = {tuple(p) for p in index.pairs_within(radius).tolist()}
        expected = {
            tuple(p)
            for p in BruteForceNeighborEngine(10.0).pairs_within(points, radius).tolist()
        }
        assert got == expected

    def test_query_radius_matches(self, rng):
        sources = rng.uniform(0, 10, (50, 2))
        queries = rng.uniform(0, 10, (10, 2))
        radius = 2.0
        index = GridIndex(10.0, 1.0)
        index.build(sources)
        lists = index.query_radius(queries, radius)
        dists = np.sqrt(((queries[:, None, :] - sources[None, :, :]) ** 2).sum(-1))
        for i in range(10):
            expected = set(np.nonzero(dists[i] <= radius)[0].tolist())
            assert set(lists[i].tolist()) == expected

    @given(
        n_src=st.integers(min_value=0, max_value=40),
        n_q=st.integers(min_value=1, max_value=20),
        radius=st.floats(min_value=0.05, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_within_property(self, n_src, n_q, radius, seed):
        """Grid result equals brute force for arbitrary configurations."""
        rng = np.random.default_rng(seed)
        sources = rng.uniform(0, 10, (n_src, 2))
        queries = rng.uniform(0, 10, (n_q, 2))
        index = GridIndex(10.0, max(radius, 0.2))
        index.build(sources)
        got = index.any_within(queries, radius)
        expected = brute_any_within(sources, queries, radius)
        assert np.array_equal(got, expected)

    def test_coarse_and_fine_cells_are_exact(self, rng):
        """Cells far wider (5.0) or far narrower (0.25) than the radius."""
        sources = rng.uniform(0, 10, (60, 2))
        queries = rng.uniform(0, 10, (40, 2))
        for radius in (0.4, 2.0):
            expected = brute_any_within(sources, queries, radius)
            for cell_size in (5.0, 0.25):
                got = GridIndex(10.0, cell_size).build(sources).any_within(queries, radius)
                assert np.array_equal(got, expected), (cell_size, radius)

    def test_radius_larger_than_cell(self, rng):
        """Queries with radius above cell_size scan a wider block, stay exact."""
        sources = rng.uniform(0, 10, (50, 2))
        queries = rng.uniform(0, 10, (20, 2))
        index = GridIndex(10.0, 0.5)
        index.build(sources)
        radius = 2.5  # 5 cells wide
        got = index.any_within(queries, radius)
        expected = brute_any_within(sources, queries, radius)
        assert np.array_equal(got, expected)
