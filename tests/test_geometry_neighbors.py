"""Cross-validation of the neighbor-engine backends."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import repro.geometry.neighbors as neighbors_module
from repro.geometry.neighbors import (
    BatchNeighborQuery,
    BruteForceNeighborEngine,
    GridNeighborEngine,
    KDTreeNeighborEngine,
    available_backends,
    make_engine,
)
from repro.kernels import kernel_backend, provider_kernels, use_kernel_tier

BACKENDS = available_backends()


class TestFactory:
    def test_known_backends(self):
        for name in BACKENDS:
            engine = make_engine(name, 10.0)
            assert engine.name == name

    def test_auto_resolves(self):
        engine = make_engine("auto", 10.0)
        assert engine.name in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_engine("quantum", 10.0)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            GridNeighborEngine(-1.0)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendAgreement:
    def test_any_within_agrees_with_brute(self, backend, rng):
        sources = rng.uniform(0, 10, (70, 2))
        queries = rng.uniform(0, 10, (50, 2))
        engine = make_engine(backend, 10.0)
        brute = BruteForceNeighborEngine(10.0)
        for radius in (0.3, 1.0, 4.0):
            assert np.array_equal(
                engine.any_within(sources, queries, radius),
                brute.any_within(sources, queries, radius),
            )

    def test_count_within_agrees(self, backend, rng):
        sources = rng.uniform(0, 10, (70, 2))
        queries = rng.uniform(0, 10, (30, 2))
        engine = make_engine(backend, 10.0)
        brute = BruteForceNeighborEngine(10.0)
        assert np.array_equal(
            engine.count_within(sources, queries, 1.5),
            brute.count_within(sources, queries, 1.5),
        )

    def test_pairs_within_agrees(self, backend, rng):
        points = rng.uniform(0, 10, (80, 2))
        engine = make_engine(backend, 10.0)
        brute = BruteForceNeighborEngine(10.0)
        got = {tuple(sorted(p)) for p in engine.pairs_within(points, 1.1).tolist()}
        expected = {tuple(sorted(p)) for p in brute.pairs_within(points, 1.1).tolist()}
        assert got == expected

    def test_empty_sources(self, backend):
        engine = make_engine(backend, 10.0)
        queries = np.array([[5.0, 5.0]])
        assert not engine.any_within(np.empty((0, 2)), queries, 1.0)[0]
        assert engine.count_within(np.empty((0, 2)), queries, 1.0)[0] == 0

    def test_empty_points_pairs(self, backend):
        engine = make_engine(backend, 10.0)
        assert engine.pairs_within(np.empty((0, 2)), 1.0).shape == (0, 2)

    def test_coincident_points(self, backend):
        """Duplicate positions (possible under MRWP corners) are handled."""
        engine = make_engine(backend, 10.0)
        points = np.array([[5.0, 5.0], [5.0, 5.0], [9.0, 9.0]])
        pairs = engine.pairs_within(points, 0.5)
        assert {tuple(sorted(p)) for p in pairs.tolist()} == {(0, 1)}


@pytest.mark.parametrize("backend", BACKENDS)
class TestBoundSnapshot:
    """bind(): one index per snapshot, masked index-based queries."""

    def test_snapshot_matches_coordinate_api(self, backend, rng):
        points = rng.uniform(0, 10, (120, 2))
        engine = make_engine(backend, 10.0)
        brute = BruteForceNeighborEngine(10.0)
        snapshot = engine.bind(points, 1.2)
        for seed in range(3):
            sub = np.random.default_rng(seed)
            source_idx = np.nonzero(sub.uniform(size=120) < 0.3)[0]
            query_idx = np.nonzero(sub.uniform(size=120) < 0.5)[0]
            expected_any = brute.any_within(points[source_idx], points[query_idx], 1.2)
            expected_count = brute.count_within(points[source_idx], points[query_idx], 1.2)
            assert np.array_equal(snapshot.any_within(source_idx, query_idx), expected_any)
            assert np.array_equal(snapshot.count_within(source_idx, query_idx), expected_count)

    def test_snapshot_dense_sources_few_queries(self, backend, rng):
        """The grid snapshot's full-index path (dense sources, few queries)."""
        points = rng.uniform(0, 10, (200, 2))
        engine = make_engine(backend, 10.0)
        brute = BruteForceNeighborEngine(10.0)
        snapshot = engine.bind(points, 1.5)
        source_idx = np.arange(190)
        query_idx = np.arange(190, 200)
        expected = brute.any_within(points[source_idx], points[query_idx], 1.5)
        assert np.array_equal(snapshot.any_within(source_idx, query_idx), expected)

    def test_snapshot_empty_sides(self, backend, rng):
        points = rng.uniform(0, 10, (30, 2))
        snapshot = make_engine(backend, 10.0).bind(points, 1.0)
        empty = np.empty(0, dtype=np.intp)
        some = np.arange(5)
        assert snapshot.any_within(empty, some).tolist() == [False] * 5
        assert snapshot.count_within(empty, some).tolist() == [0] * 5
        assert snapshot.any_within(some, empty).size == 0

    def test_successive_binds_match_brute(self, backend, rng):
        """Successive binds of one engine with drifting points, on both
        sides of the grid snapshot's dense-source switch."""
        engine = make_engine(backend, 10.0)
        brute = BruteForceNeighborEngine(10.0)
        points = rng.uniform(0, 10, (150, 2))
        for fraction in (0.4, 0.4, 0.95, 0.4, 0.95, 0.95):
            points = np.clip(points + rng.uniform(-0.3, 0.3, points.shape), 0, 10)
            informed = rng.uniform(size=150) < fraction
            source_idx = np.nonzero(informed)[0]
            query_idx = np.nonzero(~informed)[0]
            snapshot = engine.bind(points, 1.1)
            sources, queries = points[source_idx], points[query_idx]
            assert np.array_equal(
                snapshot.any_within(source_idx, query_idx),
                brute.any_within(sources, queries, 1.1),
            )
            assert np.array_equal(
                snapshot.count_within(source_idx, query_idx),
                brute.count_within(sources, queries, 1.1),
            )

    def test_snapshot_pairs_over_a_drifting_series(self, backend, rng):
        """Frame-by-frame edge extraction, as ``record_contacts`` binds it."""
        engine = make_engine(backend, 10.0)
        brute = BruteForceNeighborEngine(10.0)
        points = rng.uniform(0, 10, (120, 2))
        for _ in range(5):
            points = np.clip(points + rng.uniform(-0.4, 0.4, points.shape), 0, 10)
            got = engine.bind(points, 1.3).pairs_within()
            assert {tuple(p) for p in got.tolist()} == {
                tuple(p) for p in brute.pairs_within(points, 1.3).tolist()
            }


@pytest.mark.skipif(
    kernel_backend() is None, reason="no compiled kernel provider builds on this host"
)
class TestCompiledAutoSnapshot:
    """On the compiled tier, snapshots of ``make_engine("auto")`` answer
    ``any_within`` with ``batch_any_within`` at B=1; explicit backends
    keep their own code."""

    SIDE = 10.0

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        table = provider_kernels()
        kernel = table["batch_any_within"]

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return kernel(*args, **kwargs)

        monkeypatch.setitem(table, "batch_any_within", counted)
        return calls

    def _check(self, points, radius, source_idx, query_idx):
        """The compiled answer equals the numpy-tier answer of the same
        ``auto`` engine."""
        engine = make_engine("auto", self.SIDE)
        expected = engine.bind(points, radius).any_within(source_idx, query_idx)
        with use_kernel_tier("compiled"):
            got = engine.bind(points, radius).any_within(source_idx, query_idx)
        assert np.array_equal(got, expected)
        return got

    @pytest.mark.parametrize("n", [2, 500, 5000])
    def test_matches_numpy_tier_on_random_snapshots(self, n, rng, kernel_calls):
        points = rng.uniform(0, self.SIDE, (n, 2))
        radius = 8.0 if n == 2 else 0.4
        for informed_frac in (0.02, 0.5, 0.98):
            informed = rng.uniform(size=n) < informed_frac
            informed[0], informed[-1] = True, False
            self._check(points, radius, np.nonzero(informed)[0], np.nonzero(~informed)[0])
        assert kernel_calls and all(shape == (1, n, 2) for shape in kernel_calls)

    def test_empty_source_or_query_sets(self, rng):
        points = rng.uniform(0, self.SIDE, (40, 2))
        empty = np.empty(0, dtype=np.intp)
        some = np.arange(10)
        assert self._check(points, 1.0, empty, some).tolist() == [False] * 10
        assert self._check(points, 1.0, some, empty).size == 0

    def test_points_on_the_edges_and_exactly_r_apart(self, kernel_calls):
        s, r = self.SIDE, 0.5
        points = np.array([
            [0.0, 0.0], [s, s], [0.0, s], [s, 0.0],  # corners
            [s - r, s], [s / 2, 0.0], [s / 2 + r, 0.0],  # edge pairs exactly R apart
            [2.0, 5.0], [2.5, 5.0],  # interior pair exactly R apart
            [7.0, 7.0], [7.0 + r * (1 + 1e-9), 7.0],  # just beyond R
        ])
        sources = np.array([1, 5, 7, 9])
        queries = np.array([0, 2, 3, 4, 6, 8, 10])
        got = self._check(points, r, sources, queries)
        assert got.tolist() == [False, False, False, True, True, True, False]
        assert kernel_calls

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_explicit_backends_never_dispatch(self, backend, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError(f"explicit {backend!r} engine called the kernel")

        monkeypatch.setitem(provider_kernels(), "batch_any_within", refuse)
        points = rng.uniform(0, self.SIDE, (300, 2))
        informed = rng.uniform(size=300) < 0.3
        source_idx, query_idx = np.nonzero(informed)[0], np.nonzero(~informed)[0]
        engine = make_engine(backend, self.SIDE)
        with use_kernel_tier("compiled"):
            got = engine.bind(points, 0.8).any_within(source_idx, query_idx)
        expected = BruteForceNeighborEngine(self.SIDE).any_within(
            points[source_idx], points[query_idx], 0.8
        )
        assert np.array_equal(got, expected)


@pytest.mark.skipif(
    kernel_backend() is None, reason="no compiled kernel provider builds on this host"
)
class TestCompiledBatchCount:
    """On the compiled tier an ``auto`` batch query counts with the count
    mode of the ``batch_contacts`` kernel, which tallies each query's
    contacts and stores none; the counts equal an exact brute-force count
    and the numpy tier's."""

    SIDE = 10.0

    @pytest.fixture
    def contact_calls(self, monkeypatch):
        calls = []
        table = provider_kernels()
        kernel = table["batch_contacts"]

        def counted(*args, **kwargs):
            result = kernel(*args, **kwargs)
            calls.append(result is not None)
            return result

        monkeypatch.setitem(table, "batch_contacts", counted)
        return calls

    @staticmethod
    def brute_counts(positions, source_mask, query_mask, radius):
        """Inclusive ``dx*dx + dy*dy <= r*r`` test on the unshifted points."""
        batch, n, _ = positions.shape
        counts = np.zeros((batch, n), dtype=np.intp)
        for b in range(batch):
            dx = positions[b, :, None, 0] - positions[b, None, :, 0]
            dy = positions[b, :, None, 1] - positions[b, None, :, 1]
            close = (dx * dx + dy * dy <= radius * radius) & source_mask[b][None, :]
            counts[b] = np.where(query_mask[b], close.sum(axis=1), 0)
        return counts

    def _check(self, positions, source_mask, query_mask, radius, contact_calls):
        query = BatchNeighborQuery(self.SIDE, positions.shape[0])
        numpy_tier = query.bind(positions).count_within(source_mask, query_mask, radius)
        assert not contact_calls
        with use_kernel_tier("compiled"):
            got = query.bind(positions).count_within(source_mask, query_mask, radius)
        assert contact_calls == [True]
        contact_calls.clear()
        assert got.dtype == np.intp and got.shape == positions.shape[:2]
        np.testing.assert_array_equal(
            got, self.brute_counts(positions, source_mask, query_mask, radius)
        )
        np.testing.assert_array_equal(got, numpy_tier)
        return got

    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_random_snapshots(self, batch, rng, contact_calls):
        positions = rng.uniform(0, self.SIDE, (batch, 150, 2))
        for source_frac, query_frac in ((1.0, 0.1), (0.5, 0.5), (0.05, 0.9)):
            source_mask = rng.uniform(size=(batch, 150)) < source_frac
            query_mask = rng.uniform(size=(batch, 150)) < query_frac
            self._check(positions, source_mask, query_mask, 1.2, contact_calls)

    def test_empty_source_or_query_masks(self, rng, contact_calls):
        positions = rng.uniform(0, self.SIDE, (3, 60, 2))
        full = np.ones((3, 60), dtype=bool)
        none = np.zeros((3, 60), dtype=bool)
        assert not self._check(positions, none, full, 1.0, contact_calls).any()
        assert not self._check(positions, full, none, 1.0, contact_calls).any()

    def test_frozen_replicas(self, rng, contact_calls):
        positions = rng.uniform(0, self.SIDE, (4, 80, 2))
        active = np.array([True, False, True, False])
        source_mask = (rng.uniform(size=(4, 80)) < 0.6) & active[:, None]
        query_mask = (rng.uniform(size=(4, 80)) < 0.6) & active[:, None]
        got = self._check(positions, source_mask, query_mask, 1.5, contact_calls)
        assert not got[~active].any()

    def test_broadcast_source_mask_of_gossip(self, rng, contact_calls):
        # Gossip counts sender degrees against every agent of the active
        # replicas: a read-only, non-contiguous broadcast mask.
        positions = rng.uniform(0, self.SIDE, (5, 100, 2))
        active = np.array([True, True, False, True, False])
        sender_mask = (rng.uniform(size=(5, 100)) < 0.2) & active[:, None]
        source_mask = np.broadcast_to(active[:, None], sender_mask.shape)
        assert not source_mask.flags.c_contiguous
        got = self._check(positions, source_mask, sender_mask, 1.3, contact_calls)
        assert (got[sender_mask] >= 1).all()  # every sender counts itself

    def test_integer_lattice_exactly_r_apart(self, rng, contact_calls):
        # Lattice neighbors sit exactly R = 1 apart: the inclusive test
        # counts them, diagonal neighbors (sqrt 2) are out.
        grid = np.stack(np.meshgrid(np.arange(11.0), np.arange(11.0)), -1).reshape(-1, 2)
        positions = np.stack([grid, grid[rng.permutation(len(grid))]])
        everyone = np.ones(positions.shape[:2], dtype=bool)
        got = self._check(positions, everyone, everyone, 1.0, contact_calls)
        x, y = positions[..., 0], positions[..., 1]
        inner = lambda v: (v > 0) & (v < 10)  # noqa: E731
        expected = 1 + (1 + inner(x)) + (1 + inner(y))
        np.testing.assert_array_equal(got, expected)

    def test_dense_cluster_counts_in_batch_by_n_memory(self, rng, contact_calls):
        # Every agent of each replica is within R of every other: 4.5M
        # contacts, 108 MB as a pair list.  Counting stores none of them.
        batch, n = 2, 1500
        positions = rng.uniform(4.0, 4.3, (batch, n, 2))
        everyone = np.ones((batch, n), dtype=bool)
        bound = BatchNeighborQuery(self.SIDE, batch).bind(positions)
        with use_kernel_tier("compiled"):
            tracemalloc.start()
            try:
                got = bound.count_within(everyone, everyone, 0.5)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert contact_calls == [True]
        assert (got == n).all()
        assert peak < 1 << 20


RADIUS_TIERS = ["numpy"] + (["compiled"] if kernel_backend() is not None else [])
BAD_RADII = [float("nan"), float("inf"), float("-inf"), -1.0]
BAD_RADIUS_IDS = ["nan", "inf", "-inf", "negative"]


class TestRadiusValidation:
    """NaN, infinite and negative radii raise ``ValueError`` on every
    backend, query and kernel tier, where each backend would otherwise
    answer them differently.  Zero stays valid for the coordinate API
    only."""

    SIDE = 10.0

    @pytest.mark.parametrize("radius", BAD_RADII, ids=BAD_RADIUS_IDS)
    @pytest.mark.parametrize("tier", RADIUS_TIERS)
    @pytest.mark.parametrize("method", ["any_within", "count_within", "pairs_within", "bind"])
    @pytest.mark.parametrize("backend", ["auto"] + BACKENDS)
    def test_engines_reject(self, backend, method, tier, radius, rng):
        points = rng.uniform(0, self.SIDE, (40, 2))
        engine = make_engine(backend, self.SIDE)
        calls = {
            "any_within": lambda: engine.any_within(points, points, radius),
            "count_within": lambda: engine.count_within(points, points, radius),
            "pairs_within": lambda: engine.pairs_within(points, radius),
            "bind": lambda: engine.bind(points, radius),
        }
        with use_kernel_tier(tier), pytest.raises(ValueError, match="radius"):
            calls[method]()

    @pytest.mark.parametrize("radius", BAD_RADII, ids=BAD_RADIUS_IDS)
    @pytest.mark.parametrize("tier", RADIUS_TIERS)
    @pytest.mark.parametrize(
        "method", ["any_within", "count_within", "contacts_within", "pairs_within"]
    )
    @pytest.mark.parametrize("backend", ["auto", "cells"] + BACKENDS)
    def test_batch_queries_reject(self, backend, method, tier, radius, rng):
        positions = rng.uniform(0, self.SIDE, (3, 40, 2))
        mask = rng.uniform(size=(3, 40)) < 0.5
        bound = BatchNeighborQuery(self.SIDE, 3, backend).bind(positions)
        calls = {
            "any_within": lambda: bound.any_within(mask, ~mask, radius),
            "count_within": lambda: bound.count_within(mask, ~mask, radius),
            "contacts_within": lambda: bound.contacts_within(mask, ~mask, radius),
            "pairs_within": lambda: bound.pairs_within(radius),
        }
        with use_kernel_tier(tier), pytest.raises(ValueError, match="radius"):
            calls[method]()

    @pytest.mark.parametrize("backend", ["auto"] + BACKENDS)
    def test_zero_radius_is_coordinate_api_only(self, backend, rng):
        points = rng.uniform(0, self.SIDE, (40, 2))
        engine = make_engine(backend, self.SIDE)
        assert engine.count_within(points, points, 0.0).tolist() == [1] * 40
        assert engine.pairs_within(points, 0.0).shape == (0, 2)
        with pytest.raises(ValueError, match="positive"):
            engine.bind(points, 0.0)
        bound = BatchNeighborQuery(self.SIDE, 1, backend).bind(points[None])
        with pytest.raises(ValueError, match="positive"):
            bound.count_within(np.ones((1, 40), bool), np.ones((1, 40), bool), 0.0)


class TestCachesAndProbes:
    def test_available_backends_probe_is_cached(self, monkeypatch):
        """The scipy probe must not re-run the import machinery per call."""
        first = available_backends()
        calls = []
        real_import = __builtins__["__import__"] if isinstance(__builtins__, dict) else __builtins__.__import__

        def counting_import(name, *args, **kwargs):
            if name.startswith("scipy"):
                calls.append(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr("builtins.__import__", counting_import)
        assert available_backends() == first
        assert available_backends() == first
        assert calls == []

    def test_available_backends_returns_fresh_list(self):
        """Callers may mutate the returned list without corrupting the cache."""
        first = available_backends()
        first.append("bogus")
        assert "bogus" not in available_backends()

    def test_grid_snapshot_shares_one_index_per_source_set(self, rng):
        """any_within + count_within on one bound snapshot build one index
        (array identity is stable inside a snapshot, unlike the
        coordinate API where every call gathers fresh arrays)."""
        engine = GridNeighborEngine(10.0)
        points = rng.uniform(0, 10, (60, 2))
        snapshot = engine.bind(points, 1.0)
        source_idx = np.arange(20)
        query_idx = np.arange(20, 60)
        snapshot.any_within(source_idx, query_idx)
        index_first = snapshot._memo[1]
        snapshot.count_within(source_idx, query_idx)
        assert snapshot._memo[1] is index_first
        # A different source set must index afresh.
        other_idx = np.arange(10)
        snapshot.any_within(other_idx, query_idx)
        assert snapshot._memo[1] is not index_first

    def test_grid_memo_detects_in_place_mutation(self, rng):
        """Advancing a positions array *in place* between calls must not
        serve a stale index (regression guard for the memo)."""
        engine = GridNeighborEngine(10.0)
        brute = BruteForceNeighborEngine(10.0)
        sources = rng.uniform(0, 6, (50, 2))
        queries = rng.uniform(0, 10, (20, 2))
        engine.any_within(sources, queries, 1.0)
        sources += 3.0  # in-place advance, same object identity
        assert np.array_equal(
            engine.any_within(sources, queries, 1.0),
            brute.any_within(sources, queries, 1.0),
        )


_IMPORT_PROBE = """
import sys
sys.path.insert(0, {src!r})
from repro.simulation import run_flooding, run_trials, standard_config
config = standard_config(300, seed=3, max_steps=40)
{run}
print("scipy.spatial" in sys.modules, "numpy.ma" in sys.modules)
"""


class TestScipyImport:
    """``scipy.spatial`` is located at start-up and imported only by the
    first KD-tree build.  Plain flooding runs never import ``numpy.ma``
    either (``np.median`` would, from ``summarize``)."""

    @pytest.mark.skipif(
        kernel_backend() is None or "kdtree" not in BACKENDS,
        reason="needs the compiled kernel provider and scipy",
    )
    @pytest.mark.parametrize(
        "run, imported",
        [
            # Compiled-tier flooding answers every infection test and zone
            # count in C: no tree.
            ('run_trials(config.with_options(engine="batch"), 4)', False),
            ("run_flooding(config)", False),
            # Compiled-tier gossip and push-pull count sender degrees from
            # the batch_contacts kernel: no tree either.
            ('run_trials(config.with_options(engine="batch", protocol="gossip"), 2)', False),
            ('run_trials(config.with_options(engine="batch", protocol="push-pull"), 2)', False),
            # On the numpy tier the degree count still builds a KD-tree.
            (
                'run_trials(config.with_options(engine="batch", protocol="gossip",'
                ' kernels="numpy"), 2)',
                True,
            ),
            ('run_flooding(config.with_options(backend="kdtree"))', True),
        ],
        ids=[
            "batch-flooding", "scalar-flooding", "batch-gossip", "batch-push-pull",
            "numpy-batch-gossip", "explicit-kdtree",
        ],
    )
    def test_only_tree_building_runs_import_scipy_spatial(self, run, imported):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        script = _IMPORT_PROBE.format(src=os.path.abspath(src), run=run)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        spatial, masked = proc.stdout.split()[-2:]
        assert spatial == str(imported)
        if not imported:
            # scipy.spatial imports numpy.ma itself; a run without it must not.
            assert masked == "False"

    def test_missing_scipy_falls_back_to_grid(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.delitem(sys.modules, "scipy.spatial", raising=False)
        monkeypatch.setattr(neighbors_module, "_AVAILABLE_BACKENDS", None)
        assert available_backends() == ["grid", "brute"]
        assert isinstance(make_engine("auto", 1.0), GridNeighborEngine)
        with pytest.raises(ImportError):
            KDTreeNeighborEngine(1.0)


class TestDilate:
    def naive(self, occ, reach):
        batch, m, _ = occ.shape
        out = np.zeros_like(occ)
        for b in range(batch):
            for i in range(m):
                for j in range(m):
                    lo_i, hi_i = max(0, i - reach), min(m, i + reach + 1)
                    lo_j, hi_j = max(0, j - reach), min(m, j + reach + 1)
                    out[b, i, j] = occ[b, lo_i:hi_i, lo_j:hi_j].any()
        return out

    @pytest.mark.parametrize("reach", [0, 1, 2, 3, 5])
    def test_matches_naive_box(self, reach, rng):
        occ = rng.uniform(size=(2, 9, 9)) < 0.15
        got = neighbors_module._dilate(occ, reach)
        assert np.array_equal(got, self.naive(occ, reach))

    def test_input_not_mutated(self, rng):
        occ = rng.uniform(size=(1, 6, 6)) < 0.3
        original = occ.copy()
        neighbors_module._dilate(occ, 3)
        assert np.array_equal(occ, original)


class TestCoarseCoverDivisor:
    def test_sqrt5_cross_branch_stays_exact(self, rng, monkeypatch):
        """The cross-neighborhood branch (reach_sure == 0) only triggers
        for divisors below 2*sqrt2; pin the seed's sqrt(5) cover to keep
        it covered and exact."""
        import math

        from repro.geometry.neighbors import BatchNeighborQuery

        monkeypatch.setattr(BatchNeighborQuery, "_COVER_DIVISOR", math.sqrt(5.0))
        side, radius = 12.0, 1.4
        positions = rng.uniform(0, side, size=(3, 100, 2))
        informed = rng.uniform(size=(3, 100)) < 0.35
        query = BatchNeighborQuery(side, 3)
        got = query.any_within(positions, informed, ~informed, radius)
        brute = BatchNeighborQuery(side, 3, backend="brute")
        expected = brute.any_within(positions, informed, ~informed, radius)
        assert np.array_equal(got, expected)


class TestContactsWithin:
    """Bipartite contact materialization (the neighbor-sampling primitive)."""

    def _reference(self, points, source_idx, query_idx, radius):
        diff = points[query_idx][:, None, :] - points[source_idx][None, :, :]
        dist2 = np.sum(diff * diff, axis=-1)
        qpos, spos = np.nonzero(dist2 <= radius * radius)
        return set(zip(source_idx[spos].tolist(), query_idx[qpos].tolist()))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_brute_pairs(self, backend, rng):
        points = rng.uniform(0, 10, (150, 2))
        engine = make_engine(backend, 10.0)
        snapshot = engine.bind(points, 1.3)
        informed = rng.uniform(size=150) < 0.4
        source_idx = np.nonzero(informed)[0]
        query_idx = np.nonzero(~informed)[0]
        s, q = snapshot.contacts_within(source_idx, query_idx)
        assert set(zip(s.tolist(), q.tolist())) == self._reference(
            points, source_idx, query_idx, 1.3
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dense_sources_few_queries(self, backend, rng):
        """The late-round shape (sources ~ n, a handful of queries) — the
        grid backend's persistent full-index path."""
        points = rng.uniform(0, 12, (200, 2))
        engine = make_engine(backend, 12.0)
        snapshot = engine.bind(points, 1.5)
        source_idx = np.arange(197)
        query_idx = np.array([197, 198, 199])
        s, q = snapshot.contacts_within(source_idx, query_idx)
        assert set(zip(s.tolist(), q.tolist())) == self._reference(
            points, source_idx, query_idx, 1.5
        )

    def test_empty_sides(self, rng):
        points = rng.uniform(0, 10, (20, 2))
        snapshot = make_engine("grid", 10.0).bind(points, 1.0)
        empty = np.empty(0, dtype=np.intp)
        for source_idx, query_idx in ((empty, np.arange(20)), (np.arange(20), empty)):
            s, q = snapshot.contacts_within(source_idx, query_idx)
            assert s.size == 0 and q.size == 0


class TestBatchContactsAndPairs:
    """Batched bipartite contacts and per-replica edge lists."""

    def test_batch_contacts_match_scalar(self, rng):
        from repro.geometry.neighbors import BatchNeighborQuery

        batch, n, side, radius = 4, 90, 11.0, 1.4
        positions = rng.uniform(0, side, size=(batch, n, 2))
        informed = rng.uniform(size=(batch, n)) < 0.4
        query = BatchNeighborQuery(side, batch)
        snapshot = query.bind(positions)
        rep, s, t = snapshot.contacts_within(informed, ~informed, radius)
        brute = make_engine("brute", side)
        for b in range(batch):
            scalar = brute.bind(positions[b], radius).contacts_within(
                np.nonzero(informed[b])[0], np.nonzero(~informed[b])[0]
            )
            expected = set(zip(scalar[0].tolist(), scalar[1].tolist()))
            got = set(zip(s[rep == b].tolist(), t[rep == b].tolist()))
            assert got == expected, b

    def test_batch_pairs_match_scalar_engines(self, rng):
        from repro.geometry.neighbors import BatchNeighborQuery

        batch, n, side, radius = 3, 80, 10.0, 1.2
        positions = rng.uniform(0, side, size=(batch, n, 2))
        query = BatchNeighborQuery(side, batch)
        rep, i, j = query.bind(positions).pairs_within(radius)
        assert np.all(i < j)
        brute = make_engine("brute", side)
        for b in range(batch):
            expected = {tuple(p) for p in brute.pairs_within(positions[b], radius).tolist()}
            got = set(zip(i[rep == b].tolist(), j[rep == b].tolist()))
            assert got == expected, b

    def test_pairs_rows_restriction(self, rng):
        from repro.geometry.neighbors import BatchNeighborQuery

        batch, n, side, radius = 4, 60, 9.0, 1.5
        positions = rng.uniform(0, side, size=(batch, n, 2))
        query = BatchNeighborQuery(side, batch)
        rows = np.array([1, 3])
        rep, i, j = query.bind(positions).pairs_within(radius, rows=rows)
        assert set(np.unique(rep)) <= {1, 3}
        full_rep, full_i, full_j = query.bind(positions).pairs_within(radius)
        for b in rows:
            expected = set(zip(full_i[full_rep == b].tolist(), full_j[full_rep == b].tolist()))
            got = set(zip(i[rep == b].tolist(), j[rep == b].tolist()))
            assert got == expected


class TestBatchQueryAcrossBinds:
    """The cell cover keeps per-agent cell ids across binds of one query and
    recomputes them only for the replicas passed as ``rows``."""

    SIDE = 9.0
    BATCH = 5

    def brute_hits(self, positions, informed, radius):
        brute = BatchNeighborQuery(self.SIDE, self.BATCH, backend="brute")
        return brute.any_within(positions, informed, ~informed, radius)

    @pytest.mark.parametrize("radius", [0.6, 1.5, 4.0])
    def test_any_within_matches_brute_every_round(self, rng, radius):
        query = BatchNeighborQuery(self.SIDE, self.BATCH, backend="cells")
        positions = rng.uniform(0, self.SIDE, size=(self.BATCH, 70, 2))
        active = np.ones(self.BATCH, dtype=bool)
        for step in range(9):
            if step == 3:
                active[1] = False  # retired: frozen from here on
            if step == 5:
                active[[0, 4]] = False
            if step == 7:
                # A new population: every cached cell id is stale.
                positions = rng.uniform(0, self.SIDE, size=(self.BATCH, 90, 2))
            else:
                moved = positions[active] + rng.uniform(-0.5, 0.5, positions[active].shape)
                positions = positions.copy()
                positions[active] = np.clip(moved, 0.0, self.SIDE)
            rows = None if active.all() else np.nonzero(active)[0]
            # Masks span the frozen replicas too: their cached ids must
            # still describe where they stopped.
            informed = rng.uniform(size=positions.shape[:2]) < 0.4
            got = query.bind(positions, rows=rows).any_within(informed, ~informed, radius)
            assert np.array_equal(got, self.brute_hits(positions, informed, radius)), step

    def test_bind_validates_shapes(self, rng):
        query = BatchNeighborQuery(self.SIDE, self.BATCH)
        with pytest.raises(ValueError, match="shape"):
            query.bind(rng.uniform(0, 1, size=(70, 2)))
        with pytest.raises(ValueError, match="replicas"):
            query.bind(rng.uniform(0, 1, size=(self.BATCH + 1, 70, 2)))
