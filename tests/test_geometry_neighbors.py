"""Cross-validation of the neighbor-engine backends."""

import numpy as np
import pytest

import repro.geometry.neighbors as neighbors_module
from repro.geometry.neighbors import (
    BatchNeighborQuery,
    BruteForceNeighborEngine,
    GridNeighborEngine,
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
