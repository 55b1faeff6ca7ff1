"""Cross-validation of the neighbor engines and of every path of the batch
neighbor query against brute force."""

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
from repro.kernels._glue import _contacts_capacity
from repro.protocols import FloodingProtocol

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

    def test_snapshot_empty_sides(self, backend, rng):
        points = rng.uniform(0, 10, (30, 2))
        snapshot = make_engine(backend, 10.0).bind(points, 1.0)
        empty = np.empty(0, dtype=np.intp)
        some = np.arange(5)
        assert snapshot.any_within(empty, some).tolist() == [False] * 5
        assert snapshot.count_within(empty, some).tolist() == [0] * 5
        assert snapshot.any_within(some, empty).size == 0

    def test_successive_binds_match_brute(self, backend, rng):
        """Successive binds of one engine with drifting points, sparse and
        dense informed sets."""
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


@pytest.mark.skipif(
    kernel_backend() is None, reason="no compiled kernel provider builds on this host"
)
class TestCompiledScalarRound:
    """On the compiled tier a scalar protocol's round is a one-replica
    batch query, which answers the infection test with
    ``batch_any_within`` at B=1."""

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

    def _round(self, points, radius, informed):
        """Newly informed agents of one flooding round from ``informed``,
        checked equal on the numpy and the compiled tier."""
        newly = {}
        for tier in ("numpy", "compiled"):
            protocol = FloodingProtocol(points.shape[0], self.SIDE, radius, 0)
            protocol.informed[:] = informed
            with use_kernel_tier(tier):
                newly[tier] = protocol.step(points)
        assert np.array_equal(newly["compiled"], newly["numpy"])
        return newly["compiled"]

    @pytest.mark.parametrize("n", [2, 500, 5000])
    def test_matches_numpy_tier_on_random_snapshots(self, n, rng, kernel_calls):
        points = rng.uniform(0, self.SIDE, (n, 2))
        radius = 8.0 if n == 2 else 0.4
        for informed_frac in (0.02, 0.5, 0.98):
            informed = rng.uniform(size=n) < informed_frac
            informed[0], informed[-1] = True, False
            self._round(points, radius, informed)
        assert kernel_calls and all(shape == (1, n, 2) for shape in kernel_calls)

    def test_points_on_the_edges_and_exactly_r_apart(self, kernel_calls):
        s, r = self.SIDE, 0.5
        points = np.array([
            [0.0, 0.0], [s, s], [0.0, s], [s, 0.0],  # corners
            [s - r, s], [s / 2, 0.0], [s / 2 + r, 0.0],  # edge pairs exactly R apart
            [2.0, 5.0], [2.5, 5.0],  # interior pair exactly R apart
            [7.0, 7.0], [7.0 + r * (1 + 1e-9), 7.0],  # just beyond R
        ])
        informed = np.zeros(len(points), dtype=bool)
        informed[[1, 5, 7, 9]] = True
        assert self._round(points, r, informed).tolist() == [4, 6, 8]
        assert kernel_calls


@pytest.mark.skipif(
    kernel_backend() is None, reason="no compiled kernel provider builds on this host"
)
class TestCompiledBatchCount:
    """On the compiled tier the batch query counts with the count
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

#: The four per-replica queries of a bound batch snapshot.
QUERY_METHODS = ["any_within", "count_within", "contacts_within", "pairs_within"]


def brute_answer(method, positions, source_mask, query_mask, radius):
    """What ``method`` of a bound batch query must return, from an inclusive
    ``d² <= R²`` scan of each replica: the hit mask, the counts, the
    contacts sorted by (replica, source, query), or the pairs ``i < j``
    as a sorted list of ``(replica, i, j)``."""
    diff = positions[:, :, None, :] - positions[:, None, :, :]
    close = np.sum(diff * diff, axis=-1) <= radius * radius
    if method == "pairs_within":
        rep, i, j = np.nonzero(np.triu(close, k=1))
        return sorted(zip(rep.tolist(), i.tolist(), j.tolist()))
    cut = close & source_mask[:, :, None] & query_mask[:, None, :]  # [b, source, query]
    if method == "contacts_within":
        return np.nonzero(cut)  # row-major: already sorted
    counts = cut.sum(axis=1)
    return counts > 0 if method == "any_within" else counts.astype(np.intp)


def assert_matches_brute(bound, method, source_mask, query_mask, radius):
    """``bound.<method>`` equals :func:`brute_answer`, dtypes included."""
    expected = brute_answer(method, bound.positions, source_mask, query_mask, radius)
    if method == "pairs_within":
        rep, i, j = bound.pairs_within(radius)
        assert sorted(zip(rep.tolist(), i.tolist(), j.tolist())) == expected
        return
    got = getattr(bound, method)(source_mask, query_mask, radius)
    if method == "contacts_within":
        assert len(got) == 3
        for got_column, expected_column in zip(got, expected):
            assert got_column.dtype == np.intp
            assert np.array_equal(got_column, expected_column)
        return
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


class TestRadiusValidation:
    """NaN, infinite and negative radii raise ``ValueError`` on every
    engine, query and neighbor path, where each would otherwise answer
    them differently.  Zero stays valid for the coordinate API only."""

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

    # Snapshots refuse zero too, so it joins the bad radii here.
    @pytest.mark.parametrize("radius", BAD_RADII + [0.0], ids=BAD_RADIUS_IDS + ["zero"])
    @pytest.mark.parametrize("method", QUERY_METHODS)
    def test_batch_queries_reject(self, neighbor_path, method, radius, rng):
        positions = rng.uniform(0, self.SIDE, (3, 40, 2))
        mask = rng.uniform(size=(3, 40)) < 0.5
        bound = BatchNeighborQuery(self.SIDE, 3).bind(positions)
        calls = {
            "any_within": lambda: bound.any_within(mask, ~mask, radius),
            "count_within": lambda: bound.count_within(mask, ~mask, radius),
            "contacts_within": lambda: bound.contacts_within(mask, ~mask, radius),
            "pairs_within": lambda: bound.pairs_within(radius),
        }
        with pytest.raises(ValueError, match="radius"):
            calls[method]()

    @pytest.mark.parametrize("backend", ["auto"] + BACKENDS)
    def test_zero_radius_is_coordinate_api_only(self, backend, rng):
        points = rng.uniform(0, self.SIDE, (40, 2))
        engine = make_engine(backend, self.SIDE)
        assert engine.count_within(points, points, 0.0).tolist() == [1] * 40
        assert engine.pairs_within(points, 0.0).shape == (0, 2)
        with pytest.raises(ValueError, match="positive"):
            engine.bind(points, 0.0)
        bound = BatchNeighborQuery(self.SIDE, 1).bind(points[None])
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
            # the batch_contacts kernel, on either engine: no tree either.
            ('run_trials(config.with_options(engine="batch", protocol="gossip"), 2)', False),
            ('run_trials(config.with_options(engine="batch", protocol="push-pull"), 2)', False),
            ('run_flooding(config.with_options(protocol="gossip"))', False),
            # On the numpy tier the degree count still builds a KD-tree.
            (
                'run_trials(config.with_options(engine="batch", protocol="gossip",'
                ' kernels="numpy"), 2)',
                True,
            ),
            # So does the cell cover's exact shell, on the numpy tier.
            ('run_flooding(config.with_options(kernels="numpy"))', True),
        ],
        ids=[
            "batch-flooding", "scalar-flooding", "batch-gossip", "batch-push-pull",
            "scalar-gossip", "numpy-batch-gossip", "numpy-scalar-flooding",
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
        assert not BatchNeighborQuery(1.0, 1)._kdtree
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
    def test_sqrt5_cross_branch_stays_exact(self, rng, monkeypatch, brute_hits):
        """The cross-neighborhood branch (reach_sure == 0) only triggers
        for divisors below 2*sqrt2; pin the seed's sqrt(5) cover to keep
        it covered and exact."""
        import math

        monkeypatch.setattr(BatchNeighborQuery, "_COVER_DIVISOR", math.sqrt(5.0))
        side, radius = 12.0, 1.4
        positions = rng.uniform(0, side, size=(3, 100, 2))
        informed = rng.uniform(size=(3, 100)) < 0.35
        query = BatchNeighborQuery(side, 3)
        got = query.any_within(positions, informed, ~informed, radius)
        assert np.array_equal(got, brute_hits(positions, informed, ~informed, radius))


class TestPositionsOutsideTheSquare:
    """Every path equals brute force on agents outside the square: the
    cell cover must not trust the border cell that clipping (or
    truncation toward zero) would put such an agent in, and at B > 1 the
    tiling must keep such agents of different replicas apart."""

    SIDE = 5.0
    RADIUS = 1.0

    def assert_round_is_brute_force(self, points, informed, brute_hits):
        protocol = FloodingProtocol(points.shape[0], self.SIDE, self.RADIUS, 0)
        protocol.informed[:] = informed
        newly = protocol.step(points)
        expected = brute_hits(points[None], informed[None], ~informed[None], self.RADIUS)[0]
        assert newly.tolist() == np.flatnonzero(expected).tolist()
        return newly

    def test_points_beyond_the_far_edges(self, neighbor_path, brute_hits):
        # Agent 17 is 1.19 from the source, agents 20 and 21 are in range.
        points = np.random.default_rng(0).uniform(0, 10, (50, 2))
        informed = np.zeros(50, dtype=bool)
        informed[0] = True
        assert self.assert_round_is_brute_force(points, informed, brute_hits).tolist() == [20, 21]

    def test_negative_coordinates(self, neighbor_path, brute_hits):
        # Cover cells are R / (2 sqrt2) ~ 0.354 wide.  Truncation puts the
        # source at x = -0.35 into cell 0 and clipping the one at x = -0.9;
        # the queries at x = 0.69 and 0.7 sit in cell 1, out of range.
        points = np.array([
            [-0.35, 1.0], [-0.9, 3.0],  # sources
            [0.69, 1.0], [0.7, 3.0],  # just out of range
            [0.6, 1.0], [0.05, 3.0], [-0.2, 3.5],  # in range
        ])
        informed = np.array([True, True, False, False, False, False, False])
        newly = self.assert_round_is_brute_force(points, informed, brute_hits)
        assert newly.tolist() == [4, 5, 6]

    def test_random_snapshots_around_the_corner(self, neighbor_path, brute_hits):
        rng = np.random.default_rng(3)
        for _ in range(40):
            points = rng.uniform(-0.5, self.SIDE, (50, 2))
            informed = rng.uniform(size=50) < 0.3
            informed[0] = True
            self.assert_round_is_brute_force(points, informed, brute_hits)

    @pytest.mark.parametrize("method", QUERY_METHODS)
    def test_one_replica_anywhere(self, neighbor_path, method):
        # Agents up to 3R beyond every edge of the square.
        rng = np.random.default_rng(4)
        query = BatchNeighborQuery(self.SIDE, 1)
        for _ in range(10):
            positions = rng.uniform(-3.0, self.SIDE + 3.0, (1, 60, 2))
            source_mask = rng.uniform(size=(1, 60)) < 0.4
            bound = query.bind(positions)
            assert_matches_brute(bound, method, source_mask, ~source_mask, self.RADIUS)

    @pytest.mark.parametrize("method", QUERY_METHODS)
    def test_replicas_anywhere(self, neighbor_path, method):
        # Five replicas fill a 3 x 2 tile sheet, so tiles meet along both
        # axes.  Agents lie up to 3R beyond every edge, and each replica
        # holds one 3R beyond the middle of each edge: tiles a square
        # plus 2R apart would overlap, and put agents of neighbouring
        # replicas in range of each other.
        rng = np.random.default_rng(5)
        margin = 3.0 * self.RADIUS
        low, high, mid = -margin, self.SIDE + margin, self.SIDE / 2
        edges = np.array([[low, mid], [high, mid], [mid, low], [mid, high]])
        query = BatchNeighborQuery(self.SIDE, 5)
        for _ in range(6):
            inside = rng.uniform(low, high, (5, 56, 2))
            positions = np.concatenate([np.broadcast_to(edges, (5, 4, 2)), inside], axis=1)
            source_mask = rng.uniform(size=(5, 60)) < 0.4
            source_mask[:, :4] = [True, False, True, False]
            bound = query.bind(positions)
            assert_matches_brute(bound, method, source_mask, ~source_mask, self.RADIUS)

    def test_no_contact_between_replicas(self, neighbor_path):
        # Replica 0's source is 0.6 R beyond the east edge and replica
        # 1's query 0.4 R beyond the west edge: tiles a square plus 2R
        # apart would put them exactly R apart.
        positions = np.array([[[5.6, 0.5], [2.5, 2.5]], [[2.5, 2.5], [-0.4, 0.5]]])
        source_mask = np.array([[True, False], [False, False]])
        query_mask = np.array([[False, False], [False, True]])
        hits = BatchNeighborQuery(self.SIDE, 2).any_within(
            positions, source_mask, query_mask, self.RADIUS
        )
        assert not hits.any()


class TestBatchQueryExtremes:
    """Every query on every path equals brute force at the extremes of the
    radius and of the population, and refuses masks of the wrong shape
    before a compiled kernel could read past them."""

    SIDE = 8.0

    @pytest.mark.parametrize("radius", [0.05, 8.0, 30.0], ids=["tiny", "side", "beyond-side"])
    def test_radius_extremes(self, neighbor_path, radius):
        # R = 0.05 makes each replica's cover grid 453 x 453 cells; half
        # the agents share a 0.1-wide box so that some still meet.  R = 8
        # and R = 30 leave one to three cover cells a side.
        rng = np.random.default_rng(6)
        positions = np.concatenate(
            [rng.uniform(0, self.SIDE, (3, 35, 2)), rng.uniform(3.0, 3.1, (3, 35, 2))], axis=1
        )
        source_mask = rng.uniform(size=(3, 70)) < 0.4
        bound = BatchNeighborQuery(self.SIDE, 3).bind(positions)
        for method in QUERY_METHODS:
            assert_matches_brute(bound, method, source_mask, ~source_mask, radius)

    @pytest.mark.parametrize("n", [0, 1], ids=["no-agents", "one-agent"])
    def test_empty_and_lone_agent_replicas(self, neighbor_path, n):
        # A lone agent in both masks is its own contact, but not a pair.
        positions = np.full((3, n, 2), self.SIDE / 2)
        everyone = np.ones((3, n), dtype=bool)
        bound = BatchNeighborQuery(self.SIDE, 3).bind(positions)
        for method in QUERY_METHODS:
            assert_matches_brute(bound, method, everyone, everyone, 1.0)

    @pytest.mark.parametrize("method", ["any_within", "count_within", "contacts_within"])
    def test_masks_of_the_wrong_shape_raise(self, neighbor_path, method):
        rng = np.random.default_rng(7)
        bound = BatchNeighborQuery(self.SIDE, 3).bind(rng.uniform(0, self.SIDE, (3, 40, 2)))
        good = rng.uniform(size=(3, 40)) < 0.5
        call = getattr(bound, method)
        for bad in (good[0], good[:2], good[:, :39], good[..., None]):
            with pytest.raises(ValueError, match="masks"):
                call(bad, ~good, 1.0)
            with pytest.raises(ValueError, match="masks"):
                call(good, bad, 1.0)


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

    def test_empty_sides(self, rng):
        points = rng.uniform(0, 10, (20, 2))
        snapshot = make_engine("grid", 10.0).bind(points, 1.0)
        empty = np.empty(0, dtype=np.intp)
        for source_idx, query_idx in ((empty, np.arange(20)), (np.arange(20), empty)):
            s, q = snapshot.contacts_within(source_idx, query_idx)
            assert s.size == 0 and q.size == 0


class TestBatchContactsAndPairs:
    """Batched bipartite contacts and per-replica edge lists."""

    SIDE = 10.0

    @staticmethod
    def brute_contacts(positions, source_mask, query_mask, radius):
        """Every (replica, source, query) with ``dx*dx + dy*dy <= r*r``,
        sorted by replica, then source, then query."""
        columns = []
        for b in range(positions.shape[0]):
            dx = positions[b, :, None, 0] - positions[b, None, :, 0]
            dy = positions[b, :, None, 1] - positions[b, None, :, 1]
            close = dx * dx + dy * dy <= radius * radius
            close &= source_mask[b][:, None] & query_mask[b][None, :]
            source, query = np.nonzero(close)  # row-major: sorted pairs
            columns.append((np.full(source.size, b, dtype=np.intp), source, query))
        return tuple(np.concatenate(column) for column in zip(*columns))

    def assert_canonical(self, positions, source_mask, query_mask, radius, rows=None):
        """``contacts_within`` equals the sorted brute-force list, in order."""
        query = BatchNeighborQuery(self.SIDE, positions.shape[0])
        got = query.bind(positions, rows=rows).contacts_within(source_mask, query_mask, radius)
        expected = self.brute_contacts(positions, source_mask, query_mask, radius)
        assert len(got) == 3
        for got_column, expected_column in zip(got, expected):
            assert got_column.dtype == np.intp
            assert np.array_equal(got_column, expected_column)
        return got

    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_contacts_in_canonical_order(self, neighbor_path, batch, rng):
        positions = rng.uniform(0, self.SIDE, (batch, 120, 2))
        for informed_frac in (0.05, 0.5, 0.95):
            informed = rng.uniform(size=(batch, 120)) < informed_frac
            self.assert_canonical(positions, informed, ~informed, 1.3)
        # Overlapping masks: every agent is its own contact.
        source_mask = rng.uniform(size=(batch, 120)) < 0.6
        query_mask = rng.uniform(size=(batch, 120)) < 0.6
        self.assert_canonical(positions, source_mask, query_mask, 1.3)
        # A bind that names the moved replicas, with the others retired.
        rows = np.arange(0, batch, 2)
        active = np.zeros(batch, dtype=bool)
        active[rows] = True
        informed = rng.uniform(size=(batch, 120)) < 0.4
        rep, _s, _q = self.assert_canonical(
            positions, informed & active[:, None], ~informed & active[:, None], 1.3, rows=rows
        )
        assert set(rep.tolist()) <= set(rows.tolist())
        # Empty source or query masks.
        full = np.ones((batch, 120), dtype=bool)
        none = np.zeros((batch, 120), dtype=bool)
        for source_mask, query_mask in ((none, full), (full, none)):
            rep, _s, _q = self.assert_canonical(positions, source_mask, query_mask, 1.3)
            assert rep.size == 0

    def test_lattice_pairs_exactly_r_apart(self, neighbor_path, rng):
        # Lattice neighbors sit exactly R = 1 apart and are contacts;
        # diagonal neighbors (sqrt 2) are not.
        grid = np.stack(np.meshgrid(np.arange(11.0), np.arange(11.0)), -1).reshape(-1, 2)
        positions = np.stack([grid, grid[rng.permutation(len(grid))]])
        everyone = np.ones(positions.shape[:2], dtype=bool)
        rep, source, _query = self.assert_canonical(positions, everyone, everyone, 1.0)
        x, y = positions[..., 0], positions[..., 1]
        inner = lambda v: (v > 0) & (v < 10)  # noqa: E731
        degree = 1 + (1 + inner(x)) + (1 + inner(y))
        assert np.array_equal(np.bincount(rep * 121 + source), degree.reshape(-1))
        even = everyone.copy()
        even[:, 1::2] = False
        self.assert_canonical(positions, even, ~even, 1.0)

    def test_dense_cluster_beyond_first_capacity(self, neighbor_path, rng):
        # Every agent of each replica is within R of every other, so the
        # kernel's first capacity guess overflows and the pass re-runs.
        batch, n = 2, 60
        positions = rng.uniform(4.0, 4.3, (batch, n, 2))
        everyone = np.ones((batch, n), dtype=bool)
        rep, _s, _q = self.assert_canonical(positions, everyone, everyone, 0.5)
        first_guess = _contacts_capacity(batch * n, batch * n, batch, 0.5, self.SIDE)
        assert rep.size == batch * n * n > first_guess

    def test_batch_contacts_match_scalar(self, rng):
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

    def test_batch_pairs_match_scalar_engines(self, neighbor_path, rng):
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

    @pytest.mark.parametrize("radius", [0.6, 1.5, 4.0])
    def test_any_within_matches_brute_every_round(self, rng, radius, brute_hits):
        query = BatchNeighborQuery(self.SIDE, self.BATCH)
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
            expected = brute_hits(positions, informed, ~informed, radius)
            assert np.array_equal(got, expected), step

    def test_agent_outside_the_grid_is_never_served_a_stale_cell(self, neighbor_path, brute_hits):
        """An agent outside its replica's cover grid drops the cached cell
        ids: a later bind that names other replicas only must still see
        it where it is, not in the cell it left."""
        radius = 1.0
        rng = np.random.default_rng(8)
        positions = rng.uniform(0, self.SIDE, (self.BATCH, 40, 2))
        positions[1, :2] = [[4.0, 4.0], [4.1, 4.0]]  # agent 1 shares agent 0's cell
        informed = np.zeros((self.BATCH, 40), dtype=bool)
        informed[:, 0] = True
        query = BatchNeighborQuery(self.SIDE, self.BATCH)

        def hits(rows):
            got = query.bind(positions, rows=rows).any_within(informed, ~informed, radius)
            assert np.array_equal(got, brute_hits(positions, informed, ~informed, radius))
            return got[1, 1]

        assert hits(None)
        positions[1, 1] = [-1.5, 4.0]  # leaves the square, then stays there
        assert not hits([1])
        positions[0] = rng.uniform(0, self.SIDE, (40, 2))
        assert not hits([0])
        positions[1, 1] = [4.2, 4.0]  # back inside
        assert hits([1])

    def test_bind_validates_shapes(self, rng):
        query = BatchNeighborQuery(self.SIDE, self.BATCH)
        with pytest.raises(ValueError, match="shape"):
            query.bind(rng.uniform(0, 1, size=(70, 2)))
        with pytest.raises(ValueError, match="replicas"):
            query.bind(rng.uniform(0, 1, size=(self.BATCH + 1, 70, 2)))
