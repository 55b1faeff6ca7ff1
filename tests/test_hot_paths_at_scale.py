"""The simulation's hot paths at the sizes the experiments run them.

The other test files check each engine, kernel and mobility model on a few
hundred points, where every branch is cheap to cross-check.  Here the same
primitives run on thousands of points per call (the occupancy-grid cover,
frontier pruning, multi-hop frontier rounds and the multi-leg carry-over
all pick different paths at this scale) and are checked against plain
numpy references or against each other.
"""

import math

import numpy as np
import pytest

from repro.geometry.neighbors import BatchNeighborQuery, available_backends, make_engine
from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.mobility.random_direction import RandomDirection
from repro.mobility.random_walk import RandomWalk
from repro.mobility.rwp import RandomWaypoint
from repro.protocols.flooding import BatchFloodingState
from repro.simulation import run_trials
from repro.simulation.config import standard_config
from repro.simulation.runner import run_flooding

BACKENDS = available_backends()
FAST_BACKENDS = [b for b in BACKENDS if b != "brute"]


def reference_counts(sources, queries, radius, chunk=500):
    """Per-query number of sources within ``radius`` (closed disk)."""
    counts = np.zeros(queries.shape[0], dtype=np.intp)
    for lo in range(0, queries.shape[0], chunk):
        block = queries[lo:lo + chunk]
        dx = block[:, None, 0] - sources[None, :, 0]
        dy = block[:, None, 1] - sources[None, :, 1]
        counts[lo:lo + chunk] = np.count_nonzero(dx * dx + dy * dy <= radius * radius, axis=1)
    return counts


def reference_pairs(points, radius, chunk=500):
    """Every unordered pair ``(i, j)``, ``i < j``, at distance <= ``radius``."""
    pairs = set()
    for lo in range(0, points.shape[0], chunk):
        block = points[lo:lo + chunk]
        dx = block[:, None, 0] - points[None, :, 0]
        dy = block[:, None, 1] - points[None, :, 1]
        rows, cols = np.nonzero(dx * dx + dy * dy <= radius * radius)
        rows = rows + lo
        keep = rows < cols
        pairs.update(zip(rows[keep].tolist(), cols[keep].tolist()))
    return pairs


class TestSnapshotQueriesAtScale:
    """Single-snapshot engine queries, 5000 points, a tenth informed."""

    SIDE = 100.0
    RADIUS = 3.0
    N = 5_000

    @pytest.fixture(scope="class")
    def snapshot(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, self.SIDE, (self.N, 2))
        informed = np.zeros(self.N, dtype=bool)
        informed[rng.choice(self.N, size=self.N // 10, replace=False)] = True
        return positions, informed

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_any_within_matches_reference(self, snapshot, backend):
        positions, informed = snapshot
        sources, queries = positions[informed], positions[~informed]
        got = make_engine(backend, self.SIDE).any_within(sources, queries, self.RADIUS)
        expected = reference_counts(sources, queries, self.RADIUS) > 0
        assert np.array_equal(got, expected)
        assert 0 < np.count_nonzero(expected) < expected.size

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_count_within_matches_reference(self, snapshot, backend):
        positions, informed = snapshot
        sources, queries = positions[informed], positions[~informed]
        got = make_engine(backend, self.SIDE).count_within(sources, queries, self.RADIUS)
        assert np.array_equal(got, reference_counts(sources, queries, self.RADIUS))

    # brute materializes the full n x n distance matrix (~1 GB at this n)
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_pairs_within_matches_reference(self, snapshot, backend):
        positions, _ = snapshot
        pairs = make_engine(backend, self.SIDE).pairs_within(positions, self.RADIUS)
        got = {tuple(sorted(p)) for p in pairs.tolist()}
        assert len(got) == pairs.shape[0]
        assert got == reference_pairs(positions, self.RADIUS)


class TestBatchInfectionAtScale:
    """The batch engine's per-replica infection test, one call for B trials."""

    @staticmethod
    def expected_hits(positions, informed, radius):
        hits = np.zeros(informed.shape, dtype=bool)
        for b in range(positions.shape[0]):
            sources = positions[b][informed[b]]
            queries = positions[b][~informed[b]]
            hits[b, ~informed[b]] = reference_counts(sources, queries, radius) > 0
        return hits

    @pytest.mark.parametrize("backend", ["cells"] + FAST_BACKENDS)
    def test_backend_matches_reference(self, backend):
        rng = np.random.default_rng(1)
        batch, n, side, radius = 16, 2_000, 44.7, 2.8
        positions = rng.uniform(0, side, size=(batch, n, 2))
        informed = rng.uniform(size=(batch, n)) < 0.3
        query = BatchNeighborQuery(side, batch, backend=backend)
        hits = query.any_within(positions, informed, ~informed, radius)
        assert np.array_equal(hits, self.expected_hits(positions, informed, radius))

    @pytest.mark.parametrize("multi_hop", [False, True], ids=["one-hop", "multi-hop"])
    def test_mid_flood_round_matches_reference(self, multi_hop):
        """A dense informed disk whose rim is the frontier: the cell cover
        drops the disk's interior sources, and multi-hop rounds send from
        the fresh frontier only; neither may change any answer."""
        rng = np.random.default_rng(1)
        batch, n = 8, 2_000
        side, radius = math.sqrt(n), 2.4
        positions = rng.uniform(0, side, size=(batch, n, 2))
        # Radius 0.45 side: informed outnumber the uninformed, the regime
        # where the cell cover prunes.
        informed = np.linalg.norm(positions - side / 2.0, axis=2) < side * 0.45
        state = BatchFloodingState(
            n, side, radius, np.zeros(batch, dtype=np.intp), backend="cells", multi_hop=multi_hop
        )
        state.informed = informed.copy()
        state.step(positions)
        expected = informed.copy()
        while True:
            hits = self.expected_hits(positions, expected, radius)
            expected |= hits
            if not multi_hop or not hits.any():
                break
        assert np.array_equal(state.informed, expected)


class TestMobilityStepsAtScale:
    """20k agents per step: positions stay in the square and no agent
    travels farther than its per-step budget."""

    SIDE = 100.0
    N = 20_000

    def assert_steps_bounded(self, model, budget, order):
        previous = model.positions
        for _ in range(3):
            current = model.step()
            assert current.shape == (self.N, 2)
            assert np.all((current >= 0.0) & (current <= self.SIDE))
            moved = np.linalg.norm(current - previous, ord=order, axis=1)
            assert moved.max() <= budget + 1e-9
            assert moved.max() > 0.0
            previous = current

    @pytest.mark.parametrize("speed", [1.0, 30.0], ids=["slow", "multi-leg"])
    def test_mrwp_step_walks_manhattan_paths(self, speed):
        """L1 displacement <= speed; at speed 30 many agents finish a leg
        mid-step and carry the rest of the budget into the next one."""
        model = ManhattanRandomWaypoint(self.N, self.SIDE, speed=speed, rng=np.random.default_rng(0))
        self.assert_steps_bounded(model, speed, order=1)

    @pytest.mark.parametrize(
        "model_cls,kwargs",
        [
            (RandomWaypoint, {"speed": 1.0}),
            (RandomWalk, {"move_radius": 1.0}),
            (RandomDirection, {"speed": 1.0}),
        ],
        ids=["rwp", "random-walk", "random-direction"],
    )
    def test_baseline_step_bounded(self, model_cls, kwargs):
        model = model_cls(self.N, self.SIDE, rng=np.random.default_rng(0), **kwargs)
        self.assert_steps_bounded(model, 1.0, order=2)


class TestFloodingRunsAtScale:
    """Full flooding runs at n=2000 (and one at n=8000)."""

    @staticmethod
    def config(n=2_000, **options):
        return standard_config(
            n, radius_factor=1.5, speed_fraction=0.25, seed=1, max_steps=10_000, **options
        )

    @pytest.fixture(scope="class")
    def grid_run(self):
        return run_flooding(self.config(backend="grid"))

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_backends_give_the_same_run(self, grid_run, backend):
        result = run_flooding(self.config(backend=backend))
        assert result.completed
        assert result.flooding_time == grid_run.flooding_time
        assert np.array_equal(result.informed_history, grid_run.informed_history)

    @pytest.mark.parametrize(
        "options", [{"init": "uniform"}, {"multi_hop": True}], ids=["cold-start", "multi-hop"]
    )
    def test_variant_completes(self, options):
        assert run_flooding(self.config(**options)).completed

    def test_multi_hop_no_slower_than_single_hop(self, grid_run):
        """Same trajectories, and multi-hop informs a superset every step."""
        multi = run_flooding(self.config(backend="grid", multi_hop=True))
        assert multi.flooding_time <= grid_run.flooding_time
        steps = min(len(multi.informed_history), len(grid_run.informed_history))
        assert np.all(multi.informed_history[:steps] >= grid_run.informed_history[:steps])

    def test_large_run_completes(self):
        result = run_flooding(self.config(8_000))
        assert result.completed
        assert result.final_coverage == 1.0


class TestTrialEnginesAtScale:
    """Multi-trial flooding, 12 trials of n=600, per engine."""

    N = 600
    TRIALS = 12

    @pytest.mark.parametrize("radius_factor,seed", [(1.0, 42), (2.0, 7)], ids=["canonical", "dense"])
    def test_batch_equals_scalar(self, radius_factor, seed):
        config = standard_config(self.N, radius_factor=radius_factor, seed=seed)
        scalar = run_trials(config, self.TRIALS)
        batch = run_trials(config.with_options(engine="batch"), self.TRIALS)
        assert [r.flooding_time for r in batch] == [r.flooding_time for r in scalar]
        assert [r.n_steps for r in batch] == [r.n_steps for r in scalar]

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_dense_regime_always_completes(self, engine):
        """radius_factor=2 is the paper's dense regime: every trial floods."""
        config = standard_config(self.N, radius_factor=2.0, seed=7, engine=engine)
        results = run_trials(config, self.TRIALS)
        assert all(r.completed for r in results)
