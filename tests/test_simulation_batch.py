"""Batch engine: seed-for-seed parity, batched queries, sharding determinism."""

import numpy as np
import pytest

from mobility_oracles import ManhattanRandomWaypoint, RandomWalk, RandomWaypoint
from repro.geometry.neighbors import BatchNeighborQuery, make_engine
from repro.mobility import BatchManhattanRandomWaypoint, BatchRandomWalk, BatchRandomWaypoint
from repro.protocols.flooding import BatchFloodingState
from repro.simulation import (
    SweepPlan,
    SweepPoint,
    run_flooding,
    run_protocol_batch,
    run_sweep,
    run_trials,
    standard_config,
)


def assert_results_match(scalar_results, batch_results):
    assert len(scalar_results) == len(batch_results)
    for a, b in zip(scalar_results, batch_results):
        assert a.flooding_time == b.flooding_time
        assert a.completed == b.completed
        assert a.stalled == b.stalled
        assert a.n_steps == b.n_steps
        assert a.source == b.source
        assert a.final_coverage == b.final_coverage
        assert np.array_equal(a.informed_history, b.informed_history)
        assert a.cz_completion_time == b.cz_completion_time
        assert a.suburb_completion_time == b.suburb_completion_time
        assert a.source_in_central_zone == b.source_in_central_zone


class TestSeedForSeedParity:
    """The batch engine must reproduce the scalar engine trial-for-trial.

    Both engines run the same protocol states (the scalar one at B=1), so
    these cases check the two simulation loops: mobility, sources,
    retirement and result assembly.  ``tests/test_protocol_batch_parity.py`` checks the
    protocols against independent oracles.
    """

    @pytest.fixture(params=["numpy", "auto"])
    def kernels(self, request):
        return request.param

    def test_flooding_times_match_scalar(self, kernels):
        config = standard_config(120, seed=7, kernels=kernels)
        scalar = run_trials(config, 8)
        batch = run_trials(config.with_options(engine="batch"), 8)
        assert_results_match(scalar, batch)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mobility": "rwp"},
            {"mobility": "random-walk"},
            {"mobility": "random-direction"},  # exercises the replicated fallback
            {"mobility": "mrwp-pause", "mobility_options": {"pause_time": 1.5}},
            {"multi_hop": True},
            {"init": "uniform"},
            {"init": "closed-form"},
            {"source": "central"},
            {"source": "suburb"},
            {"track_zones": False},
        ],
    )
    def test_parity_across_options(self, overrides, kernels):
        config = standard_config(80, seed=11, kernels=kernels, **overrides)
        scalar = run_trials(config, 5)
        batch = run_trials(config.with_options(engine="batch"), 5)
        assert_results_match(scalar, batch)

    def test_parity_is_independent_of_batch_size(self, kernels):
        config = standard_config(80, seed=3, engine="batch", kernels=kernels)
        whole = run_trials(config, 7)
        sliced = run_trials(config.with_options(batch_size=3), 7)
        assert_results_match(whole, sliced)

    def test_sweep_with_batch_engine_matches_scalar(self, kernels):
        config = standard_config(80, seed=5, kernels=kernels)
        scalar = run_sweep(SweepPlan.over_parameter(config, "radius", [3.0, 4.0], n_trials=3))
        batch = run_sweep(
            SweepPlan.over_parameter(
                config.with_options(engine="batch"), "radius", [3.0, 4.0], n_trials=3
            )
        )
        for a, b in zip(scalar, batch):
            assert (a.engine, b.engine) == ("scalar", "batch")
            assert a.key == b.key
            assert a.summary == b.summary
            assert_results_match(a.results, b.results)

    def test_batch_supports_every_registered_protocol(self):
        """PR 3: the batch engine is protocol-agnostic (the old behaviour
        — a deep ValueError for anything but flooding — is gone)."""
        config = standard_config(80, seed=1, engine="batch", protocol="gossip")
        results = run_trials(config, 2)
        assert len(results) == 2

    def test_unknown_protocol_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            standard_config(80, protocol="carrier-pigeon")

    def test_auto_engine_resolves_to_batch_for_batchable_protocols(self):
        config = standard_config(80, seed=1, engine="auto", protocol="sir")
        assert config.resolved_engine == "batch"
        assert standard_config(80, engine="scalar").resolved_engine == "scalar"

    def test_auto_engine_matches_batch_results(self, kernels):
        config = standard_config(80, seed=29, kernels=kernels)
        batch = run_trials(config.with_options(engine="batch"), 4)
        auto = run_trials(config.with_options(engine="auto"), 4)
        assert_results_match(batch, auto)


class TestBatchMobility:
    """Vectorized multi-replica stepping vs B independent scalar models
    (the historical ones, from ``tests/mobility_oracles.py``)."""

    B, N, SIDE, SPEED = 5, 60, 10.0, 0.8

    def _rng_pairs(self, seed):
        root = np.random.SeedSequence(seed)
        children = root.spawn(self.B)
        return (
            [np.random.default_rng(c) for c in children],
            [np.random.default_rng(c) for c in children],
        )

    def test_batch_mrwp_trajectories_match_scalar(self):
        scalar_rngs, batch_rngs = self._rng_pairs(21)
        models = [
            ManhattanRandomWaypoint(self.N, self.SIDE, self.SPEED, rng=r)
            for r in scalar_rngs
        ]
        batch = BatchManhattanRandomWaypoint(self.N, self.SIDE, self.SPEED, batch_rngs)
        assert np.array_equal(
            batch.positions, np.stack([m.positions for m in models])
        )
        for _ in range(15):
            expected = np.stack([m.step() for m in models])
            assert np.array_equal(batch.step(), expected)
        assert np.array_equal(
            batch.turn_counts.reshape(self.B, self.N),
            np.stack([m.turn_counts for m in models]),
        )
        assert np.array_equal(
            batch.arrival_counts.reshape(self.B, self.N),
            np.stack([m.arrival_counts for m in models]),
        )

    def test_batch_rwp_trajectories_match_scalar(self):
        scalar_rngs, batch_rngs = self._rng_pairs(22)
        models = [
            RandomWaypoint(self.N, self.SIDE, self.SPEED, rng=r, pause_time=0.5)
            for r in scalar_rngs
        ]
        batch = BatchRandomWaypoint(self.N, self.SIDE, self.SPEED, batch_rngs, pause_time=0.5)
        for _ in range(15):
            expected = np.stack([m.step() for m in models])
            assert np.array_equal(batch.step(), expected)

    def test_batch_random_walk_trajectories_match_scalar(self):
        scalar_rngs, batch_rngs = self._rng_pairs(23)
        models = [
            RandomWalk(self.N, self.SIDE, move_radius=self.SPEED, rng=r)
            for r in scalar_rngs
        ]
        batch = BatchRandomWalk(self.N, self.SIDE, move_radius=self.SPEED, rngs=batch_rngs)
        for _ in range(15):
            expected = np.stack([m.step() for m in models])
            assert np.array_equal(batch.step(), expected)

    def test_step_returns_independent_copies_by_default(self):
        """Holding step() results across steps must be safe (the lock-step
        driver opts into the zero-copy view with copy=False)."""
        _scalar_rngs, batch_rngs = self._rng_pairs(26)
        batch = BatchManhattanRandomWaypoint(self.N, self.SIDE, self.SPEED, batch_rngs)
        first = batch.step()
        held = first.copy()
        second = batch.step()
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, held)  # not silently refreshed in place
        view = batch.step(copy=False)
        assert not view.flags.writeable
        assert np.array_equal(view, batch.positions)

    def test_inactive_replicas_freeze_state_and_streams(self):
        _scalar_rngs, batch_rngs = self._rng_pairs(24)
        batch = BatchManhattanRandomWaypoint(self.N, self.SIDE, self.SPEED, batch_rngs)
        frozen = batch.positions[2]
        active = np.ones(self.B, dtype=bool)
        active[2] = False
        for _ in range(10):
            positions = batch.step(active=active)
        assert np.array_equal(positions[2], frozen)
        assert not np.array_equal(positions[0], batch.positions[2])

    def test_batch_mrwp_marginals_stay_stationary(self):
        """Stepping must preserve Theorem 1's non-uniform marginal: the
        central box denser than a corner box, all positions in bounds."""
        side = 10.0
        batch = BatchManhattanRandomWaypoint(
            30, side, 0.7, [np.random.default_rng(s) for s in range(40)]
        )
        for _ in range(5):
            positions = batch.step()
        flat = positions.reshape(-1, 2)
        assert np.all(flat >= 0.0) and np.all(flat <= side)
        center = np.all(np.abs(flat - side / 2) < side / 6, axis=1).mean()
        corner = np.all(flat < side / 3, axis=1).mean()
        # Theorem 1: the central box carries ~2.6x the corner box's mass.
        assert center > corner * 1.5


class TestBatchNeighborQuery:
    """Every neighbor path of the batch query vs per-replica brute force."""

    @pytest.fixture
    def workload(self):
        rng = np.random.default_rng(5)
        batch, n, side, radius = 6, 80, 12.0, 1.3
        positions = rng.uniform(0, side, size=(batch, n, 2))
        source_mask = rng.uniform(size=(batch, n)) < 0.3
        query_mask = ~source_mask & (rng.uniform(size=(batch, n)) < 0.8)
        return positions, source_mask, query_mask, side, radius

    def test_any_within_matches_scalar_engines(self, workload, neighbor_path):
        positions, source_mask, query_mask, side, radius = workload
        batch = positions.shape[0]
        query = BatchNeighborQuery(side, batch)
        got = query.any_within(positions, source_mask, query_mask, radius)
        reference = make_engine("brute", side)
        for b in range(batch):
            expected = np.zeros(positions.shape[1], dtype=bool)
            expected[query_mask[b]] = reference.any_within(
                positions[b][source_mask[b]], positions[b][query_mask[b]], radius
            )
            assert np.array_equal(got[b], expected), f"replica {b}"

    def test_count_within_matches_scalar_engines(self, workload, neighbor_path):
        positions, source_mask, query_mask, side, radius = workload
        batch = positions.shape[0]
        query = BatchNeighborQuery(side, batch)
        got = query.count_within(positions, source_mask, query_mask, radius)
        reference = make_engine("brute", side)
        for b in range(batch):
            expected = np.zeros(positions.shape[1], dtype=np.intp)
            expected[query_mask[b]] = reference.count_within(
                positions[b][source_mask[b]], positions[b][query_mask[b]], radius
            )
            assert np.array_equal(got[b], expected)

    def test_no_cross_replica_hits(self, neighbor_path):
        # One source in replica 0 only; replica 1's queries must all miss.
        positions = np.zeros((2, 3, 2))
        positions[1] = positions[0]  # identical coordinates across replicas
        source_mask = np.array([[True, False, False], [False, False, False]])
        query_mask = ~source_mask
        query = BatchNeighborQuery(5.0, 2)
        hits = query.any_within(positions, source_mask, query_mask, 1.0)
        assert hits[0, 1] and hits[0, 2]
        assert not hits[1].any()

    def test_flooding_state_single_step(self):
        positions = np.array(
            [[[0.0, 0.0], [0.5, 0.0], [3.0, 3.0]], [[0.0, 0.0], [2.0, 0.0], [2.5, 0.0]]]
        )
        state = BatchFloodingState(3, 5.0, 1.0, sources=[0, 0])
        newly = state.step(positions)
        assert newly[0, 1] and not newly[0, 2]
        assert not newly[1].any()  # nearest agent is 2.0 > radius away
        assert state.informed_counts.tolist() == [2, 1]

    def test_flooding_state_multi_hop_saturates_components(self):
        positions = np.array([[[0.0, 0.0], [0.9, 0.0], [1.8, 0.0], [4.0, 4.0]]])
        state = BatchFloodingState(4, 6.0, 1.0, sources=[0], multi_hop=True)
        state.step(positions)
        assert state.informed[0].tolist() == [True, True, True, False]


class TestShardingDeterminism:
    """Trials must be reproducible under batch slicing and process fan-out."""

    def test_parallel_batch_matches_serial_and_scalar(self):
        config = standard_config(80, seed=13)
        scalar = run_trials(config, 6)
        batched = config.with_options(engine="batch", batch_size=2)
        serial = run_trials(batched, 6)
        (parallel,) = run_sweep([SweepPoint(batched, 6)], jobs=2)
        (sharded,) = run_sweep([SweepPoint(batched.with_options(batch_size=0), 6)], jobs=3)
        assert_results_match(scalar, serial)
        assert_results_match(scalar, parallel.results)
        assert_results_match(scalar, sharded.results)

    def test_parallel_sweep_batch_matches_serial(self, hand_loop):
        config = standard_config(80, seed=17, engine="batch")
        plan = SweepPlan.over_parameter(config, "radius", [3.0, 3.5], n_trials=4)
        serial = run_sweep(plan)
        parallel = run_sweep(plan, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.key == b.key
            assert a.summary == b.summary
            assert_results_match(hand_loop(config.with_options(radius=a.key), 4), b.results)

    def test_repeated_calls_are_identical(self):
        config = standard_config(80, seed=19, engine="batch")
        first = run_trials(config, 4)
        second = run_trials(config, 4)
        assert_results_match(first, second)

    def test_reusing_one_seed_sequence_repeats_the_trial(self):
        """Neither engine advances the caller's seed sequence, and a fresh
        sequence still yields the trial ``run_trials`` derives from it."""
        config = standard_config(80, seed=23)
        seed_seq = np.random.SeedSequence(config.seed).spawn(1)[0]
        scalar = [run_flooding(config, seed_seq=seed_seq) for _ in range(2)]
        batch = [run_protocol_batch(config, [seed_seq])[0] for _ in range(2)]
        assert_results_match(scalar, batch)
        assert_results_match(scalar[:1], scalar[1:])
        assert_results_match(scalar[:1], run_trials(config, 1))


class TestConfigKnobs:
    def test_engine_validation(self):
        with pytest.raises(ValueError, match="engine"):
            standard_config(50, engine="warp")

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            standard_config(50, batch_size=-1)

    def test_defaults_are_scalar(self):
        config = standard_config(50)
        assert config.engine == "scalar"
        assert config.batch_size == 0

    def test_run_protocol_batch_requires_seed_seqs(self):
        config = standard_config(50)
        with pytest.raises(ValueError, match="seed_seqs"):
            run_protocol_batch(config, [])
