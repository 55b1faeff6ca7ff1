"""Seed-for-seed parity across neighbor paths, engines and kernel tiers.

The repo's core invariant: the neighbor paths (C kernels, cell cover,
tiled KD-tree or grid), scalar vs batch engine, and numpy vs compiled
kernels are *performance* choices — with fixed seeds every combination
must produce identical trial results, down to the informed-at step of
every agent, and must equal the independent flooding oracle of
``tests/protocol_oracles.py`` on each of its engines.  On the compiled
tier both engines answer the infection test with one C kernel, so the
``"numpy"`` arm is what runs the cell cover (frontier source pruning
included) and the multi-hop frontier end to end.
"""

import numpy as np
import pytest

from protocol_oracles import OracleFlooding, oracle_trials
from repro.geometry.neighbors import (
    BatchNeighborQuery,
    BruteForceNeighborEngine,
    available_backends,
)
from repro.kernels import use_kernel_tier
from repro.network.disk_graph import DiskGraph
from repro.protocols.flooding import BatchFloodingState, FloodingProtocol
from repro.simulation import run_trials, standard_config

KERNELS = ["numpy", "auto"]


def fingerprints(config, trials=4, run=run_trials):
    return [
        (
            r.flooding_time,
            r.completed,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
            r.cz_completion_time,
            r.suburb_completion_time,
        )
        for r in run(config, trials)
    ]


class TestStrategyParity:
    """Kernel tiers x engines x neighbor paths x oracle engines x mobility."""

    @pytest.mark.parametrize(
        "mobility,mobility_options",
        [
            ("mrwp", {}),
            ("rwp", {}),
            ("random-walk", {}),
            ("mrwp-pause", {"pause_time": 2.0}),
            ("mrwp-speed", {"v_min": 0.4, "v_max": 1.6}),
            ("random-direction", {}),
        ],
    )
    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_kernel_tier_is_invisible_in_results(self, mobility, mobility_options, engine):
        base = standard_config(
            90, seed=23, mobility=mobility,
            mobility_options=dict(mobility_options), engine=engine,
        )
        reference = fingerprints(base, run=oracle_trials)
        for kernels in KERNELS:
            got = fingerprints(base.with_options(kernels=kernels))
            assert got == reference, (mobility, engine, kernels)

    @pytest.mark.parametrize("backend", available_backends())
    def test_backends_agree_across_kernel_tiers(self, backend):
        """The oracle on each of its engines against both engines on both
        tiers."""
        base = standard_config(70, seed=31)
        reference = fingerprints(base, 3, lambda c, k: oracle_trials(c, k, backend))
        for engine in ("scalar", "batch"):
            for kernels in KERNELS:
                got = fingerprints(base.with_options(engine=engine, kernels=kernels), trials=3)
                assert got == reference, (backend, engine, kernels)

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_every_neighbor_path_matches_the_oracle(self, neighbor_path, engine):
        base = standard_config(70, seed=31, engine=engine)
        reference = fingerprints(base, 3, oracle_trials)
        assert fingerprints(base.with_options(kernels=neighbor_path), trials=3) == reference

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_multi_hop_frontier_parity(self, engine):
        """Multi-hop rounds send from the fresh frontier only: both tiers
        of each engine must match the oracle."""
        base = standard_config(80, seed=17, multi_hop=True, engine=engine)
        reference = fingerprints(base, run=oracle_trials)
        for kernels in KERNELS:
            assert fingerprints(base.with_options(kernels=kernels)) == reference, kernels

    def test_randomized_sweep_across_seeds(self):
        """Randomized workloads: every engine and kernel tier, many seeds."""
        for seed in (1, 7, 101):
            base = standard_config(60, seed=seed, radius_factor=1.2)
            reference = fingerprints(base, 3, oracle_trials)
            for engine in ("scalar", "batch"):
                for kernels in KERNELS:
                    config = base.with_options(engine=engine, kernels=kernels)
                    got = fingerprints(config, trials=3)
                    assert got == reference, (seed, engine, kernels)


class TestAdversarialStates:
    """Hand-built states that stress the kernels' boundary logic."""

    @staticmethod
    def batch_hits(positions, informed, radius, side):
        query = BatchNeighborQuery(side, informed.shape[0])
        return query.any_within(positions, informed, ~informed, radius)

    def test_near_complete_informed_set(self, rng, neighbor_path, brute_hits):
        """informed ~ n: the frontier-pruned source set is tiny, results
        must still match brute force."""
        batch, n, side, radius = 3, 200, 14.0, 1.5
        positions = rng.uniform(0, side, size=(batch, n, 2))
        informed = np.ones((batch, n), dtype=bool)
        informed[:, :3] = False  # three stragglers per replica
        got = self.batch_hits(positions, informed, radius, side)
        assert np.array_equal(got, brute_hits(positions, informed, ~informed, radius))

    def test_agents_on_cover_cell_boundaries(self, neighbor_path, brute_hits):
        """Sources sitting exactly on occupancy-cell edges."""
        side, radius = 10.0, 2.0
        cell = radius / BatchNeighborQuery._COVER_DIVISOR
        xs = np.arange(1, 9, dtype=np.float64) * cell
        n = xs.size + 2
        positions = np.zeros((1, n, 2))
        positions[0, : xs.size, 0] = xs  # sources exactly on cell edges
        positions[0, : xs.size, 1] = 5.0
        positions[0, -2] = [5.0, 5.0]
        positions[0, -1] = [5.0, 5.0 + radius]  # query exactly at distance R
        informed = np.zeros((1, n), dtype=bool)
        informed[0, :-1] = True
        got = self.batch_hits(positions, informed, radius, side)
        assert np.array_equal(got, brute_hits(positions, informed, ~informed, radius))
        assert got[0, -1]  # inclusive <= R

    def test_radius_comparable_to_cell_size(self, rng, neighbor_path, brute_hits):
        """Radius ~ grid cell: candidate blocks span multiple cells."""
        side = 12.0
        positions = rng.uniform(0, side, size=(2, 120, 2))
        informed = rng.uniform(size=(2, 120)) < 0.4
        for radius in (0.11, 0.5, 3.0):
            got = self.batch_hits(positions, informed, radius, side)
            expected = brute_hits(positions, informed, ~informed, radius)
            assert np.array_equal(got, expected), radius

    def test_scalar_protocol_with_external_informed_surgery(self, rng):
        """Writes to the view's informed row are the state's: after
        surgery that informs all but 2 agents, only those 2 can be newly
        informed."""
        n, side, radius = 120, 11.0, 1.4
        protocol = FloodingProtocol(n, side, radius, source=0)
        protocol.informed[:-2] = True  # external surgery: all but 2 informed
        positions = rng.uniform(0, side, size=(n, 2))
        newly = protocol.step(positions)
        assert set(newly) <= {n - 2, n - 1}
        assert np.array_equal(protocol.informed, protocol.state.informed[0])

    def test_scalar_protocol_with_count_preserving_surgery(self, rng):
        """Surgery that keeps the informed *count* but moves the bits
        steps like an oracle given the same informed set."""
        n, side, radius = 80, 9.0, 1.2
        positions = rng.uniform(0, side, size=(n, 2))
        protocol = FloodingProtocol(n, side, radius, source=0)
        protocol.step(positions)
        count = protocol.informed_count
        # Surgery: same count, entirely different agents.
        protocol.informed[:] = False
        protocol.informed[n - count:] = True
        newly = protocol.step(positions)
        reference = OracleFlooding(n, side, radius, source=n - 1)
        reference.informed[:] = False
        reference.informed[n - count:] = True
        expected = reference.step(positions)
        assert np.array_equal(np.sort(newly), np.sort(expected))

    @pytest.mark.parametrize("kernels", KERNELS)
    def test_multi_hop_round_saturates_components(self, rng, kernels):
        """One multi-hop round informs exactly the snapshot's disk-graph
        components that hold an informed agent, though every hop after the
        first sends from the fresh frontier only."""
        n, side, radius, batch = 160, 12.0, 1.1, 3
        positions = rng.uniform(0, side, size=(batch, n, 2))
        sources = np.array([0, 40, 159])
        state = BatchFloodingState(n, side, radius, sources, multi_hop=True)
        with use_kernel_tier(kernels):
            state.step(positions)
        brute = BruteForceNeighborEngine(side)
        for b in range(batch):
            labels = DiskGraph(positions[b], radius, side=side, engine=brute).component_labels()
            assert np.array_equal(state.informed[b], labels == labels[sources[b]]), b
            oracle = OracleFlooding(
                n, side, radius, source=int(sources[b]), multi_hop=True, backend="grid"
            )
            oracle.step(positions[b])
            assert np.array_equal(oracle.informed, state.informed[b]), b

    def test_batch_state_round_equals_scalar_round(self, rng):
        """One communication round, same positions: batch rows == the
        one-replica view == the oracle."""
        n, side, radius = 150, 12.0, 1.3
        batch = 4
        positions = rng.uniform(0, side, size=(batch, n, 2))
        sources = np.array([0, 5, 9, 149])
        for multi_hop in (False, True):
            state = BatchFloodingState(
                n, side, radius, sources, multi_hop=multi_hop
            )
            state.step(positions)
            for b in range(batch):
                for cls in (FloodingProtocol, OracleFlooding):
                    protocol = cls(
                        n, side, radius, source=int(sources[b]), multi_hop=multi_hop
                    )
                    protocol.step(positions[b])
                    label = (cls.__name__, b, multi_hop)
                    assert np.array_equal(state.informed[b], protocol.informed), label
                    assert np.array_equal(state.informed_at[b], protocol.informed_at), label
