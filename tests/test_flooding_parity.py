"""Seed-for-seed parity across neighbor backends, engines and kernel tiers.

The repo's core invariant: grid vs KD-tree vs cell cover, scalar vs batch
engine, and numpy vs compiled kernels are *performance* choices — with
fixed seeds every combination must produce identical trial results, down
to the informed-at step of every agent.  On the compiled tier the batch
engine answers the infection test with one C kernel, so the ``"numpy"``
arm is what runs the cell cover (frontier source pruning included) and
the multi-hop frontier end to end.
"""

import numpy as np
import pytest

from repro.geometry.neighbors import (
    BatchNeighborQuery,
    BruteForceNeighborEngine,
    available_backends,
)
from repro.kernels import use_kernel_tier
from repro.network.union_find import components_from_edges
from repro.protocols.flooding import BatchFloodingState, FloodingProtocol
from repro.simulation import run_trials, standard_config

KERNELS = ["numpy", "auto"]


def fingerprints(config, trials=4):
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
        for r in run_trials(config, trials)
    ]


class TestStrategyParity:
    """Kernel tiers x engines x backends x mobility."""

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
        reference = fingerprints(base.with_options(kernels="numpy"))
        assert fingerprints(base.with_options(kernels="auto")) == reference, (mobility, engine)

    @pytest.mark.parametrize("backend", available_backends())
    def test_backends_agree_across_kernel_tiers(self, backend):
        reference = None
        for engine in ("scalar", "batch"):
            for kernels in KERNELS:
                config = standard_config(
                    70, seed=31, backend=backend, engine=engine, kernels=kernels
                )
                got = fingerprints(config, trials=3)
                if reference is None:
                    reference = got
                assert got == reference, (backend, engine, kernels)

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_multi_hop_frontier_parity(self, engine):
        """Multi-hop rounds send from the fresh frontier only: both tiers
        of each engine must match the scalar numpy run."""
        base = standard_config(80, seed=17, multi_hop=True, engine=engine)
        reference = fingerprints(base.with_options(engine="scalar", kernels="numpy"))
        for kernels in KERNELS:
            assert fingerprints(base.with_options(kernels=kernels)) == reference, kernels

    def test_randomized_sweep_across_seeds(self):
        """Randomized workloads: every engine and kernel tier, many seeds."""
        for seed in (1, 7, 101):
            reference = None
            for engine in ("scalar", "batch"):
                for kernels in KERNELS:
                    config = standard_config(
                        60,
                        seed=seed,
                        radius_factor=1.2,
                        engine=engine,
                        kernels=kernels,
                    )
                    got = fingerprints(config, trials=3)
                    if reference is None:
                        reference = got
                    assert got == reference, (seed, engine, kernels)


class TestAdversarialStates:
    """Hand-built states that stress the kernels' boundary logic."""

    def batch_hits(self, positions, informed, radius, side, **query_options):
        batch, n = informed.shape
        query = BatchNeighborQuery(side, batch, **query_options)
        return query.any_within(positions, informed, ~informed, radius)

    def test_near_complete_informed_set(self, rng):
        """informed ~ n: the frontier-pruned source set is tiny, results
        must still match brute force."""
        batch, n, side, radius = 3, 200, 14.0, 1.5
        positions = rng.uniform(0, side, size=(batch, n, 2))
        informed = np.ones((batch, n), dtype=bool)
        informed[:, :3] = False  # three stragglers per replica
        got = self.batch_hits(positions, informed, radius, side)
        brute = self.batch_hits(positions, informed, radius, side, backend="brute")
        assert np.array_equal(got, brute)

    def test_agents_on_cover_cell_boundaries(self):
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
        brute = self.batch_hits(positions, informed, radius, side, backend="brute")
        assert np.array_equal(got, brute)
        assert got[0, -1]  # inclusive <= R

    def test_radius_comparable_to_cell_size(self, rng):
        """Radius ~ grid cell: candidate blocks span multiple cells."""
        side = 12.0
        positions = rng.uniform(0, side, size=(2, 120, 2))
        informed = rng.uniform(size=(2, 120)) < 0.4
        for radius in (0.11, 0.5, 3.0):
            got = self.batch_hits(positions, informed, radius, side)
            brute = self.batch_hits(positions, informed, radius, side, backend="brute")
            assert np.array_equal(got, brute), radius

    def test_scalar_protocol_with_external_informed_surgery(self, rng):
        """The incremental index lists must resync when the informed mask
        is mutated behind the protocol's back (near-complete case)."""
        n, side, radius = 120, 11.0, 1.4
        protocol = FloodingProtocol(n, side, radius, source=0)
        protocol.informed[:-2] = True  # external surgery: all but 2 informed
        positions = rng.uniform(0, side, size=(n, 2))
        newly = protocol.step(positions)
        expected_uninformed = np.nonzero(~protocol.informed)[0]
        assert set(newly) <= {n - 2, n - 1}
        assert protocol._uninformed_idx.size == expected_uninformed.size

    def test_scalar_protocol_with_count_preserving_surgery(self, rng):
        """Surgery that keeps the informed *count* but moves the bits must
        also resync the incremental index lists (membership scan)."""
        n, side, radius = 80, 9.0, 1.2
        positions = rng.uniform(0, side, size=(n, 2))
        protocol = FloodingProtocol(n, side, radius, source=0)
        protocol.step(positions)  # populate the cached lists
        count = protocol.informed_count
        # Surgery: same count, entirely different agents.
        protocol.informed[:] = False
        protocol.informed[n - count:] = True
        newly = protocol.step(positions)
        reference = FloodingProtocol(n, side, radius, source=n - 1)
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
            labels = components_from_edges(n, brute.pairs_within(positions[b], radius))
            assert np.array_equal(state.informed[b], labels == labels[sources[b]]), b
            protocol = FloodingProtocol(
                n, side, radius, source=int(sources[b]), multi_hop=True, backend="grid"
            )
            protocol.step(positions[b])
            assert np.array_equal(protocol.informed, state.informed[b]), b

    def test_batch_state_round_equals_scalar_round(self, rng):
        """One communication round, same positions: batch rows == scalar."""
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
                protocol = FloodingProtocol(
                    n, side, radius, source=int(sources[b]), multi_hop=multi_hop
                )
                protocol.step(positions[b])
                assert np.array_equal(state.informed[b], protocol.informed), (b, multi_hop)
                assert np.array_equal(state.informed_at[b], protocol.informed_at), (b, multi_hop)
