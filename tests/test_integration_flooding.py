"""Integration tests: cross-validation of independent implementations.

The flooding *protocol* driver and the evolving-graph *temporal BFS* are
two separate code paths computing the same quantity; the neighbor-engine
backends are interchangeable; the paper's structural bounds must hold on
real runs.  These tests wire whole subsystems together.
"""

import math

import numpy as np
import pytest

from repro.core import theory
from repro.geometry.neighbors import available_backends
from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.network.evolving import temporal_bfs
from repro.network.snapshots import SnapshotSeries
from repro.protocols.flooding import FloodingProtocol
from repro.simulation.config import FloodingConfig, standard_config
from repro.simulation.runner import run_flooding

SIDE = 20.0
N = 300


class TestFloodingEqualsTemporalBfs:
    """Replaying recorded snapshots through the protocol must give exactly
    the per-agent informed times of the temporal BFS."""

    @pytest.mark.parametrize("multi_hop", [False, True])
    def test_equivalence(self, multi_hop):
        model = ManhattanRandomWaypoint(N, SIDE, 0.4, rng=np.random.default_rng(3))
        series = SnapshotSeries.record(model, 60, radius=2.2)
        source = 5

        bfs_times = temporal_bfs(series, source, multi_hop=multi_hop)

        protocol = FloodingProtocol(N, SIDE, 2.2, source, multi_hop=multi_hop)
        for t in range(1, series.n_steps + 1):
            protocol.step(series.positions_at(t))
        protocol_times = protocol.informed_at

        finite = np.isfinite(bfs_times)
        assert np.array_equal(finite, np.isfinite(protocol_times))
        assert np.allclose(bfs_times[finite], protocol_times[finite])


class TestBackendEquivalence:
    def test_flooding_identical_across_backends(self):
        model = ManhattanRandomWaypoint(N, SIDE, 0.4, rng=np.random.default_rng(4))
        series = SnapshotSeries.record(model, 40, radius=2.0)
        results = {}
        for backend in available_backends():
            protocol = FloodingProtocol(N, SIDE, 2.0, 0, backend=backend)
            for t in range(1, series.n_steps + 1):
                protocol.step(series.positions_at(t))
            results[backend] = protocol.informed_at.copy()
        reference = results.popitem()[1]
        for times in results.values():
            finite = np.isfinite(reference)
            assert np.array_equal(finite, np.isfinite(times))
            assert np.allclose(reference[finite], times[finite])


class TestPaperStructuralBounds:
    def test_flooding_respects_geometric_lower_bound(self):
        """Information travels at most R + 2v per step: the measured time
        must exceed distance/(R + 2v) for the farthest initial agent."""
        config = FloodingConfig(
            n=N, side=SIDE, radius=2.0, speed=0.3, max_steps=2000, source=0, seed=5
        )
        # Build by hand to capture initial positions.
        from repro.simulation.runner import build_model, build_protocol

        root = np.random.SeedSequence(config.seed)
        mob_ss, proto_ss, _src = root.spawn(3)
        model = build_model(config, np.random.default_rng(mob_ss))
        positions0 = model.positions
        protocol = build_protocol(config, 0, np.random.default_rng(proto_ss))
        steps = 0
        while not protocol.is_complete() and steps < config.max_steps:
            protocol.step(model.step())
            steps += 1
        assert protocol.is_complete()
        farthest = float(np.max(np.linalg.norm(positions0 - positions0[0], axis=1)))
        lower = theory.geometric_lower_bound(farthest, config.radius, config.speed)
        assert steps >= math.floor(lower)

    def test_informed_times_one_hop_feasible(self):
        """Every newly informed agent had an informed neighbor that step."""
        model = ManhattanRandomWaypoint(N, SIDE, 0.4, rng=np.random.default_rng(6))
        series = SnapshotSeries.record(model, 50, radius=2.0)
        protocol = FloodingProtocol(N, SIDE, 2.0, 0)
        for t in range(1, series.n_steps + 1):
            protocol.step(series.positions_at(t))
        times = protocol.informed_at
        for t in range(1, series.n_steps + 1):
            newly = np.nonzero(times == t)[0]
            earlier = np.nonzero(times < t)[0]
            if newly.size == 0:
                continue
            positions = series.positions_at(t)
            dists = np.linalg.norm(
                positions[newly][:, None] - positions[earlier][None, :], axis=2
            )
            assert np.all(dists.min(axis=1) <= 2.0 + 1e-9)

    def test_multi_hop_never_slower(self):
        base = FloodingConfig(n=N, side=SIDE, radius=1.4, speed=0.3, max_steps=2000, seed=7)
        single = run_flooding(base)
        multi = run_flooding(base.with_options(multi_hop=True))
        assert multi.flooding_time <= single.flooding_time

    def test_larger_radius_never_slower_same_mobility(self):
        """With identical seeds (same trajectories), growing R cannot hurt."""
        base = FloodingConfig(n=N, side=SIDE, radius=1.5, speed=0.3, max_steps=2000, seed=8)
        small = run_flooding(base)
        large = run_flooding(base.with_options(radius=3.0))
        assert large.flooding_time <= small.flooding_time

    def test_cor12_regime_end_to_end(self):
        """Above the large-R threshold: no suburb, flooding under 18 L/R."""
        n = 500
        side = math.sqrt(n)
        radius = 1.1 * theory.large_radius_threshold(n, side)
        config = FloodingConfig(
            n=n, side=side, radius=radius, speed=theory.speed_assumption_max(radius),
            max_steps=1000, seed=9,
        )
        result = run_flooding(config)
        assert result.completed
        assert result.flooding_time <= theory.cz_flooding_bound(side, radius)


class TestSourcePlacementCases:
    """Theorem 3 proves both source cases; both must complete."""

    @pytest.mark.parametrize("source_mode", ["central", "suburb", "uniform"])
    def test_completes_from_any_source(self, source_mode):
        config = standard_config(
            800, radius_factor=1.4, speed_fraction=0.25, source=source_mode,
            max_steps=5000, seed=10,
        )
        result = run_flooding(config)
        assert result.completed

    @pytest.mark.parametrize("options", [{"init": "uniform"}, {"multi_hop": True}])
    def test_completes_from_cold_start_and_multi_hop(self, options):
        config = standard_config(
            800, radius_factor=1.4, speed_fraction=0.25, max_steps=5000, seed=10,
            **options,
        )
        assert run_flooding(config).completed

    def test_suburb_source_slower_or_equal_on_average(self):
        central = standard_config(
            800, radius_factor=1.3, source="central", max_steps=5000, seed=11
        )
        suburb = standard_config(
            800, radius_factor=1.3, source="suburb", max_steps=5000, seed=11
        )
        from repro.simulation.runner import run_trials

        c_times = [r.flooding_time for r in run_trials(central, 4)]
        s_times = [r.flooding_time for r in run_trials(suburb, 4)]
        assert np.mean(s_times) >= np.mean(c_times) * 0.7
