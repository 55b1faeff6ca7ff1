"""Integration tests: cross-validation of independent implementations.

The flooding *protocol* driver and a brute-force temporal BFS over the
recorded position frames are two separate code paths computing the same
quantity, on every neighbor path of the batch query; the paper's
structural bounds must hold on real runs.  These tests wire whole
subsystems together.
"""

import math

import numpy as np
import pytest

from repro.core import theory
from repro.kernels import use_kernel_tier
from repro.mobility.base import record_trajectory
from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.protocols.flooding import BatchFloodingState, FloodingProtocol
from repro.simulation.config import FloodingConfig, standard_config
from repro.simulation.rng import child_seeds
from repro.simulation.runner import build_model, run_flooding

SIDE = 20.0
N = 300

#: One option set per registered mobility model.  The ferry inset keeps
#: evenly spaced collinear ferries off float-exact distance R, a tie on
#: which engines may legitimately disagree with a ``d² <= R²`` scan.
MOBILITY_CASES = [
    ("mrwp", {}),
    ("mrwp-pause", {"pause_time": 2.5}),
    ("mrwp-speed", {"v_min": 0.3, "v_max": 1.1}),
    ("rwp", {}),
    ("random-walk", {}),
    ("random-direction", {}),
    ("ferry", {"inset": 1.9}),
    ("composite", {"ferries": 3}),
    ("timetable", {"riders": 40, "dwell": 2.0, "capacity": 3}),
]


def _reference_informed_times(frames, radius, source, multi_hop):
    """Earliest informed step of every agent, by a brute-force temporal BFS.

    Each step compares the full ``d² <= R²`` distance matrix of its frame,
    so no neighbor engine is involved.  The message advances one hop per
    step, or through whole components of the step's disk graph when
    ``multi_hop``.  Agents never reached keep ``inf``.
    """
    times = np.full(frames.shape[1], np.inf)
    times[source] = 0.0
    for t in range(1, frames.shape[0]):
        diff = frames[t][:, None, :] - frames[t][None, :, :]
        adjacent = np.sum(diff * diff, axis=-1) <= radius * radius
        while True:
            informed = np.isfinite(times)
            newly = ~informed & adjacent[:, informed].any(axis=1)
            if not newly.any():
                break
            times[newly] = t
            if not multi_hop:
                break
    return times


def _mrwp_frames(seed, steps=60):
    model = ManhattanRandomWaypoint(N, SIDE, 0.4, rng=np.random.default_rng(seed))
    return record_trajectory(model, steps)


def _assert_runs_match_reference(config, results):
    """Each trial's coverage curve equals the reference BFS over a re-recorded
    copy of its trajectory (same mobility seed stream as the runners)."""
    children = np.random.SeedSequence(config.seed).spawn(len(results))
    for child, result in zip(children, results):
        mobility_ss = child_seeds(child, 3)[0]
        model = build_model(config, np.random.default_rng(mobility_ss))
        frames = record_trajectory(model, result.n_steps)
        times = _reference_informed_times(
            frames, config.radius, result.source, config.multi_hop
        )
        expected = [int(np.count_nonzero(times <= t)) for t in range(result.n_steps + 1)]
        assert np.asarray(result.informed_history).tolist() == expected
        assert result.completed == bool(np.isfinite(times).all())
        assert result.flooding_time == (times.max() if result.completed else math.inf)


class TestReferenceBfs:
    """The reference itself, on a static line of agents spaced exactly R
    plus one agent out of everyone's range."""

    @pytest.mark.parametrize("multi_hop", [False, True])
    def test_static_line(self, multi_hop):
        line = np.array([[x, 0.0] for x in range(5)] + [[9.0, 5.0]])
        frames = np.repeat(line[None], 6, axis=0)
        times = _reference_informed_times(frames, 1.0, 0, multi_hop)
        expected = [0, 1, 1, 1, 1] if multi_hop else [0, 1, 2, 3, 4]
        assert times.tolist() == expected + [math.inf]


class TestFloodingEqualsTemporalBfs:
    """Replaying recorded frames through the protocol must give exactly
    the per-agent informed times of the reference temporal BFS."""

    @pytest.mark.parametrize("multi_hop", [False, True])
    def test_equivalence(self, multi_hop):
        frames = _mrwp_frames(3)
        source = 5

        bfs_times = _reference_informed_times(frames, 2.2, source, multi_hop)

        protocol = FloodingProtocol(N, SIDE, 2.2, source, multi_hop=multi_hop)
        for positions in frames[1:]:
            protocol.step(positions)
        protocol_times = protocol.informed_at

        finite = np.isfinite(bfs_times)
        assert np.array_equal(finite, np.isfinite(protocol_times))
        assert np.allclose(bfs_times[finite], protocol_times[finite])

    @pytest.mark.parametrize("multi_hop", [False, True])
    def test_equivalence_on_every_neighbor_path(self, neighbor_path, multi_hop):
        frames = _mrwp_frames(12)
        protocol = FloodingProtocol(N, SIDE, 2.2, 5, multi_hop=multi_hop)
        for positions in frames[1:]:
            protocol.step(positions)
        reference = _reference_informed_times(frames, 2.2, 5, multi_hop)
        assert np.array_equal(protocol.informed_at, reference)

    @pytest.mark.parametrize("multi_hop", [False, True])
    def test_batch_state_equals_reference(self, neighbor_path, multi_hop):
        """Every replica of a lock-step batch matches its own reference."""
        sources = [5, 0, 123]
        frames = np.stack([_mrwp_frames(20 + b) for b in range(len(sources))], axis=1)
        state = BatchFloodingState(N, SIDE, 2.2, sources, multi_hop=multi_hop)
        for positions in frames[1:]:
            state.step(positions)
        for b, source in enumerate(sources):
            reference = _reference_informed_times(frames[:, b], 2.2, source, multi_hop)
            assert np.array_equal(state.informed_at[b], reference)

    @pytest.mark.parametrize("multi_hop", [False, True])
    def test_batch_state_on_the_compiled_tier(self, multi_hop):
        """The default batch query under the ``auto`` kernel tier, which runs
        the compiled pair kernels where a provider builds."""
        sources = [7, 250]
        frames = np.stack([_mrwp_frames(30 + b) for b in range(len(sources))], axis=1)
        state = BatchFloodingState(N, SIDE, 2.2, sources, multi_hop=multi_hop)
        with use_kernel_tier("auto"):
            for positions in frames[1:]:
                state.step(positions)
        for b, source in enumerate(sources):
            reference = _reference_informed_times(frames[:, b], 2.2, source, multi_hop)
            assert np.array_equal(state.informed_at[b], reference)


class TestRunsMatchReference:
    """Whole trials through the scalar and batch runners, under every
    registered mobility model."""

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    @pytest.mark.parametrize("mobility,options", MOBILITY_CASES)
    def test_every_mobility_model(self, mobility, options, engine, hand_loop):
        config = FloodingConfig(
            n=60, side=9.0, radius=1.6, speed=0.6, max_steps=150, seed=19,
            mobility=mobility, mobility_options=dict(options), engine=engine,
        )
        _assert_runs_match_reference(config, hand_loop(config, 2))

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_multi_hop(self, engine, hand_loop):
        config = standard_config(80, radius_factor=1.2, seed=29, multi_hop=True, engine=engine)
        _assert_runs_match_reference(config, hand_loop(config, 3))


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
        frames = _mrwp_frames(6, steps=50)
        protocol = FloodingProtocol(N, SIDE, 2.0, 0)
        for positions in frames[1:]:
            protocol.step(positions)
        times = protocol.informed_at
        for t in range(1, frames.shape[0]):
            newly = np.nonzero(times == t)[0]
            earlier = np.nonzero(times < t)[0]
            if newly.size == 0:
                continue
            positions = frames[t]
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
